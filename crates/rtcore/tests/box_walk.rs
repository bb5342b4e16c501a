//! The box walk (`Bvh4::walk_box` through `Gas` and `Ias`) against a
//! brute-force filter: it reports exactly the primitives whose box
//! intersects the query box (closed), each once.

use std::sync::Arc;

use geom::{Coord, Point, Rect, Srt};
use rtcore::{BuildOptions, BuildQuality, Gas, Ias, Instance};

/// Seeded LCG in `[0, 1)`.
fn rng(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `n` flat boxes (z = 0) on a 1/8 grid of `[0, 100)²`, so that many
/// share edges with each other and with grid-aligned query boxes; every
/// fifth is degenerated, as a delete leaves it.
fn flat_boxes<C: Coord>(n: usize, seed: u64) -> Vec<Rect<C, 3>> {
    let mut next = rng(seed);
    let snap = |v: f64| C::from_f64((v * 8.0).floor() / 8.0);
    (0..n)
        .map(|i| {
            let (x, y) = (next() * 100.0, next() * 100.0);
            let (w, h) = (next() * 6.0, next() * 6.0);
            let b = Rect::xyzxyz(snap(x), snap(y), C::ZERO, snap(x + w), snap(y + h), C::ZERO);
            if i % 5 == 4 {
                b.degenerated()
            } else {
                b
            }
        })
        .collect()
}

/// Grid-aligned query boxes of every size, from a point to the whole
/// map, lifted either to z = 0 or to the whole z range.
fn query_boxes<C: Coord>(seed: u64) -> Vec<Rect<C, 3>> {
    let mut next = rng(seed);
    let snap = |v: f64| C::from_f64((v * 8.0).floor() / 8.0);
    let mut out = Vec::new();
    for i in 0..48 {
        let size = [0.0, 0.5, 5.0, 30.0, 80.0, 200.0][i % 6];
        let (x, y) = (next() * 110.0 - 10.0, next() * 110.0 - 10.0);
        let (zlo, zhi) = if i % 2 == 0 {
            (C::ZERO, C::ZERO)
        } else {
            (C::MIN, C::MAX)
        };
        out.push(Rect::xyzxyz(
            snap(x),
            snap(y),
            zlo,
            snap(x + size),
            snap(y + size),
            zhi,
        ));
    }
    out
}

fn brute<C: Coord>(boxes: &[Rect<C, 3>], b: &Rect<C, 3>) -> Vec<u32> {
    (0u32..)
        .zip(boxes)
        .filter(|(_, r)| r.intersects(b))
        .map(|(i, _)| i)
        .collect()
}

fn walked<C: Coord>(gas: &Gas<C>, b: &Rect<C, 3>) -> Vec<u32> {
    let mut got = Vec::new();
    gas.walk_box(b, |prims| got.extend_from_slice(prims));
    got.sort_unstable();
    got
}

fn check_gas<C: Coord>(boxes: Vec<Rect<C, 3>>, leaf_size: usize, quality: BuildQuality) {
    let opts = BuildOptions {
        leaf_size,
        quality,
        ..Default::default()
    };
    let gas = Gas::build(boxes.clone(), opts).unwrap();
    gas.wide().validate(&boxes).unwrap();
    let mut nonempty = 0;
    for b in query_boxes::<C>(boxes.len() as u64 + leaf_size as u64) {
        let want = brute(&boxes, &b);
        let got = walked(&gas, &b);
        assert_eq!(got, want, "n {} leaf {leaf_size} box {b:?}", boxes.len());
        nonempty += usize::from(!want.is_empty());
    }
    if boxes.len() > 100 {
        assert!(nonempty > 10, "queries must hit something");
    }
}

#[test]
fn gas_walk_equals_brute_force() {
    for leaf in [1usize, 4, 8] {
        for quality in [BuildQuality::PreferFastTrace, BuildQuality::PreferFastBuild] {
            for n in [0usize, 1, 3, 9, 300, 2000] {
                check_gas(flat_boxes::<f32>(n, 11 + n as u64), leaf, quality);
            }
        }
    }
}

#[test]
fn gas_walk_equals_brute_force_f64() {
    for leaf in [1usize, 4, 8] {
        for n in [1usize, 17, 1500] {
            check_gas(flat_boxes::<f64>(n, 5 + n as u64), leaf, Default::default());
        }
    }
}

#[test]
fn touching_edges_are_reported() {
    // The test is closed: a box sharing only an edge or a corner with
    // the query box intersects it, and one an ulp away does not.
    let boxes = vec![
        Rect::xyzxyz(0.0f32, 0.0, 0.0, 1.0, 1.0, 0.0),
        Rect::xyzxyz(1.0f32, 1.0, 0.0, 2.0, 2.0, 0.0),
        Rect::xyzxyz(2.0f32, 0.0, 0.0, 3.0, 1.0, 0.0),
        Rect::xyzxyz(0.5f32, 0.5, 0.0, 0.5, 0.5, 0.0), // degenerate, inside
    ];
    let gas = Gas::build(boxes, BuildOptions::default()).unwrap();
    let at = |x0: f32, x1: f32| Rect::xyzxyz(x0, 1.0, 0.0, x1, 1.0, 0.0);
    assert_eq!(walked(&gas, &at(1.0, 1.0)), vec![0, 1]);
    assert_eq!(walked(&gas, &at(1.0, 2.0)), vec![0, 1, 2]);
    assert_eq!(
        walked(&gas, &at(1.0f32.next_up(), 2.0f32.next_down())),
        vec![1]
    );
    let whole = Rect::xyzxyz(0.0f32, 0.0, 0.0, 3.0, 2.0, 0.0);
    assert_eq!(walked(&gas, &whole), vec![0, 1, 2, 3]);
    assert_eq!(walked(&gas, &Rect::empty()), Vec::<u32>::new());
}

#[test]
fn inside_slots_emit_whole_ranges() {
    // A box that covers everything is answered by the root's slots alone:
    // a handful of slices, none of them a per-box test.
    let boxes = flat_boxes::<f32>(4096, 3);
    let gas = Gas::build(boxes, BuildOptions::default()).unwrap();
    let all = Rect::xyzxyz(-1.0f32, -1.0, f32::MIN, 200.0, 200.0, f32::MAX);
    let mut slices = 0;
    let mut prims = 0;
    gas.walk_box(&all, |p| {
        slices += 1;
        prims += p.len();
    });
    assert_eq!(prims, 4096);
    assert!(slices <= 4, "{slices} slices");
}

#[test]
fn ias_walk_equals_brute_force_over_batches() {
    // Several GASes (one empty, one invisible, one translated) under one
    // IAS; the walk reports (instance id, prim) exactly for the visible
    // instances whose world-space boxes touch the query box.
    let batches: Vec<Vec<Rect<f32, 3>>> = (0..6)
        .map(|b| flat_boxes::<f32>([500, 0, 64, 1, 900, 300][b], 40 + b as u64))
        .collect();
    let shift = Srt::translation(Point::xyz(50.0f32, 0.0, 0.0));
    let instances: Vec<Instance<f32>> = batches
        .iter()
        .enumerate()
        .map(|(b, boxes)| {
            let gas = Arc::new(Gas::build(boxes.clone(), BuildOptions::default()).unwrap());
            let mut inst = Instance::identity(gas, 100 + b as u32);
            if b == 3 {
                inst.visible = false;
            }
            if b == 5 {
                inst.transform = shift;
            }
            inst
        })
        .collect();
    let ias = Ias::build(&instances).unwrap();
    for q in query_boxes::<f32>(9) {
        let mut want = Vec::new();
        for (b, boxes) in batches.iter().enumerate() {
            if b == 3 {
                continue;
            }
            let world: Vec<Rect<f32, 3>> = boxes
                .iter()
                .map(|r| if b == 5 { shift.apply_aabb(r) } else { *r })
                .collect();
            want.extend(brute(&world, &q).into_iter().map(|p| (100 + b as u32, p)));
        }
        want.sort_unstable();
        let mut got = Vec::new();
        ias.walk_box(&q, |id, prims| got.extend(prims.iter().map(|&p| (id, p))));
        got.sort_unstable();
        assert_eq!(got, want, "box {q:?}");
    }
}
