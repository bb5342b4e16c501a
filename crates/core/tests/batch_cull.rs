//! The Range-Intersects cull: only the live rectangles that touch the
//! batch's box B (the union of its valid queries) cast backward rays.
//! The cull is exact, so every check here compares with brute force:
//! partial batches over a multi-GAS index through deletes (the extreme
//! rectangles included), updates, compaction and maintenance; the cast
//! count EXPLAIN reports; a GAS outside B changing nothing; the 3-D
//! centre-probe pass; and the index's maintained live bounds.

use geom::Rect;
use librts::{
    CollectingHandler, CountingHandler, IndexOptions, MaintenancePolicy, MulticastConfig,
    MulticastMode, Predicate, RTSIndex, RTSIndex3,
};

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> f32 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) as f64 / 2f64.powi(31)) as f32
    }
}

fn rects(n: usize, seed: u64, lo: f32, world: f32, ext: f32) -> Vec<Rect<f32, 2>> {
    let mut rng = Lcg(seed);
    (0..n)
        .map(|_| {
            let (x, y) = (lo + rng.next() * world, lo + rng.next() * world);
            Rect::xyxy(
                x,
                y,
                x + rng.next() * ext + 0.01,
                y + rng.next() * ext + 0.01,
            )
        })
        .collect()
}

fn union(rs: impl IntoIterator<Item = Rect<f32, 2>>) -> Rect<f32, 2> {
    rs.into_iter().fold(Rect::empty(), |b, r| b.union(&r))
}

/// The index as the test sees it: `model[id]` is the live rectangle
/// under `id`, `None` once deleted.
struct Model(Vec<Option<Rect<f32, 2>>>);

impl Model {
    fn live(&self) -> impl Iterator<Item = (u32, Rect<f32, 2>)> + '_ {
        (0u32..).zip(&self.0).filter_map(|(i, r)| r.map(|r| (i, r)))
    }

    fn pairs(&self, qs: &[Rect<f32, 2>]) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for (id, r) in self.live() {
            for (qi, q) in (0u32..).zip(qs) {
                if r.intersects(q) {
                    out.push((id, qi));
                }
            }
        }
        out
    }

    /// Live rectangles touching the box of `qs`: what the backward pass
    /// must cast.
    fn touching(&self, qs: &[Rect<f32, 2>]) -> u64 {
        let b = union(qs.iter().copied());
        self.live().filter(|(_, r)| r.intersects(&b)).count() as u64
    }
}

fn auto() -> IndexOptions {
    IndexOptions {
        multicast: MulticastConfig {
            mode: MulticastMode::Auto,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Batches covering part of the data: a window, a corner that holds the
/// extreme rectangles, a thin strip, a batch beside the data that
/// touches nothing, and one over everything.
fn batches() -> Vec<Vec<Rect<f32, 2>>> {
    vec![
        rects(40, 71, 300.0, 250.0, 30.0),
        rects(25, 72, -20.0, 120.0, 15.0),
        rects(10, 73, 0.0, 1000.0, 2.0)
            .into_iter()
            .map(|r| Rect::xyxy(r.min.x(), 500.0, r.max.x(), 505.0))
            .collect(),
        rects(12, 74, 5000.0, 300.0, 20.0),
        rects(30, 75, -50.0, 1100.0, 60.0),
    ]
}

/// Every batch returns the brute-force pairs, EXPLAIN casts exactly the
/// live rectangles touching its box, and the maintained bounds are the
/// union of the live rectangles.
fn check(index: &RTSIndex<f32>, model: &Model, step: &str) {
    assert_eq!(
        index.bounds(),
        union(model.live().map(|(_, r)| r)),
        "{step}: live bounds"
    );
    let mut partial = 0;
    for qs in batches() {
        let want = model.pairs(&qs);
        let got = index.collect_range_query(Predicate::Intersects, &qs);
        assert_eq!(got, want, "{step}: pairs");
        let plan = index.explain_intersects(&qs, &CountingHandler::new());
        assert_eq!(plan.live, index.len() as u64, "{step}: live");
        assert_eq!(plan.cast, model.touching(&qs), "{step}: cast");
        partial += usize::from(plan.cast < plan.live);
    }
    assert!(partial >= 3, "{step}: batches must cover part of the data");
}

#[test]
fn partial_batches_match_brute_force_through_the_lifecycle() {
    for opts in [IndexOptions::default(), auto()] {
        let mut index = RTSIndex::<f32>::new(opts);
        let mut model = Model(Vec::new());
        for b in 0..6 {
            let batch = rects(300, 10 + b, 0.0, 1000.0, 25.0);
            index.insert(&batch).unwrap();
            model.0.extend(batch.into_iter().map(Some));
        }
        assert_eq!(index.batch_count(), 6);
        check(&index, &model, "insert");

        // Delete the rectangles that attain each side of the bounds, then
        // a stride of others.
        let b = index.bounds();
        let mut extremes: Vec<u32> = model
            .live()
            .filter(|(_, r)| {
                r.min.x() == b.min.x()
                    || r.min.y() == b.min.y()
                    || r.max.x() == b.max.x()
                    || r.max.y() == b.max.y()
            })
            .map(|(id, _)| id)
            .collect();
        extremes.sort_unstable();
        extremes.dedup();
        assert!(!extremes.is_empty());
        index.delete(&extremes).unwrap();
        for &id in &extremes {
            model.0[id as usize] = None;
        }
        assert_ne!(
            index.bounds(),
            b,
            "deleting the extremes shrinks the bounds"
        );
        check(&index, &model, "delete extremes");
        let stride: Vec<u32> = model.live().map(|(id, _)| id).step_by(7).collect();
        index.delete(&stride).unwrap();
        for &id in &stride {
            model.0[id as usize] = None;
        }
        check(&index, &model, "delete stride");

        // Move some rectangles inward, one outward past the bounds, and
        // the current extremes inward.
        let b = index.bounds();
        let mut moves: Vec<(u32, Rect<f32, 2>)> = model
            .live()
            .filter(|(_, r)| r.min.x() == b.min.x() || r.max.y() == b.max.y())
            .map(|(id, _)| (id, Rect::xyxy(400.0, 400.0, 410.0, 410.0)))
            .collect();
        let others: Vec<u32> = model.live().map(|(id, _)| id).skip(3).step_by(11).collect();
        for (i, id) in others.into_iter().enumerate() {
            if moves.iter().all(|&(m, _)| m != id) {
                let x = 100.0 + i as f32 * 3.0;
                moves.push((id, Rect::xyxy(x, 320.0, x + 5.0, 330.0)));
            }
        }
        moves[1].1 = Rect::xyxy(1200.0, -90.0, 1210.0, -80.0);
        let (ids, to): (Vec<u32>, Vec<Rect<f32, 2>>) = moves.into_iter().unzip();
        index.update(&ids, &to).unwrap();
        for (&id, r) in ids.iter().zip(&to) {
            model.0[id as usize] = Some(*r);
        }
        check(&index, &model, "update");

        // Maintenance: an eager policy repacks the fragmented,
        // part-deleted index without moving ids.
        let policy = MaintenancePolicy {
            max_batches: 2,
            target_batch_size: 512,
            ..MaintenancePolicy::eager()
        };
        assert!(index.maintain(&policy).compacted);
        check(&index, &model, "maintain");

        // Compaction remaps ids.
        let remap = index.compact();
        let mut compacted = vec![None; index.len()];
        for (old, r) in model.live() {
            compacted[remap[old as usize] as usize] = Some(r);
        }
        model = Model(compacted);
        check(&index, &model, "compact");

        // Deleting everything leaves empty bounds and casts nothing.
        let all: Vec<u32> = model.live().map(|(id, _)| id).collect();
        index.delete(&all).unwrap();
        assert!(index.bounds().is_empty());
        assert!(index
            .collect_range_query(Predicate::Intersects, &batches()[0])
            .is_empty());
    }
}

#[test]
fn a_gas_outside_the_batch_box_changes_nothing() {
    // Metamorphic: a batch of rectangles beside the batch's box adds a
    // GAS that touches no query, so neither the pairs nor the backward
    // rays may change — the cast is O(candidates), not O(N).
    let data = rects(2000, 3, 0.0, 1000.0, 20.0);
    let qs = rects(50, 4, 200.0, 300.0, 40.0);
    let far = rects(1500, 5, 3000.0, 1000.0, 20.0);
    let base = RTSIndex::with_rects(&data, IndexOptions::default()).unwrap();
    let mut grown = RTSIndex::with_rects(&data, IndexOptions::default()).unwrap();
    grown.insert(&far).unwrap();
    for k in [None, Some(3)] {
        let run = |index: &RTSIndex<f32>| {
            let h = CollectingHandler::new();
            let report = match k {
                None => index.range_query(Predicate::Intersects, &qs, &h),
                Some(k) => index.range_intersects_with_k(&qs, &h, k),
            };
            (h.into_sorted_vec(), report)
        };
        let (want, before) = run(&base);
        let (got, after) = run(&grown);
        assert!(!want.is_empty());
        assert_eq!(got, want, "k {k:?}");
        assert_eq!(
            after.launch.totals.rays, before.launch.totals.rays,
            "k {k:?}"
        );
        assert_eq!(after.launch.width, before.launch.width, "k {k:?}");
    }
}

#[test]
fn explain_reports_the_cast_of_a_quarter_batch() {
    // A 40 × 40 grid of unit cells; the batch covers the lower-left
    // quarter, so EXPLAIN casts what brute force counts there, and a
    // batch over the whole grid casts every live rectangle.
    let grid: Vec<Rect<f32, 2>> = (0..1600)
        .map(|i| {
            let (x, y) = ((i % 40) as f32 * 2.0, (i / 40) as f32 * 2.0);
            Rect::xyxy(x, y, x + 1.0, y + 1.0)
        })
        .collect();
    let index = RTSIndex::with_rects(&grid, IndexOptions::default()).unwrap();
    let quarter: Vec<Rect<f32, 2>> = (0..16)
        .map(|i| {
            let (x, y) = ((i % 4) as f32 * 12.0, (i / 4) as f32 * 12.0);
            Rect::xyxy(x + 0.5, y + 0.5, x + 3.0, y + 3.0)
        })
        .collect();
    let b = union(quarter.iter().copied());
    let want = grid.iter().filter(|r| r.intersects(&b)).count() as u64;
    let plan = index.explain_intersects(&quarter, &CountingHandler::new());
    assert_eq!((plan.live, plan.cast), (1600, want));
    assert_eq!(want, 400, "a 20 × 20 quarter");
    assert!(plan.stable_json().contains(&format!("\"cast\": {want}, ")));
    assert_eq!(plan.rays, quarter.len() as u64 + want, "k = 1");

    let whole = [Rect::xyxy(-1.0, -1.0, 100.0, 100.0)];
    let plan = index.explain_intersects(&whole, &CountingHandler::new());
    assert_eq!(plan.cast, plan.live);
}

#[test]
fn cull_3d_matches_oracle_and_casts_touching_boxes() {
    let mut rng = Lcg(9);
    let mut boxes: Vec<Rect<f32, 3>> = (0..1200)
        .map(|_| {
            let [x, y, z] = [rng.next() * 500.0, rng.next() * 500.0, rng.next() * 100.0];
            let e = 1.0 + rng.next() * 8.0;
            Rect::xyzxyz(x, y, z, x + e, y + e, z + e)
        })
        .collect();
    let mut index = RTSIndex3::build(&boxes, IndexOptions::default()).unwrap();
    let dead: Vec<u32> = (0..1200).step_by(5).collect();
    index.delete(&dead).unwrap();
    let moved: Vec<u32> = (1..1200).step_by(9).filter(|i| i % 5 != 0).collect();
    let to: Vec<Rect<f32, 3>> = moved
        .iter()
        .map(|&i| {
            let x = 100.0 + (i % 50) as f32 * 2.0;
            Rect::xyzxyz(x, 120.0, 10.0, x + 3.0, 125.0, 14.0)
        })
        .collect();
    index.update(&moved, &to).unwrap();
    for (&i, b) in moved.iter().zip(&to) {
        boxes[i as usize] = *b;
    }
    let live = |i: usize| !dead.contains(&(i as u32));
    let batches: Vec<Vec<Rect<f32, 3>>> = vec![
        (0..20)
            .map(|i| {
                let x = 80.0 + (i % 5) as f32 * 30.0;
                let y = 100.0 + (i / 5) as f32 * 20.0;
                Rect::xyzxyz(x, y, 0.0, x + 12.0, y + 12.0, 60.0)
            })
            .collect(),
        vec![Rect::xyzxyz(400.0, 400.0, 50.0, 480.0, 480.0, 90.0)],
        vec![Rect::xyzxyz(900.0, 900.0, 0.0, 950.0, 950.0, 10.0)],
    ];
    let mut partial = 0;
    for qs in &batches {
        let mut want = Vec::new();
        for (i, b) in boxes.iter().enumerate().filter(|&(i, _)| live(i)) {
            for (qi, q) in qs.iter().enumerate() {
                if b.intersects(q) {
                    want.push((i as u32, qi as u32));
                }
            }
        }
        want.sort_unstable();
        let h = CollectingHandler::new();
        let report = index.intersects_query(qs, &h);
        assert_eq!(h.into_sorted_vec(), want);
        let bx = qs.iter().fold(Rect::empty(), |b, q| b.union(q));
        let touching = (0..boxes.len())
            .filter(|&i| live(i) && boxes[i].intersects(&bx))
            .count();
        assert_eq!(report.launch.width, touching);
        partial += usize::from(touching < index.len());
    }
    assert_eq!(partial, batches.len());
}
