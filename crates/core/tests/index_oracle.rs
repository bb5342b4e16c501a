//! RTSIndex correctness against brute-force oracles: every query type,
//! every mutation, multicast on/off — results must match exactly.

use geom::{Point, Rect};
use librts::{
    CollectingHandler, CountingHandler, IndexError, IndexOptions, MulticastAxis, MulticastConfig,
    MulticastMode, Predicate, RTSIndex,
};

/// Deterministic LCG so tests need no rand dependency surprises.
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Self {
        Lcg(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1)
    }
    fn next_f32(&mut self) -> f32 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) as f64 / 2f64.powi(31)) as f32
    }
}

fn random_rects(n: usize, seed: u64, world: f32, max_ext: f32) -> Vec<Rect<f32, 2>> {
    let mut rng = Lcg::new(seed);
    (0..n)
        .map(|_| {
            let x = rng.next_f32() * world;
            let y = rng.next_f32() * world;
            let w = rng.next_f32() * max_ext + 0.01;
            let h = rng.next_f32() * max_ext + 0.01;
            Rect::xyxy(x, y, x + w, y + h)
        })
        .collect()
}

fn random_points(n: usize, seed: u64, world: f32) -> Vec<Point<f32, 2>> {
    let mut rng = Lcg::new(seed);
    (0..n)
        .map(|_| Point::xy(rng.next_f32() * world, rng.next_f32() * world))
        .collect()
}

fn oracle_point(rects: &[Rect<f32, 2>], pts: &[Point<f32, 2>]) -> Vec<(u32, u32)> {
    let mut out = vec![];
    for (ri, r) in rects.iter().enumerate() {
        for (pi, p) in pts.iter().enumerate() {
            if r.contains_point(p) {
                out.push((ri as u32, pi as u32));
            }
        }
    }
    out
}

fn oracle_contains(rects: &[Rect<f32, 2>], qs: &[Rect<f32, 2>]) -> Vec<(u32, u32)> {
    let mut out = vec![];
    for (ri, r) in rects.iter().enumerate() {
        for (qi, q) in qs.iter().enumerate() {
            if r.contains_rect(q) {
                out.push((ri as u32, qi as u32));
            }
        }
    }
    out
}

fn oracle_intersects(rects: &[Rect<f32, 2>], qs: &[Rect<f32, 2>]) -> Vec<(u32, u32)> {
    let mut out = vec![];
    for (ri, r) in rects.iter().enumerate() {
        for (qi, q) in qs.iter().enumerate() {
            if r.intersects(q) {
                out.push((ri as u32, qi as u32));
            }
        }
    }
    out
}

#[test]
fn point_query_matches_oracle() {
    let rects = random_rects(800, 1, 100.0, 8.0);
    let pts = random_points(500, 2, 110.0);
    let index = RTSIndex::with_rects(&rects, IndexOptions::default()).unwrap();
    assert_eq!(index.collect_point_query(&pts), oracle_point(&rects, &pts));
}

#[test]
fn range_contains_matches_oracle() {
    let rects = random_rects(600, 3, 100.0, 10.0);
    let qs = random_rects(400, 4, 100.0, 3.0);
    let index = RTSIndex::with_rects(&rects, IndexOptions::default()).unwrap();
    assert_eq!(
        index.collect_range_query(Predicate::Contains, &qs),
        oracle_contains(&rects, &qs)
    );
}

#[test]
fn range_intersects_matches_oracle() {
    let rects = random_rects(500, 5, 100.0, 6.0);
    let qs = random_rects(300, 6, 100.0, 12.0);
    let index = RTSIndex::with_rects(&rects, IndexOptions::default()).unwrap();
    assert_eq!(
        index.collect_range_query(Predicate::Intersects, &qs),
        oracle_intersects(&rects, &qs)
    );
}

#[test]
fn range_intersects_no_duplicates_and_k_invariant() {
    // The same result set, exactly once, for every k — Ray Multicast must
    // not change semantics (§3.4: "without duplications or omissions").
    let rects = random_rects(300, 7, 50.0, 5.0);
    let qs = random_rects(200, 8, 50.0, 10.0);
    let index = RTSIndex::with_rects(&rects, IndexOptions::default()).unwrap();
    let want = oracle_intersects(&rects, &qs);
    for k in [1usize, 2, 3, 8, 32, 128] {
        let h = CollectingHandler::new();
        index.range_intersects_with_k(&qs, &h, k);
        let mut got = h.into_vec();
        let len_before = got.len();
        got.sort_unstable();
        got.dedup();
        assert_eq!(got.len(), len_before, "k={k} produced duplicates");
        assert_eq!(got, want, "k={k} wrong result set");
    }
}

#[test]
fn multicast_modes_agree() {
    let rects = random_rects(400, 9, 80.0, 6.0);
    let qs = random_rects(150, 10, 80.0, 15.0);
    let want = oracle_intersects(&rects, &qs);
    for mode in [
        MulticastMode::Off,
        MulticastMode::Auto,
        MulticastMode::Fixed(16),
    ] {
        let opts = IndexOptions {
            multicast: MulticastConfig {
                mode,
                ..Default::default()
            },
            ..Default::default()
        };
        let index = RTSIndex::with_rects(&rects, opts).unwrap();
        assert_eq!(
            index.collect_range_query(Predicate::Intersects, &qs),
            want,
            "mode {mode:?}"
        );
    }
}

#[test]
fn multicast_axis_variants_agree() {
    // The x-offset and z-plane sub-space encodings (footnote 4) must
    // produce identical result sets for any k.
    let rects = random_rects(400, 30, 70.0, 6.0);
    let qs = random_rects(200, 31, 70.0, 14.0);
    let want = oracle_intersects(&rects, &qs);
    for axis in [MulticastAxis::XOffset, MulticastAxis::ZPlane] {
        for k in [1usize, 4, 16, 64] {
            let opts = IndexOptions {
                multicast: MulticastConfig {
                    mode: MulticastMode::Fixed(k),
                    axis,
                    ..Default::default()
                },
                ..Default::default()
            };
            let index = RTSIndex::with_rects(&rects, opts).unwrap();
            assert_eq!(
                index.collect_range_query(Predicate::Intersects, &qs),
                want,
                "axis {axis:?}, k={k}"
            );
        }
    }
}

#[test]
fn mutual_containment_edge_cases() {
    // Theorem 1's precondition excludes mutual containment; §3.3 argues
    // Case 2 covers it. Verify nested, identical and crossing rectangles.
    let rects = vec![
        Rect::xyxy(0.0f32, 0.0, 10.0, 10.0), // outer
        Rect::xyxy(4.0, 4.0, 6.0, 6.0),      // nested inner
        Rect::xyxy(0.0, 0.0, 10.0, 10.0),    // duplicate of outer
        Rect::xyxy(20.0, 20.0, 30.0, 30.0),  // disjoint
    ];
    let qs = vec![
        Rect::xyxy(4.5f32, 4.5, 5.5, 5.5),  // inside both nested levels
        Rect::xyxy(0.0, 0.0, 10.0, 10.0),   // identical to outer
        Rect::xyxy(-5.0, -5.0, 50.0, 50.0), // contains everything
        Rect::xyxy(9.0, -5.0, 11.0, 50.0),  // vertical slab crossing outer
    ];
    let index = RTSIndex::with_rects(&rects, IndexOptions::default()).unwrap();
    assert_eq!(
        index.collect_range_query(Predicate::Intersects, &qs),
        oracle_intersects(&rects, &qs)
    );
    assert_eq!(
        index.collect_range_query(Predicate::Contains, &qs),
        oracle_contains(&rects, &qs)
    );
}

#[test]
fn touching_boundaries_intersect() {
    let rects = vec![Rect::xyxy(0.0f32, 0.0, 1.0, 1.0)];
    let index = RTSIndex::with_rects(&rects, IndexOptions::default()).unwrap();
    // Edge-touching and corner-touching queries (Definition 3 is
    // inclusive).
    let qs = vec![
        Rect::xyxy(1.0f32, 0.0, 2.0, 1.0), // shares right edge
        Rect::xyxy(1.0, 1.0, 2.0, 2.0),    // shares corner
        Rect::xyxy(1.0001, 0.0, 2.0, 1.0), // just misses
    ];
    assert_eq!(
        index.collect_range_query(Predicate::Intersects, &qs),
        vec![(0, 0), (0, 1)]
    );
}

#[test]
fn insert_delete_update_lifecycle_matches_oracle() {
    let mut rects = random_rects(200, 11, 60.0, 5.0);
    let mut index = RTSIndex::<f32>::new(IndexOptions::default());

    // Insert in 4 batches; ids must be stable and contiguous.
    for (b, chunk) in rects.chunks(50).enumerate() {
        let ids = index.insert(chunk).unwrap();
        assert_eq!(ids, (b as u32 * 50)..(b as u32 * 50 + 50));
    }
    assert_eq!(index.len(), 200);
    assert_eq!(index.batch_count(), 4);

    let pts = random_points(300, 12, 60.0);
    assert_eq!(index.collect_point_query(&pts), oracle_point(&rects, &pts));

    // Delete every 3rd rect.
    let victims: Vec<u32> = (0..200u32).step_by(3).collect();
    index.delete(&victims).unwrap();
    assert_eq!(index.len(), 200 - victims.len());
    let mut live = rects.clone();
    for &v in &victims {
        // Mirror the deletion in the oracle by making the rect unmatchable.
        live[v as usize] = Rect::xyxy(
            f32::MAX / 4.0,
            f32::MAX / 4.0,
            f32::MAX / 3.0,
            f32::MAX / 3.0,
        );
    }
    let oracle: Vec<(u32, u32)> = oracle_point(&live, &pts)
        .into_iter()
        .filter(|(r, _)| !victims.contains(r))
        .collect();
    assert_eq!(index.collect_point_query(&pts), oracle);

    // Update a band of survivors: move them far away.
    let movers: Vec<u32> = (1..200u32).step_by(3).take(20).collect();
    let new_rects: Vec<Rect<f32, 2>> = movers
        .iter()
        .map(|&id| rects[id as usize].translated(&Point::xy(500.0, 500.0)))
        .collect();
    index.update(&movers, &new_rects).unwrap();
    for (&id, nr) in movers.iter().zip(&new_rects) {
        rects[id as usize] = *nr;
        assert_eq!(index.get(id), Some(*nr));
    }
    // Query at the new location.
    let far_pts: Vec<Point<f32, 2>> = new_rects.iter().map(|r| r.center()).collect();
    let got = index.collect_point_query(&far_pts);
    for (i, &id) in movers.iter().enumerate() {
        assert!(
            got.contains(&(id, i as u32)),
            "moved rect {id} not found at its new center"
        );
    }
}

#[test]
fn deleted_rects_absent_from_all_query_types() {
    let rects = random_rects(150, 13, 40.0, 6.0);
    let mut index = RTSIndex::with_rects(&rects, IndexOptions::default()).unwrap();
    index.delete(&[0, 5, 10, 149]).unwrap();
    let qs = random_rects(100, 14, 40.0, 10.0);
    let pts = random_points(100, 15, 40.0);
    for (r, _q) in index.collect_range_query(Predicate::Intersects, &qs) {
        assert!(![0, 5, 10, 149].contains(&r));
    }
    for (r, _q) in index.collect_range_query(Predicate::Contains, &qs) {
        assert!(![0, 5, 10, 149].contains(&r));
    }
    for (r, _p) in index.collect_point_query(&pts) {
        assert!(![0, 5, 10, 149].contains(&r));
    }
}

#[test]
fn error_paths() {
    let mut index = RTSIndex::<f32>::new(IndexOptions::default());
    index.insert(&[Rect::xyxy(0.0, 0.0, 1.0, 1.0)]).unwrap();

    // Invalid rectangle rejected without mutation.
    let bad = Rect {
        min: Point::xy(f32::NAN, 0.0),
        max: Point::xy(1.0, 1.0),
    };
    assert_eq!(
        index.insert(&[bad]),
        Err(IndexError::InvalidRect { index: 0 })
    );
    assert_eq!(index.len(), 1);

    // Unknown / double delete.
    assert_eq!(index.delete(&[7]), Err(IndexError::UnknownId { id: 7 }));
    index.delete(&[0]).unwrap();
    assert_eq!(
        index.delete(&[0]),
        Err(IndexError::AlreadyDeleted { id: 0 })
    );

    // Update length mismatch.
    let mut index2 = RTSIndex::<f32>::new(IndexOptions::default());
    index2.insert(&[Rect::xyxy(0.0, 0.0, 1.0, 1.0)]).unwrap();
    assert_eq!(
        index2.update(&[0, 1], &[Rect::xyxy(0.0, 0.0, 2.0, 2.0)]),
        Err(IndexError::LengthMismatch { ids: 2, rects: 1 })
    );
}

#[test]
fn empty_index_and_empty_queries() {
    let index = RTSIndex::<f32>::new(IndexOptions::default());
    assert!(index.is_empty());
    assert_eq!(index.collect_point_query(&[Point::xy(0.0, 0.0)]), vec![]);
    assert_eq!(
        index.collect_range_query(Predicate::Intersects, &[Rect::xyxy(0.0, 0.0, 1.0, 1.0)]),
        vec![]
    );
    let full = RTSIndex::with_rects(
        &[Rect::xyxy(0.0f32, 0.0, 1.0, 1.0)],
        IndexOptions::default(),
    )
    .unwrap();
    assert_eq!(full.collect_point_query(&[]), vec![]);
    assert_eq!(full.collect_range_query(Predicate::Contains, &[]), vec![]);
}

#[test]
fn nan_queries_are_ignored() {
    let index = RTSIndex::with_rects(
        &[Rect::xyxy(0.0f32, 0.0, 10.0, 10.0)],
        IndexOptions::default(),
    )
    .unwrap();
    let pts = vec![Point::xy(f32::NAN, 5.0), Point::xy(5.0, 5.0)];
    assert_eq!(index.collect_point_query(&pts), vec![(0, 1)]);
}

#[test]
fn counting_handler_counts_results() {
    let rects = random_rects(300, 16, 50.0, 5.0);
    let pts = random_points(200, 17, 50.0);
    let index = RTSIndex::with_rects(&rects, IndexOptions::default()).unwrap();
    let counter = CountingHandler::new();
    index.point_query(&pts, &counter);
    assert_eq!(counter.count() as usize, oracle_point(&rects, &pts).len());
}

#[test]
fn compact_remaps_ids() {
    let rects = random_rects(60, 18, 30.0, 4.0);
    let mut index = RTSIndex::with_rects(&rects, IndexOptions::default()).unwrap();
    index.delete(&[0, 1, 2]).unwrap();
    let remap = index.compact();
    assert_eq!(remap[0], u32::MAX);
    assert_eq!(remap[3], 0);
    assert_eq!(index.len(), 57);
    assert_eq!(index.batch_count(), 1);
    // Queries still correct post-compaction.
    let pts = random_points(100, 19, 30.0);
    let live: Vec<Rect<f32, 2>> = rects[3..].to_vec();
    assert_eq!(index.collect_point_query(&pts), oracle_point(&live, &pts));
}

#[test]
fn rebuild_preserves_results() {
    let rects = random_rects(200, 20, 50.0, 5.0);
    let mut index = RTSIndex::with_rects(&rects, IndexOptions::default()).unwrap();
    // Shuffle geometry around via updates, then rebuild.
    let ids: Vec<u32> = (0..50).collect();
    let moved: Vec<Rect<f32, 2>> = ids
        .iter()
        .map(|&i| rects[i as usize].translated(&Point::xy(25.0, -10.0)))
        .collect();
    index.update(&ids, &moved).unwrap();
    let pts = random_points(150, 21, 60.0);
    let before = index.collect_point_query(&pts);
    index.rebuild();
    assert_eq!(index.collect_point_query(&pts), before);
}

#[test]
fn f64_index_works() {
    let rects: Vec<Rect<f64, 2>> = (0..50)
        .map(|i| {
            let x = i as f64 * 3.0;
            Rect::xyxy(x, 0.0, x + 2.0, 2.0)
        })
        .collect();
    let index = RTSIndex::with_rects(&rects, IndexOptions::default()).unwrap();
    let pts: Vec<Point<f64, 2>> = vec![Point::xy(1.0, 1.0), Point::xy(4.0, 1.0)];
    assert_eq!(index.collect_point_query(&pts), vec![(0, 0), (1, 1)]);
}

#[test]
fn reports_have_sensible_timings() {
    let rects = random_rects(1000, 22, 100.0, 5.0);
    let qs = random_rects(200, 23, 100.0, 10.0);
    let opts = IndexOptions {
        multicast: MulticastConfig {
            mode: MulticastMode::Auto,
            ..Default::default()
        },
        ..Default::default()
    };
    let index = RTSIndex::with_rects(&rects, opts).unwrap();
    let h = CountingHandler::new();
    let report = index.range_query(Predicate::Intersects, &qs, &h);
    assert!(report.chosen_k >= 1);
    assert!(report.estimated_selectivity.is_some());
    assert!(report.breakdown.forward.device.as_nanos() > 0);
    assert!(report.breakdown.backward.device.as_nanos() > 0);
    assert!(report.breakdown.bvh_build.device.as_nanos() > 0);
    assert!(report.device_time() >= report.breakdown.forward.device);
    assert!(report.launch.totals.rays > 0);
}
