//! Deterministic scenario replay against every engine plus the oracle.
//!
//! The runner holds the oracle and a live [`RTSIndex`] in lockstep
//! through the whole lifecycle. Immutable engines (`RTSIndex3` and the
//! six baselines) are rebuilt from the oracle's live snapshot at every
//! query op — replaying the *state* the scenario reached, which is the
//! strongest check an immutable structure can give — with local ids
//! mapped back to the oracle's global ids before comparison.
//!
//! Every comparison is exact result-set equality on sorted
//! `(rect_id, query_id)` pairs: no tolerance, no count-only shortcuts.

use baselines::glin::Glin;
use baselines::kdtree::KdTree;
use baselines::lbvh::Lbvh;
use baselines::quadtree::QuadTree;
use baselines::rayjoin::RayJoin;
use baselines::rtree::RTree;
use datasets::polygons::polygons_from_rects;
use datasets::queries;
use geom::{Point, Rect};
use librts::{CollectingHandler, PipIndex, Predicate, RTSIndex, RTSIndex3};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtcore::RayStats;

use crate::mix_seed;
use crate::oracle::{Oracle, PipOracle};
use crate::scenario::{Op, Scenario};

/// What a replayed scenario produced, beyond "it agreed".
#[derive(Clone, Copy, Debug)]
pub struct RunOutcome {
    /// Scenario name (budget-baseline key).
    pub name: &'static str,
    /// Number of query ops executed.
    pub query_ops: usize,
    /// Total result pairs cross-checked across all engines.
    pub pairs_checked: u64,
    /// Accumulated 2-D hardware counters (`RTSIndex` + `PipIndex`
    /// launches) — the counter-budget payload.
    pub totals: RayStats,
    /// Accumulated `RTSIndex3` hardware counters.
    pub totals3: RayStats,
}

/// Panic with a readable first-divergence diff instead of two walls of
/// pairs.
fn assert_pairs_eq(
    engine: &str,
    scenario: &str,
    op_idx: usize,
    got: &[(u32, u32)],
    want: &[(u32, u32)],
) {
    if got == want {
        return;
    }
    let first = got
        .iter()
        .zip(want.iter())
        .position(|(g, w)| g != w)
        .unwrap_or_else(|| got.len().min(want.len()));
    panic!(
        "scenario '{scenario}' op {op_idx}: {engine} diverges from oracle: \
         got {} pairs, want {} pairs; first divergence at #{first} \
         (got {:?}, want {:?})",
        got.len(),
        want.len(),
        got.get(first),
        want.get(first),
    );
}

/// Uniform fallback probes for the empty-index case (the query
/// generators in `datasets` need data to anchor on).
fn uniform_points(n: usize, seed: u64) -> Vec<Point<f32, 2>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            Point::xy(
                rng.gen_range(-100.0f32..1100.0),
                rng.gen_range(-100.0f32..1100.0),
            )
        })
        .collect()
}

fn uniform_rects(n: usize, seed: u64) -> Vec<Rect<f32, 2>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let x = rng.gen_range(-100.0f32..1000.0);
            let y = rng.gen_range(-100.0f32..1000.0);
            let w = rng.gen_range(0.5f32..120.0);
            let h = rng.gen_range(0.5f32..120.0);
            Rect::xyxy(x, y, x + w, y + h)
        })
        .collect()
}

/// Point probes: ¾ anchored inside live rects (guaranteed hits), ¼
/// uniform over an expanded world box (misses and grazes).
fn point_workload(live: &[Rect<f32, 2>], n: usize, seed: u64) -> Vec<Point<f32, 2>> {
    if live.is_empty() {
        return uniform_points(n, seed);
    }
    let hits = n - n / 4;
    let mut pts = queries::point_queries(live, hits, seed);
    pts.extend(uniform_points(n - hits, mix_seed(seed, 0xB0)));
    pts
}

/// Deterministic z-interval for lifting a 2-D rect with global id `id`
/// into the 3-D conformance space. Spread over [0, 120) so 3-D point
/// and range probes genuinely filter on z.
fn z_interval(id: u32) -> (f32, f32) {
    let lo = (id % 8) as f32 * 12.0;
    (lo, lo + 6.0 + (id % 3) as f32 * 12.0)
}

/// Replays `scenario` against every engine, panicking on the first
/// divergence. Returns the deterministic counter totals.
pub fn run_scenario(scenario: &Scenario) -> RunOutcome {
    let opts = scenario.opts.options();
    let mut oracle: Oracle<2> = Oracle::new();
    let mut index: RTSIndex<f32> = RTSIndex::new(opts.clone());
    let mut outcome = RunOutcome {
        name: scenario.name,
        query_ops: 0,
        pairs_checked: 0,
        totals: RayStats::default(),
        totals3: RayStats::default(),
    };

    for (op_idx, op) in scenario.ops.iter().enumerate() {
        assert_live_bounds(&index, &oracle, scenario.name, op_idx);
        let op_seed = mix_seed(scenario.seed, op_idx as u64);
        match *op {
            Op::Insert(spec) => {
                let batch = spec.generate(op_seed);
                let got = index.insert(&batch).expect("scenario batches are valid");
                let want = oracle.insert(&batch);
                assert_eq!(
                    got, want,
                    "scenario '{}' op {op_idx}: id ranges diverge",
                    scenario.name
                );
            }
            Op::Delete { offset, stride } => {
                let victims: Vec<u32> = oracle
                    .live()
                    .iter()
                    .enumerate()
                    .filter(|(pos, _)| pos >= &offset && (pos - offset) % stride == 0)
                    .map(|(_, (id, _))| *id)
                    .collect();
                if !victims.is_empty() {
                    index.delete(&victims).expect("victims are live");
                    oracle.delete(&victims);
                }
            }
            Op::Update {
                offset,
                stride,
                dx,
                dy,
            } => {
                let targets: Vec<(u32, Rect<f32, 2>)> = oracle
                    .live()
                    .iter()
                    .enumerate()
                    .filter(|(pos, _)| pos >= &offset && (pos - offset) % stride == 0)
                    .map(|(_, (id, r))| (*id, r.translated(&Point::xy(dx, dy))))
                    .collect();
                if !targets.is_empty() {
                    let ids: Vec<u32> = targets.iter().map(|(id, _)| *id).collect();
                    let rects: Vec<Rect<f32, 2>> = targets.iter().map(|(_, r)| *r).collect();
                    index.update(&ids, &rects).expect("targets are live");
                    oracle.update(&ids, &rects);
                }
            }
            Op::Rebuild => index.rebuild(),
            Op::PointQuery { n } => {
                outcome.query_ops += 1;
                let live = oracle.live();
                let live_rects: Vec<Rect<f32, 2>> = live.iter().map(|(_, r)| *r).collect();
                let pts = point_workload(&live_rects, n, op_seed);
                let want = oracle.point_query(&pts);
                outcome.pairs_checked += want.len() as u64;

                // RTSIndex (the subject) — counters feed the budget.
                let handler = CollectingHandler::with_capacity(want.len());
                let report = index.point_query(&pts, &handler);
                outcome.totals += report.launch.totals;
                assert_pairs_eq(
                    "RTSIndex",
                    scenario.name,
                    op_idx,
                    &handler.into_sorted_vec(),
                    &want,
                );

                if !live.is_empty() {
                    let gid = |local: u32| live[local as usize].0;

                    // RTree
                    let rtree = RTree::bulk_load(&live_rects);
                    let mut got = Vec::new();
                    let mut buf = Vec::new();
                    for (qi, p) in pts.iter().enumerate() {
                        buf.clear();
                        rtree.query_point(p, &mut buf);
                        got.extend(buf.iter().map(|&l| (gid(l), qi as u32)));
                    }
                    got.sort_unstable();
                    assert_pairs_eq("rtree", scenario.name, op_idx, &got, &want);

                    // LBVH
                    let lbvh = Lbvh::build(&live_rects);
                    let mut stats = RayStats::default();
                    let mut got = Vec::new();
                    for (qi, p) in pts.iter().enumerate() {
                        buf.clear();
                        lbvh.query_point(p, &mut buf, &mut stats);
                        got.extend(buf.iter().map(|&l| (gid(l), qi as u32)));
                    }
                    got.sort_unstable();
                    assert_pairs_eq("lbvh", scenario.name, op_idx, &got, &want);

                    // GLIN: a point is the degenerate rect [p, p]; closed
                    // intersection with it is exactly containment.
                    let glin = Glin::build(&live_rects);
                    let mut got = Vec::new();
                    for (qi, p) in pts.iter().enumerate() {
                        buf.clear();
                        glin.query_intersects(&Rect { min: *p, max: *p }, &mut buf);
                        got.extend(buf.iter().map(|&l| (gid(l), qi as u32)));
                    }
                    got.sort_unstable();
                    assert_pairs_eq("glin", scenario.name, op_idx, &got, &want);

                    // KdTree / QuadTree index points, so the roles invert:
                    // build over the probe points, query with each rect.
                    let kd = KdTree::build(&pts);
                    let mut got = Vec::new();
                    for &(id, r) in &live {
                        buf.clear();
                        kd.query_rect(&r, &mut buf);
                        got.extend(buf.iter().map(|&pi| (id, pi)));
                    }
                    got.sort_unstable();
                    assert_pairs_eq("kdtree", scenario.name, op_idx, &got, &want);

                    let qt = QuadTree::build(&pts);
                    let mut stats = RayStats::default();
                    let mut got = Vec::new();
                    for &(id, r) in &live {
                        buf.clear();
                        qt.query_rect(&r, &mut buf, &mut stats);
                        got.extend(buf.iter().map(|&pi| (id, pi)));
                    }
                    got.sort_unstable();
                    assert_pairs_eq("quadtree", scenario.name, op_idx, &got, &want);
                }

                // RTSIndex3 over the lifted snapshot, with lifted probes.
                run_3d_point(&live, &pts, op_seed, scenario, op_idx, &mut outcome);
            }
            Op::RangeQuery {
                predicate,
                n,
                selectivity,
            } => {
                outcome.query_ops += 1;
                let live = oracle.live();
                let live_rects: Vec<Rect<f32, 2>> = live.iter().map(|(_, r)| *r).collect();
                let qs = if live_rects.is_empty() {
                    uniform_rects(n, op_seed)
                } else {
                    match predicate {
                        Predicate::Contains => queries::contains_queries(&live_rects, n, op_seed),
                        Predicate::Intersects => {
                            queries::intersects_queries(&live_rects, n, selectivity, op_seed)
                        }
                    }
                };
                let want = match predicate {
                    Predicate::Contains => oracle.contains(&qs),
                    Predicate::Intersects => oracle.intersects(&qs),
                };
                outcome.pairs_checked += want.len() as u64;

                let handler = CollectingHandler::with_capacity(want.len());
                let report = index.range_query(predicate, &qs, &handler);
                outcome.totals += report.launch.totals;
                assert_pairs_eq(
                    "RTSIndex",
                    scenario.name,
                    op_idx,
                    &handler.into_sorted_vec(),
                    &want,
                );

                if !live.is_empty() {
                    let gid = |local: u32| live[local as usize].0;
                    let rtree = RTree::bulk_load(&live_rects);
                    let lbvh = Lbvh::build(&live_rects);
                    let glin = Glin::build(&live_rects);
                    let mut stats = RayStats::default();
                    let mut buf = Vec::new();
                    let (mut rt, mut lb, mut gl) = (Vec::new(), Vec::new(), Vec::new());
                    for (qi, q) in qs.iter().enumerate() {
                        let qi = qi as u32;
                        buf.clear();
                        match predicate {
                            Predicate::Contains => rtree.query_contains(q, &mut buf),
                            Predicate::Intersects => rtree.query_intersects(q, &mut buf),
                        }
                        rt.extend(buf.iter().map(|&l| (gid(l), qi)));
                        buf.clear();
                        match predicate {
                            Predicate::Contains => lbvh.query_contains(q, &mut buf, &mut stats),
                            Predicate::Intersects => lbvh.query_intersects(q, &mut buf, &mut stats),
                        }
                        lb.extend(buf.iter().map(|&l| (gid(l), qi)));
                        buf.clear();
                        match predicate {
                            Predicate::Contains => glin.query_contains(q, &mut buf),
                            Predicate::Intersects => glin.query_intersects(q, &mut buf),
                        }
                        gl.extend(buf.iter().map(|&l| (gid(l), qi)));
                    }
                    rt.sort_unstable();
                    lb.sort_unstable();
                    gl.sort_unstable();
                    assert_pairs_eq("rtree", scenario.name, op_idx, &rt, &want);
                    assert_pairs_eq("lbvh", scenario.name, op_idx, &lb, &want);
                    assert_pairs_eq("glin", scenario.name, op_idx, &gl, &want);
                }

                run_3d_range(
                    &live,
                    predicate,
                    &qs,
                    op_seed,
                    scenario,
                    op_idx,
                    &mut outcome,
                );
            }
            Op::PipQuery { n } => {
                outcome.query_ops += 1;
                let live_rects = oracle.live_rects();
                if live_rects.is_empty() {
                    continue;
                }
                let polys = polygons_from_rects(&live_rects, 12, op_seed);
                let pts = point_workload(&live_rects, n, mix_seed(op_seed, 0x50));
                let want = PipOracle::new(polys.clone()).query(&pts);
                outcome.pairs_checked += want.len() as u64;

                let pip = PipIndex::build(polys.clone(), opts.clone()).expect("valid polygons");
                let handler = CollectingHandler::with_capacity(want.len());
                let report = pip.query(&pts, &handler);
                outcome.totals += report.launch.totals;
                assert_pairs_eq(
                    "PipIndex",
                    scenario.name,
                    op_idx,
                    &handler.into_sorted_vec(),
                    &want,
                );

                let rayjoin = RayJoin::build(&polys);
                assert_pairs_eq(
                    "rayjoin",
                    scenario.name,
                    op_idx,
                    &rayjoin.collect_pip(&pts),
                    &want,
                );

                // QuadTree's PIP path reports counts, not pairs — hold it
                // to count equality (its strongest exposed contract).
                let qt = QuadTree::build(&pts);
                let timing = qt.batch_pip(&polys);
                assert_eq!(
                    timing.results,
                    want.len() as u64,
                    "scenario '{}' op {op_idx}: quadtree PIP count diverges",
                    scenario.name
                );
            }
        }
    }
    assert_live_bounds(&index, &oracle, scenario.name, scenario.ops.len());
    outcome
}

/// The index's maintained bounds equal the union of the oracle's live
/// rectangles (checked before op `op_idx`, and after the last op).
fn assert_live_bounds(index: &RTSIndex<f32>, oracle: &Oracle<2>, name: &str, op_idx: usize) {
    let want = oracle
        .live_rects()
        .iter()
        .fold(Rect::empty(), |b, r| b.union(r));
    assert_eq!(
        index.bounds(),
        want,
        "scenario '{name}' before op {op_idx}: live bounds diverge"
    );
}

/// 3-D differential check for a point op: lift the live snapshot and
/// the probes, compare `RTSIndex3` against a 3-D oracle.
fn run_3d_point(
    live: &[(u32, Rect<f32, 2>)],
    pts: &[Point<f32, 2>],
    op_seed: u64,
    scenario: &Scenario,
    op_idx: usize,
    outcome: &mut RunOutcome,
) {
    if live.is_empty() {
        return;
    }
    let boxes: Vec<Rect<f32, 3>> = live
        .iter()
        .map(|&(id, r)| {
            let (lo, hi) = z_interval(id);
            r.lift(lo, hi)
        })
        .collect();
    let pts3: Vec<Point<f32, 3>> = pts
        .iter()
        .enumerate()
        .map(|(qi, p)| {
            let z = (mix_seed(op_seed, 0x3D00 + qi as u64) % 140) as f32 - 5.0;
            Point::xyz(p.x(), p.y(), z)
        })
        .collect();
    let mut oracle3: Oracle<3> = Oracle::new();
    oracle3.insert(&boxes);
    let want: Vec<(u32, u32)> = {
        let mut v: Vec<(u32, u32)> = oracle3
            .point_query(&pts3)
            .into_iter()
            .map(|(l, q)| (live[l as usize].0, q))
            .collect();
        v.sort_unstable();
        v
    };
    outcome.pairs_checked += want.len() as u64;

    let idx3 = RTSIndex3::build(&boxes, scenario.opts.options()).expect("lifted boxes are valid");
    let handler = CollectingHandler::with_capacity(want.len());
    let report = idx3.point_query(&pts3, &handler);
    outcome.totals3 += report.launch.totals;
    let mut got: Vec<(u32, u32)> = handler
        .into_sorted_vec()
        .into_iter()
        .map(|(l, q)| (live[l as usize].0, q))
        .collect();
    got.sort_unstable();
    assert_pairs_eq("RTSIndex3", scenario.name, op_idx, &got, &want);
}

/// 3-D differential check for a range op: lift data and queries with
/// partially overlapping z-intervals so the z axis genuinely filters.
fn run_3d_range(
    live: &[(u32, Rect<f32, 2>)],
    predicate: Predicate,
    qs: &[Rect<f32, 2>],
    op_seed: u64,
    scenario: &Scenario,
    op_idx: usize,
    outcome: &mut RunOutcome,
) {
    if live.is_empty() {
        return;
    }
    let boxes: Vec<Rect<f32, 3>> = live
        .iter()
        .map(|&(id, r)| {
            let (lo, hi) = z_interval(id);
            r.lift(lo, hi)
        })
        .collect();
    let qs3: Vec<Rect<f32, 3>> = qs
        .iter()
        .enumerate()
        .map(|(qi, q)| {
            let h = mix_seed(op_seed, 0x3D80 + qi as u64);
            let lo = (h % 110) as f32 - 5.0;
            let height = 4.0 + (h >> 32 & 0x1F) as f32;
            q.lift(lo, lo + height)
        })
        .collect();
    let mut oracle3: Oracle<3> = Oracle::new();
    oracle3.insert(&boxes);
    let raw = match predicate {
        Predicate::Contains => oracle3.contains(&qs3),
        Predicate::Intersects => oracle3.intersects(&qs3),
    };
    let mut want: Vec<(u32, u32)> = raw
        .into_iter()
        .map(|(l, q)| (live[l as usize].0, q))
        .collect();
    want.sort_unstable();
    outcome.pairs_checked += want.len() as u64;

    let idx3 = RTSIndex3::build(&boxes, scenario.opts.options()).expect("lifted boxes are valid");
    let handler = CollectingHandler::with_capacity(want.len());
    let report = match predicate {
        Predicate::Contains => idx3.contains_query(&qs3, &handler),
        Predicate::Intersects => idx3.intersects_query(&qs3, &handler),
    };
    outcome.totals3 += report.launch.totals;
    let mut got: Vec<(u32, u32)> = handler
        .into_sorted_vec()
        .into_iter()
        .map(|(l, q)| (live[l as usize].0, q))
        .collect();
    got.sort_unstable();
    assert_pairs_eq("RTSIndex3", scenario.name, op_idx, &got, &want);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{DataSpec, OptionsSpec};

    #[test]
    fn runner_is_deterministic() {
        let s = Scenario::new(
            "unit_runner_determinism",
            77,
            OptionsSpec::Default,
            vec![
                Op::Insert(DataSpec::Uniform { n: 60 }),
                Op::PointQuery { n: 40 },
                Op::Delete {
                    offset: 0,
                    stride: 3,
                },
                Op::RangeQuery {
                    predicate: Predicate::Intersects,
                    n: 20,
                    selectivity: 0.05,
                },
            ],
        );
        let a = run_scenario(&s);
        let b = run_scenario(&s);
        assert_eq!(a.totals, b.totals);
        assert_eq!(a.totals3, b.totals3);
        assert_eq!(a.pairs_checked, b.pairs_checked);
        assert!(a.pairs_checked > 0, "scenario must actually check pairs");
    }
}
