//! Reusable metamorphic property checks.
//!
//! Each check encodes one invariant the LibRTS translation must
//! preserve, phrased so any scenario's data can be pushed through it:
//!
//! - **Theorem 1**: the diagonal formulation of Range-Intersects
//!   (forward/backward diagonal–rectangle tests) equals the plain
//!   interval-overlap predicate on every pair.
//! - **Multicast invariance**: the Range-Intersects *result set* is
//!   independent of the forced multicast width `k` — `k` only
//!   redistributes work (§3.4), never changes answers.
//! - **Refit enclosure**: after a GAS refit to mutated primitive boxes
//!   (§4.2 deletion/update path), in place or copy-on-write, every wide
//!   slot still encloses what it covers — checked via `Bvh4::validate`
//!   and a no-false-negative point probe per box through a launch.
//! - **Dedup equivalence**: the paper's forward-check dedup rule and
//!   the strawman hash post-process produce the same pair set, equal
//!   to the brute-force pair set.
//! - **Contains/Intersects consistency**: `Contains(r, q)` implies
//!   `Intersects(r, q)`, so the Contains result set is a subset of the
//!   Intersects result set over the same queries.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use geom::{diagonal_formulation_intersects, Point, Ray, Rect};
use librts::{
    CollectingHandler, DedupStrategy, IndexOptions, MulticastConfig, MulticastMode, Predicate,
    RTSIndex,
};
use rtcore::{BuildOptions, BuildQuality, Device, Gas, HitContext, IsResult, RtProgram};

use crate::oracle::Oracle;

/// Theorem 1: diagonal formulation ≡ interval overlap, on every
/// (data, query) pair.
pub fn check_theorem1(rects: &[Rect<f32, 2>], queries: &[Rect<f32, 2>]) {
    for (ri, r) in rects.iter().enumerate() {
        for (qi, q) in queries.iter().enumerate() {
            let diag = diagonal_formulation_intersects(r, q);
            let plain = r.intersects(q);
            assert_eq!(
                diag, plain,
                "Theorem 1 violated at data #{ri} {r:?} vs query #{qi} {q:?}: \
                 diagonal formulation says {diag}, interval overlap says {plain}"
            );
        }
    }
}

fn intersects_with_mode(
    rects: &[Rect<f32, 2>],
    queries: &[Rect<f32, 2>],
    mode: MulticastMode,
    dedup: DedupStrategy,
) -> Vec<(u32, u32)> {
    let opts = IndexOptions {
        multicast: MulticastConfig {
            mode,
            ..Default::default()
        },
        dedup,
        ..Default::default()
    };
    let index = RTSIndex::with_rects(rects, opts).expect("valid rects");
    let handler = CollectingHandler::new();
    index.range_query(Predicate::Intersects, queries, &handler);
    handler.into_sorted_vec()
}

/// Ray-Multicast invariance: the Intersects result set is identical
/// for every forced `k`, for multicast off, and for the cost-model
/// `Auto` mode — and equals the brute-force pair set.
pub fn check_multicast_invariance(rects: &[Rect<f32, 2>], queries: &[Rect<f32, 2>], ks: &[usize]) {
    let mut oracle: Oracle<2> = Oracle::new();
    oracle.insert(rects);
    let want = oracle.intersects(queries);

    for &k in ks {
        let got = intersects_with_mode(
            rects,
            queries,
            MulticastMode::Fixed(k),
            DedupStrategy::ForwardCheck,
        );
        assert_eq!(
            got, want,
            "multicast k={k} changed the Intersects result set"
        );
    }
    for (label, mode) in [("off", MulticastMode::Off), ("auto", MulticastMode::Auto)] {
        let got = intersects_with_mode(rects, queries, mode, DedupStrategy::ForwardCheck);
        assert_eq!(
            got, want,
            "multicast mode {label} changed the Intersects result set"
        );
    }
}

/// Both-passes dedup: the forward-check rule (Algorithm 1 line 19) and
/// the hash post-process strawman agree with each other and with the
/// brute-force pair set.
pub fn check_dedup_equivalence(rects: &[Rect<f32, 2>], queries: &[Rect<f32, 2>]) {
    let mut oracle: Oracle<2> = Oracle::new();
    oracle.insert(rects);
    let want = oracle.intersects(queries);

    let fwd = intersects_with_mode(
        rects,
        queries,
        MulticastMode::Auto,
        DedupStrategy::ForwardCheck,
    );
    let hash = intersects_with_mode(
        rects,
        queries,
        MulticastMode::Auto,
        DedupStrategy::HashPostProcess,
    );
    assert_eq!(fwd, want, "forward-check dedup diverges from brute force");
    assert_eq!(
        hash, want,
        "hash post-process dedup diverges from brute force"
    );
}

/// Refit enclosure: build a GAS over `before`, refit it to `after`
/// (same cardinality — the §4.2 degeneration/update shape) both ways a
/// library path does — in place when the handle is unique, by copy when
/// another holder shares it — and check both the structural invariant
/// (the wide tree validates against `after`) and the behavioural one:
/// a point probe launched at each non-degenerate refitted box finds it
/// (no false negatives after refit). The shared holder must still see
/// `before`.
pub fn check_refit_enclosure(before: &[Rect<f32, 3>], after: &[Rect<f32, 3>], leaf_size: usize) {
    assert_eq!(before.len(), after.len(), "refit keeps cardinality");
    let opts = BuildOptions {
        quality: BuildQuality::PreferFastTrace,
        leaf_size,
        ..BuildOptions::default()
    };
    let build = || Arc::new(Gas::build(before.to_vec(), opts).expect("finite boxes"));
    let mut unique = build();
    Gas::refit_shared(&mut unique, after.to_vec()).expect("unique refit");
    let mut shared = build();
    let holder = Arc::clone(&shared);
    Gas::refit_shared(&mut shared, after.to_vec()).expect("shared refit");
    assert!(
        !Arc::ptr_eq(&shared, &holder),
        "a shared GAS is refit by copy"
    );
    assert_eq!(holder.aabbs(), before, "the other holder keeps its boxes");
    holder
        .wide()
        .validate(before)
        .expect("the other holder's tree still encloses its boxes");

    for (how, gas) in [("unique", &unique), ("shared", &shared)] {
        assert_eq!(gas.aabbs(), after, "{how} refit stores the new boxes");
        gas.wide()
            .validate(after)
            .unwrap_or_else(|e| panic!("{how} refit violates enclosure: {e}"));
        let found: Vec<AtomicBool> = after.iter().map(|_| AtomicBool::new(false)).collect();
        let program = MarkContaining { found: &found };
        Device::new().launch::<f32, _>(after.len(), |i, session| {
            let b = &after[i];
            if !b.is_degenerate() {
                let mut center = b.center();
                session.trace(&**gas, &program, &Ray::point_probe(center), &mut center);
            }
        });
        for (i, b) in after.iter().enumerate() {
            assert!(
                b.is_degenerate() || found[i].load(Ordering::Relaxed),
                "{how} refit lost primitive #{i} ({b:?})"
            );
        }
    }
}

/// Marks every primitive whose box contains the probe point.
struct MarkContaining<'a> {
    found: &'a [AtomicBool],
}

impl RtProgram<f32> for MarkContaining<'_> {
    type Payload = Point<f32, 3>;

    fn intersection(&self, ctx: &HitContext<'_, f32>, p: &mut Point<f32, 3>) -> IsResult<f32> {
        if ctx.aabb.contains_point(p) {
            self.found[ctx.primitive_index as usize].store(true, Ordering::Relaxed);
        }
        IsResult::Ignore
    }
}

/// `Contains ⊆ Intersects` over the same query set, and both equal
/// brute force.
pub fn check_contains_subset_of_intersects(rects: &[Rect<f32, 2>], queries: &[Rect<f32, 2>]) {
    let mut oracle: Oracle<2> = Oracle::new();
    oracle.insert(rects);
    let index = RTSIndex::with_rects(rects, IndexOptions::default()).expect("valid rects");

    let contains = index.collect_range_query(Predicate::Contains, queries);
    let intersects = index.collect_range_query(Predicate::Intersects, queries);
    assert_eq!(
        contains,
        oracle.contains(queries),
        "Contains diverges from brute force"
    );
    assert_eq!(
        intersects,
        oracle.intersects(queries),
        "Intersects diverges from brute force"
    );

    let inter_set: std::collections::HashSet<(u32, u32)> = intersects.into_iter().collect();
    for pair in &contains {
        assert!(
            inter_set.contains(pair),
            "pair {pair:?} is in Contains but not in Intersects"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::DataSpec;

    #[test]
    fn checks_pass_on_a_small_workload() {
        let rects = DataSpec::Gaussian { n: 80 }.generate(5);
        let queries = DataSpec::Uniform { n: 40 }.generate(6);
        check_theorem1(&rects, &queries);
        check_multicast_invariance(&rects, &queries, &[1, 3, 8]);
        check_dedup_equivalence(&rects, &queries);
        check_contains_subset_of_intersects(&rects, &queries);
    }

    #[test]
    fn refit_enclosure_on_translated_boxes() {
        let before: Vec<Rect<f32, 3>> = DataSpec::Uniform { n: 64 }
            .generate(9)
            .iter()
            .map(|r| r.lift(0.0, 4.0))
            .collect();
        let after: Vec<Rect<f32, 3>> = before
            .iter()
            .enumerate()
            .map(|(i, b)| {
                let d = (i % 5) as f32 * 17.0;
                Rect::new(
                    geom::Point::xyz(b.min.x() + d, b.min.y() - d, b.min.z()),
                    geom::Point::xyz(b.max.x() + d, b.max.y() - d, b.max.z()),
                )
            })
            .collect();
        check_refit_enclosure(&before, &after, 4);
    }
}
