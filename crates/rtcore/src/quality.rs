//! BVH quality metrics — the quantities behind §6.7's observation that
//! "the quality of the BVH can degrade when the spatial location of the
//! data changes significantly" after refit.
//!
//! They are measured on the wide tree a [`crate::Gas`] keeps, over raw
//! (uninflated) slot bounds — at build while the binary tree is
//! collapsed, and by the bottom-up pass that refits it (DESIGN.md §9).
//! Both compute the same terms from the same raw bounds, so drift
//! against a GAS's own build-time report is meaningful.

use geom::{Coord, Rect};

/// Quality report for a wide BVH. "Slot" means an occupied child slot
/// of a wide node; a leaf slot holds primitives, an internal slot a
/// child node.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct QualityReport {
    /// Surface-area-heuristic cost: `Σ_node SA(n)/SA(root) · slots(n) +
    /// Σ_leaf slot SA(s)/SA(root) · count(s)` — the expected number of
    /// slot and primitive box tests for a random ray (lower is better).
    pub sah_cost: f64,
    /// Mean leaf-slot depth, weighted by primitive count (the slots of
    /// the root node have depth 1).
    pub mean_leaf_depth: f64,
    /// Maximum leaf-slot depth.
    pub max_depth: usize,
    /// Sum over nodes of the pairwise overlap areas of their slots,
    /// divided by the root area — the refit-degradation signal
    /// (disjoint siblings ⇒ 0).
    pub sibling_overlap: f64,
    /// Number of wide nodes.
    pub nodes: usize,
    /// Number of leaf slots.
    pub leaves: usize,
}

/// The bound-dependent sums of a [`QualityReport`], fed one wide node
/// at a time by the refit pass (bottom-up) or by [`crate::Bvh4`]'s
/// measured collapse (top-down). The two add the same terms in opposite
/// orders, so for the same bounds they agree to the last few bits — far
/// below any drift threshold (DESIGN.md §9).
#[derive(Default)]
pub(crate) struct Measure {
    /// Σ SAH terms, unnormalized.
    sah: f64,
    /// Σ pairwise sibling overlap areas, unnormalized.
    overlap: f64,
}

impl Measure {
    /// Adds a wide node with raw bounds `union`: `slots` are the raw
    /// bounds of its occupied slots, `counts` their primitive counts (0
    /// for an internal slot).
    ///
    /// Measures are taken in `f64`: a finite `f32` box can have a half
    /// perimeter or an area past `f32::MAX` (extents near 1e19), and an
    /// infinite root measure would turn every ratio into NaN.
    pub(crate) fn node<C: Coord>(
        &mut self,
        union: &Rect<C, 3>,
        slots: &[Rect<C, 3>],
        counts: &[u32],
    ) {
        let union = union.to_f64();
        self.sah += union.half_perimeter() * slots.len() as f64;
        for (s, &count) in slots.iter().zip(counts) {
            if count > 0 {
                self.sah += s.to_f64().half_perimeter() * count as f64;
            }
        }
        // Every slot lies inside `union`, so when the union has no area
        // (flat data, such as lifted 2-D rectangles) neither has any
        // pairwise overlap: skipping the pairs adds exactly the same 0.
        if union.area() > 0.0 {
            for (i, s) in slots.iter().enumerate() {
                for t in &slots[i + 1..] {
                    self.overlap += s.to_f64().overlap_area(&t.to_f64());
                }
            }
        }
    }

    /// Normalizes the sums by the root's measures; the bound-independent
    /// fields (counts and depths) come from `shape`, since refit keeps
    /// the topology.
    pub(crate) fn finish<C: Coord>(self, root: &Rect<C, 3>, shape: QualityReport) -> QualityReport {
        if shape.nodes == 0 {
            return QualityReport::default();
        }
        QualityReport {
            sah_cost: self.sah / root.to_f64().half_perimeter().max(1e-30),
            sibling_overlap: self.overlap / root.to_f64().area().max(1e-30),
            ..shape
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bvh::BuildQuality;
    use crate::gas::{BuildOptions, Gas};
    use geom::Point;

    fn grid(n: usize) -> Vec<Rect<f32, 3>> {
        (0..n)
            .map(|i| {
                let x = (i % 64) as f32 * 2.0;
                let y = (i / 64) as f32 * 2.0;
                Rect::xyzxyz(x, y, 0.0, x + 1.0, y + 1.0, 0.0)
            })
            .collect()
    }

    /// Seeded overlapping 3-D boxes, so siblings overlap in volume.
    fn cubes(n: usize) -> Vec<Rect<f32, 3>> {
        let mut state = 17u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 40) as f32 / (1u64 << 24) as f32
        };
        (0..n)
            .map(|_| {
                let [x, y, z] = [next() * 100.0, next() * 100.0, next() * 100.0];
                let e = 2.0 + next() * 8.0;
                Rect::xyzxyz(x, y, z, x + e, y + e, z + e)
            })
            .collect()
    }

    fn gas(boxes: &[Rect<f32, 3>], quality: BuildQuality) -> Gas<f32> {
        let opts = BuildOptions {
            quality,
            ..Default::default()
        };
        Gas::build(boxes.to_vec(), opts).unwrap()
    }

    #[test]
    fn empty_tree_quality() {
        let q = gas(&[], BuildQuality::PreferFastTrace).quality();
        assert_eq!(q, QualityReport::default());
    }

    #[test]
    fn sah_build_beats_fast_build() {
        let boxes = grid(4096);
        let sah = gas(&boxes, BuildQuality::PreferFastTrace).quality();
        let fast = gas(&boxes, BuildQuality::PreferFastBuild).quality();
        assert!(
            sah.sah_cost <= fast.sah_cost * 1.1,
            "SAH {} vs fast {}",
            sah.sah_cost,
            fast.sah_cost
        );
        // Every node but the root fills one slot of its parent, and no
        // node has more than four slots.
        assert!(sah.leaves >= 4096 / 4);
        assert!(sah.leaves + sah.nodes - 1 <= 4 * sah.nodes);
    }

    #[test]
    fn refit_degrades_quality_monotonically() {
        // The Fig 10(c) mechanism made measurable: scattering ever more
        // primitives and refitting must monotonically inflate SAH cost
        // versus the fresh build.
        let boxes = grid(2048);
        let fresh = gas(&boxes, BuildQuality::PreferFastTrace);
        let base = fresh.quality();
        let mut prev_cost = base.sah_cost;
        for scatter_pct in [1usize, 10, 30] {
            let mut moved = boxes.clone();
            let step = 100 / scatter_pct;
            for (i, b) in moved.iter_mut().enumerate() {
                if i % step == 0 {
                    *b = b.translated(&Point::xyz(
                        ((i * 37) % 500) as f32,
                        ((i * 61) % 400) as f32,
                        0.0,
                    ));
                }
            }
            let mut refit = fresh.clone();
            refit.refit(moved.clone()).unwrap();
            let q = refit.quality();
            assert_eq!(refit.quality_baseline(), base);
            assert!(
                q.sah_cost >= prev_cost * 0.95,
                "{scatter_pct}%: cost {} fell below previous {}",
                q.sah_cost,
                prev_cost
            );
            assert!(q.sah_cost > base.sah_cost, "{scatter_pct}%: no degradation");
            // Refit keeps the topology, so the shape fields stay.
            assert_eq!(
                (q.nodes, q.leaves, q.max_depth),
                (base.nodes, base.leaves, base.max_depth)
            );
            // A rebuild restores quality.
            let rebuilt = gas(&moved, BuildQuality::PreferFastTrace).quality();
            assert!(rebuilt.sah_cost < q.sah_cost);
            prev_cost = q.sah_cost;
        }
    }

    #[test]
    fn depth_metrics_consistent() {
        let boxes = grid(1000);
        let q = gas(&boxes, BuildQuality::PreferFastTrace).quality();
        assert!(q.mean_leaf_depth > 1.0);
        assert!(q.mean_leaf_depth <= q.max_depth as f64);
        // At least 250 leaves (leaf size 4) need at least ceil(log4(250))
        // levels of wide nodes.
        assert!(q.max_depth >= 4);
    }

    #[test]
    fn unmoved_refit_measures_the_build() {
        // The build measures while it collapses and the refit while it
        // walks back up, over the same raw bounds: a refit to the same
        // boxes reports the baseline up to summation order.
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * a.abs().max(b.abs());
        for (boxes, flat) in [(grid(777), true), (cubes(777), false)] {
            let mut g = gas(&boxes, BuildQuality::PreferFastTrace);
            g.refit(boxes).unwrap();
            let (now, base) = (g.quality(), g.quality_baseline());
            assert!(close(now.sah_cost, base.sah_cost), "{now:?} vs {base:?}");
            assert!(close(now.sibling_overlap, base.sibling_overlap));
            assert_eq!(base.sibling_overlap > 0.0, !flat);
            assert_eq!(
                (now.nodes, now.leaves, now.max_depth, now.mean_leaf_depth),
                (
                    base.nodes,
                    base.leaves,
                    base.max_depth,
                    base.mean_leaf_depth
                )
            );
        }
    }
}
