//! Geometry Acceleration Structure (GAS): a BVH over AABB primitives,
//! plus the cached primitive array needed for refit (§2.3, §2.4).

use geom::{Coord, Rect};

use crate::bvh::{BuildQuality, Bvh};
use crate::bvh4::Bvh4;
use crate::quality::{analyze, QualityReport};

/// Build options, mirroring the OptiX acceleration-structure build flags
/// that LibRTS relies on.
#[derive(Clone, Copy, Debug)]
pub struct BuildOptions {
    /// Allow subsequent [`Gas::refit`] calls (OptiX `ALLOW_UPDATE`).
    pub allow_update: bool,
    /// Build-quality preference.
    pub quality: BuildQuality,
    /// Max primitives per leaf.
    pub leaf_size: usize,
}

impl Default for BuildOptions {
    fn default() -> Self {
        Self {
            allow_update: true,
            quality: BuildQuality::default(),
            leaf_size: 4,
        }
    }
}

/// Errors from acceleration-structure operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccelError {
    /// Refit requested on a GAS built without `allow_update`.
    UpdateNotAllowed,
    /// Input length does not match the primitive count of the build.
    LengthMismatch {
        /// Primitives in the GAS.
        expected: usize,
        /// Primitives supplied.
        got: usize,
    },
    /// A supplied AABB has NaN/infinite coordinates.
    NonFiniteAabb {
        /// Index of the offending primitive.
        index: usize,
    },
    /// A fault injected by the `chaos` plane (the `rtcore.gas_build` /
    /// `rtcore.ias_build` points) — models a transient device-side
    /// build failure (OptiX `OPTIX_ERROR_*` at accel-build time).
    Injected {
        /// Name of the injection point that fired.
        point: &'static str,
    },
}

impl std::fmt::Display for AccelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AccelError::UpdateNotAllowed => {
                write!(f, "GAS was built without ALLOW_UPDATE; refit unavailable")
            }
            AccelError::LengthMismatch { expected, got } => {
                write!(f, "expected {expected} primitives, got {got}")
            }
            AccelError::NonFiniteAabb { index } => {
                write!(f, "primitive {index} has non-finite coordinates")
            }
            AccelError::Injected { point } => {
                write!(f, "injected fault at {point}")
            }
        }
    }
}

impl std::error::Error for AccelError {}

/// A built GAS. Like an OptiX traversable, it owns the (device-side) copy
/// of the primitive AABBs; refit replaces coordinates in place.
#[derive(Clone, Debug)]
pub struct Gas<C: Coord> {
    bvh: Bvh<C>,
    /// Wide traversal form, collapsed deterministically from `bvh` at
    /// build time and bounds-synced on every refit — the structure every
    /// launch walks.
    wide: Bvh4<C>,
    aabbs: Vec<Rect<C, 3>>,
    options: BuildOptions,
    /// Quality of the BVH as it left the last full build (`build` /
    /// [`Gas::rebuild`]) — the fresh-build reference the maintenance
    /// layer compares against (§6.7 degradation is *drift from this*).
    baseline_quality: QualityReport,
    /// Quality after the most recent build or refit. Refit preserves
    /// topology, so re-measuring is a single O(nodes) walk — the same
    /// order of work as the refit itself — and reading it back is free.
    current_quality: QualityReport,
}

impl<C: Coord> Gas<C> {
    /// Builds a GAS over custom AABB primitives. Rejects non-finite boxes
    /// — degenerate (zero-extent) boxes are accepted, as the §4.2
    /// deletion trick requires.
    pub fn build(aabbs: Vec<Rect<C, 3>>, options: BuildOptions) -> Result<Self, AccelError> {
        if let Err(fault) = chaos::inject("rtcore.gas_build") {
            return Err(AccelError::Injected { point: fault.point });
        }
        for (i, b) in aabbs.iter().enumerate() {
            if !(b.min.is_finite() && b.max.is_finite()) {
                return Err(AccelError::NonFiniteAabb { index: i });
            }
        }
        let bvh = Bvh::build(&aabbs, options.quality, options.leaf_size);
        let wide = Bvh4::collapse(&bvh);
        obs::counter("rtcore.gas_builds").inc();
        obs::counter("rtcore.gas_build_prims").add(aabbs.len() as u64);
        let quality = analyze(&bvh);
        Ok(Self {
            bvh,
            wide,
            aabbs,
            options,
            baseline_quality: quality,
            current_quality: quality,
        })
    }

    /// Number of primitives.
    #[inline]
    pub fn len(&self) -> usize {
        self.aabbs.len()
    }

    /// `true` when no primitives are indexed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.aabbs.is_empty()
    }

    /// World bounds of the whole structure.
    #[inline]
    pub fn bounds(&self) -> Rect<C, 3> {
        self.bvh.root_bounds()
    }

    /// The primitive AABBs currently stored (post-refit coordinates).
    #[inline]
    pub fn aabbs(&self) -> &[Rect<C, 3>] {
        &self.aabbs
    }

    /// Internal binary BVH: the build intermediate the wide form is
    /// collapsed from, its refit source, and what quality analysis
    /// measures.
    #[inline]
    pub fn bvh(&self) -> &Bvh<C> {
        &self.bvh
    }

    /// Internal wide BVH — the structure launches traverse.
    #[inline]
    pub fn wide(&self) -> &Bvh4<C> {
        &self.wide
    }

    /// Build options used.
    #[inline]
    pub fn options(&self) -> BuildOptions {
        self.options
    }

    /// Quality of the BVH as it left the last full build — the
    /// fresh-build baseline refit degradation is measured against.
    #[inline]
    pub fn quality_baseline(&self) -> QualityReport {
        self.baseline_quality
    }

    /// Quality of the BVH right now (re-measured on every refit).
    #[inline]
    pub fn quality(&self) -> QualityReport {
        self.current_quality
    }

    /// Refits the GAS to fully replaced primitive coordinates — the OptiX
    /// *update* operation: topology is preserved, only bounds change.
    pub fn refit(&mut self, aabbs: Vec<Rect<C, 3>>) -> Result<(), AccelError> {
        if !self.options.allow_update {
            return Err(AccelError::UpdateNotAllowed);
        }
        if aabbs.len() != self.aabbs.len() {
            return Err(AccelError::LengthMismatch {
                expected: self.aabbs.len(),
                got: aabbs.len(),
            });
        }
        for (i, b) in aabbs.iter().enumerate() {
            if !(b.min.is_finite() && b.max.is_finite()) {
                return Err(AccelError::NonFiniteAabb { index: i });
            }
        }
        self.aabbs = aabbs;
        self.bvh.refit(&self.aabbs);
        self.wide.refit_from(&self.bvh);
        self.current_quality = analyze(&self.bvh);
        obs::counter("rtcore.gas_refits").inc();
        obs::counter("rtcore.gas_refit_prims").add(self.aabbs.len() as u64);
        Ok(())
    }

    /// Refits after mutating a subset of primitives in place via the
    /// provided closure (avoids reallocating the AABB array for sparse
    /// updates: LibRTS `Update`/`Delete` touch only the given ids).
    pub fn refit_in_place<F>(&mut self, mutate: F) -> Result<(), AccelError>
    where
        F: FnOnce(&mut [Rect<C, 3>]),
    {
        if !self.options.allow_update {
            return Err(AccelError::UpdateNotAllowed);
        }
        mutate(&mut self.aabbs);
        for (i, b) in self.aabbs.iter().enumerate() {
            if !(b.min.is_finite() && b.max.is_finite()) {
                return Err(AccelError::NonFiniteAabb { index: i });
            }
        }
        self.bvh.refit(&self.aabbs);
        self.wide.refit_from(&self.bvh);
        self.current_quality = analyze(&self.bvh);
        obs::counter("rtcore.gas_refits").inc();
        obs::counter("rtcore.gas_refit_prims").add(self.aabbs.len() as u64);
        Ok(())
    }

    /// Rebuilds the BVH from the current primitives — what a user does
    /// when refit quality has degraded too far (§4.2, §6.7). Resets the
    /// quality baseline: the rebuilt tree is the new fresh-build state.
    pub fn rebuild(&mut self) {
        self.bvh = Bvh::build(&self.aabbs, self.options.quality, self.options.leaf_size);
        self.wide = Bvh4::collapse(&self.bvh);
        obs::counter("rtcore.gas_builds").inc();
        obs::counter("rtcore.gas_build_prims").add(self.aabbs.len() as u64);
        self.baseline_quality = analyze(&self.bvh);
        self.current_quality = self.baseline_quality;
    }

    /// Device-memory footprint of this GAS in bytes: the primitive AABB
    /// array plus BVH nodes and the primitive permutation. This is the
    /// quantity behind §6.9's observation that RayJoin "runs out of
    /// memory" — its primitive count is the exploded segment count.
    pub fn memory_bytes(&self) -> usize {
        self.aabbs.len() * std::mem::size_of::<Rect<C, 3>>()
            + self.bvh.nodes.len() * std::mem::size_of::<crate::bvh::Node<C>>()
            + self.bvh.prim_order.len() * std::mem::size_of::<u32>()
            + self.wide.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geom::Point;

    fn sample() -> Vec<Rect<f32, 3>> {
        (0..64)
            .map(|i| {
                let x = (i % 8) as f32 * 2.0;
                let y = (i / 8) as f32 * 2.0;
                Rect::xyzxyz(x, y, 0.0, x + 1.0, y + 1.0, 0.0)
            })
            .collect()
    }

    #[test]
    fn build_and_bounds() {
        let gas = Gas::build(sample(), BuildOptions::default()).unwrap();
        assert_eq!(gas.len(), 64);
        let b = gas.bounds();
        assert_eq!(b.min, Point::xyz(0.0, 0.0, 0.0));
        assert_eq!(b.max, Point::xyz(15.0, 15.0, 0.0));
    }

    #[test]
    fn rejects_nan() {
        let mut bad = sample();
        bad[3].min.coords[0] = f32::NAN;
        let err = Gas::build(bad, BuildOptions::default()).unwrap_err();
        assert_eq!(err, AccelError::NonFiniteAabb { index: 3 });
    }

    #[test]
    fn refit_flag_enforced() {
        let opts = BuildOptions {
            allow_update: false,
            ..Default::default()
        };
        let mut gas = Gas::build(sample(), opts).unwrap();
        assert_eq!(gas.refit(sample()), Err(AccelError::UpdateNotAllowed));
    }

    #[test]
    fn refit_length_checked() {
        let mut gas = Gas::build(sample(), BuildOptions::default()).unwrap();
        let err = gas.refit(sample()[..10].to_vec()).unwrap_err();
        assert_eq!(
            err,
            AccelError::LengthMismatch {
                expected: 64,
                got: 10
            }
        );
    }

    #[test]
    fn refit_moves_bounds() {
        let mut gas = Gas::build(sample(), BuildOptions::default()).unwrap();
        let moved: Vec<_> = sample()
            .iter()
            .map(|r| r.translated(&Point::xyz(100.0, 0.0, 0.0)))
            .collect();
        gas.refit(moved).unwrap();
        assert_eq!(gas.bounds().min.x(), 100.0);
        gas.bvh().validate(gas.aabbs()).unwrap();
    }

    #[test]
    fn refit_in_place_sparse() {
        let mut gas = Gas::build(sample(), BuildOptions::default()).unwrap();
        gas.refit_in_place(|aabbs| {
            aabbs[0] = aabbs[0].degenerated();
        })
        .unwrap();
        assert!(gas.aabbs()[0].is_degenerate());
        gas.bvh().validate(gas.aabbs()).unwrap();
    }

    #[test]
    fn rebuild_restores_quality() {
        let mut gas = Gas::build(sample(), BuildOptions::default()).unwrap();
        // Scatter primitives wildly, refit (bad quality), then rebuild.
        let scattered: Vec<_> = sample()
            .iter()
            .enumerate()
            .map(|(i, r)| r.translated(&Point::xyz((i as f32) * 37.0, (i as f32) * -13.0, 0.0)))
            .collect();
        gas.refit(scattered).unwrap();
        gas.rebuild();
        gas.bvh().validate(gas.aabbs()).unwrap();
    }

    #[test]
    fn quality_tracks_refit_and_resets_on_rebuild() {
        let mut gas = Gas::build(sample(), BuildOptions::default()).unwrap();
        let base = gas.quality_baseline();
        assert_eq!(gas.quality(), base, "fresh build: current == baseline");

        let scattered: Vec<_> = sample()
            .iter()
            .enumerate()
            .map(|(i, r)| r.translated(&Point::xyz((i as f32) * 37.0, (i as f32) * -13.0, 0.0)))
            .collect();
        gas.refit(scattered).unwrap();
        assert_eq!(gas.quality_baseline(), base, "refit keeps the baseline");
        assert!(
            gas.quality().sah_cost > base.sah_cost,
            "scatter-refit must register as SAH degradation"
        );

        gas.rebuild();
        assert_eq!(
            gas.quality(),
            gas.quality_baseline(),
            "rebuild resets the baseline to the rebuilt tree"
        );
        assert!(gas.quality().sah_cost < base.sah_cost * 100.0);
    }

    #[test]
    fn empty_gas() {
        let gas = Gas::<f32>::build(vec![], BuildOptions::default()).unwrap();
        assert!(gas.is_empty());
        assert!(gas.bounds().is_empty());
    }
}
