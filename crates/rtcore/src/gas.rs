//! Geometry Acceleration Structure (GAS): a wide BVH over AABB
//! primitives, plus the cached primitive array needed for refit (§2.3,
//! §2.4).

use std::sync::Arc;

use geom::{Coord, Rect};

use crate::bvh::{BuildQuality, Bvh};
use crate::bvh4::Bvh4;
use crate::quality::{Measure, QualityReport};

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
/// of the primitive AABBs and one tree over them: the wide [`Bvh4`]
/// every launch walks. The binary BVH is a build intermediate only;
/// refit works on the wide tree in one pass.
#[derive(Clone, Debug)]
pub struct Gas<C: Coord> {
    /// The tree launches walk, collapsed from a binary build and refit
    /// in place (a shared GAS's copy first, see [`Gas::refit_shared`]).
    wide: Bvh4<C>,
    aabbs: Vec<Rect<C, 3>>,
    /// Raw (uninflated) union of all primitives: the binary root at
    /// build, the refit pass's root union after a refit.
    bounds: Rect<C, 3>,
    options: BuildOptions,
    /// Quality of the tree as it left the last full build (`build` /
    /// [`Gas::rebuild`]) — the fresh-build reference the maintenance
    /// layer compares against (§6.7 degradation is *drift from this*).
    baseline_quality: QualityReport,
    /// Quality after the most recent build or refit, measured by the
    /// refit pass itself — reading it back is free.
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
        check_finite(&aabbs)?;
        Ok(Self::build_checked(aabbs, options))
    }

    /// Builds the binary BVH, collapses it and drops it. A GAS built
    /// without `allow_update` is never refit, so nothing reads its drift
    /// and its quality is not measured (it reads as all zero).
    fn build_checked(aabbs: Vec<Rect<C, 3>>, options: BuildOptions) -> Self {
        let bvh = Bvh::build(&aabbs, options.quality, options.leaf_size);
        let mut measure = options.allow_update.then(Measure::default);
        let wide = Bvh4::collapse_measured(&bvh, measure.as_mut());
        let bounds = bvh.root_bounds();
        drop(bvh);
        obs::counter("rtcore.gas_builds").inc();
        obs::counter("rtcore.gas_build_prims").add(aabbs.len() as u64);
        let quality =
            measure.map_or_else(QualityReport::default, |m| m.finish(&bounds, wide.shape()));
        Self {
            wide,
            aabbs,
            bounds,
            options,
            baseline_quality: quality,
            current_quality: quality,
        }
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

    /// World bounds of the whole structure: the raw union of the
    /// primitive boxes (empty rect when there are none).
    #[inline]
    pub fn bounds(&self) -> Rect<C, 3> {
        self.bounds
    }

    /// The primitive AABBs currently stored (post-refit coordinates).
    #[inline]
    pub fn aabbs(&self) -> &[Rect<C, 3>] {
        &self.aabbs
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

    /// Quality of the tree as it left the last full build — the
    /// fresh-build baseline refit degradation is measured against.
    #[inline]
    pub fn quality_baseline(&self) -> QualityReport {
        self.baseline_quality
    }

    /// Quality of the tree right now (re-measured on every refit; all
    /// zero for a GAS built without `allow_update`).
    #[inline]
    pub fn quality(&self) -> QualityReport {
        self.current_quality
    }

    /// Refits the GAS to fully replaced primitive coordinates — the OptiX
    /// *update* operation: topology is preserved, only bounds change.
    /// `aabbs` becomes the GAS's AABB array. On error nothing changes.
    pub fn refit(&mut self, aabbs: Vec<Rect<C, 3>>) -> Result<(), AccelError> {
        self.check_update(&aabbs)?;
        self.aabbs = aabbs;
        self.refit_stored();
        Ok(())
    }

    /// Refits the GAS behind a shared handle, copy-on-write. When `gas`
    /// is the only handle it is refit in place; otherwise (a published
    /// snapshot still holds it) `gas` is pointed at a copy whose AABB
    /// array is `aabbs` and whose tree is a clone of the shared one,
    /// refit in place. Only the tree is copied: the shared AABBs, which
    /// the refit would replace, are not. Other holders keep the old GAS
    /// untouched, and on error `gas` still points at it.
    pub fn refit_shared(gas: &mut Arc<Self>, aabbs: Vec<Rect<C, 3>>) -> Result<(), AccelError> {
        if let Some(unique) = Arc::get_mut(gas) {
            return unique.refit(aabbs);
        }
        gas.check_update(&aabbs)?;
        let mut copy = Self {
            wide: gas.wide.clone(),
            aabbs,
            bounds: gas.bounds,
            options: gas.options,
            baseline_quality: gas.baseline_quality,
            current_quality: gas.current_quality,
        };
        copy.refit_stored();
        *gas = Arc::new(copy);
        Ok(())
    }

    /// Refits the tree to the stored (already validated) AABBs and
    /// re-measures the current quality in the same pass.
    fn refit_stored(&mut self) {
        let mut measure = Measure::default();
        self.bounds = self.wide.refit(&self.aabbs, Some(&mut measure));
        self.current_quality = measure.finish(&self.bounds, self.current_quality);
        count_refit(self.aabbs.len());
    }

    /// What every refit checks before it stores anything: the GAS
    /// allows updates and `aabbs` has its primitive count and only
    /// finite boxes.
    fn check_update(&self, aabbs: &[Rect<C, 3>]) -> Result<(), AccelError> {
        if !self.options.allow_update {
            return Err(AccelError::UpdateNotAllowed);
        }
        if aabbs.len() != self.aabbs.len() {
            return Err(AccelError::LengthMismatch {
                expected: self.aabbs.len(),
                got: aabbs.len(),
            });
        }
        check_finite(aabbs)
    }

    /// Rebuilds the BVH from the current primitives — what a user does
    /// when refit quality has degraded too far (§4.2, §6.7). Resets the
    /// quality baseline: the rebuilt tree is the new fresh-build state.
    pub fn rebuild(&mut self) {
        let aabbs = std::mem::take(&mut self.aabbs);
        *self = Self::build_checked(aabbs, self.options);
    }

    /// [`Gas::rebuild`] behind a shared handle: in place when `gas` is
    /// the only handle, otherwise `gas` is pointed at a fresh build over
    /// a copy of the boxes. Only the boxes are copied — not the tree the
    /// rebuild replaces — and other holders keep the old GAS.
    pub fn rebuild_shared(gas: &mut Arc<Self>) {
        match Arc::get_mut(gas) {
            Some(unique) => unique.rebuild(),
            None => *gas = Arc::new(Self::build_checked(gas.aabbs.clone(), gas.options)),
        }
    }

    /// Box walk: calls `emit` with slices of the primitives whose box
    /// intersects `b` (closed, [`Rect::intersects`]), each primitive
    /// exactly once, in no particular order. A subtree inside `b` comes
    /// out whole, untested, which is exact for boxes with `min <= max`.
    /// Host-side: it models no device time and counts no
    /// [`crate::RayStats`].
    pub fn walk_box<F: FnMut(&[u32])>(&self, b: &Rect<C, 3>, emit: F) {
        self.wide.walk_box(b, &self.aabbs, emit);
    }

    /// Device-memory footprint of this GAS in bytes: the primitive AABB
    /// array plus the wide tree's nodes, primitive permutation and
    /// per-node `prim_order` ranges. This
    /// is the quantity behind §6.9's observation that RayJoin "runs out
    /// of memory" — its primitive count is the exploded segment count.
    pub fn memory_bytes(&self) -> usize {
        self.aabbs.len() * std::mem::size_of::<Rect<C, 3>>() + self.wide.memory_bytes()
    }
}

fn check_finite<C: Coord>(aabbs: &[Rect<C, 3>]) -> Result<(), AccelError> {
    match aabbs
        .iter()
        .position(|b| !(b.min.is_finite() && b.max.is_finite()))
    {
        Some(index) => Err(AccelError::NonFiniteAabb { index }),
        None => Ok(()),
    }
}

fn count_refit(prims: usize) {
    obs::counter("rtcore.gas_refits").inc();
    obs::counter("rtcore.gas_refit_prims").add(prims as u64);
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
        gas.wide().validate(gas.aabbs()).unwrap();
    }

    #[test]
    fn refit_sparse() {
        let mut gas = Gas::build(sample(), BuildOptions::default()).unwrap();
        let mut aabbs = gas.aabbs().to_vec();
        aabbs[0] = aabbs[0].degenerated();
        gas.refit(aabbs).unwrap();
        assert!(gas.aabbs()[0].is_degenerate());
        gas.wide().validate(gas.aabbs()).unwrap();
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
        gas.wide().validate(gas.aabbs()).unwrap();
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
        let mut gas = Gas::<f32>::build(vec![], BuildOptions::default()).unwrap();
        assert!(gas.is_empty());
        assert!(gas.bounds().is_empty());
        gas.refit(vec![]).unwrap();
        assert!(gas.bounds().is_empty());
        assert_eq!(gas.quality(), QualityReport::default());
        assert_eq!(gas.memory_bytes(), 0);
    }

    /// Seeded boxes spread over `[-50, 150)²`.
    fn scattered(n: usize, seed: u64) -> Vec<Rect<f32, 3>> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / 2f64.powi(31)) as f32
        };
        (0..n)
            .map(|_| {
                let (x, y) = (next() * 200.0 - 50.0, next() * 200.0 - 50.0);
                Rect::xyzxyz(x, y, 0.0, x + next() * 3.0, y + next() * 3.0, 0.0)
            })
            .collect()
    }

    /// Finds every primitive containing `p` through a launch.
    fn probe(gas: &Gas<f32>, p: Point<f32, 3>) -> Vec<u32> {
        use crate::{Device, HitContext, IsResult, RtProgram};
        use std::sync::Mutex;
        struct Collect<'a>(&'a Mutex<Vec<u32>>);
        impl RtProgram<f32> for Collect<'_> {
            type Payload = Point<f32, 3>;
            fn intersection(
                &self,
                ctx: &HitContext<'_, f32>,
                p: &mut Point<f32, 3>,
            ) -> IsResult<f32> {
                if ctx.aabb.contains_point(p) {
                    self.0.lock().unwrap().push(ctx.primitive_index);
                }
                IsResult::Ignore
            }
        }
        let hits = Mutex::new(Vec::new());
        Device::new().launch::<f32, _>(1, |_, session| {
            let mut q = p;
            session.trace(gas, &Collect(&hits), &geom::Ray::point_probe(p), &mut q);
        });
        let mut hits = hits.into_inner().unwrap();
        hits.sort_unstable();
        hits
    }

    #[test]
    fn rejected_refit_commits_nothing() {
        // Box 0 moves far away and box 1 turns NaN in the same update:
        // every refit entry point fails and leaves the GAS exactly as
        // before — its boxes, bounds and quality, and box 0 is still
        // found where it was. A shared handle keeps pointing at it.
        let gas = Gas::build(sample(), BuildOptions::default()).unwrap();
        let (aabbs, bounds, quality) = (gas.aabbs().to_vec(), gas.bounds(), gas.quality());
        let at = aabbs[0].center();
        assert_eq!(probe(&gas, at), vec![0]);
        let mut bad = aabbs.clone();
        bad[0] = bad[0].translated(&Point::xyz(1e4, 1e4, 0.0));
        bad[1].max.coords[1] = f32::NAN;
        let unchanged = |gas: &Gas<f32>| {
            assert_eq!(gas.aabbs(), &aabbs[..]);
            assert_eq!((gas.bounds(), gas.quality()), (bounds, quality));
            assert_eq!(probe(gas, at), vec![0]);
            gas.wide().validate(gas.aabbs()).unwrap();
        };
        let err = AccelError::NonFiniteAabb { index: 1 };

        let mut plain = gas.clone();
        assert_eq!(plain.refit(bad.clone()), Err(err.clone()));
        unchanged(&plain);

        let mut unique = Arc::new(gas.clone());
        assert_eq!(
            Gas::refit_shared(&mut unique, bad.clone()),
            Err(err.clone())
        );
        unchanged(&unique);

        let mut shared = Arc::new(gas);
        let held = Arc::clone(&shared);
        assert_eq!(Gas::refit_shared(&mut shared, bad), Err(err));
        assert!(Arc::ptr_eq(&shared, &held));
        unchanged(&shared);
    }

    #[test]
    fn refit_matches_binary_reference() {
        // The GAS-level view of the wide refit equivalence (the record
        // comparison is in `bvh4`): after seeded moves and deletions,
        // bounds equal the binary refit's root, the tree validates
        // against the new boxes, and every live box is found.
        for leaf_size in [1, 4, 8] {
            let opts = BuildOptions {
                leaf_size,
                ..Default::default()
            };
            let before = scattered(500, 7 + leaf_size as u64);
            let mut gas = Gas::build(before.clone(), opts).unwrap();
            let after: Vec<_> = before
                .iter()
                .zip(scattered(500, 99))
                .enumerate()
                .map(|(i, (b, m))| match i % 3 {
                    0 => m,
                    1 => b.degenerated(),
                    _ => *b,
                })
                .collect();
            let mut binary = Bvh::build(&before, opts.quality, leaf_size);
            binary.refit(&after);
            gas.refit(after.clone()).unwrap();
            let (got, want) = (gas.bounds(), binary.root_bounds());
            assert!(got.min == want.min && got.max == want.max);
            gas.wide().validate(&after).unwrap();
            for (i, b) in after.iter().enumerate().filter(|(_, b)| !b.is_degenerate()) {
                assert!(probe(&gas, b.center()).contains(&(i as u32)), "lost #{i}");
            }
        }
    }

    #[test]
    fn shared_refit_leaves_other_holders_alone() {
        let before = scattered(300, 3);
        let mut mine = Arc::new(Gas::build(before.clone(), BuildOptions::default()).unwrap());
        let theirs = Arc::clone(&mine);
        let after: Vec<_> = before
            .iter()
            .map(|r| r.translated(&Point::xyz(0.0, 500.0, 0.0)))
            .collect();
        let old_at = before[10].center();
        let (old_bounds, old_quality) = (theirs.bounds(), theirs.quality());
        let old_nodes = format!("{:?}", theirs.wide());
        Gas::refit_shared(&mut mine, after.clone()).unwrap();
        assert!(
            !Arc::ptr_eq(&mine, &theirs),
            "a shared GAS is refit by copy"
        );

        // The other holder is untouched: boxes, bounds, tree, quality.
        assert_eq!(theirs.aabbs(), &before[..]);
        assert_eq!(theirs.bounds(), Rect::bounding_all(before.iter()));
        assert_eq!(
            (theirs.bounds(), theirs.quality()),
            (old_bounds, old_quality)
        );
        assert_eq!(format!("{:?}", theirs.wide()), old_nodes);
        assert_eq!(theirs.quality(), theirs.quality_baseline());
        theirs.wide().validate(&before).unwrap();
        assert!(probe(&theirs, old_at).contains(&10));

        // The copy equals a unique refit of the same GAS.
        let mut unique = Arc::new(Gas::build(before, BuildOptions::default()).unwrap());
        Gas::refit_shared(&mut unique, after.clone()).unwrap();
        assert_eq!(mine.aabbs(), &after[..]);
        assert_eq!(mine.bounds(), unique.bounds());
        assert_eq!(mine.quality(), unique.quality());
        assert_eq!(mine.quality_baseline(), theirs.quality_baseline());
        assert_eq!(format!("{:?}", mine.wide()), format!("{:?}", unique.wide()));
        assert!(probe(&mine, after[10].center()).contains(&10));
        assert!(probe(&mine, old_at).is_empty());
    }

    #[test]
    fn memory_is_the_arrays_held() {
        for n in [0usize, 1, 64, 1000] {
            let gas = Gas::build(scattered(n, 5), BuildOptions::default()).unwrap();
            let wide = gas.wide();
            // Per wide node: its 128-byte record and its 8-byte prim range.
            let want = n * std::mem::size_of::<Rect<f32, 3>>()
                + wide.node_count() * (128 + 8)
                + n * std::mem::size_of::<u32>();
            assert_eq!(gas.memory_bytes(), want, "n = {n}");
        }
    }

    #[test]
    fn no_update_gas_skips_quality() {
        let opts = BuildOptions {
            allow_update: false,
            ..Default::default()
        };
        let gas = Gas::build(sample(), opts).unwrap();
        assert_eq!(gas.quality(), QualityReport::default());
        assert_eq!(gas.quality_baseline(), QualityReport::default());
        assert!(
            Gas::build(sample(), BuildOptions::default())
                .unwrap()
                .quality()
                .sah_cost
                > 0.0
        );
    }
}
