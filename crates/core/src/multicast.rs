//! Ray Multicast load balancing (§3.4).
//!
//! OptiX's single-ray model pins all shader work for a ray to the thread
//! that cast it, so a ray hitting many primitives stalls its whole warp.
//! Ray Multicast splits the `N` primitives evenly into `k` sets placed in
//! `k` disjoint sub-spaces (coordinates normalized to `[0,1]`, then offset
//! along x by the sub-space index), and duplicates every query ray into
//! `k` offset copies — bounding any thread's intersections by `N/k`.
//!
//! The parameter `k` is picked by a cost model,
//! `C = (1-w)·C_R + w·C_I` with `C_R = |R|·k·log N` (ray-casting cost)
//! and `C_I = N·|R|·s / k` (per-thread intersection cost), where the
//! selectivity `s` is estimated by brute-forcing a small sample.
//!
//! The model prices a GPU warp, which waits for its slowest lane. This
//! library's device runs a warp's lanes one after another on one host
//! worker, so a warp costs the sum of its lanes: the intersection work
//! `N·|R|·s` is the same at every `k`, and each extra copy only adds a
//! full walk of the query GAS. On the host the cheapest `k` is therefore
//! 1, and [`MulticastConfig::default`] is [`MulticastMode::Off`], which
//! also skips the selectivity sample and the `k` sweep. The paper's
//! configuration, which every paper figure runs, is
//! `MulticastConfig { mode: MulticastMode::Auto, ..Default::default() }`.

use geom::{Coord, Point, Rect, Segment};

/// How `k` is chosen.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MulticastMode {
    /// Disabled: `k = 1`.
    Off,
    /// Cost-model prediction with sampling-based selectivity estimation
    /// (the paper's configuration).
    Auto,
    /// Force a specific `k` (used by the Fig. 9a sweep).
    Fixed(usize),
}

/// Which axis carries the sub-space offsets (footnote 4 of the paper:
/// "we can also put the geometries into subspaces by specifying the
/// unused z-coordinate").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum MulticastAxis {
    /// Offset normalized x by the sub-space index (the paper's Figure 5
    /// presentation).
    #[default]
    XOffset,
    /// Place sub-space `j` in the plane `z = j`, leaving x untouched —
    /// uses the dimension 2-D data leaves free in the native 3-D space.
    ZPlane,
}

/// Configuration for Ray Multicast.
///
/// The default is [`MulticastMode::Off`] (`k = 1`) with the paper's
/// `weight`, `sample_size`, `max_k` and `axis`: on this host a warp
/// costs the sum of its lanes, so every multicast copy is extra
/// traversal and `k = 1` is the fastest choice (module docs). The
/// paper's configuration is
/// `MulticastConfig { mode: MulticastMode::Auto, ..Default::default() }`.
#[derive(Clone, Copy, Debug)]
pub struct MulticastConfig {
    /// Selection mode.
    pub mode: MulticastMode,
    /// Sub-space encoding axis.
    pub axis: MulticastAxis,
    /// Weight `w` of the intersection cost in the total-cost formula.
    /// An IS-shader intersection is far more expensive than an RT-core
    /// node step, so the weight is heavily tilted toward `C_I`.
    pub weight: f64,
    /// Rows/columns of the sampling grid for selectivity estimation
    /// (`sample_size` primitives × `sample_size` rays are brute-forced).
    pub sample_size: usize,
    /// Largest `k` considered (power of two; the paper sweeps to 512).
    pub max_k: usize,
}

impl Default for MulticastConfig {
    fn default() -> Self {
        Self {
            mode: MulticastMode::Off,
            axis: MulticastAxis::default(),
            weight: 0.98,
            sample_size: 192,
            max_k: 512,
        }
    }
}

/// The two components of the cost model at `k` (Equations 3–4):
/// `C_R = |R|·k·log N` and `C_I = N·|R|·s/k`.
pub fn multicast_cost_parts(k: usize, rays: usize, prims: usize, selectivity: f64) -> (f64, f64) {
    let k = k as f64;
    let log_n = (prims.max(2) as f64).log2();
    let c_r = rays as f64 * k * log_n;
    let c_i = prims as f64 * rays as f64 * selectivity / k;
    (c_r, c_i)
}

/// Cost of a `(k, |R|, N, s)` configuration (Equations 3–5).
pub fn multicast_cost(k: usize, rays: usize, prims: usize, selectivity: f64, w: f64) -> f64 {
    let (c_r, c_i) = multicast_cost_parts(k, rays, prims, selectivity);
    (1.0 - w) * c_r + w * c_i
}

/// The full decision trace of the `k` sweep: every power-of-two
/// candidate `k ∈ [1, max_k]` with its `(k, C_R, C_I, cost)` tuple, in
/// sweep order. [`choose_k`] folds exactly this list; EXPLAIN renders
/// it.
pub fn cost_sweep(
    rays: usize,
    prims: usize,
    selectivity: f64,
    w: f64,
    max_k: usize,
) -> Vec<(usize, f64, f64, f64)> {
    let mut out = Vec::new();
    let mut k = 1usize;
    while k <= max_k.max(1) {
        let (c_r, c_i) = multicast_cost_parts(k, rays, prims, selectivity);
        out.push((k, c_r, c_i, (1.0 - w) * c_r + w * c_i));
        k *= 2;
    }
    out
}

/// Picks the power-of-two `k ∈ [1, max_k]` minimizing the cost model.
/// `k` is constrained to powers of two for warp efficiency (§3.4).
pub fn choose_k(rays: usize, prims: usize, selectivity: f64, w: f64, max_k: usize) -> usize {
    if rays == 0 || prims == 0 {
        return 1;
    }
    let mut best_k = 1usize;
    let mut best_c = f64::MAX;
    for (k, _, _, c) in cost_sweep(rays, prims, selectivity, w, max_k) {
        if c < best_c {
            best_c = c;
            best_k = k;
        }
    }
    best_k
}

/// Estimates the Range-Intersects selectivity `s` (fraction of the
/// `|N|·|R|` cross product that intersects) by brute-forcing a sample of
/// primitives against a sample of query rectangles — the paper's
/// sampling trial run. Deterministic strided sampling keeps the
/// estimator reproducible and cheap (`O(sample²)`), and the strided
/// picks are walked in place rather than gathered into per-call sample
/// buffers, so the k-prediction phase of a repeated
/// `explain_intersects`/query batch performs no heap allocation at all.
pub fn estimate_selectivity<C: Coord>(
    prims: &[Rect<C, 2>],
    queries: &[Rect<C, 2>],
    sample_size: usize,
) -> f64 {
    if prims.is_empty() || queries.is_empty() {
        return 0.0;
    }
    let np = sample_size.clamp(1, prims.len());
    let pstride = prims.len() / np;
    let nq = sample_size.clamp(1, queries.len());
    let qstride = queries.len() / nq;
    let mut hits = 0u64;
    for i in 0..np {
        let p = &prims[i * pstride];
        for j in 0..nq {
            if p.intersects(&queries[j * qstride]) {
                hits += 1;
            }
        }
    }
    hits as f64 / (np as f64 * nq as f64)
}

/// As [`estimate_selectivity`] but sampling only the listed ids — the
/// live subset of a churned index and the valid subset of a query
/// batch. Sampling deleted (degenerated) slots biases the estimate
/// toward zero, which under-predicts `k` exactly when churn makes load
/// balancing matter. With identity id lists the strided picks are the
/// same as [`estimate_selectivity`]'s, so delete-free workloads keep
/// byte-identical estimates. Allocation-free like the plain estimator:
/// the id indirection is resolved per pick instead of materializing
/// sampled copies.
pub fn estimate_selectivity_ids<C: Coord>(
    prims: &[Rect<C, 2>],
    prim_ids: &[u32],
    queries: &[Rect<C, 2>],
    query_ids: &[u32],
    sample_size: usize,
) -> f64 {
    if prim_ids.is_empty() || query_ids.is_empty() {
        return 0.0;
    }
    let np = sample_size.clamp(1, prim_ids.len());
    let pstride = prim_ids.len() / np;
    let nq = sample_size.clamp(1, query_ids.len());
    let qstride = query_ids.len() / nq;
    let mut hits = 0u64;
    for i in 0..np {
        let p = &prims[prim_ids[i * pstride] as usize];
        for j in 0..nq {
            if p.intersects(&queries[query_ids[j * qstride] as usize]) {
                hits += 1;
            }
        }
    }
    hits as f64 / (np as f64 * nq as f64)
}

/// The sub-space layout of a multicast build: rectangles are normalized
/// within `frame` to `[0,1]²` and rectangle `i` is shifted to
/// `x += (i mod k)`. Rays are duplicated `k` times with matching
/// offsets. `z` stays untouched (we use the x-offset variant; footnote 4
/// notes the z-plane variant as an alternative — see the ablation bench).
#[derive(Clone, Debug)]
pub struct MulticastLayout<C: Coord> {
    /// Number of sub-spaces.
    pub k: usize,
    /// Normalization frame (bounding box of primitives and ray extents).
    pub frame: Rect<C, 2>,
    /// Sub-space encoding axis.
    pub axis: MulticastAxis,
}

impl<C: Coord> MulticastLayout<C> {
    /// Creates a layout with `k` sub-spaces over the given frame,
    /// offsetting along x. A degenerate frame axis is widened so
    /// normalization stays finite.
    pub fn new(k: usize, frame: Rect<C, 2>) -> Self {
        Self::with_axis(k, frame, MulticastAxis::XOffset)
    }

    /// As [`MulticastLayout::new`] with an explicit encoding axis.
    pub fn with_axis(k: usize, frame: Rect<C, 2>, axis: MulticastAxis) -> Self {
        assert!(k >= 1);
        let mut frame = frame;
        for d in 0..2 {
            if frame.extent(d) <= C::ZERO {
                frame.max.coords[d] = frame.min.coords[d] + C::ONE;
            }
        }
        Self { k, frame, axis }
    }

    /// z-coordinate of sub-space `j` (0 for the x-offset encoding).
    #[inline]
    pub fn z_of(&self, j: usize) -> C {
        match self.axis {
            MulticastAxis::XOffset => C::ZERO,
            MulticastAxis::ZPlane => C::from_usize(j),
        }
    }

    /// Sub-space owning item `i` (even split by round-robin).
    #[inline]
    pub fn subspace_of(&self, i: usize) -> usize {
        i % self.k
    }

    /// Places rectangle `i` into its sub-space: normalize, then offset
    /// along the encoding axis (x stays put for the z-plane variant —
    /// the caller lifts with [`MulticastLayout::z_of`]).
    #[inline]
    pub fn place_rect(&self, i: usize, r: &Rect<C, 2>) -> Rect<C, 2> {
        let mut n = r.normalize_within(&self.frame);
        if self.axis == MulticastAxis::XOffset {
            let offset = C::from_usize(self.subspace_of(i));
            n.min.coords[0] += offset;
            n.max.coords[0] += offset;
        }
        n
    }

    /// Places a segment (a diagonal to be cast as a ray) into sub-space
    /// `j`.
    #[inline]
    pub fn place_segment(&self, j: usize, s: &Segment<C, 2>) -> Segment<C, 2> {
        debug_assert!(j < self.k);
        let offset = C::from_usize(j);
        Segment::new(
            self.place_point(offset, &s.a),
            self.place_point(offset, &s.b),
        )
    }

    #[inline]
    fn place_point(&self, x_offset: C, p: &Point<C, 2>) -> Point<C, 2> {
        let x_offset = match self.axis {
            MulticastAxis::XOffset => x_offset,
            MulticastAxis::ZPlane => C::ZERO,
        };
        let nx = (p.x() - self.frame.min.x()) / self.frame.extent(0) + x_offset;
        let ny = (p.y() - self.frame.min.y()) / self.frame.extent(1);
        Point::xy(nx, ny)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geom::anti_diagonal;

    #[test]
    fn cost_model_tradeoff() {
        // More sub-spaces always raise ray cost and lower per-thread
        // intersection cost.
        let (rays, prims, s, w) = (50_000, 250_000, 0.001, 0.98);
        let c1 = multicast_cost(1, rays, prims, s, w);
        let c16 = multicast_cost(16, rays, prims, s, w);
        let c512 = multicast_cost(512, rays, prims, s, w);
        assert!(c16 < c1, "moderate k must beat k=1 on a skewed workload");
        assert!(c512 > c16, "excessive k pays too much ray-cast cost");
    }

    #[test]
    fn choose_k_matches_paper_scale() {
        // USCensus-scale workload (§6.5): 248.9K rects, 50K queries,
        // 0.1% selectivity. The paper's model predicts k = 32.
        let k = choose_k(50_000, 248_900, 0.001, 0.98, 512);
        assert!(
            (16..=64).contains(&k),
            "predicted k={k}, expected the paper's 32 +/- one step"
        );
    }

    #[test]
    fn choose_k_degenerate_inputs() {
        assert_eq!(choose_k(0, 100, 0.1, 0.98, 512), 1);
        assert_eq!(choose_k(100, 0, 0.1, 0.98, 512), 1);
        // Zero selectivity: casting extra rays can never pay off.
        assert_eq!(choose_k(100, 100, 0.0, 0.98, 512), 1);
    }

    #[test]
    fn selectivity_estimator_uniform() {
        // Grid of unit boxes; queries identical to prims => selectivity
        // equals the true intersect fraction of the sample cross product.
        let prims: Vec<Rect<f32, 2>> = (0..1000)
            .map(|i| {
                let x = (i % 100) as f32 * 2.0;
                let y = (i / 100) as f32 * 2.0;
                Rect::xyxy(x, y, x + 1.0, y + 1.0)
            })
            .collect();
        let s_self = estimate_selectivity(&prims, &prims, 64);
        // A box intersects only itself in this layout.
        let expected = 1.0 / 64.0;
        assert!(
            (s_self - expected).abs() < expected * 0.5,
            "estimated {s_self}, expected ~{expected}"
        );
        // Fully-overlapping queries: selectivity 1.
        let world = vec![Rect::xyxy(0.0f32, 0.0, 1000.0, 1000.0); 100];
        assert_eq!(estimate_selectivity(&world, &prims, 32), 1.0);
        // Empty inputs.
        assert_eq!(estimate_selectivity::<f32>(&[], &prims, 32), 0.0);
    }

    #[test]
    fn id_sampling_with_identity_matches_full_sampling() {
        let prims: Vec<Rect<f32, 2>> = (0..500)
            .map(|i| {
                let x = (i % 25) as f32 * 3.0;
                let y = (i / 25) as f32 * 3.0;
                Rect::xyxy(x, y, x + 2.0, y + 2.0)
            })
            .collect();
        let ids: Vec<u32> = (0..prims.len() as u32).collect();
        assert_eq!(
            estimate_selectivity_ids(&prims, &ids, &prims, &ids, 64),
            estimate_selectivity(&prims, &prims, 64),
        );
    }

    #[test]
    fn id_sampling_skips_dead_slots() {
        // Every odd slot is a degenerated (deleted) rect; sampling over
        // live ids only must see the same selectivity as a fresh index
        // holding just the live rects.
        let live: Vec<Rect<f32, 2>> = (0..200)
            .map(|i| {
                let x = (i % 20) as f32 * 3.0;
                let y = (i / 20) as f32 * 3.0;
                Rect::xyxy(x, y, x + 2.0, y + 2.0)
            })
            .collect();
        let mut churned = Vec::new();
        let mut live_ids = Vec::new();
        for r in &live {
            live_ids.push(churned.len() as u32);
            churned.push(*r);
            churned.push(r.degenerated());
        }
        let qids: Vec<u32> = (0..live.len() as u32).collect();
        let fresh = estimate_selectivity(&live, &live, 48);
        let from_churned = estimate_selectivity_ids(&churned, &live_ids, &live, &qids, 48);
        assert_eq!(from_churned, fresh);
        assert!(fresh > 0.0);
    }

    #[test]
    fn layout_places_disjoint_subspaces() {
        let frame = Rect::xyxy(0.0f32, 0.0, 100.0, 100.0);
        let layout = MulticastLayout::new(4, frame);
        let r = Rect::xyxy(10.0f32, 10.0, 20.0, 20.0);
        for i in 0..8 {
            let placed = layout.place_rect(i, &r);
            let j = layout.subspace_of(i) as f32;
            assert!(placed.min.x() >= j - 1e-6 && placed.max.x() <= j + 1.0 + 1e-6);
            assert!(placed.min.y() >= -1e-6 && placed.max.y() <= 1.0 + 1e-6);
        }
        // Items 4 apart share a sub-space.
        assert_eq!(layout.place_rect(1, &r), layout.place_rect(5, &r));
    }

    #[test]
    fn layout_preserves_intersections_per_subspace() {
        // Intersection between ray j and rect i placed in subspace j
        // holds iff it held in the original space.
        let frame = Rect::xyxy(0.0f32, 0.0, 50.0, 50.0);
        let layout = MulticastLayout::new(3, frame);
        let rects = [
            Rect::xyxy(1.0f32, 1.0, 5.0, 5.0),
            Rect::xyxy(10.0f32, 10.0, 20.0, 20.0),
            Rect::xyxy(30.0f32, 2.0, 40.0, 9.0),
        ];
        let query = Rect::xyxy(0.0f32, 0.0, 45.0, 45.0);
        let seg = anti_diagonal(&query);
        for (i, r) in rects.iter().enumerate() {
            let j = layout.subspace_of(i);
            let placed_rect = layout.place_rect(i, r);
            let placed_seg = layout.place_segment(j, &seg);
            assert_eq!(
                placed_seg.intersects_rect(&placed_rect),
                seg.intersects_rect(r),
                "rect {i}"
            );
        }
    }

    #[test]
    fn zplane_layout_separates_by_z() {
        let frame = Rect::xyxy(0.0f32, 0.0, 100.0, 100.0);
        let layout = MulticastLayout::with_axis(3, frame, MulticastAxis::ZPlane);
        let r = Rect::xyxy(10.0f32, 10.0, 20.0, 20.0);
        // In the z-plane encoding, x is NOT offset...
        for i in 0..6 {
            let placed = layout.place_rect(i, &r);
            assert!(placed.max.x() <= 1.0 + 1e-6, "x must stay normalized");
        }
        // ...separation comes from z.
        assert_eq!(layout.z_of(0), 0.0);
        assert_eq!(layout.z_of(2), 2.0);
        // The x-offset encoding has z = 0 everywhere.
        let xlayout = MulticastLayout::new(3, frame);
        assert_eq!(xlayout.z_of(2), 0.0);
    }

    #[test]
    fn layout_handles_degenerate_frame() {
        // All data on a vertical line: x-extent 0 must not divide by 0.
        let frame = Rect::from_corners(Point::xy(5.0f32, 0.0), Point::xy(5.0, 10.0));
        let layout = MulticastLayout::new(2, frame);
        let r = Rect::xyxy(5.0f32, 2.0, 5.0, 3.0);
        let placed = layout.place_rect(0, &r);
        assert!(placed.min.is_finite() && placed.max.is_finite());
    }
}
