//! Flattened wide (4-ary) BVH — the traversal structure the RT-core
//! datapath actually walks.
//!
//! Real RT hardware does not chase binary pointers: its box-test units
//! evaluate the children of a multi-way node in one step against a
//! bounds block laid out for wide loads. This module mirrors that
//! design: a [`Bvh4`] is collapsed deterministically from the binary
//! [`Bvh`] (so its topology is a pure function of the input — the same
//! determinism contract the binary builder honours at any thread
//! count), stores its child bounds in SoA arrays (one contiguous lane
//! per coordinate, four slots per node), and descends near-to-far by
//! clipped ray-entry parameter.
//!
//! ## Equivalence to the binary kernel
//!
//! A wide slot carries the *conservatively inflated* bounds of the
//! binary node it was collapsed from — the exact box the binary
//! kernel's per-node [`Ray::hits_aabb_conservative`] test inflates on
//! the fly — so a subtree is culled by the wide kernel iff the binary
//! kernel culls it, and inflation monotonicity (a child's inflated box
//! is contained in its parent's) carries the argument down. The wide
//! kernel therefore enumerates exactly the same primitive set, makes
//! the same IS calls, and performs the same number of primitive box
//! tests — only the *node* work changes shape, which is why
//! [`RayStats`] splits `wide_nodes_visited`/`wide_prim_tests` from the
//! binary counters instead of overloading them. Every RT launch walks
//! this structure; the binary [`Bvh::traverse`] remains as the LBVH
//! baseline's software walk and as the reference this equivalence is
//! tested against.

use geom::{Coord, Ray, Rect};

use crate::bvh::{Bvh, Control, TraversalStack};
use crate::stats::RayStats;

/// Sentinel marking an unused child slot.
const EMPTY: u32 = u32::MAX;

/// A flattened 4-wide BVH collapsed from a binary [`Bvh`].
///
/// Storage is SoA: child bounds live in six coordinate lanes of
/// `4 * node_count` entries each (slot `s` of node `n` at flat index
/// `n * 4 + s`), so one wide node's box tests read contiguous memory —
/// the layout a hardware box-test unit (or SIMD software walk) wants.
///
/// The lanes hold the **conservatively inflated** bounds
/// ([`Rect::inflated_conservative`]), not the raw binary-node bounds:
/// inflation is a pure per-box function, so baking it in at
/// collapse/refit time lets the traversal inner loop run the plain slab
/// test while keeping its verdicts bit-identical to the binary kernel's
/// per-test [`Ray::hits_aabb_conservative`].
#[derive(Clone, Debug)]
pub struct Bvh4<C: Coord> {
    min_x: Vec<C>,
    min_y: Vec<C>,
    min_z: Vec<C>,
    max_x: Vec<C>,
    max_y: Vec<C>,
    max_z: Vec<C>,
    /// Per slot: wide-node index (internal), first `prim_order` slot
    /// (leaf), or [`EMPTY`].
    child_index: Vec<u32>,
    /// Per slot: primitive count for leaves, 0 for internal/empty.
    child_count: Vec<u32>,
    /// Per slot: index of the binary node this slot was collapsed from
    /// ([`EMPTY`] for unused slots). Refit after a binary
    /// [`Bvh::refit`] is a straight bounds copy through this table.
    src: Vec<u32>,
    /// Leaf-slot → user primitive index permutation (identical to the
    /// source binary BVH's).
    prim_order: Vec<u32>,
}

impl<C: Coord> Bvh4<C> {
    /// Collapses a binary BVH into wide form. Deterministic: the only
    /// inputs are the binary node array (itself a pure function of the
    /// input primitives at any thread count) and a fixed tie-break —
    /// the internal child with the smallest binary node index is
    /// expanded first until a wide node's four slots are filled.
    pub fn collapse(bvh: &Bvh<C>) -> Self {
        let mut wide = Self {
            min_x: Vec::new(),
            min_y: Vec::new(),
            min_z: Vec::new(),
            max_x: Vec::new(),
            max_y: Vec::new(),
            max_z: Vec::new(),
            child_index: Vec::new(),
            child_count: Vec::new(),
            src: Vec::new(),
            prim_order: bvh.prim_order.clone(),
        };
        if bvh.nodes.is_empty() {
            return wide;
        }
        // Worklist of (binary anchor node, wide slot position to patch
        // with the new wide node's index; EMPTY for the root).
        let mut pending: Vec<(u32, u32)> = vec![(0, EMPTY)];
        let mut slots: Vec<u32> = Vec::with_capacity(4);
        while let Some((anchor, patch)) = pending.pop() {
            let w = wide.node_count() as u32;
            wide.push_empty_node();
            if patch != EMPTY {
                wide.child_index[patch as usize] = w;
            }
            gather_slots(bvh, anchor, &mut slots);
            for (s, &bn) in slots.iter().enumerate() {
                let pos = w as usize * 4 + s;
                let node = &bvh.nodes[bn as usize];
                wide.set_slot_bounds(pos, &node.bounds);
                wide.src[pos] = bn;
                if node.is_leaf() {
                    wide.child_index[pos] = node.right_or_first;
                    wide.child_count[pos] = node.count;
                } else {
                    // Patched when the child wide node is created.
                    pending.push((bn, pos as u32));
                }
            }
        }
        wide
    }

    /// Number of wide nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.child_index.len() / 4
    }

    /// `true` when the structure indexes no primitives.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.child_index.is_empty()
    }

    /// Heap footprint of the wide structure in bytes.
    pub fn memory_bytes(&self) -> usize {
        6 * self.min_x.len() * std::mem::size_of::<C>()
            + (self.child_index.len() + self.child_count.len() + self.src.len())
                * std::mem::size_of::<u32>()
            + self.prim_order.len() * std::mem::size_of::<u32>()
    }

    /// Copies refreshed bounds out of a refit binary BVH. Because every
    /// wide slot records the binary node it was collapsed from, a wide
    /// refit after [`Bvh::refit`] is a linear bounds copy — no
    /// restructuring, no recursion, and the wide tree stays collapsed
    /// from the *original* topology exactly like OptiX refit keeps the
    /// hardware tree's shape.
    pub fn refit_from(&mut self, bvh: &Bvh<C>) {
        for pos in 0..self.src.len() {
            let s = self.src[pos];
            if s != EMPTY {
                let b = bvh.nodes[s as usize].bounds;
                self.set_slot_bounds(pos, &b);
            }
        }
    }

    /// Inflated bounds stored in slot `pos` (flat `node * 4 + slot`
    /// index).
    #[inline]
    fn slot_bounds(&self, pos: usize) -> Rect<C, 3> {
        Rect {
            min: geom::Point {
                coords: [self.min_x[pos], self.min_y[pos], self.min_z[pos]],
            },
            max: geom::Point {
                coords: [self.max_x[pos], self.max_y[pos], self.max_z[pos]],
            },
        }
    }

    /// Stores the conservatively inflated form of `b` into slot `pos`
    /// (see the struct docs).
    #[inline]
    fn set_slot_bounds(&mut self, pos: usize, b: &Rect<C, 3>) {
        let b = b.inflated_conservative();
        self.min_x[pos] = b.min.coords[0];
        self.min_y[pos] = b.min.coords[1];
        self.min_z[pos] = b.min.coords[2];
        self.max_x[pos] = b.max.coords[0];
        self.max_y[pos] = b.max.coords[1];
        self.max_z[pos] = b.max.coords[2];
    }

    fn push_empty_node(&mut self) {
        for lane in [
            &mut self.min_x,
            &mut self.min_y,
            &mut self.min_z,
            &mut self.max_x,
            &mut self.max_y,
            &mut self.max_z,
        ] {
            lane.extend(std::iter::repeat_n(C::ZERO, 4));
        }
        self.child_index.extend_from_slice(&[EMPTY; 4]);
        self.child_count.extend_from_slice(&[0; 4]);
        self.src.extend_from_slice(&[EMPTY; 4]);
    }

    /// Wide single-ray traversal. Per wide node popped, all (up to
    /// four) child boxes are slab-tested; hit children are descended
    /// near-to-far by clipped entry parameter (ties broken by slot, so
    /// the order is deterministic). Counters: one `wide_nodes_visited`
    /// per node popped, one `wide_prim_tests` per primitive box test —
    /// the wide analogue of the binary kernel's
    /// `nodes_visited`/`prim_tests`. The set of `on_prim` invocations
    /// is identical to [`Bvh::traverse`]'s (see the module docs); only
    /// their order may differ.
    ///
    /// Per-ray slab state (the reciprocal directions — the divisions of
    /// the slab test — and the zero-direction axis classification) is
    /// computed once up front ([`SlabRay`]); combined with the
    /// pre-inflated slot lanes this leaves only subtract/multiply/
    /// compare work in the four-wide inner loop, which is where the
    /// wide kernel's wall-clock win over the binary kernel comes from
    /// (the pop count alone would not buy it: four slots per pop does
    /// roughly the same number of box tests).
    pub fn traverse<F>(
        &self,
        ray: &Ray<C, 3>,
        aabbs: &[Rect<C, 3>],
        stats: &mut RayStats,
        mut on_prim: F,
    ) -> Control
    where
        F: FnMut(u32, &mut RayStats) -> Control,
    {
        if self.is_empty() {
            return Control::Continue;
        }
        let slab = SlabRay::new(ray);
        let mut stack = TraversalStack::new();
        // The nearest pending internal child is carried in `next` and
        // descended into directly, skipping a push/pop round trip
        // through the stack; only the farther siblings are stacked.
        // Pop order (and therefore every counter) is identical to the
        // push-everything form.
        let mut next: Option<u32> = Some(0);
        loop {
            let w = match next.take() {
                Some(w) => w,
                None => match stack.pop() {
                    Some(w) => w,
                    None => break,
                },
            };
            stats.wide_nodes_visited += 1;
            let base = w as usize * 4;
            let src = &self.src[base..base + 4];
            let mnx = &self.min_x[base..base + 4];
            let mny = &self.min_y[base..base + 4];
            let mnz = &self.min_z[base..base + 4];
            let mxx = &self.max_x[base..base + 4];
            let mxy = &self.max_y[base..base + 4];
            let mxz = &self.max_z[base..base + 4];

            // Box-test the four child slots and collect hits.
            let mut hits: [(C, u8); 4] = [(C::ZERO, 0); 4];
            let mut n_hits = 0usize;
            for s in 0..4 {
                if src[s] == EMPTY {
                    continue;
                }
                if let Some(t) = slab.entry_t([mnx[s], mny[s], mnz[s]], [mxx[s], mxy[s], mxz[s]]) {
                    hits[n_hits] = (t, s as u8);
                    n_hits += 1;
                }
            }
            // Near-to-far: insertion sort by (t_entry, slot) — at most
            // four elements, branch-cheap, and fully deterministic.
            if n_hits > 1 {
                for i in 1..n_hits {
                    let mut j = i;
                    while j > 0 && hits[j - 1] > hits[j] {
                        hits.swap(j - 1, j);
                        j -= 1;
                    }
                }
            }

            // Leaves are resolved inline in near-to-far order; internal
            // children are pushed far-to-near so the nearest pops first.
            let mut internal: [u32; 4] = [0; 4];
            let mut n_internal = 0usize;
            for &(_, s) in hits.iter().take(n_hits) {
                let pos = base + s as usize;
                let count = self.child_count[pos] as usize;
                if count > 0 {
                    let first = self.child_index[pos] as usize;
                    for slot in first..first + count {
                        let prim = self.prim_order[slot];
                        stats.wide_prim_tests += 1;
                        if slab.hits_inflating(&aabbs[prim as usize])
                            && on_prim(prim, stats) == Control::Terminate
                        {
                            return Control::Terminate;
                        }
                    }
                } else {
                    internal[n_internal] = self.child_index[pos];
                    n_internal += 1;
                }
            }
            if n_internal > 0 {
                next = Some(internal[0]);
                for i in (1..n_internal).rev() {
                    stack.push(internal[i]);
                }
            }
        }
        Control::Continue
    }

    /// Structural validation against the source binary BVH: every slot
    /// points at a real binary node, leaves agree with the binary
    /// leaves, bounds match the source node's, and every primitive slot
    /// is covered exactly once.
    pub fn validate(&self, bvh: &Bvh<C>) -> Result<(), String> {
        if self.is_empty() {
            return if bvh.nodes.is_empty() {
                Ok(())
            } else {
                Err("wide empty but binary non-empty".into())
            };
        }
        let mut covered = vec![false; self.prim_order.len()];
        let mut child_of = vec![false; self.node_count()];
        for pos in 0..self.src.len() {
            let s = self.src[pos];
            if s == EMPTY {
                continue;
            }
            let node = bvh
                .nodes
                .get(s as usize)
                .ok_or_else(|| format!("slot {pos} src {s} out of range"))?;
            let b = self.slot_bounds(pos);
            let want = node.bounds.inflated_conservative();
            if want.min.coords != b.min.coords || want.max.coords != b.max.coords {
                return Err(format!("slot {pos} bounds diverge from binary node {s}"));
            }
            if node.is_leaf() {
                if self.child_count[pos] != node.count
                    || self.child_index[pos] != node.right_or_first
                {
                    return Err(format!("slot {pos} leaf range diverges from node {s}"));
                }
                let first = self.child_index[pos] as usize;
                let count = self.child_count[pos] as usize;
                if first + count > covered.len() {
                    return Err(format!("slot {pos} leaf range runs past prim_order"));
                }
                for (slot, c) in covered.iter_mut().enumerate().skip(first).take(count) {
                    if std::mem::replace(c, true) {
                        return Err(format!("prim slot {slot} covered twice"));
                    }
                }
            } else {
                let w = self.child_index[pos] as usize;
                if w >= self.node_count() {
                    return Err(format!("slot {pos} wide child {w} out of range"));
                }
                if std::mem::replace(&mut child_of[w], true) {
                    return Err(format!("wide node {w} referenced twice"));
                }
            }
        }
        if !covered.iter().all(|&c| c) {
            return Err("some primitive slot unreachable from wide leaves".into());
        }
        if child_of[0] {
            return Err("root referenced as a child".into());
        }
        if !child_of.iter().skip(1).all(|&c| c) {
            return Err("orphan wide node".into());
        }
        Ok(())
    }
}

/// Per-ray slab-test state, computed once per traversal: the reciprocal
/// of each direction component (hoisting the slab test's divisions out
/// of the per-box loop) and the zero-direction classification of each
/// axis.
///
/// [`SlabRay::entry_t`] evaluates exactly the expressions of
/// [`Ray::entry_t`] with the same reciprocal values, so its verdict and
/// returned parameter are bit-identical — including the NaN behaviour
/// of near-degenerate directions — which is what keeps the wide kernel
/// result-equal to the binary one (pinned by
/// `wide_matches_binary_hit_set_and_prim_tests`).
struct SlabRay<C: Coord> {
    origin: [C; 3],
    inv: [C; 3],
    zero: [bool; 3],
    tmin: C,
    tmax: C,
}

impl<C: Coord> SlabRay<C> {
    #[inline]
    fn new(ray: &Ray<C, 3>) -> Self {
        let mut inv = [C::ZERO; 3];
        let mut zero = [false; 3];
        for d in 0..3 {
            let dv = ray.dir.coords[d];
            if dv == C::ZERO {
                zero[d] = true;
            } else {
                inv[d] = C::ONE / dv;
            }
        }
        Self {
            origin: ray.origin.coords,
            inv,
            zero,
            tmin: ray.tmin,
            tmax: ray.tmax,
        }
    }

    /// Slab-clips the ray against an *already inflated* box given as
    /// per-axis corner arrays; returns the clipped entry parameter on a
    /// hit. Bit-identical to [`Ray::entry_t`] on that box.
    #[inline]
    fn entry_t(&self, lo: [C; 3], hi: [C; 3]) -> Option<C> {
        let mut t0 = self.tmin;
        let mut t1 = self.tmax;
        for d in 0..3 {
            if self.zero[d] {
                if self.origin[d] < lo[d] || self.origin[d] > hi[d] {
                    return None;
                }
            } else {
                let mut ta = (lo[d] - self.origin[d]) * self.inv[d];
                let mut tb = (hi[d] - self.origin[d]) * self.inv[d];
                if ta > tb {
                    std::mem::swap(&mut ta, &mut tb);
                }
                t0 = t0.max_c(ta);
                t1 = t1.min_c(tb);
                if t0 > t1 {
                    return None;
                }
            }
        }
        Some(t0)
    }

    /// Conservative hit test against a *raw* (uninflated) box —
    /// inflates it first, exactly like [`Ray::hits_aabb_conservative`].
    /// Used for the primitive tests at wide leaves, where the AABBs
    /// come straight from the user and carry no baked-in pad.
    #[inline]
    fn hits_inflating(&self, r: &Rect<C, 3>) -> bool {
        let infl = r.inflated_conservative();
        self.entry_t(infl.min.coords, infl.max.coords).is_some()
    }
}

/// Gathers the child slots of the wide node anchored at binary node
/// `anchor`: start from its two binary children (or the node itself
/// when it is a leaf — the single-leaf root case) and repeatedly expand
/// the internal slot with the smallest binary index in place (left
/// child replaces it, right child appends) until four slots are filled
/// or every slot is a leaf.
fn gather_slots<C: Coord>(bvh: &Bvh<C>, anchor: u32, out: &mut Vec<u32>) {
    out.clear();
    let node = &bvh.nodes[anchor as usize];
    if node.is_leaf() {
        out.push(anchor);
        return;
    }
    out.push(anchor + 1);
    out.push(node.right_or_first);
    while out.len() < 4 {
        let mut pick: Option<(usize, u32)> = None;
        for (i, &c) in out.iter().enumerate() {
            if !bvh.nodes[c as usize].is_leaf() && pick.is_none_or(|(_, pc)| c < pc) {
                pick = Some((i, c));
            }
        }
        let Some((i, c)) = pick else { break };
        out[i] = c + 1;
        out.push(bvh.nodes[c as usize].right_or_first);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bvh::BuildQuality;
    use geom::Point;

    fn boxes(n: usize) -> Vec<Rect<f32, 3>> {
        let mut state = 0x517C_C1B7_2722_0A95_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / 2f64.powi(31)) as f32
        };
        (0..n)
            .map(|_| {
                let x = next() * 100.0;
                let y = next() * 100.0;
                let w = next() + 0.01;
                let h = next() + 0.01;
                Rect::xyzxyz(x, y, 0.0, x + w, y + h, 0.0)
            })
            .collect()
    }

    fn probe(p: [f32; 3]) -> Ray<f32, 3> {
        Ray::point_probe(Point::xyz(p[0], p[1], p[2]))
    }

    fn seg(o: [f32; 3], d: [f32; 3], tmax: f32) -> Ray<f32, 3> {
        Ray {
            origin: Point::xyz(o[0], o[1], o[2]),
            dir: Point::xyz(d[0], d[1], d[2]),
            tmin: 0.0,
            tmax,
        }
    }

    fn collect_hits(
        traverse: impl FnOnce(&mut RayStats, &mut dyn FnMut(u32)) -> Control,
    ) -> (Vec<u32>, RayStats) {
        let mut hits = Vec::new();
        let mut s = RayStats::default();
        traverse(&mut s, &mut |p| hits.push(p));
        hits.sort_unstable();
        (hits, s)
    }

    #[test]
    fn empty_collapse() {
        let bvh = Bvh::<f32>::build(&[], BuildQuality::PreferFastTrace, 4);
        let wide = Bvh4::collapse(&bvh);
        assert!(wide.is_empty());
        wide.validate(&bvh).unwrap();
        let mut s = RayStats::default();
        assert_eq!(
            wide.traverse(&probe([0.0, 0.0, 0.0]), &[], &mut s, |_, _| {
                Control::Continue
            }),
            Control::Continue
        );
        assert_eq!(s.wide_nodes_visited, 0);
    }

    #[test]
    fn single_leaf_root() {
        let bs = vec![Rect::xyzxyz(0.0f32, 0.0, 0.0, 1.0, 1.0, 0.0)];
        let bvh = Bvh::build(&bs, BuildQuality::PreferFastTrace, 4);
        let wide = Bvh4::collapse(&bvh);
        wide.validate(&bvh).unwrap();
        let (hits, s) = collect_hits(|stats, sink| {
            wide.traverse(&probe([0.5, 0.5, 0.0]), &bs, stats, |p, _| {
                sink(p);
                Control::Continue
            })
        });
        assert_eq!(hits, vec![0]);
        assert_eq!(s.wide_nodes_visited, 1);
        assert_eq!(s.wide_prim_tests, 1);
        assert_eq!(
            s.nodes_visited, 0,
            "wide kernel must not touch binary counters"
        );
    }

    #[test]
    fn wide_matches_binary_hit_set_and_prim_tests() {
        // The load-bearing equivalence: for both build qualities and a
        // spread of ray shapes, the wide kernel enumerates exactly the
        // binary kernel's primitive set and performs exactly as many
        // primitive box tests (wide_prim_tests == prim_tests).
        for q in [BuildQuality::PreferFastTrace, BuildQuality::PreferFastBuild] {
            for n in [1usize, 3, 4, 5, 17, 300, 1000] {
                let bs = boxes(n);
                let bvh = Bvh::build(&bs, q, 4);
                let wide = Bvh4::collapse(&bvh);
                wide.validate(&bvh).unwrap();
                let rays = [
                    probe([10.0, 10.0, 0.0]),
                    probe([50.0, 50.0, 0.0]),
                    seg([0.0, 0.0, 0.0], [100.0, 100.0, 0.0], 1.0),
                    seg([100.0, 0.0, 0.0], [-100.0, 100.0, 0.0], 1.0),
                ];
                for ray in &rays {
                    let (bin_hits, bin_stats) = collect_hits(|s, sink| {
                        bvh.traverse(ray, &bs, s, |p, _| {
                            sink(p);
                            Control::Continue
                        })
                    });
                    let (wide_hits, wide_stats) = collect_hits(|s, sink| {
                        wide.traverse(ray, &bs, s, |p, _| {
                            sink(p);
                            Control::Continue
                        })
                    });
                    assert_eq!(wide_hits, bin_hits, "{q:?} n={n}");
                    assert_eq!(
                        wide_stats.wide_prim_tests, bin_stats.prim_tests,
                        "{q:?} n={n}: wide must gate prims identically"
                    );
                    assert!(
                        wide_stats.wide_nodes_visited <= bin_stats.nodes_visited.max(1),
                        "{q:?} n={n}: wide pops ({}) must not exceed binary pops ({})",
                        wide_stats.wide_nodes_visited,
                        bin_stats.nodes_visited
                    );
                }
            }
        }
    }

    #[test]
    fn wide_halves_node_pops_at_scale() {
        // The perf claim behind the kernel: collapsing two binary levels
        // into one wide node roughly halves pops for long rays.
        let bs = boxes(8192);
        let bvh = Bvh::build(&bs, BuildQuality::PreferFastTrace, 4);
        let wide = Bvh4::collapse(&bvh);
        let ray = seg([0.0, 0.0, 0.0], [100.0, 100.0, 0.0], 1.0);
        let mut sb = RayStats::default();
        bvh.traverse(&ray, &bs, &mut sb, |_, _| Control::Continue);
        let mut sw = RayStats::default();
        wide.traverse(&ray, &bs, &mut sw, |_, _| Control::Continue);
        assert!(
            (sw.wide_nodes_visited as f64) < sb.nodes_visited as f64 * 0.7,
            "wide pops {} vs binary pops {}",
            sw.wide_nodes_visited,
            sb.nodes_visited
        );
    }

    #[test]
    fn collapse_is_deterministic() {
        let bs = boxes(600);
        let bvh = Bvh::build(&bs, BuildQuality::PreferFastTrace, 4);
        let a = Bvh4::collapse(&bvh);
        let b = Bvh4::collapse(&bvh);
        assert_eq!(a.child_index, b.child_index);
        assert_eq!(a.child_count, b.child_count);
        assert_eq!(a.src, b.src);
        assert_eq!(a.prim_order, b.prim_order);
        let key = |w: &Bvh4<f32>| {
            (0..w.src.len())
                .map(|p| w.slot_bounds(p).min.coords)
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&a), key(&b));
    }

    #[test]
    fn refit_from_tracks_binary_refit() {
        let mut bs = boxes(400);
        let mut bvh = Bvh::build(&bs, BuildQuality::PreferFastTrace, 4);
        let mut wide = Bvh4::collapse(&bvh);
        for b in bs.iter_mut() {
            *b = b.translated(&Point::xyz(300.0, 300.0, 0.0));
        }
        bvh.refit(&bs);
        wide.refit_from(&bvh);
        wide.validate(&bvh).unwrap();
        let ray = seg([300.0, 300.0, 0.0], [100.0, 100.0, 0.0], 1.0);
        let (wide_hits, _) = collect_hits(|s, sink| {
            wide.traverse(&ray, &bs, s, |p, _| {
                sink(p);
                Control::Continue
            })
        });
        let want: Vec<u32> = (0..bs.len() as u32)
            .filter(|&i| ray.hits_aabb_conservative(&bs[i as usize]))
            .collect();
        assert_eq!(wide_hits, want);
        assert!(!wide_hits.is_empty(), "diagonal must cross moved boxes");
    }

    #[test]
    fn terminate_stops_early() {
        let bs = boxes(300);
        let bvh = Bvh::build(&bs, BuildQuality::PreferFastTrace, 4);
        let wide = Bvh4::collapse(&bvh);
        let ray = seg([0.0, 0.0, 0.0], [100.0, 100.0, 0.0], 1.0);
        let mut count = 0;
        let r = wide.traverse(&ray, &bs, &mut RayStats::default(), |_, _| {
            count += 1;
            Control::Terminate
        });
        assert_eq!(r, Control::Terminate);
        assert_eq!(count, 1);
    }

    #[test]
    fn near_to_far_orders_by_entry_t() {
        // Two well-separated boxes along the ray: the nearer one must be
        // enumerated first even when its slot index is higher.
        let bs = vec![
            Rect::xyzxyz(50.0f32, 0.0, 0.0, 51.0, 1.0, 0.0), // far
            Rect::xyzxyz(5.0f32, 0.0, 0.0, 6.0, 1.0, 0.0),   // near
        ];
        let bvh = Bvh::build(&bs, BuildQuality::PreferFastTrace, 1);
        let wide = Bvh4::collapse(&bvh);
        let ray = seg([0.0, 0.5, 0.0], [1.0, 0.0, 0.0], 100.0);
        let mut order = Vec::new();
        wide.traverse(&ray, &bs, &mut RayStats::default(), |p, _| {
            order.push(p);
            Control::Continue
        });
        assert_eq!(order, vec![1, 0], "nearer box must be visited first");
    }

    #[test]
    fn deep_wide_traversal_spills_stack() {
        // The binary deep-tree spill test ported to the wide stack: a
        // hand-built chain of wide nodes where node i carries one
        // internal "chain" slot (node i + 1) and one internal "stub"
        // slot (a leaf-only node), all with identical bounds. The chain
        // slot sorts first (equal entry t, lower slot index), so one
        // stub node stays pending per level — after 64 levels the
        // inline segment is full and the pooled spill takes over.
        const D: usize = 100;
        let unit = Rect::xyzxyz(0.0f32, 0.0, 0.0, 1.0, 1.0, 0.0);
        let mut wide = Bvh4::<f32> {
            min_x: Vec::new(),
            min_y: Vec::new(),
            min_z: Vec::new(),
            max_x: Vec::new(),
            max_y: Vec::new(),
            max_z: Vec::new(),
            child_index: Vec::new(),
            child_count: Vec::new(),
            src: Vec::new(),
            prim_order: (0..=D as u32).collect(),
        };
        // Chain nodes 0..D, stub node for level i at D + 1 + i.
        for i in 0..D {
            wide.push_empty_node();
            let base = i * 4;
            wide.set_slot_bounds(base, &unit);
            wide.src[base] = 0; // src is only consulted for refit; 0 is fine
            wide.child_index[base] = (i + 1) as u32; // chain
            wide.set_slot_bounds(base + 1, &unit);
            wide.src[base + 1] = 0;
            wide.child_index[base + 1] = (D + 1 + i) as u32; // stub
        }
        // Final chain node D: a single leaf slot (prim D).
        wide.push_empty_node();
        let base = D * 4;
        wide.set_slot_bounds(base, &unit);
        wide.src[base] = 0;
        wide.child_index[base] = D as u32;
        wide.child_count[base] = 1;
        // Stub nodes: one leaf slot each (prim i).
        for i in 0..D {
            wide.push_empty_node();
            let base = (D + 1 + i) * 4;
            wide.set_slot_bounds(base, &unit);
            wide.src[base] = 0;
            wide.child_index[base] = i as u32;
            wide.child_count[base] = 1;
        }
        let bs = vec![unit; D + 1];
        let mut hits = 0u32;
        let mut s = RayStats::default();
        wide.traverse(&probe([0.5, 0.5, 0.0]), &bs, &mut s, |_, _| {
            hits += 1;
            Control::Continue
        });
        assert_eq!(hits as usize, D + 1, "every leaf must be reached");
        assert_eq!(s.wide_nodes_visited as usize, 2 * D + 1);
    }

    #[test]
    fn duplicate_coincident_boxes() {
        let bs = vec![Rect::xyzxyz(0.0f32, 0.0, 0.0, 1.0, 1.0, 0.0); 64];
        let bvh = Bvh::build(&bs, BuildQuality::PreferFastTrace, 4);
        let wide = Bvh4::collapse(&bvh);
        wide.validate(&bvh).unwrap();
        let mut n = 0;
        wide.traverse(
            &probe([0.5, 0.5, 0.0]),
            &bs,
            &mut RayStats::default(),
            |_, _| {
                n += 1;
                Control::Continue
            },
        );
        assert_eq!(n, 64);
    }
}
