//! Flattened wide (4-ary) BVH — the traversal structure the RT-core
//! datapath actually walks.
//!
//! Real RT hardware does not chase binary pointers: its box-test units
//! evaluate the children of a multi-way node in one step against a
//! bounds block laid out for wide loads. This module mirrors that
//! design: a [`Bvh4`] is collapsed deterministically from the binary
//! [`Bvh`] (so its topology is a pure function of the input — the same
//! determinism contract the binary builder honours at any thread
//! count), stores each wide node as one contiguous record whose child
//! bounds are per-axis lanes of four slots, slab-tests the four slots
//! as straight-line lanes without early exits, and descends near-to-far
//! by clipped ray-entry parameter.
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

use crate::bvh::{enclose, Bvh, Control, TraversalStack};
use crate::quality::{Measure, QualityReport};
use crate::stats::RayStats;

/// Sentinel marking an unused child slot.
const EMPTY: u32 = u32::MAX;

/// A flattened 4-wide BVH collapsed from a binary [`Bvh`].
///
/// Storage is one [`Node4`] record per wide node, so a node visit reads
/// one contiguous block (128 B for `f32`) — the layout a hardware
/// box-test unit (or SIMD software walk) wants. The primitive
/// permutation, which only leaves, refit and validation read, lives in
/// an array of its own. The binary tree is not kept: refit works on
/// the wide tree alone ([`Bvh4::refit`]).
///
/// The records hold the **conservatively inflated** bounds
/// ([`Rect::inflated_conservative`]), not the raw binary-node bounds:
/// inflation is a pure per-box function, so baking it in at
/// collapse/refit time lets the traversal inner loop run the plain slab
/// test while keeping its verdicts bit-identical to the binary kernel's
/// per-test [`Ray::hits_aabb_conservative`].
#[derive(Clone, Debug)]
pub struct Bvh4<C: Coord> {
    /// Wide nodes, each created after its parent by [`Bvh4::collapse`],
    /// so every child index exceeds its parent's and reverse index
    /// order is bottom-up.
    nodes: Vec<Node4<C>>,
    /// Leaf-slot → user primitive index permutation (identical to the
    /// source binary BVH's).
    prim_order: Vec<u32>,
    /// Per wide node, the `prim_order` range `[first, end)` its subtree
    /// covers. The binary build partitions `prim_order` in place, so every
    /// subtree is one contiguous range; refit keeps the topology, so the
    /// ranges are set once, at collapse. [`Bvh4::walk_box`] reads them
    /// and [`Bvh4::validate`] checks them.
    ranges: Vec<[u32; 2]>,
}

/// One wide node: the inflated bounds of its four child slots as
/// per-axis lanes (`lo[axis][slot]`, `hi[axis][slot]`), followed by the
/// per-slot child tables. Default alignment on purpose: in a trial, a
/// 64-byte-aligned record raised range-intersects peak memory by about
/// 10 % for a throughput change inside run-to-run noise.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Node4<C: Coord> {
    lo: [[C; 4]; 3],
    hi: [[C; 4]; 3],
    /// Per slot: wide-node index (internal), first `prim_order` slot
    /// (leaf), or [`EMPTY`].
    child_index: [u32; 4],
    /// Per slot: primitive count for leaves, 0 for internal/empty.
    child_count: [u32; 4],
}

impl<C: Coord> Node4<C> {
    /// A node with four empty slots (zero bounds, [`EMPTY`] children).
    fn empty() -> Self {
        Self {
            lo: [[C::ZERO; 4]; 3],
            hi: [[C::ZERO; 4]; 3],
            child_index: [EMPTY; 4],
            child_count: [0; 4],
        }
    }

    /// Inflated bounds stored in slot `s`.
    fn bounds(&self, s: usize) -> Rect<C, 3> {
        Rect {
            min: geom::Point {
                coords: [self.lo[0][s], self.lo[1][s], self.lo[2][s]],
            },
            max: geom::Point {
                coords: [self.hi[0][s], self.hi[1][s], self.hi[2][s]],
            },
        }
    }

    /// Stores the conservatively inflated form of `b` into slot `s` (see
    /// the [`Bvh4`] docs).
    fn set_bounds(&mut self, s: usize, b: &Rect<C, 3>) {
        let b = b.inflated_conservative();
        for d in 0..3 {
            self.lo[d][s] = b.min.coords[d];
            self.hi[d][s] = b.max.coords[d];
        }
    }

    /// Slab-tests all four slots at once: each slot's clipped entry
    /// parameter and hit verdict. Empty slots never hit.
    #[inline]
    fn slab_test(&self, slab: &SlabRay<C>) -> ([C; 4], [bool; 4]) {
        let (t, hit) = slab.entry_t_lanes(&self.lo, &self.hi);
        (
            t,
            std::array::from_fn(|s| hit[s] & (self.child_index[s] != EMPTY)),
        )
    }
}

impl<C: Coord> Bvh4<C> {
    /// Collapses a binary BVH into wide form. Deterministic: the only
    /// inputs are the binary node array (itself a pure function of the
    /// input primitives at any thread count) and a fixed tie-break —
    /// the internal child with the smallest binary node index is
    /// expanded first until a wide node's four slots are filled.
    pub fn collapse(bvh: &Bvh<C>) -> Self {
        Self::collapse_measured(bvh, None)
    }

    /// [`Bvh4::collapse`], feeding each new node's raw slot bounds (its
    /// binary nodes' bounds) to `measure`: the same terms the refit
    /// pass computes for the same boxes, without another pass over them.
    pub(crate) fn collapse_measured(bvh: &Bvh<C>, mut measure: Option<&mut Measure>) -> Self {
        let mut wide = Self {
            nodes: Vec::new(),
            prim_order: bvh.prim_order.clone(),
            ranges: Vec::new(),
        };
        if bvh.nodes.is_empty() {
            return wide;
        }
        // Worklist of (binary anchor node, flat slot position to patch
        // with the new wide node's index; EMPTY for the root).
        let mut pending: Vec<(u32, u32)> = vec![(0, EMPTY)];
        let mut slots: Vec<u32> = Vec::with_capacity(4);
        while let Some((anchor, patch)) = pending.pop() {
            let w = wide.node_count() as u32;
            wide.nodes.push(Node4::empty());
            if patch != EMPTY {
                wide.nodes[patch as usize / 4].child_index[patch as usize % 4] = w;
            }
            gather_slots(bvh, anchor, &mut slots);
            let node = &mut wide.nodes[w as usize];
            let mut raw = [Rect::empty(); 4];
            let mut union = Rect::empty();
            for (s, &bn) in slots.iter().enumerate() {
                let bin = &bvh.nodes[bn as usize];
                node.set_bounds(s, &bin.bounds);
                raw[s] = bin.bounds;
                union.expand(&bin.bounds);
                if bin.is_leaf() {
                    node.child_index[s] = bin.right_or_first;
                    node.child_count[s] = bin.count;
                } else {
                    // Patched when the child wide node is created.
                    pending.push((bn, w * 4 + s as u32));
                }
            }
            if let Some(m) = measure.as_deref_mut() {
                let n = slots.len();
                m.node(&union, &raw[..n], &node.child_count[..n]);
            }
        }
        wide.ranges = prim_ranges(&wide.nodes);
        wide
    }

    /// Number of wide nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the structure indexes no primitives.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Heap footprint of the wide structure in bytes: the node records,
    /// the primitive permutation and the per-node `prim_order` ranges.
    pub fn memory_bytes(&self) -> usize {
        self.nodes.len() * (std::mem::size_of::<Node4<C>>() + std::mem::size_of::<[u32; 2]>())
            + self.prim_order.len() * std::mem::size_of::<u32>()
    }

    /// The one refit routine: refits the tree in place to `aabbs` (same
    /// count and order as at build) and returns the raw root union
    /// (empty for an empty tree).
    ///
    /// Walks the nodes in reverse index order, which is bottom-up
    /// because every child comes after its parent, and gives each
    /// occupied slot the exact raw union of what it covers: its
    /// primitives' boxes for a leaf slot, its child node's union (kept
    /// in a scratch array) for an internal slot. The slot stores the
    /// inflated form; `measure`, when given, takes the raw bounds.
    ///
    /// Min/max unions are exact, so the records equal [`Bvh4::collapse`]
    /// of a binary [`Bvh::refit`] bit for bit; the different grouping
    /// can flip only a zero's sign, which inflation erases (DESIGN.md
    /// §2).
    pub(crate) fn refit(
        &mut self,
        aabbs: &[Rect<C, 3>],
        mut measure: Option<&mut Measure>,
    ) -> Rect<C, 3> {
        let mut raw = vec![Rect::empty(); self.nodes.len()];
        for w in (0..self.nodes.len()).rev() {
            let node = &mut self.nodes[w];
            let mut slots = [Rect::empty(); 4];
            let mut union = Rect::empty();
            let mut occupied = 0;
            for s in 0..4 {
                let (child, count) = (node.child_index[s], node.child_count[s] as usize);
                if child == EMPTY {
                    continue;
                }
                let b = if count > 0 {
                    let first = child as usize;
                    let mut b = Rect::empty();
                    for &prim in &self.prim_order[first..first + count] {
                        b.expand(&aabbs[prim as usize]);
                    }
                    b
                } else {
                    raw[child as usize]
                };
                node.set_bounds(s, &b);
                union.expand(&b);
                slots[occupied] = b;
                occupied += 1;
            }
            if let Some(m) = measure.as_deref_mut() {
                m.node(&union, &slots[..occupied], &node.child_count[..occupied]);
            }
            raw[w] = union;
        }
        raw.first().copied().unwrap_or_else(Rect::empty)
    }

    /// The bound-independent fields of the tree's [`QualityReport`]:
    /// node and leaf-slot counts and leaf-slot depths (DESIGN.md §9).
    /// Refit keeps the topology, so these are measured once per build.
    pub(crate) fn shape(&self) -> QualityReport {
        let mut depth = vec![1usize; self.nodes.len()];
        let mut shape = QualityReport {
            nodes: self.nodes.len(),
            ..QualityReport::default()
        };
        let mut prims = 0usize;
        let mut depth_sum = 0.0f64;
        for (w, node) in self.nodes.iter().enumerate() {
            for s in 0..4 {
                let (child, count) = (node.child_index[s], node.child_count[s]);
                if child == EMPTY {
                    continue;
                }
                if count > 0 {
                    shape.leaves += 1;
                    shape.max_depth = shape.max_depth.max(depth[w]);
                    prims += count as usize;
                    depth_sum += (depth[w] * count as usize) as f64;
                } else {
                    depth[child as usize] = depth[w] + 1;
                }
            }
        }
        if prims > 0 {
            shape.mean_leaf_depth = depth_sum / prims as f64;
        }
        shape
    }

    /// Wide single-ray traversal. Per wide node popped, all four child
    /// slots are slab-tested as straight-line lanes ([`Node4`] record,
    /// no early exit); hit children are descended near-to-far by
    /// clipped entry parameter (ties broken by slot, so the order is
    /// deterministic). Counters: one `wide_nodes_visited` per node
    /// popped, one `wide_prim_tests` per primitive box test — the wide
    /// analogue of the binary kernel's `nodes_visited`/`prim_tests`. The
    /// set of `on_prim` invocations is identical to [`Bvh::traverse`]'s
    /// (see the module docs); only their order may differ.
    ///
    /// Per-ray slab state (the reciprocal directions — the divisions of
    /// the slab test — and the zero-direction axis classification) is
    /// computed once up front ([`SlabRay`]); combined with the
    /// pre-inflated bounds this leaves only subtract/multiply/compare
    /// work in the four-lane box test, which the compiler vectorises
    /// because no lane branches out early.
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
            let node = &self.nodes[w as usize];

            // Box-test the four slots at once, then collect the hits in
            // slot order.
            let (t, hit) = node.slab_test(&slab);
            let mut hits: [(C, u8); 4] = [(C::ZERO, 0); 4];
            let mut n_hits = 0usize;
            for s in 0..4 {
                if hit[s] {
                    hits[n_hits] = (t[s], s as u8);
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
                let s = s as usize;
                let count = node.child_count[s] as usize;
                if count > 0 {
                    let first = node.child_index[s] as usize;
                    for &prim in &self.prim_order[first..first + count] {
                        stats.wide_prim_tests += 1;
                        if slab.hits_inflating(&aabbs[prim as usize])
                            && on_prim(prim, stats) == Control::Terminate
                        {
                            return Control::Terminate;
                        }
                    }
                } else {
                    internal[n_internal] = node.child_index[s];
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

    /// Box walk: calls `emit` with every primitive whose box intersects
    /// `b` (closed, [`Rect::intersects`]), each exactly once, in no
    /// particular order. Host-side — it models no device time and counts
    /// no [`RayStats`].
    ///
    /// The slots store inflated bounds, which enclose every box below
    /// them, so two shortcuts are exact: a slot that misses `b` covers
    /// nothing that touches `b` and is skipped, and a slot inside `b`
    /// covers only boxes inside `b`, so its whole `prim_order` range is
    /// emitted as one slice without a test. Only leaf slots straddling
    /// `b`'s boundary test their boxes, one slice per hit. The shortcut
    /// assumes boxes with `min <= max` on every axis, as every GAS built
    /// by this crate's users holds (a deleted box is degenerate, not
    /// inverted).
    pub(crate) fn walk_box<F>(&self, b: &Rect<C, 3>, aabbs: &[Rect<C, 3>], mut emit: F)
    where
        F: FnMut(&[u32]),
    {
        if self.is_empty() {
            return;
        }
        let mut stack = TraversalStack::new();
        stack.push(0);
        while let Some(w) = stack.pop() {
            let node = &self.nodes[w as usize];
            for s in 0..4 {
                let child = node.child_index[s];
                let slot = node.bounds(s);
                if child == EMPTY || !slot.intersects(b) {
                    continue;
                }
                let (child, count) = (child as usize, node.child_count[s] as usize);
                let inside = enclose(b, &slot);
                if count > 0 {
                    let prims = &self.prim_order[child..child + count];
                    if inside {
                        emit(prims);
                    } else {
                        for p in prims {
                            if aabbs[*p as usize].intersects(b) {
                                emit(std::slice::from_ref(p));
                            }
                        }
                    }
                } else if inside {
                    let [first, end] = self.ranges[child];
                    emit(&self.prim_order[first as usize..end as usize]);
                } else {
                    stack.push(child as u32);
                }
            }
        }
    }

    /// Structural validation against the primitive boxes: every
    /// occupied slot's stored bounds enclose what it covers (a leaf
    /// slot's boxes, an internal slot's child-node slots), every child
    /// node comes after its parent, every node but the root is
    /// referenced exactly once, the leaves cover each primitive exactly
    /// once, and each node's stored range is the contiguous span of the
    /// primitives below it.
    pub fn validate(&self, aabbs: &[Rect<C, 3>]) -> Result<(), String> {
        let mut seen = vec![false; aabbs.len()];
        for &p in &self.prim_order {
            match seen.get_mut(p as usize) {
                Some(s) if !*s => *s = true,
                _ => return Err(format!("primitive {p} duplicated or out of range")),
            }
        }
        if self.prim_order.len() != aabbs.len() {
            return Err("some primitive missing from prim_order".into());
        }
        if self.is_empty() {
            return if aabbs.is_empty() {
                Ok(())
            } else {
                Err("no nodes over a non-empty primitive set".into())
            };
        }
        let mut covered = vec![false; self.prim_order.len()];
        let mut child_of = vec![false; self.node_count()];
        for (w, node) in self.nodes.iter().enumerate() {
            for slot in 0..4 {
                let (first, count) = (node.child_index[slot], node.child_count[slot]);
                if first == EMPTY {
                    if count != 0 {
                        return Err(format!("node {w} empty slot {slot} has a count"));
                    }
                    continue;
                }
                let outer = node.bounds(slot);
                if count > 0 {
                    let (first, count) = (first as usize, count as usize);
                    if first + count > covered.len() {
                        return Err(format!("node {w} slot {slot} runs past prim_order"));
                    }
                    for (i, c) in covered.iter_mut().enumerate().skip(first).take(count) {
                        if std::mem::replace(c, true) {
                            return Err(format!("prim slot {i} covered twice"));
                        }
                        if !enclose(&outer, &aabbs[self.prim_order[i] as usize]) {
                            return Err(format!("node {w} slot {slot} misses prim slot {i}"));
                        }
                    }
                } else {
                    let c = first as usize;
                    if c <= w || c >= self.node_count() {
                        return Err(format!("node {w} slot {slot} has bad child {c}"));
                    }
                    if std::mem::replace(&mut child_of[c], true) {
                        return Err(format!("wide node {c} referenced twice"));
                    }
                    let child = &self.nodes[c];
                    let mut inner = (0..4).filter(|&s| child.child_index[s] != EMPTY);
                    if !inner.all(|s| enclose(&outer, &child.bounds(s))) {
                        return Err(format!("node {w} slot {slot} misses child {c}"));
                    }
                }
            }
        }
        if !covered.iter().all(|&c| c) {
            return Err("some primitive slot unreachable from wide leaves".into());
        }
        if !child_of.iter().skip(1).all(|&c| c) {
            return Err("orphan wide node".into());
        }
        if self.ranges != prim_ranges(&self.nodes) {
            return Err("stale prim_order ranges".into());
        }
        // Every leaf is inside its ancestors' spans, and each prim slot
        // is covered once, so a span as long as its subtree's primitive
        // count holds exactly that subtree.
        let mut below = vec![0u32; self.node_count()];
        for (w, node) in self.nodes.iter().enumerate().rev() {
            for s in (0..4).filter(|&s| node.child_index[s] != EMPTY) {
                below[w] += match node.child_count[s] {
                    0 => below[node.child_index[s] as usize],
                    count => count,
                };
            }
            let [first, end] = self.ranges[w];
            if end.checked_sub(first) != Some(below[w]) {
                return Err(format!("node {w} covers a non-contiguous prim range"));
            }
        }
        Ok(())
    }
}

/// Each wide node's `prim_order` span `[first, end)`: the smallest and
/// largest leaf bounds below it, computed bottom-up (reverse index
/// order).
fn prim_ranges<C: Coord>(nodes: &[Node4<C>]) -> Vec<[u32; 2]> {
    let mut ranges = vec![[u32::MAX, 0]; nodes.len()];
    for (w, node) in nodes.iter().enumerate().rev() {
        let mut span = [u32::MAX, 0];
        for s in (0..4).filter(|&s| node.child_index[s] != EMPTY) {
            let (child, count) = (node.child_index[s], node.child_count[s]);
            let [first, end] = match count {
                0 => ranges[child as usize],
                _ => [child, child + count],
            };
            span = [span[0].min(first), span[1].max(end)];
        }
        ranges[w] = span;
    }
    ranges
}

/// Per-ray slab-test state, computed once per traversal: the reciprocal
/// of each direction component (hoisting the slab test's divisions out
/// of the per-box loop) and the zero-direction classification of each
/// axis.
///
/// [`SlabRay::entry_t_lanes`] evaluates, per lane, exactly the
/// expressions of [`Ray::entry_t`] with the same reciprocal values, so
/// its verdicts and returned parameters are bit-identical — including
/// the NaN behaviour of near-degenerate directions — which is what keeps
/// the wide kernel result-equal to the binary one (pinned by
/// `lanes_match_ray_entry_t` and
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

    /// Slab-clips the ray against `N` *already inflated* boxes given as
    /// per-axis lanes (`lo[axis][lane]`); returns every lane's clipped
    /// entry parameter and hit verdict. Each lane runs straight-line
    /// code — no lane exits early — so the lanes vectorise.
    ///
    /// Per lane, verdict and entry parameter are bit-identical to
    /// [`Ray::entry_t`] on that box, although that function returns at
    /// the first axis whose interval is empty: `t0` only grows and `t1`
    /// only shrinks, so an interval once empty stays empty, and
    /// `max_c`/`min_c` keep `self` when the other operand is NaN (as
    /// `(lo − o)·inv` is when `lo == o` and the reciprocal is infinite),
    /// so NaN never enters either value in either form.
    #[inline(always)]
    fn entry_t_lanes<const N: usize>(
        &self,
        lo: &[[C; N]; 3],
        hi: &[[C; N]; 3],
    ) -> ([C; N], [bool; N]) {
        let mut t0 = [self.tmin; N];
        let mut t1 = [self.tmax; N];
        let mut miss = [false; N];
        for d in 0..3 {
            let (o, inv) = (self.origin[d], self.inv[d]);
            if self.zero[d] {
                for s in 0..N {
                    miss[s] |= (o < lo[d][s]) | (o > hi[d][s]);
                }
            } else {
                for s in 0..N {
                    let a = (lo[d][s] - o) * inv;
                    let b = (hi[d][s] - o) * inv;
                    let (ta, tb) = if a > b { (b, a) } else { (a, b) };
                    t0[s] = t0[s].max_c(ta);
                    t1[s] = t1[s].min_c(tb);
                }
            }
        }
        (t0, std::array::from_fn(|s| !(miss[s] | (t0[s] > t1[s]))))
    }

    /// Conservative hit test against a *raw* (uninflated) box —
    /// inflates it first, exactly like [`Ray::hits_aabb_conservative`] —
    /// through the lane code at width one. Used for the primitive tests
    /// at wide leaves, where the AABBs come straight from the user and
    /// carry no baked-in pad.
    #[inline]
    fn hits_inflating(&self, r: &Rect<C, 3>) -> bool {
        let b = r.inflated_conservative();
        let lane = |c: [C; 3]| c.map(|v| [v]);
        self.entry_t_lanes(&lane(b.min.coords), &lane(b.max.coords))
            .1[0]
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
        wide.validate(&[]).unwrap();
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
        wide.validate(&bs).unwrap();
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
                wide.validate(&bs).unwrap();
                let rays = [
                    probe([10.0, 10.0, 0.0]),
                    probe([50.0, 50.0, 0.0]),
                    seg([0.0, 0.0, 0.0], [100.0, 100.0, 0.0], 1.0),
                    seg([100.0, 0.0, 0.0], [-100.0, 100.0, 0.0], 1.0),
                    // Axis-parallel: zero y and z direction components.
                    seg([0.0, 50.0, 0.0], [100.0, 0.0, 0.0], 1.0),
                    // Near-degenerate: a subnormal y component, whose
                    // reciprocal is infinite.
                    seg([0.0, 30.0, 0.0], [100.0, f32::from_bits(1), 0.0], 1.0),
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

    /// A node whose slot `s` holds `bs[s]` verbatim (the lanes are
    /// taken as already inflated); unoccupied slots keep their bounds
    /// but are marked [`EMPTY`].
    fn node_of(bs: &[Rect<f32, 3>; 4], occupied: [bool; 4]) -> Node4<f32> {
        let mut node = Node4::empty();
        for (s, b) in bs.iter().enumerate() {
            for d in 0..3 {
                node.lo[d][s] = b.min.coords[d];
                node.hi[d][s] = b.max.coords[d];
            }
            node.child_index[s] = if occupied[s] { 0 } else { EMPTY };
        }
        node
    }

    #[test]
    fn lanes_match_ray_entry_t() {
        // Differential test of the four-lane box test against the
        // early-exit reference: every occupied lane's verdict and entry
        // parameter equal Ray::entry_t on the same box, bit for bit, and
        // an empty slot never reports. The width-one leaf test agrees
        // with Ray::hits_aabb_conservative on the raw box.
        let mut state = 0x2545_F491_4F6C_DD1D_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / 2f64.powi(31)) as f32
        };
        let subnormal = f32::from_bits(1);
        let raw: Vec<Rect<f32, 3>> = (0..64)
            .map(|i| {
                let lo = [next() * 100.0, next() * 100.0, next() * 100.0];
                let r = Rect::xyzxyz(
                    lo[0],
                    lo[1],
                    lo[2],
                    lo[0] + next() * 30.0,
                    lo[1] + next() * 30.0,
                    lo[2] + next() * 30.0,
                );
                // Every fourth box is deleted: zero extent.
                if i % 4 == 3 {
                    r.degenerated()
                } else {
                    r
                }
            })
            .collect();
        let inflated: Vec<Rect<f32, 3>> = raw.iter().map(|r| r.inflated_conservative()).collect();
        let b0 = inflated[0];
        let ray = |o: [f32; 3], d: [f32; 3], tmin: f32, tmax: f32| Ray {
            tmin,
            ..seg(o, d, tmax)
        };
        // Random segments passing near a random box's center at t = 1,
        // so that both verdicts are common.
        let mut rays: Vec<Ray<f32, 3>> = (0..64)
            .map(|i| {
                let o: [f32; 3] = std::array::from_fn(|_| next() * 120.0 - 10.0);
                let c = raw[i % raw.len()].center().coords;
                let d: [f32; 3] = std::array::from_fn(|k| c[k] - o[k] + next() * 20.0 - 10.0);
                ray(o, d, next() * 0.5, 1.0 + next() * 0.5)
            })
            .collect();
        rays.extend([
            // Zero direction components, and a point probe.
            ray([50.0, 50.0, 50.0], [40.0, 0.0, 0.0], 0.0, 1.0),
            ray([50.0, 50.0, 50.0], [0.0, -30.0, 0.0], 0.0, 2.0),
            probe(b0.min.coords),
            // A probe exactly at a zero-extent box.
            probe(raw[3].min.coords),
            // A subnormal component: its reciprocal is infinite, so
            // (lo − o)·inv is NaN on the axis where the origin sits on
            // the box face.
            ray(b0.min.coords, [subnormal, 40.0, 20.0], 0.0, 1.0),
            ray(b0.max.coords, [-subnormal, -40.0, 0.0], 0.0, 1.0),
        ]);
        // Segments touching a box exactly at tmax and exactly at tmin.
        let touch = [
            Rect::xyzxyz(5.0f32, 0.0, 0.0, 6.0, 1.0, 1.0),
            Rect::xyzxyz(-3.0f32, 0.0, 0.0, 2.0, 1.0, 1.0),
        ];
        let touching = [
            (
                ray([0.0, 0.5, 0.5], [1.0, 0.0, 0.0], 0.0, 5.0),
                touch[0],
                5.0,
            ),
            (
                ray([0.0, 0.5, 0.5], [1.0, 0.0, 0.0], 2.0, 4.0),
                touch[1],
                2.0,
            ),
        ];
        for (r, b, t) in touching {
            assert_eq!(r.entry_t(&b), Some(t));
            rays.push(r);
        }
        let mut lanes: Vec<Rect<f32, 3>> = inflated.clone();
        lanes.extend(raw.iter().copied());
        lanes.extend(touch);
        while !lanes.len().is_multiple_of(4) {
            lanes.push(b0);
        }

        let (mut hits, mut misses) = (0, 0);
        for r in &rays {
            let slab = SlabRay::new(r);
            for (q, bs) in lanes.chunks_exact(4).enumerate() {
                let bs: &[Rect<f32, 3>; 4] = bs.try_into().unwrap();
                // Each group of four fully occupied, then with one of
                // the sixteen empty-slot patterns.
                for occupied in [[true; 4], std::array::from_fn(|s| (q >> s) & 1 == 0)] {
                    let (t, hit) = node_of(bs, occupied).slab_test(&slab);
                    for s in 0..4 {
                        if !occupied[s] {
                            assert!(!hit[s], "empty slot {s} reported a hit");
                            continue;
                        }
                        let want = r.entry_t(&bs[s]);
                        assert_eq!(hit[s], want.is_some(), "ray {r:?} box {:?}", bs[s]);
                        if let Some(w) = want {
                            assert_eq!(t[s].to_bits(), w.to_bits(), "ray {r:?} box {:?}", bs[s]);
                            hits += 1;
                        } else {
                            misses += 1;
                        }
                    }
                }
            }
            for b in &raw {
                assert_eq!(slab.hits_inflating(b), r.hits_aabb_conservative(b));
            }
            // A never-filled node: zero bounds, all slots empty.
            assert_eq!(Node4::<f32>::empty().slab_test(&slab).1, [false; 4]);
        }
        assert!(hits > 50 && misses > 50, "{hits} hits, {misses} misses");
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
        assert_eq!(a.nodes, b.nodes);
        assert_eq!(a.prim_order, b.prim_order);
    }

    /// Every record of `wide` as bits, then the permutation.
    fn record_bits(wide: &Bvh4<f32>) -> Vec<u32> {
        let mut out = Vec::new();
        for n in &wide.nodes {
            for lanes in n.lo.iter().chain(&n.hi) {
                out.extend(lanes.iter().map(|v| v.to_bits()));
            }
            out.extend(n.child_index);
            out.extend(n.child_count);
        }
        out.extend(&wide.prim_order);
        out
    }

    #[test]
    fn refit_equals_collapse_of_binary_refit() {
        // The one-pass wide refit against the binary reference: after
        // seeded moves (some boxes deleted, some with signed-zero
        // coordinates so the two groupings can disagree on a zero's
        // sign), the refit records equal the collapse of the refit
        // binary tree bit for bit, the raw root equals the binary root,
        // and the tree the copy was cloned from is untouched. Covers an
        // empty tree, single-leaf roots and leaf sizes 1, 4 and 8.
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for leaf in [1usize, 4, 8] {
            for n in [0usize, 1, 3, 8, 9, 300, 1000] {
                let bs = boxes(n);
                let bvh = Bvh::build(&bs, BuildQuality::PreferFastTrace, leaf);
                let moved: Vec<Rect<f32, 3>> = bs
                    .iter()
                    .map(|b| match next() % 5 {
                        0 => b.degenerated(),
                        1 => b.translated(&Point::xyz(-150.0, 40.0, 0.0)),
                        2 => {
                            let z = |k: u32| if k.is_multiple_of(2) { 0.0 } else { -0.0 };
                            let r = next();
                            Rect::xyzxyz(z(r), z(r >> 1), z(r >> 2), z(r >> 3), 1.0, z(r >> 4))
                        }
                        _ => *b,
                    })
                    .collect();
                let mut binary = bvh.clone();
                binary.refit(&moved);
                let want = Bvh4::collapse(&binary);

                let original = Bvh4::collapse(&bvh);
                let before = record_bits(&original);
                let mut copy = original.clone();
                let root = copy.refit(&moved, None);
                assert_eq!(record_bits(&copy), record_bits(&want), "leaf {leaf} n {n}");
                assert_eq!(record_bits(&original), before, "the copy leaves its source");
                let b = binary.root_bounds();
                assert!(root.min == b.min && root.max == b.max, "leaf {leaf} n {n}");
                copy.validate(&moved).unwrap();
            }
        }
    }

    #[test]
    fn signed_zero_never_reaches_a_record() {
        // Why a grouping that flips a zero's sign cannot change a stored
        // bound: inflation pads ±0 to the same values.
        let pos = Rect::xyzxyz(0.0f32, 0.0, 0.0, 0.0, 0.0, 0.0);
        let neg = Rect::xyzxyz(-0.0f32, -0.0, -0.0, -0.0, -0.0, -0.0);
        let (a, b) = (pos.inflated_conservative(), neg.inflated_conservative());
        for d in 0..3 {
            assert_eq!(a.min.coords[d].to_bits(), b.min.coords[d].to_bits());
            assert_eq!(a.max.coords[d].to_bits(), b.max.coords[d].to_bits());
        }
    }

    #[test]
    fn refit_finds_moved_boxes() {
        let mut bs = boxes(400);
        let mut wide = Bvh4::collapse(&Bvh::build(&bs, BuildQuality::PreferFastTrace, 4));
        for b in bs.iter_mut() {
            *b = b.translated(&Point::xyz(300.0, 300.0, 0.0));
        }
        wide.refit(&bs, None);
        wide.validate(&bs).unwrap();
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
    fn validate_rejects_a_stale_tree() {
        // A box moved without a refit escapes its slot; refit mends it.
        let mut bs = boxes(64);
        let mut wide = Bvh4::collapse(&Bvh::build(&bs, BuildQuality::PreferFastTrace, 4));
        wide.validate(&bs).unwrap();
        bs[5] = bs[5].translated(&Point::xyz(500.0, 0.0, 0.0));
        assert!(wide.validate(&bs).is_err());
        wide.refit(&bs, None);
        wide.validate(&bs).unwrap();
        assert!(
            wide.validate(&bs[..63]).is_err(),
            "a missing primitive is caught"
        );
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
            nodes: Vec::new(),
            prim_order: (0..=D as u32).collect(),
            ranges: Vec::new(),
        };
        // One occupied slot per (child index, leaf count) pair.
        let mut push_node = |slots: &[(usize, u32)]| {
            let mut node = Node4::empty();
            for (s, &(child, count)) in slots.iter().enumerate() {
                node.set_bounds(s, &unit);
                node.child_index[s] = child as u32;
                node.child_count[s] = count;
            }
            wide.nodes.push(node);
        };
        // Chain nodes 0..D (slot 0: next chain node, slot 1: the stub
        // node for level i at D + 1 + i), then the final chain node D
        // with a single leaf slot (prim D), then the stubs (prim i).
        for i in 0..D {
            push_node(&[(i + 1, 0), (D + 1 + i, 0)]);
        }
        push_node(&[(D, 1)]);
        for i in 0..D {
            push_node(&[(i, 1)]);
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
        wide.validate(&bs).unwrap();
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
