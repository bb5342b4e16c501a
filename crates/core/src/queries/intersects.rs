//! Range query with the `Intersects` predicate (§3.3, Algorithm 1),
//! reformulated per Theorem 1 as two ray-casting passes:
//!
//! - **Forward casting**: diagonals of the queries `S` are cast against
//!   the index BVH over `R`; the IS shader keeps `(r, s)` only when the
//!   diagonal of `s` intersects `r` *and* the anti-diagonal of `r` does
//!   not intersect `s` (the dedup rule of Algorithm 1 line 19).
//! - **Backward casting**: anti-diagonals of the indexed rectangles are
//!   cast against a freshly built BVH over `S`; all hits are kept. Only
//!   the live rectangles that touch the batch's box — the union of the
//!   valid queries — cast: any other one intersects no query, so its ray
//!   could only miss. A box walk of the index's own trees finds them.
//!
//! The backward pass is where the load-imbalance of §3.4 bites, so the
//! query-side BVH is built in a Ray-Multicast layout: the `|S|` query
//! boxes are placed round-robin in `k` disjoint sub-spaces and every
//! anti-diagonal ray is duplicated into `k` offset copies.

use std::time::Instant;

use geom::{anti_diagonal, diagonal, Coord, Ray, Rect};
use rtcore::{BuildOptions, HitContext, IsResult, RtProgram, TraversalBackend};

use crate::config::DedupStrategy;
use crate::deadline;
use crate::error::IndexError;
use crate::handlers::QueryHandler;
use crate::index::{is_valid_rect, Snapshot};
use crate::multicast::{
    choose_k, cost_sweep, estimate_selectivity_ids, multicast_cost_parts, MulticastLayout,
    MulticastMode,
};

use crate::report::{Phase, QueryReport};

/// Forward pass: rays are query diagonals, primitives are the index.
struct ForwardProgram<'a, C: Coord, H: QueryHandler> {
    snap: Snapshot<'a, C, 2>,
    queries: &'a [Rect<C, 2>],
    handler: &'a H,
    /// `true` for Algorithm 1's dedup rule; `false` emits every hit
    /// (the hash-post-process ablation takes care of duplicates).
    check_backward: bool,
}

impl<C: Coord, H: QueryHandler> RtProgram<C> for ForwardProgram<'_, C, H> {
    /// Payload register 0: the query id (Algorithm 1 line 9).
    type Payload = u32;

    #[inline]
    fn intersection(&self, ctx: &HitContext<'_, C>, qid: &mut u32) -> IsResult<C> {
        let gid = self.snap.global_id(ctx.instance_id, ctx.primitive_index);
        if !self.snap.deleted[gid as usize] {
            let r = &self.snap.rects[gid as usize];
            let s = &self.queries[*qid as usize];
            // IS only reports *potential* hits (footnote 2): confirm with
            // the exact predicate (Definition 3) — the f32 slab clip can
            // round a 1-ulp gap shut — and with the slab method
            // (Algorithm 1 line 18)...
            if r.intersects(s) && diagonal(s).intersects_rect(r) {
                // ...and drop pairs the backward pass will also find
                // (line 19), so the union is duplicate-free.
                if !self.check_backward || !anti_diagonal(r).intersects_rect(s) {
                    self.handler.handle(gid, *qid);
                }
            }
        }
        IsResult::Ignore
    }
}

/// Backward pass: rays are index anti-diagonals (placed per sub-space),
/// primitives are the multicast-placed query boxes.
struct BackwardProgram<'a, C: Coord, H: QueryHandler> {
    snap: Snapshot<'a, C, 2>,
    queries: &'a [Rect<C, 2>],
    /// Original query id per query-GAS primitive: invalid (non-finite or
    /// empty) queries are filtered out before the GAS build, so primitive
    /// `p` corresponds to query `valid_ids[p]`.
    valid_ids: &'a [u32],
    layout: &'a MulticastLayout<C>,
    handler: &'a H,
}

/// Backward payload: the casting rectangle's global id and the sub-space
/// this ray copy is responsible for.
struct BackwardPayload {
    gid: u32,
    subspace: usize,
}

impl<C: Coord, H: QueryHandler> RtProgram<C> for BackwardProgram<'_, C, H> {
    type Payload = BackwardPayload;

    #[inline]
    fn intersection(&self, ctx: &HitContext<'_, C>, p: &mut BackwardPayload) -> IsResult<C> {
        // The query GAS is built over the valid subset of S; map the
        // primitive index back to the caller's query id.
        let qid = self.valid_ids[ctx.primitive_index as usize];
        // Sub-space ownership: a ray may graze boxes on the shared
        // boundary of a neighbouring sub-space; only the owner emits.
        if self.layout.subspace_of(qid as usize) != p.subspace {
            return IsResult::Ignore;
        }
        let r = &self.snap.rects[p.gid as usize];
        let s = &self.queries[qid as usize];
        // Exact test in original coordinates (the same Definition 3
        // gate as the forward pass); all backward hits are kept
        // (deduplication already happened in the forward pass).
        if r.intersects(s) && anti_diagonal(r).intersects_rect(s) {
            self.handler.handle(p.gid, qid);
        }
        IsResult::Ignore
    }
}

/// A handler wrapper deduplicating pairs through a sharded hash set —
/// the ablation strawman of DESIGN.md §5 (both passes emit everything,
/// duplicates are removed after the fact).
struct HashDedupHandler<'a, H: QueryHandler> {
    inner: &'a H,
    shards: Vec<parking_lot::Mutex<std::collections::HashSet<u64>>>,
}

impl<'a, H: QueryHandler> HashDedupHandler<'a, H> {
    fn new(inner: &'a H) -> Self {
        Self {
            inner,
            shards: (0..64).map(|_| Default::default()).collect(),
        }
    }
}

impl<H: QueryHandler> QueryHandler for HashDedupHandler<'_, H> {
    fn handle(&self, rect_id: u32, query_id: u32) {
        let key = ((rect_id as u64) << 32) | query_id as u64;
        let shard = (key % self.shards.len() as u64) as usize;
        if self.shards[shard].lock().insert(key) {
            self.inner.handle(rect_id, query_id);
        }
    }
}

/// Runs the Range-Intersects query. `forced_k` bypasses the cost-model
/// prediction (Fig. 9a sweep).
///
/// Fails only under a [`deadline`] scope (the modeled-device-time
/// budget ran out at a phase boundary) or an injected fault (a chaos
/// `rtcore.gas_build` rule hitting the Phase 2 query-side build);
/// without either, the result is always `Ok`.
pub(crate) fn run<C: Coord, H: QueryHandler>(
    snap: Snapshot<'_, C, 2>,
    queries: &[Rect<C, 2>],
    handler: &H,
    forced_k: Option<usize>,
) -> Result<QueryReport, IndexError> {
    run_with_plan(snap, queries, handler, forced_k, None)
}

/// As [`run`], optionally filling `plan` with the cost model's full
/// EXPLAIN decision trace (`RTSIndex::explain_intersects`).
pub(crate) fn run_with_plan<C: Coord, H: QueryHandler>(
    snap: Snapshot<'_, C, 2>,
    queries: &[Rect<C, 2>],
    handler: &H,
    forced_k: Option<usize>,
    plan: Option<&mut obs::QueryPlan>,
) -> Result<QueryReport, IndexError> {
    let results = obs::Counter::standalone();
    // Wrapped *inside* the dedup layer, so the tally is post-dedup and
    // matches what the caller's handler actually saw.
    let counted = super::CountResults {
        inner: handler,
        count: &results,
    };
    match snap.opts.dedup {
        DedupStrategy::ForwardCheck => {
            run_inner(snap, queries, &counted, forced_k, true, &results, plan)
        }
        DedupStrategy::HashPostProcess => {
            let dedup = HashDedupHandler::new(&counted);
            run_inner(snap, queries, &dedup, forced_k, false, &results, plan)
        }
    }
}

/// Multicast-mode label for trace records and EXPLAIN output.
fn mode_label(forced_k: Option<usize>, mode: MulticastMode) -> &'static str {
    if forced_k.is_some() {
        return "fixed";
    }
    match mode {
        MulticastMode::Off => "off",
        MulticastMode::Fixed(_) => "fixed",
        MulticastMode::Auto => "auto",
    }
}

/// Emits the per-batch trace record (and fills the EXPLAIN plan when
/// requested) from the finished report — shared by every exit path of
/// [`run_inner`], so latency stats see exactly one record per batch.
#[allow(clippy::too_many_arguments)]
fn finish_batch(
    report: &QueryReport,
    batch: u64,
    valid: u64,
    live: u64,
    cast: u64,
    mode: &'static str,
    weight: f64,
    sample_size: u64,
    candidates: Vec<obs::KCandidate>,
    results: u64,
    wall_start: Instant,
    plan: Option<&mut obs::QueryPlan>,
) {
    let s = report.estimated_selectivity;
    // The model's inputs were (rays = |R_live|, prims = |S_valid|); feed
    // the chosen k back through the same formula for the predicted parts.
    let (predicted_cr, predicted_ci) = match s {
        Some(s) => multicast_cost_parts(report.chosen_k, live as usize, valid as usize, s),
        None => (0.0, 0.0),
    };
    let predicted_pairs = s.map(|s| s * live as f64 * valid as f64);
    let totals = &report.launch.totals;
    let device_ns = report.breakdown.nanos(|p| p.device);
    let wall_phase_ns = report.breakdown.nanos(|p| p.wall);
    if let Some(plan) = plan {
        *plan = obs::QueryPlan {
            kind: "range_intersects",
            batch,
            valid,
            live,
            cast,
            mode,
            weight,
            sample_size,
            selectivity: s,
            candidates,
            chosen_k: report.chosen_k as u32,
            predicted_cr,
            predicted_ci,
            predicted_pairs,
            actual_pairs: results,
            rays: totals.rays,
            is_calls: totals.is_calls,
            nodes_visited: totals.wide_nodes_visited,
            actual_ci: report.max_is_per_thread(),
            device_ns,
            wall_phase_ns,
        };
    }
    obs::trace::record_query(obs::QueryTrace {
        seq: 0,
        kind: "range_intersects",
        batch,
        valid,
        live,
        chosen_k: report.chosen_k as u32,
        selectivity: s,
        predicted_cr,
        predicted_ci,
        predicted_pairs,
        results,
        rays: totals.rays,
        is_calls: totals.is_calls,
        nodes_visited: totals.wide_nodes_visited,
        max_is_per_thread: report.max_is_per_thread(),
        device_ns,
        wall_ns: wall_start.elapsed().as_nanos() as u64,
        wall_phase_ns,
        ts_ns: 0,
        tid: 0,
    });
}

#[allow(clippy::too_many_arguments)]
fn run_inner<C: Coord, H: QueryHandler>(
    snap: Snapshot<'_, C, 2>,
    queries: &[Rect<C, 2>],
    handler: &H,
    forced_k: Option<usize>,
    check_backward: bool,
    results: &obs::Counter,
    plan: Option<&mut obs::QueryPlan>,
) -> Result<QueryReport, IndexError> {
    let wall_start = Instant::now();
    let mode = mode_label(forced_k, snap.opts.multicast.mode);
    let weight = snap.opts.multicast.weight;
    let sample_size = snap.opts.multicast.sample_size as u64;
    let span = obs::span!("query.intersects");
    let mut report = QueryReport {
        chosen_k: 1,
        ..Default::default()
    };
    if queries.is_empty() || snap.rects.is_empty() {
        finish_batch(
            &report,
            queries.len() as u64,
            0,
            snap.live as u64,
            0,
            mode,
            weight,
            sample_size,
            Vec::new(),
            results.value(),
            wall_start,
            plan,
        );
        return Ok(report);
    }
    // Fail fast when an enclosing deadline scope is already exhausted
    // (e.g. by earlier batches in the same scope): don't start phases
    // the budget can't pay for.
    if let Err(e) = deadline::check() {
        finish_batch(
            &report,
            queries.len() as u64,
            0,
            snap.live as u64,
            0,
            mode,
            weight,
            sample_size,
            Vec::new(),
            results.value(),
            wall_start,
            plan,
        );
        return Err(e);
    }
    // Valid queries in stable id order, and B, their bounding box. The
    // query-side GAS and the cost model work over this subset; ids
    // reported to the handler stay the caller's original ids.
    let mut batch_box = Rect::empty();
    let valid_ids: Vec<u32> = (0..queries.len() as u32)
        .filter(|&i| {
            let q = &queries[i as usize];
            let valid = is_valid_rect(q);
            if valid {
                batch_box.expand(q);
            }
            valid
        })
        .collect();
    obs::counter("query.intersects.invalid_queries").add((queries.len() - valid_ids.len()) as u64);
    if snap.live == 0 || valid_ids.is_empty() {
        finish_batch(
            &report,
            queries.len() as u64,
            valid_ids.len() as u64,
            snap.live as u64,
            0,
            mode,
            weight,
            sample_size,
            Vec::new(),
            results.value(),
            wall_start,
            plan,
        );
        return Ok(report);
    }
    let model = &snap.device.cost_model;
    // Rectangles the backward pass cast: set when it launches, so a batch
    // aborted before then reports 0.
    let mut cast = 0u64;

    // Charges the enclosing deadline scope with a finished phase's
    // modeled device time and aborts the batch at the boundary when the
    // budget is gone — the batch's one trace record is still emitted
    // (overrun visible in `spent_ns`), the report is discarded. Moves
    // `plan`/`candidates` only on the diverging path.
    macro_rules! charge_phase {
        ($device:expr, $candidates:expr) => {
            deadline::charge($device);
            if let Err(e) = deadline::check() {
                finish_batch(
                    &report,
                    queries.len() as u64,
                    valid_ids.len() as u64,
                    snap.live as u64,
                    cast,
                    mode,
                    weight,
                    sample_size,
                    $candidates,
                    results.value(),
                    wall_start,
                    plan,
                );
                return Err(e);
            }
        };
    }

    // ---- Phase 1: k prediction (§3.4) --------------------------------
    let t0 = Instant::now();
    let phase_span = obs::span!("k_prediction");
    let mut candidates: Vec<obs::KCandidate> = Vec::new();
    let k = match forced_k {
        Some(k) => k.max(1),
        None => match snap.opts.multicast.mode {
            MulticastMode::Off => 1,
            MulticastMode::Fixed(k) => k.max(1),
            MulticastMode::Auto => {
                let cfg = &snap.opts.multicast;
                // The sampler strides over every live rectangle, not over
                // the cast, so the model sees the paper's |R|.
                let live_ids: Vec<u32> = (0..snap.rects.len() as u32)
                    .filter(|&i| !snap.deleted[i as usize])
                    .collect();
                let s = estimate_selectivity_ids(
                    snap.rects,
                    &live_ids,
                    queries,
                    &valid_ids,
                    cfg.sample_size,
                );
                report.estimated_selectivity = Some(s);
                candidates = cost_sweep(snap.live, valid_ids.len(), s, cfg.weight, cfg.max_k)
                    .into_iter()
                    .map(|(k, c_r, c_i, cost)| obs::KCandidate {
                        k: k as u32,
                        c_r,
                        c_i,
                        cost,
                    })
                    .collect();
                choose_k(snap.live, valid_ids.len(), s, cfg.weight, cfg.max_k)
            }
        },
    };
    report.chosen_k = k;
    obs::histogram("query.intersects.chosen_k").observe(k as u64);
    // The sampling trial run is SM work — a brute-force pair count over
    // sample² pairs, embarrassingly parallel on the device, so its
    // simulated cost is tiny ("the prediction time is negligible
    // compared to the total query time", §6.5).
    let sample = snap.opts.multicast.sample_size as f64;
    let k_pred_device = if forced_k.is_none() && snap.opts.multicast.mode == MulticastMode::Auto {
        std::time::Duration::from_nanos((sample * sample * 0.05) as u64 + 2_000)
    } else {
        std::time::Duration::ZERO
    };
    phase_span.device(k_pred_device);
    drop(phase_span);
    report.breakdown.k_prediction = Phase {
        device: k_pred_device,
        wall: t0.elapsed(),
    };
    charge_phase!(k_pred_device, candidates);

    // ---- Phase 2: query-side BVH build (timed per §6.1) ---------------
    let t1 = Instant::now();
    let phase_span = obs::span!("bvh_build");
    // Normalization frame: the live data and the valid queries, so
    // every placed coordinate is near the unit box.
    let frame = snap.live_bounds.union(&batch_box);
    let layout = MulticastLayout::with_axis(k, frame, snap.opts.multicast.axis);
    // Sub-space assignment keys on the *original* query id, so adding or
    // removing invalid queries never reshuffles the valid ones.
    let placed: Vec<Rect<C, 3>> = valid_ids
        .iter()
        .map(|&qid| {
            let q = &queries[qid as usize];
            let z = layout.z_of(layout.subspace_of(qid as usize));
            layout.place_rect(qid as usize, q).lift(z, z)
        })
        .collect();
    // The cache is keyed on the exact placed batch (multicast layout
    // included), so a repeated batch — an EXPLAIN'd query re-run for
    // real, a polled dashboard region — skips the build's wall time.
    // Modelled build time below is charged either way: the device being
    // simulated has no such cache, and the conformance tier pins its
    // stable figures across hit and miss.
    // The placed AABBs are finite by construction, so a build failure
    // here is only ever an injected `rtcore.gas_build` fault — surface
    // it as a typed error with the batch's trace record still emitted.
    let query_gas = match snap.query_gas_cache.get_or_build(
        &placed,
        BuildOptions {
            allow_update: false,
            quality: snap.opts.quality,
            leaf_size: snap.opts.leaf_size,
        },
    ) {
        Ok(gas) => gas,
        Err(e) => {
            drop(phase_span);
            finish_batch(
                &report,
                queries.len() as u64,
                valid_ids.len() as u64,
                snap.live as u64,
                cast,
                mode,
                weight,
                sample_size,
                candidates,
                results.value(),
                wall_start,
                plan,
            );
            return Err(IndexError::Accel(e));
        }
    };
    let build_device = model.build_time(valid_ids.len(), TraversalBackend::RtCore);
    phase_span.device(build_device);
    drop(phase_span);
    report.breakdown.bvh_build = Phase {
        device: build_device,
        wall: t1.elapsed(),
    };
    charge_phase!(build_device, candidates);

    // ---- Phase 3: forward casting -------------------------------------
    let phase_span = obs::span!("forward");
    let forward_prog = ForwardProgram {
        snap,
        queries,
        handler,
        check_backward,
    };
    // Forward rays walk the index: run them in the Morton order of their
    // diagonals' midpoints. The backward launch below keeps index order —
    // it walks a per-batch query GAS small enough to stay in cache, reads
    // `rects[gid]` in id order, and measured slower when sorted.
    let keys = super::probe_keys(&snap.ias().bounds(), queries.len(), |i| {
        let s = &queries[i];
        is_valid_rect(s).then(|| s.center().lift(C::ZERO))
    });
    let fwd = snap.device.launch_by_key::<C, _>(&keys, |i, session| {
        let s = &queries[i];
        if !is_valid_rect(s) {
            return;
        }
        let ray = Ray::from_segment(&diagonal(s)).lift();
        session.trace(snap.ias(), &forward_prog, &ray, &mut (i as u32));
    });
    phase_span.device(fwd.device_time);
    drop(phase_span);
    report.breakdown.forward = Phase {
        device: fwd.device_time,
        wall: fwd.wall_time,
    };
    report.launch.merge(&fwd);
    charge_phase!(fwd.device_time, candidates);

    // ---- Phase 4: backward casting (multicast, §3.4) -------------------
    let phase_span = obs::span!("backward");
    let backward_prog = BackwardProgram {
        snap,
        queries,
        valid_ids: &valid_ids,
        layout: &layout,
        handler,
    };
    let walk_start = Instant::now();
    let cast_ids = casters(snap, &batch_box);
    let walk_wall = walk_start.elapsed();
    cast = cast_ids.len() as u64;
    let bwd = snap
        .device
        .launch::<C, _>(cast_ids.len() * k, |launch_idx, session| {
            let gid = cast_ids[launch_idx / k] as usize;
            let subspace = launch_idx % k;
            let seg = layout.place_segment(subspace, &anti_diagonal(&snap.rects[gid]));
            let z = layout.z_of(subspace);
            let mut ray = Ray::from_segment(&seg).lift();
            ray.origin.coords[2] = z;
            let mut payload = BackwardPayload {
                gid: gid as u32,
                subspace,
            };
            session.trace(&*query_gas, &backward_prog, &ray, &mut payload);
        });
    phase_span.device(bwd.device_time);
    drop(phase_span);
    report.breakdown.backward = Phase {
        device: bwd.device_time,
        wall: walk_wall + bwd.wall_time,
    };
    report.launch.merge(&bwd);
    span.device(k_pred_device + build_device + fwd.device_time + bwd.device_time);
    // The deadline can expire *inside* the backward launch: the launch
    // itself cannot be interrupted, but its charge trips this final
    // boundary and the batch still fails cleanly.
    charge_phase!(bwd.device_time, candidates);
    finish_batch(
        &report,
        queries.len() as u64,
        valid_ids.len() as u64,
        snap.live as u64,
        cast,
        mode,
        weight,
        sample_size,
        candidates,
        results.value(),
        wall_start,
        plan,
    );
    Ok(report)
}

/// The backward pass's casters: the live ids whose rectangle intersects
/// `b`, ascending. A box walk of the IAS and of each GAS's wide tree
/// finds the candidates in O(log N + candidates) and marks them in a
/// bitset of `rects.len()` bits; reading it back in word order yields
/// the ids sorted in O(candidates + N/64), so the launch's warps are the
/// id-order warps minus the culled lanes. Deleted ids are dropped on
/// the way out: a degenerated box can still lie in `b`.
///
/// The rectangles sit at z = 0 and their slots' z bounds are inflated
/// around it, so `b` is lifted to the whole z range; lifted to z = 0,
/// no slot would lie inside it and the walk would test every box.
fn casters<C: Coord>(snap: Snapshot<'_, C, 2>, b: &Rect<C, 2>) -> Vec<u32> {
    let mut bits = vec![0u64; snap.rects.len().div_ceil(64)];
    let ias = snap.ias();
    ias.walk_box(&b.lift(C::MIN, C::MAX), |batch, prims| {
        let first = snap.batch_offsets[batch as usize];
        for &p in prims {
            let gid = (first + p) as usize;
            bits[gid / 64] |= 1 << (gid % 64);
        }
    });
    let mut ids = Vec::new();
    for (w, &word) in bits.iter().enumerate() {
        let mut rest = word;
        while rest != 0 {
            let gid = w * 64 + rest.trailing_zeros() as usize;
            if !snap.deleted[gid] {
                ids.push(gid as u32);
            }
            rest &= rest - 1;
        }
    }
    ids
}
