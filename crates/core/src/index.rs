//! The `RTSIndex` — LibRTS's central type (Algorithm 2).
//!
//! The index keeps every inserted rectangle in a per-batch GAS; an IAS
//! with identity transforms links the batches (§4.1). Global primitive
//! ids are derived from a prefix-sum array over batch sizes plus the
//! instance id and per-GAS primitive index, in O(1). Deletion degenerates
//! rectangles and refits (§4.2); updates overwrite cached coordinates and
//! refit.

use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use geom::{Coord, Point, Rect};
use rtcore::{BuildOptions, Device, Gas, GasCache, Ias, Instance};

use crate::config::{IndexOptions, Predicate};
use crate::error::IndexError;
use crate::handlers::{CollectingHandler, QueryHandler, ResultPair};
use crate::maintenance::MaintenanceCredit;
use crate::queries;
use crate::report::{MutationReport, QueryReport};

/// A mutable spatial index over 2-D rectangles, accelerated by the
/// (simulated) RT cores. The paper's `RTSIndex<COORD_T, N_DIMS>` with
/// `N_DIMS = 2`; `COORD_T` is the `C` type parameter (`f32` in the
/// paper's evaluation, `f64` supported).
///
/// ```
/// use geom::{Point, Rect};
/// use librts::{CollectingHandler, Predicate, RTSIndex};
///
/// let mut index = RTSIndex::<f32>::new(Default::default());
/// index
///     .insert(&[Rect::xyxy(0.0, 0.0, 10.0, 10.0), Rect::xyxy(20.0, 20.0, 30.0, 30.0)])
///     .unwrap();
///
/// let handler = CollectingHandler::new();
/// index.point_query(&[Point::xy(5.0, 5.0)], &handler);
/// assert_eq!(handler.into_sorted_vec(), vec![(0, 0)]);
/// ```
pub struct RTSIndex<C: Coord> {
    pub(crate) opts: IndexOptions,
    pub(crate) device: Device,
    /// Global primitive cache: every rectangle ever inserted, in id
    /// order; deleted entries are degenerated (§4.2) but keep their slot
    /// so ids stay stable.
    pub(crate) rects: Vec<Rect<C, 2>>,
    /// Deletion bitmap (degenerate extent alone cannot distinguish a
    /// deleted rect from a user-supplied zero-area one).
    pub(crate) deleted: Vec<bool>,
    pub(crate) live: usize,
    /// Union of the live rectangles (empty when none), kept by every
    /// mutation so that [`RTSIndex::bounds`] and the Range-Intersects
    /// frame cost O(1) instead of a scan per call.
    pub(crate) live_bounds: Rect<C, 2>,
    /// One GAS per insert batch (bottom level).
    pub(crate) gases: Vec<Arc<Gas<C>>>,
    /// Prefix sums: `batch_offsets[i]` is the global id of batch `i`'s
    /// first rectangle; `batch_offsets[batches]` == total count (the
    /// array `A` of §4.1).
    pub(crate) batch_offsets: Vec<u32>,
    /// Top level; rebuilt after every mutation (cheap — stores no
    /// primitives).
    pub(crate) ias: Ias<C>,
    /// Cache of query-side GASes keyed on the exact placed query batch:
    /// a repeated Range-Intersects batch (an EXPLAIN'd query re-run for
    /// real, a polling dashboard) skips the Phase-2 `bvh_build` wall
    /// time entirely. Shared across clones — the cache is
    /// content-addressed, so sharing can never leak stale structures.
    query_gas_cache: Arc<GasCache<C>>,
    /// Amortization ledger for [`RTSIndex::maintain`]: modeled device
    /// time accrued by mutations vs spent on maintenance.
    pub(crate) maint: MaintenanceCredit,
}

impl<C: Coord> Default for RTSIndex<C> {
    fn default() -> Self {
        Self::new(IndexOptions::default())
    }
}

impl<C: Coord> Clone for RTSIndex<C> {
    /// Cheap structural clone: the per-batch GASes are shared by
    /// bumping their `Arc`s (copy-on-write — a later mutation on either
    /// clone detaches only the batches it touches via `Arc::make_mut`);
    /// only the host-side caches and the primitive-free IAS are copied.
    /// This is what makes [`crate::ConcurrentIndex`] publication cheap.
    fn clone(&self) -> Self {
        Self {
            opts: self.opts.clone(),
            device: self.device.clone(),
            rects: self.rects.clone(),
            deleted: self.deleted.clone(),
            live: self.live,
            live_bounds: self.live_bounds,
            gases: self.gases.clone(),
            batch_offsets: self.batch_offsets.clone(),
            ias: self.ias.clone(),
            query_gas_cache: Arc::clone(&self.query_gas_cache),
            maint: self.maint,
        }
    }
}

impl<C: Coord> RTSIndex<C> {
    /// Creates an empty index (the paper's `Init`; PTX loading has no
    /// analogue here — programs are compiled Rust).
    pub fn new(opts: IndexOptions) -> Self {
        let device = Device {
            cost_model: opts.cost_model,
        };
        Self {
            opts,
            device,
            rects: Vec::new(),
            deleted: Vec::new(),
            live: 0,
            live_bounds: Rect::empty(),
            gases: Vec::new(),
            batch_offsets: vec![0],
            ias: Ias::build(&[]).expect("empty IAS build cannot fail"),
            query_gas_cache: Arc::new(GasCache::new()),
            maint: MaintenanceCredit::default(),
        }
    }

    /// Convenience: creates an index pre-loaded with one batch.
    pub fn with_rects(rects: &[Rect<C, 2>], opts: IndexOptions) -> Result<Self, IndexError> {
        let mut idx = Self::new(opts);
        idx.insert(rects)?;
        Ok(idx)
    }

    /// Options the index was created with.
    pub fn options(&self) -> &IndexOptions {
        &self.opts
    }

    /// Total rectangles ever inserted (including deleted slots).
    pub fn capacity_ids(&self) -> usize {
        self.rects.len()
    }

    /// Live (non-deleted) rectangles.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` when no live rectangles remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of insert batches (GASes) currently linked by the IAS.
    pub fn batch_count(&self) -> usize {
        self.gases.len()
    }

    /// The rectangle stored under `id` (deleted entries return `None`).
    pub fn get(&self, id: u32) -> Option<Rect<C, 2>> {
        let i = id as usize;
        if i < self.rects.len() && !self.deleted[i] {
            Some(self.rects[i])
        } else {
            None
        }
    }

    /// Device-memory footprint of the index (Fig. 11): host-side
    /// rectangle cache + deletion bitmap + prefix sums, plus every
    /// per-batch GAS BVH summed explicitly, plus the IAS top level.
    /// The GASes are summed here (not via `Ias::memory_bytes`) so the
    /// bottom-level accounting cannot silently drop batches if the IAS
    /// ever links a subset of them.
    pub fn memory_bytes(&self) -> usize {
        let gas_bytes: usize = self.gases.iter().map(|g| g.memory_bytes()).sum();
        self.rects.len() * std::mem::size_of::<Rect<C, 2>>()
            + self.deleted.len()
            + self.batch_offsets.len() * std::mem::size_of::<u32>()
            + gas_bytes
            + self.ias.tlas_memory_bytes()
    }

    /// World bounds of the live data (empty rect when empty). O(1): the
    /// index keeps them up to date.
    pub fn bounds(&self) -> Rect<C, 2> {
        self.live_bounds
    }

    /// Recomputes [`RTSIndex::bounds`] from scratch: O(N), paid only when
    /// a removed or moved rectangle touched them, and by compaction.
    fn recompute_live_bounds(&mut self) {
        let mut b = Rect::empty();
        for (r, &dead) in self.rects.iter().zip(&self.deleted) {
            if !dead {
                b.expand(r);
            }
        }
        self.live_bounds = b;
    }

    /// `true` when one of `ids`' current rectangles reaches the live
    /// bounds on some side, so removing it may shrink them.
    fn any_on_live_bounds(&self, ids: &[u32]) -> bool {
        let b = &self.live_bounds;
        ids.iter().any(|&id| {
            let r = &self.rects[id as usize];
            (0..2).any(|d| r.min.coords[d] <= b.min.coords[d] || r.max.coords[d] >= b.max.coords[d])
        })
    }

    // ------------------------------------------------------------------
    // Mutations (§4)
    // ------------------------------------------------------------------

    /// Inserts a batch of rectangles, returning their new global ids
    /// (contiguous). Builds one new GAS for the batch and rebuilds the
    /// IAS (§4.1). Rejects invalid rectangles before mutating anything.
    pub fn insert(&mut self, batch: &[Rect<C, 2>]) -> Result<Range<u32>, IndexError> {
        let (range, _report) = self.insert_timed(batch)?;
        Ok(range)
    }

    /// As [`RTSIndex::insert`], also returning timing (Fig. 10b).
    pub fn insert_timed(
        &mut self,
        batch: &[Rect<C, 2>],
    ) -> Result<(Range<u32>, MutationReport), IndexError> {
        let span = obs::span!("index.insert");
        // Chaos point: fires before anything is applied, so an injected
        // failure is clean — mid-batch semantics come from `apply`
        // batches, where op N failing leaves ops 0..N staged-but-unpublished.
        if let Err(fault) = chaos::inject("core.mutation") {
            return Err(IndexError::Injected { point: fault.point });
        }
        let start = Instant::now();
        for (i, r) in batch.iter().enumerate() {
            if !(r.min.is_finite() && r.max.is_finite()) || r.is_empty() {
                return Err(IndexError::InvalidRect { index: i });
            }
        }
        let first = self.rects.len() as u32;
        if batch.is_empty() {
            return Ok((
                first..first,
                MutationReport {
                    affected: 0,
                    device_time: Default::default(),
                    wall_time: start.elapsed(),
                },
            ));
        }
        let aabbs: Vec<Rect<C, 3>> = batch.iter().map(|r| lift(r)).collect();
        let gas = Gas::build(
            aabbs,
            BuildOptions {
                allow_update: true,
                quality: self.opts.quality,
                leaf_size: self.opts.leaf_size,
            },
        )?;
        self.rects.extend_from_slice(batch);
        self.deleted.extend(std::iter::repeat_n(false, batch.len()));
        self.live += batch.len();
        for r in batch {
            self.live_bounds.expand(r);
        }
        self.gases.push(Arc::new(gas));
        self.batch_offsets.push(self.rects.len() as u32);
        self.rebuild_ias();

        let model = &self.device.cost_model;
        let device_time = model.build_time(batch.len(), rtcore::TraversalBackend::RtCore)
            + model.ias_build_time(self.gases.len());
        span.device(device_time);
        self.maint.accrue(device_time);
        obs::counter("index.inserted_rects").add(batch.len() as u64);
        Ok((
            first..self.rects.len() as u32,
            MutationReport {
                affected: batch.len(),
                device_time,
                wall_time: start.elapsed(),
            },
        ))
    }

    /// Deletes rectangles by id: degenerates their AABBs so rays cannot
    /// hit them, then refits the affected GASes and the IAS (§4.2).
    /// Fails (without mutating) on unknown or already-deleted ids.
    pub fn delete(&mut self, ids: &[u32]) -> Result<MutationReport, IndexError> {
        let span = obs::span!("index.delete");
        if let Err(fault) = chaos::inject("core.mutation") {
            return Err(IndexError::Injected { point: fault.point });
        }
        let start = Instant::now();
        self.check_ids(ids)?;
        let shrinks = self.any_on_live_bounds(ids);
        let touched = self.apply_and_refit(ids, |rects, slot, _| {
            rects[slot] = rects[slot].degenerated();
        })?;
        for &id in ids {
            self.deleted[id as usize] = true;
        }
        self.live -= ids.len();
        if shrinks {
            self.recompute_live_bounds();
        }
        self.rebuild_ias();
        let model = &self.device.cost_model;
        let device_time = model.refit_time(touched) + model.ias_refit_time(self.gases.len());
        span.device(device_time);
        self.maint.accrue(device_time);
        obs::counter("index.deleted_rects").add(ids.len() as u64);
        Ok(MutationReport {
            affected: ids.len(),
            device_time,
            wall_time: start.elapsed(),
        })
    }

    /// Updates rectangle coordinates in place: overwrites the cached
    /// primitives and refits (§4.2). Quality may degrade after large
    /// displacements (§6.7) — see [`RTSIndex::rebuild`].
    pub fn update(
        &mut self,
        ids: &[u32],
        rects: &[Rect<C, 2>],
    ) -> Result<MutationReport, IndexError> {
        let span = obs::span!("index.update");
        if let Err(fault) = chaos::inject("core.mutation") {
            return Err(IndexError::Injected { point: fault.point });
        }
        let start = Instant::now();
        if ids.len() != rects.len() {
            return Err(IndexError::LengthMismatch {
                ids: ids.len(),
                rects: rects.len(),
            });
        }
        self.check_ids(ids)?;
        for (i, r) in rects.iter().enumerate() {
            if !(r.min.is_finite() && r.max.is_finite()) || r.is_empty() {
                return Err(IndexError::InvalidRect { index: i });
            }
        }
        let shrinks = self.any_on_live_bounds(ids);
        let touched = self.apply_and_refit(ids, |cache, slot, pos| {
            cache[slot] = rects[pos];
        })?;
        if shrinks {
            self.recompute_live_bounds();
        } else {
            for r in rects {
                self.live_bounds.expand(r);
            }
        }
        self.rebuild_ias();
        let model = &self.device.cost_model;
        let device_time = model.refit_time(touched) + model.ias_refit_time(self.gases.len());
        span.device(device_time);
        self.maint.accrue(device_time);
        obs::counter("index.updated_rects").add(ids.len() as u64);
        Ok(MutationReport {
            affected: ids.len(),
            device_time,
            wall_time: start.elapsed(),
        })
    }

    /// Rebuilds every GAS from scratch over the current coordinates —
    /// the recovery path when refit quality has degraded (§4.2, §6.7).
    pub fn rebuild(&mut self) {
        let _span = obs::span!("index.rebuild");
        // Drop the IAS's shared references so a GAS no snapshot holds is
        // rebuilt in place.
        self.ias = Ias::build(&[]).expect("empty IAS");
        for gas in &mut self.gases {
            Gas::rebuild_shared(gas);
        }
        self.rebuild_ias();
    }

    /// Compacts the index, dropping deleted slots. Survivors are
    /// re-split into fresh GASes of at most
    /// [`IndexOptions::compact_batch_size`] rectangles each (in id
    /// order), so post-compact mutations keep refitting only the batch
    /// they touch — compaction used to collapse everything into one
    /// mega-batch, making every later refit O(index).
    /// **Ids are remapped**: the returned vector maps old id → new id
    /// (`u32::MAX` for deleted). This is an extension beyond the paper's
    /// API, useful after heavy churn.
    pub fn compact(&mut self) -> Vec<u32> {
        let _span = obs::span!("index.compact");
        let mut remap = vec![u32::MAX; self.rects.len()];
        let mut kept = Vec::with_capacity(self.live);
        for (i, (r, &dead)) in self.rects.iter().zip(&self.deleted).enumerate() {
            if !dead {
                remap[i] = kept.len() as u32;
                kept.push(*r);
            }
        }
        self.rects = kept;
        self.deleted = vec![false; self.rects.len()];
        self.live = self.rects.len();
        self.recompute_live_bounds();
        self.maint = MaintenanceCredit::default();
        let target = self.opts.compact_batch_size.max(1);
        self.rebuild_batches(target);
        obs::counter("index.compactions").inc();
        remap
    }

    pub(crate) fn check_ids(&self, ids: &[u32]) -> Result<(), IndexError> {
        check_id_batch(ids, &self.deleted)
    }

    /// Rebuilds the bottom level from the global rectangle cache: drops
    /// every existing GAS and re-splits the id space into contiguous
    /// batches of at most `target` primitives, then rebuilds the IAS.
    /// Id-stable — slot `i` keeps global id `i`; deleted slots (already
    /// degenerated in the cache) ride along unhittable.
    pub(crate) fn rebuild_batches(&mut self, target: usize) {
        // Drop the IAS's shared references first so nothing retains the
        // old bottom level.
        self.ias = Ias::build(&[]).expect("empty IAS");
        self.gases.clear();
        self.batch_offsets = vec![0];
        let total = self.rects.len();
        let mut lo = 0usize;
        while lo < total {
            let hi = (lo + target).min(total);
            let aabbs: Vec<Rect<C, 3>> = self.rects[lo..hi].iter().map(lift).collect();
            let gas = Gas::build(
                aabbs,
                BuildOptions {
                    allow_update: true,
                    quality: self.opts.quality,
                    leaf_size: self.opts.leaf_size,
                },
            )
            .expect("cached rectangles are always finite");
            self.gases.push(Arc::new(gas));
            self.batch_offsets.push(hi as u32);
            lo = hi;
        }
        self.rebuild_ias();
    }

    /// Applies `mutate(global_cache, slot, position_in_ids)` for each id,
    /// then refits every touched GAS from the global cache. Returns the
    /// total primitive count of the touched GASes (refit work).
    fn apply_and_refit<F>(&mut self, ids: &[u32], mutate: F) -> Result<usize, IndexError>
    where
        F: Fn(&mut [Rect<C, 2>], usize, usize),
    {
        for (pos, &id) in ids.iter().enumerate() {
            mutate(&mut self.rects, id as usize, pos);
        }
        // Which batches were touched?
        let mut touched: Vec<usize> = ids.iter().map(|&id| self.batch_of(id)).collect();
        touched.sort_unstable();
        touched.dedup();
        // Drop the IAS's Arcs so a GAS no published snapshot holds is
        // refit in place; a held one is refit by copy.
        self.ias = Ias::build(&[]).expect("empty IAS");
        let mut total = 0usize;
        for &b in &touched {
            let lo = self.batch_offsets[b] as usize;
            let hi = self.batch_offsets[b + 1] as usize;
            let fresh: Vec<Rect<C, 3>> = self.rects[lo..hi].iter().map(lift).collect();
            Gas::refit_shared(&mut self.gases[b], fresh)?;
            total += hi - lo;
        }
        Ok(total)
    }

    /// Batch containing global id `id` (binary search over prefix sums).
    fn batch_of(&self, id: u32) -> usize {
        match self.batch_offsets.binary_search(&id) {
            Ok(b) if b < self.gases.len() => b,
            Ok(b) => b - 1,
            Err(b) => b - 1,
        }
    }

    pub(crate) fn rebuild_ias(&mut self) {
        let instances: Vec<Instance<C>> = self
            .gases
            .iter()
            .enumerate()
            .map(|(i, gas)| Instance::identity(Arc::clone(gas), i as u32))
            .collect();
        self.ias = Ias::build(&instances).expect("identity instances cannot fail");
    }

    // ------------------------------------------------------------------
    // Queries (§3)
    // ------------------------------------------------------------------

    /// Point query `Q(R, S)` (§3.1): calls `handler(rect_id, point_id)`
    /// for every indexed rectangle containing each query point.
    pub fn point_query<H: QueryHandler>(&self, points: &[Point<C, 2>], handler: &H) -> QueryReport {
        queries::point::run(self.snapshot(), points, handler)
    }

    /// Range query `Q(R, S)` with the given predicate (§3.2–§3.3).
    ///
    /// Panics under a [`crate::deadline`] scope or a chaos fault
    /// schedule — those are the only ways the engine can fail; use
    /// [`try_range_query`](Self::try_range_query) there.
    pub fn range_query<H: QueryHandler>(
        &self,
        predicate: Predicate,
        queries_in: &[Rect<C, 2>],
        handler: &H,
    ) -> QueryReport {
        self.try_range_query(predicate, queries_in, handler)
            .unwrap_or_else(|e| panic!("range_query aborted: {e}"))
    }

    /// Fallible range query: `Err(DeadlineExceeded)` when an enclosing
    /// [`crate::deadline::with_deadline`] budget runs out at a phase
    /// boundary, `Err(Accel(Injected))` when a chaos fault hits the
    /// query-side GAS build. Identical to
    /// [`range_query`](Self::range_query) otherwise.
    pub fn try_range_query<H: QueryHandler>(
        &self,
        predicate: Predicate,
        queries_in: &[Rect<C, 2>],
        handler: &H,
    ) -> Result<QueryReport, IndexError> {
        match predicate {
            Predicate::Contains => Ok(queries::contains::run(self.snapshot(), queries_in, handler)),
            Predicate::Intersects => {
                queries::intersects::run(self.snapshot(), queries_in, handler, None)
            }
        }
    }

    /// Range-Intersects with an explicit multicast `k` (Fig. 9a sweep);
    /// bypasses the cost-model prediction. Panics where
    /// [`range_query`](Self::range_query) would.
    pub fn range_intersects_with_k<H: QueryHandler>(
        &self,
        queries_in: &[Rect<C, 2>],
        handler: &H,
        k: usize,
    ) -> QueryReport {
        queries::intersects::run(self.snapshot(), queries_in, handler, Some(k))
            .unwrap_or_else(|e| panic!("range_intersects_with_k aborted: {e}"))
    }

    /// EXPLAIN for Range-Intersects: runs the batch like
    /// [`range_query`](Self::range_query) — results go to `handler`, and
    /// every side effect (counters, trace records) is identical — and
    /// additionally returns the cost model's full decision trace as an
    /// [`obs::QueryPlan`]: the sampled selectivity, every candidate `k`
    /// with its predicted `C_R`/`C_I`, the winner, and the measured
    /// counterparts, so prediction error is a queryable number.
    ///
    /// Every field in the plan but the per-phase wall time is
    /// Stable-class; `QueryPlan::stable_json` is byte-identical at any
    /// `LIBRTS_THREADS`.
    pub fn explain_intersects<H: QueryHandler>(
        &self,
        queries_in: &[Rect<C, 2>],
        handler: &H,
    ) -> obs::QueryPlan {
        let mut plan = obs::QueryPlan::default();
        queries::intersects::run_with_plan(
            self.snapshot(),
            queries_in,
            handler,
            None,
            Some(&mut plan),
        )
        .unwrap_or_else(|e| panic!("explain_intersects aborted: {e}"));
        // Remember the plan for the live plane's `/explain` endpoint.
        obs::explain::set_last_plan(&plan);
        plan
    }

    /// Convenience: point query collecting `(rect_id, point_id)` pairs.
    pub fn collect_point_query(&self, points: &[Point<C, 2>]) -> Vec<ResultPair> {
        let h = CollectingHandler::new();
        self.point_query(points, &h);
        h.into_sorted_vec()
    }

    /// Convenience: range query collecting `(rect_id, query_id)` pairs.
    pub fn collect_range_query(
        &self,
        predicate: Predicate,
        queries_in: &[Rect<C, 2>],
    ) -> Vec<ResultPair> {
        let h = CollectingHandler::new();
        self.range_query(predicate, queries_in, &h);
        h.into_sorted_vec()
    }

    /// Read-only view shared with the query implementations.
    pub(crate) fn snapshot(&self) -> Snapshot<'_, C> {
        Snapshot {
            rects: &self.rects,
            deleted: &self.deleted,
            batch_offsets: &self.batch_offsets,
            ias: &self.ias,
            device: &self.device,
            opts: &self.opts,
            live: self.live,
            live_bounds: self.live_bounds,
            query_gas_cache: &self.query_gas_cache,
        }
    }
}

/// Read-only index state handed to query programs.
#[derive(Clone, Copy)]
pub(crate) struct Snapshot<'a, C: Coord> {
    pub rects: &'a [Rect<C, 2>],
    pub deleted: &'a [bool],
    pub batch_offsets: &'a [u32],
    pub ias: &'a Ias<C>,
    pub device: &'a Device,
    pub opts: &'a IndexOptions,
    pub live: usize,
    /// [`RTSIndex::bounds`].
    pub live_bounds: Rect<C, 2>,
    pub query_gas_cache: &'a GasCache<C>,
}

impl<C: Coord> Snapshot<'_, C> {
    /// Global primitive id from an instance id (batch) and the per-GAS
    /// primitive index — the O(1) prefix-sum mapping of §4.1.
    #[inline]
    pub fn global_id(&self, instance_id: u32, primitive_index: u32) -> u32 {
        self.batch_offsets[instance_id as usize] + primitive_index
    }
}

/// Embeds a 2-D rectangle into the 3-D primitive space at `z = 0` (§3.1).
#[inline]
pub(crate) fn lift<C: Coord>(r: &Rect<C, 2>) -> Rect<C, 3> {
    r.lift(C::ZERO, C::ZERO)
}

/// Validates a mutation id batch against the deletion bitmap (the id
/// space is `0..deleted.len()`): every id must name an existing live
/// slot, and no id may repeat within the batch — a duplicate would
/// double-apply the mutation (a repeated delete decrements `live` twice
/// for one slot). Shared by the 2-D and 3-D engines.
///
/// O(k log k) in the batch size `k`. The previous implementation
/// allocated an O(n) bitmap over the whole id space per call, so a
/// one-id delete on a 10M-rect index paid a 10MB zeroing.
///
/// Error precedence is positional, matching the original left-to-right
/// scan: the reported error is the one at the smallest *position* in
/// `ids`, and at a tied position unknown/already-deleted wins over
/// duplicate (a repeated unknown id reports `UnknownId`).
pub(crate) fn check_id_batch(ids: &[u32], deleted: &[bool]) -> Result<(), IndexError> {
    let len = deleted.len();
    let mut bad: Option<(usize, IndexError)> = None;
    for (pos, &id) in ids.iter().enumerate() {
        let i = id as usize;
        if i >= len {
            bad = Some((pos, IndexError::UnknownId { id }));
            break;
        }
        if deleted[i] {
            bad = Some((pos, IndexError::AlreadyDeleted { id }));
            break;
        }
    }
    // The scan above stops at the first unknown/deleted id; a duplicate
    // whose second occurrence sits strictly *before* that position won
    // in the original scan and must still win here.
    let scan_end = bad.as_ref().map_or(ids.len(), |(p, _)| *p);
    if ids.len() > 1 {
        let mut pairs: Vec<(u32, u32)> = ids
            .iter()
            .enumerate()
            .map(|(pos, &id)| (id, pos as u32))
            .collect();
        pairs.sort_unstable();
        // Earliest second occurrence of any repeated id: sorting keeps
        // equal ids position-ordered, so each adjacent equal pair's
        // right element is a second (or later) occurrence.
        let mut dup: Option<(usize, u32)> = None;
        for w in pairs.windows(2) {
            if w[0].0 == w[1].0 {
                let pos = w[1].1 as usize;
                if dup.is_none_or(|(dpos, _)| pos < dpos) {
                    dup = Some((pos, w[1].0));
                }
            }
        }
        if let Some((dpos, id)) = dup {
            if dpos < scan_end {
                return Err(IndexError::DuplicateId { id });
            }
        }
    }
    match bad {
        Some((_, e)) => Err(e),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(a: f32, b: f32, c: f32, d: f32) -> Rect<f32, 2> {
        Rect::xyxy(a, b, c, d)
    }

    /// Pins the `memory_bytes` composition: the explicit per-batch GAS
    /// sum plus the TLAS must equal what the IAS's own (Arc-deduplicated)
    /// accounting reports, i.e. every GAS is counted exactly once — no
    /// batch dropped, none double-counted through the instance list.
    #[test]
    fn memory_bytes_counts_each_gas_exactly_once() {
        let mut index = RTSIndex::<f32>::new(IndexOptions::default());
        for b in 0..4 {
            let base = b as f32 * 10.0;
            let batch: Vec<Rect<f32, 2>> = (0..16)
                .map(|i| {
                    let x = base + (i % 4) as f32 * 2.0;
                    let y = (i / 4) as f32 * 2.0;
                    r(x, y, x + 1.5, y + 1.5)
                })
                .collect();
            index.insert(&batch).unwrap();
        }
        let host_bytes = index.rects.len() * std::mem::size_of::<Rect<f32, 2>>()
            + index.deleted.len()
            + index.batch_offsets.len() * std::mem::size_of::<u32>();
        let gas_sum: usize = index.gases.iter().map(|g| g.memory_bytes()).sum();
        assert_eq!(
            index.memory_bytes(),
            host_bytes + gas_sum + index.ias.tlas_memory_bytes()
        );
        // The IAS links every batch exactly once, so its deduplicated
        // total must match the explicit sum.
        assert_eq!(
            index.ias.memory_bytes(),
            gas_sum + index.ias.tlas_memory_bytes()
        );

        // Mutations must preserve the identity (delete refits in place,
        // insert adds one GAS).
        index.delete(&[0, 5, 17, 33]).unwrap();
        let gas_sum: usize = index.gases.iter().map(|g| g.memory_bytes()).sum();
        assert_eq!(
            index.ias.memory_bytes(),
            gas_sum + index.ias.tlas_memory_bytes()
        );
        assert!(index.memory_bytes() >= gas_sum);
    }

    /// The compact() batching fix: survivors are re-split into GASes of
    /// at most `compact_batch_size` rects, and a post-compact mutation
    /// refits only its own batch — pinned through the deterministic
    /// cost-model device time, which charges exactly the touched
    /// primitive count plus the IAS refit.
    #[test]
    fn compact_resplits_batches_and_localizes_refit() {
        let opts = IndexOptions {
            compact_batch_size: 32,
            ..Default::default()
        };
        let mut index = RTSIndex::<f32>::new(opts);
        for b in 0..4 {
            let batch: Vec<Rect<f32, 2>> = (0..40)
                .map(|i| {
                    let x = (b * 40 + i) as f32 * 3.0;
                    r(x, 0.0, x + 2.0, 2.0)
                })
                .collect();
            index.insert(&batch).unwrap();
        }
        let victims: Vec<u32> = (0..160).step_by(20).collect(); // 8 ids
        index.delete(&victims).unwrap();
        assert_eq!(index.len(), 152);

        let remap = index.compact();
        // Survivors keep insertion order under new contiguous ids.
        assert_eq!(remap.len(), 160);
        assert!(victims.iter().all(|&v| remap[v as usize] == u32::MAX));
        let survivors: Vec<u32> = remap.iter().copied().filter(|&v| v != u32::MAX).collect();
        assert_eq!(survivors, (0..152).collect::<Vec<u32>>());
        // Bounded re-split instead of one mega-batch.
        assert_eq!(index.batch_count(), 152usize.div_ceil(32));
        assert_eq!(index.capacity_ids(), 152);

        // A single delete now touches one 32-rect batch, not the whole
        // index: the modeled device time is exact and deterministic.
        let report = index.delete(&[0]).unwrap();
        let model = index.options().cost_model;
        assert_eq!(
            report.device_time,
            model.refit_time(32) + model.ias_refit_time(index.batch_count())
        );

        // And results survive the remap (old id 21 — not a victim).
        let hits = index.collect_point_query(&[Point::xy(3.0 * 21.0 + 1.0, 1.0)]);
        assert_eq!(hits, vec![(remap[21], 0)]);
    }

    /// The O(batch)-validation rewrite keeps the exact positional error
    /// precedence of the old left-to-right bitmap scan.
    #[test]
    fn check_ids_positional_precedence() {
        let mut index = RTSIndex::<f32>::new(IndexOptions::default());
        index
            .insert(
                &(0..8)
                    .map(|i| r(i as f32, 0.0, i as f32 + 0.5, 1.0))
                    .collect::<Vec<_>>(),
            )
            .unwrap();
        index.delete(&[3]).unwrap();

        // Duplicate's second occurrence before the unknown id: dup wins.
        assert_eq!(
            index.delete(&[1, 1, 99]),
            Err(IndexError::DuplicateId { id: 1 })
        );
        // Unknown id before the duplicate pair: unknown wins.
        assert_eq!(
            index.delete(&[99, 1, 1]),
            Err(IndexError::UnknownId { id: 99 })
        );
        // A repeated unknown id reports UnknownId (position tie).
        assert_eq!(
            index.delete(&[99, 99]),
            Err(IndexError::UnknownId { id: 99 })
        );
        // A repeated deleted id reports AlreadyDeleted (position tie).
        assert_eq!(
            index.delete(&[3, 3]),
            Err(IndexError::AlreadyDeleted { id: 3 })
        );
        // Already-deleted before a later duplicate: deleted wins.
        assert_eq!(
            index.delete(&[0, 3, 1, 1]),
            Err(IndexError::AlreadyDeleted { id: 3 })
        );
        // Duplicate strictly before the deleted id: dup wins.
        assert_eq!(
            index.delete(&[0, 2, 0, 3]),
            Err(IndexError::DuplicateId { id: 0 })
        );
        // Three occurrences: the *second* is the offence; it precedes
        // the unknown id here.
        assert_eq!(
            index.delete(&[5, 5, 99, 5]),
            Err(IndexError::DuplicateId { id: 5 })
        );
        // Failed batches must not have mutated anything.
        assert_eq!(index.len(), 7);
        index.delete(&[0, 1, 2]).unwrap();
        assert_eq!(index.len(), 4);
    }
}
