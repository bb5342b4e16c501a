//! 3-D spatial index — the `N_DIMS = 3` instantiation the paper's API
//! advertises (§5: `N_DIMS` is 2 or 3; §3: "extending to 3D is
//! straightforward since OptiX operates natively in 3D space").
//!
//! Point queries and Range-Contains carry over verbatim: a point probe
//! ray works in any dimension (Case-2 detection + exact filtering), and
//! the center-point reduction of §3.2 is dimension-independent.
//! Range-Intersects does *not* carry over: Theorem 1 is a planar
//! statement — in 3-D, two boxes can overlap without either box's main
//! diagonal entering the other (their intersection can be a thin slab
//! hugging one face, missed by both diagonals). This module therefore
//! executes Range-Intersects as one backward-style **Minkowski
//! center-probe** pass: a per-batch GAS over the query boxes expanded
//! by the index-wide maximum data half-extent, probed by a point ray
//! from every data-box center, with Definition 3 confirming candidates
//! exactly (see [`RTSIndex3::intersects_query`]).

use std::sync::Arc;
use std::time::Instant;

use geom::{Coord, Point, Ray, Rect};
use rtcore::{BuildOptions, Device, Gas, GasCache, HitContext, IsResult, RtProgram};

use crate::config::IndexOptions;
use crate::error::IndexError;
use crate::handlers::{CollectingHandler, QueryHandler, ResultPair};
use crate::index::check_id_batch;
use crate::maintenance::MaintenanceCredit;
use crate::report::{Breakdown, MutationReport, Phase, QueryReport};

/// A 3-D rectangle (box) index supporting point queries, Range-Contains,
/// Range-Intersects and deletion. Unlike [`crate::RTSIndex`], the 3-D
/// variant has no batch instancing (the evaluation only exercises 2-D
/// insert/update; instancing works identically and could be layered on),
/// but it supports the paper's §4.2 deletion trick directly on its single
/// GAS: deleted boxes are degenerated to zero extent and refit.
pub struct RTSIndex3<C: Coord> {
    pub(crate) device: Device,
    pub(crate) boxes: Vec<Rect<C, 3>>,
    pub(crate) deleted: Vec<bool>,
    pub(crate) live: usize,
    /// The single data GAS, behind an [`Arc`] so `clone` is structural
    /// sharing rather than a deep copy. Mutation goes through
    /// [`Arc::make_mut`] — copy-on-write, so clones published elsewhere
    /// (e.g. by `ConcurrentIndex3`) are never disturbed.
    pub(crate) gas: Arc<Gas<C>>,
    /// Content-addressed cache of per-batch query-side GASes built by
    /// [`RTSIndex3::intersects_query`]. Shared across clones: the cache
    /// keys on the exact expanded query batch, so sharing can never
    /// serve a stale structure.
    query_gas_cache: Arc<GasCache<C>>,
    /// Largest half-extent per axis over all indexed boxes — the
    /// Minkowski bound used by the intersects candidate pass. Kept at
    /// its build-time value after deletions (still a valid upper bound
    /// for every live box).
    pub(crate) max_half: Point<C, 3>,
    /// Amortization ledger for automatic maintenance (modeled device
    /// time accrued by mutations vs spent by maintenance).
    pub(crate) maint: MaintenanceCredit,
}

impl<C: Coord> Clone for RTSIndex3<C> {
    /// Structural-sharing clone: the GAS (the dominant allocation — BVH
    /// nodes, wide nodes, AABBs) is shared via [`Arc`], so cloning costs
    /// O(boxes) for the side tables instead of a full accel rebuild-sized
    /// copy. Mutating either clone copies the GAS on write
    /// ([`Arc::make_mut`] in [`RTSIndex3::delete`]).
    fn clone(&self) -> Self {
        Self {
            device: self.device.clone(),
            boxes: self.boxes.clone(),
            deleted: self.deleted.clone(),
            live: self.live,
            gas: Arc::clone(&self.gas),
            query_gas_cache: Arc::clone(&self.query_gas_cache),
            max_half: self.max_half,
            maint: self.maint,
        }
    }
}

struct Point3Program<'a, C: Coord, H: QueryHandler> {
    boxes: &'a [Rect<C, 3>],
    deleted: &'a [bool],
    points: &'a [Point<C, 3>],
    handler: &'a H,
}

impl<C: Coord, H: QueryHandler> RtProgram<C> for Point3Program<'_, C, H> {
    type Payload = u32;

    #[inline]
    fn intersection(&self, ctx: &HitContext<'_, C>, qid: &mut u32) -> IsResult<C> {
        let rid = ctx.primitive_index as usize;
        if !self.deleted[rid] && self.boxes[rid].contains_point(&self.points[*qid as usize]) {
            self.handler.handle(ctx.primitive_index, *qid);
        }
        IsResult::Ignore
    }
}

struct Contains3Program<'a, C: Coord, H: QueryHandler> {
    boxes: &'a [Rect<C, 3>],
    deleted: &'a [bool],
    queries: &'a [Rect<C, 3>],
    handler: &'a H,
}

impl<C: Coord, H: QueryHandler> RtProgram<C> for Contains3Program<'_, C, H> {
    type Payload = u32;

    #[inline]
    fn intersection(&self, ctx: &HitContext<'_, C>, qid: &mut u32) -> IsResult<C> {
        let rid = ctx.primitive_index as usize;
        if !self.deleted[rid] && self.boxes[rid].contains_rect(&self.queries[*qid as usize]) {
            self.handler.handle(ctx.primitive_index, *qid);
        }
        IsResult::Ignore
    }
}

/// Backward-style 3-D intersects program: primitives are the *queries*
/// (Minkowski-expanded), rays are point probes from data-box centers.
/// Only live boxes cast probes, so no deleted check is needed here.
struct Intersects3Program<'a, C: Coord, H: QueryHandler> {
    boxes: &'a [Rect<C, 3>],
    /// Maps query-GAS primitive index back to the original query id
    /// (invalid queries are filtered out before the GAS build).
    valid_ids: &'a [u32],
    queries: &'a [Rect<C, 3>],
    handler: &'a H,
}

impl<C: Coord, H: QueryHandler> RtProgram<C> for Intersects3Program<'_, C, H> {
    /// Payload: the probing data-box id.
    type Payload = u32;

    #[inline]
    fn intersection(&self, ctx: &HitContext<'_, C>, rid: &mut u32) -> IsResult<C> {
        let qid = self.valid_ids[ctx.primitive_index as usize];
        let r = &self.boxes[*rid as usize];
        if r.intersects(&self.queries[qid as usize]) {
            self.handler.handle(*rid, qid);
        }
        IsResult::Ignore
    }
}

impl<C: Coord> RTSIndex3<C> {
    /// Builds the index over 3-D boxes.
    pub fn build(boxes: &[Rect<C, 3>], opts: IndexOptions) -> Result<Self, IndexError> {
        for (i, b) in boxes.iter().enumerate() {
            if !(b.min.is_finite() && b.max.is_finite()) || b.is_empty() {
                return Err(IndexError::InvalidRect { index: i });
            }
        }
        let mut max_half: Point<C, 3> = Point::origin();
        for b in boxes {
            for d in 0..3 {
                max_half.coords[d] = max_half.coords[d].max_c(b.extent(d) * C::HALF);
            }
        }
        let gas = Gas::build(
            boxes.to_vec(),
            BuildOptions {
                allow_update: true,
                quality: opts.quality,
                leaf_size: opts.leaf_size,
            },
        )?;
        Ok(Self {
            device: Device {
                cost_model: opts.cost_model,
            },
            boxes: boxes.to_vec(),
            deleted: vec![false; boxes.len()],
            live: boxes.len(),
            gas: Arc::new(gas),
            query_gas_cache: Arc::new(GasCache::new()),
            max_half,
            maint: MaintenanceCredit::default(),
        })
    }

    /// Total id capacity including deleted slots (ids are stable until
    /// [`RTSIndex3::compact`]).
    pub fn capacity_ids(&self) -> usize {
        self.boxes.len()
    }

    /// Number of live (non-deleted) boxes.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` when no live boxes remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Validates a mutation id batch: every id must name an existing,
    /// live box, and no id may repeat within the batch (a duplicate
    /// would double-count the live decrement — same invariant as
    /// [`crate::RTSIndex`]). Shares the sort-based validator with the
    /// 2-D engine, including its positional error precedence.
    fn check_ids(&self, ids: &[u32]) -> Result<(), IndexError> {
        check_id_batch(ids, &self.deleted)
    }

    /// Deletes boxes by id — the paper's §4.2 trick: each deleted box is
    /// degenerated to zero extent in the GAS (unhittable) and the GAS is
    /// refit; the deleted bitmap guards exact filtering against the rare
    /// probe that lands exactly on the collapsed corner.
    pub fn delete(&mut self, ids: &[u32]) -> Result<MutationReport, IndexError> {
        let span = obs::span!("index3.delete");
        // Same chaos point as the 2-D index: one hit per mutation batch.
        if let Err(fault) = chaos::inject("core.mutation") {
            return Err(IndexError::Injected { point: fault.point });
        }
        let start = Instant::now();
        self.check_ids(ids)?;
        // Copy-on-write: clones sharing this GAS (concurrent readers)
        // keep the pre-delete structure; only this index pays the copy.
        let mut fresh = self.gas.aabbs().to_vec();
        for &id in ids {
            fresh[id as usize] = fresh[id as usize].degenerated();
        }
        Gas::refit_shared(&mut self.gas, fresh).map_err(IndexError::Accel)?;
        for &id in ids {
            self.deleted[id as usize] = true;
        }
        self.live -= ids.len();
        let device_time = self.device.cost_model.refit_time(self.boxes.len());
        span.device(device_time);
        self.maint.accrue(device_time);
        obs::counter("index3.deleted_rects").add(ids.len() as u64);
        Ok(MutationReport {
            affected: ids.len(),
            device_time,
            wall_time: start.elapsed(),
        })
    }

    /// Updates box coordinates in place: overwrites the cached
    /// primitives and refits the single GAS (§4.2) — the 3-D
    /// counterpart of [`crate::RTSIndex::update`]. The Minkowski bound
    /// `max_half` grows monotonically when an update enlarges a box
    /// (shrinking it would invalidate the intersects candidate pass for
    /// boxes still at the old extent), so heavy growth-then-shrink
    /// churn leaves the bound conservative — correct, just more
    /// candidates, and [`RTSIndex3::compact`] re-tightens it.
    pub fn update(
        &mut self,
        ids: &[u32],
        boxes: &[Rect<C, 3>],
    ) -> Result<MutationReport, IndexError> {
        let span = obs::span!("index3.update");
        if let Err(fault) = chaos::inject("core.mutation") {
            return Err(IndexError::Injected { point: fault.point });
        }
        let start = Instant::now();
        if ids.len() != boxes.len() {
            return Err(IndexError::LengthMismatch {
                ids: ids.len(),
                rects: boxes.len(),
            });
        }
        self.check_ids(ids)?;
        for (i, b) in boxes.iter().enumerate() {
            if !(b.min.is_finite() && b.max.is_finite()) || b.is_empty() {
                return Err(IndexError::InvalidRect { index: i });
            }
        }
        let mut fresh = self.gas.aabbs().to_vec();
        for (pos, &id) in ids.iter().enumerate() {
            fresh[id as usize] = boxes[pos];
        }
        Gas::refit_shared(&mut self.gas, fresh).map_err(IndexError::Accel)?;
        for (pos, &id) in ids.iter().enumerate() {
            self.boxes[id as usize] = boxes[pos];
            for d in 0..3 {
                self.max_half.coords[d] =
                    self.max_half.coords[d].max_c(boxes[pos].extent(d) * C::HALF);
            }
        }
        let device_time = self.device.cost_model.refit_time(self.boxes.len());
        span.device(device_time);
        self.maint.accrue(device_time);
        obs::counter("index3.updated_rects").add(ids.len() as u64);
        Ok(MutationReport {
            affected: ids.len(),
            device_time,
            wall_time: start.elapsed(),
        })
    }

    /// Rebuilds the GAS from scratch over the current coordinates — the
    /// recovery path when refit quality has degraded (§4.2, §6.7).
    /// Id-stable: deleted slots stay degenerated.
    pub fn rebuild(&mut self) {
        let _span = obs::span!("index3.rebuild");
        Gas::rebuild_shared(&mut self.gas);
    }

    /// Compacts the index, dropping deleted slots and re-tightening the
    /// Minkowski bound — the 3-D counterpart of
    /// [`crate::RTSIndex::compact`]. **Ids are remapped**: the returned
    /// vector maps old id → new id (`u32::MAX` for deleted).
    pub fn compact(&mut self) -> Vec<u32> {
        let _span = obs::span!("index3.compact");
        let mut remap = vec![u32::MAX; self.boxes.len()];
        let mut kept = Vec::with_capacity(self.live);
        for (i, (b, &dead)) in self.boxes.iter().zip(&self.deleted).enumerate() {
            if !dead {
                remap[i] = kept.len() as u32;
                kept.push(*b);
            }
        }
        let mut max_half: Point<C, 3> = Point::origin();
        for b in &kept {
            for d in 0..3 {
                max_half.coords[d] = max_half.coords[d].max_c(b.extent(d) * C::HALF);
            }
        }
        let gas =
            Gas::build(kept.clone(), self.gas.options()).expect("cached boxes are always finite");
        self.boxes = kept;
        self.deleted = vec![false; self.boxes.len()];
        self.live = self.boxes.len();
        self.gas = Arc::new(gas);
        self.max_half = max_half;
        self.maint = MaintenanceCredit::default();
        obs::counter("index3.compactions").inc();
        remap
    }

    /// 3-D point query (§3.1 in three dimensions): one probe ray per
    /// point, Case-2 detection, exact filtering in IS.
    pub fn point_query<H: QueryHandler>(&self, points: &[Point<C, 3>], handler: &H) -> QueryReport {
        let wall_start = Instant::now();
        let span = obs::span!("query3.point");
        let results = obs::Counter::standalone();
        let counted = crate::queries::CountResults {
            inner: handler,
            count: &results,
        };
        let program = Point3Program {
            boxes: &self.boxes,
            deleted: &self.deleted,
            points,
            handler: &counted,
        };
        let keys = crate::queries::probe_keys(&self.gas.bounds(), points.len(), |i| {
            let p = points[i];
            p.is_finite().then_some(p)
        });
        let launch = self.device.launch_by_key::<C, _>(&keys, |i, session| {
            let p = points[i];
            if !p.is_finite() {
                return;
            }
            session.trace(&*self.gas, &program, &Ray::point_probe(p), &mut (i as u32));
        });
        span.device(launch.device_time);
        let report = wrap(launch);
        crate::queries::record_batch_trace(
            "point3",
            points.len() as u64,
            points.iter().filter(|p| p.is_finite()).count() as u64,
            self.live as u64,
            &report,
            results.value(),
            wall_start,
        );
        report
    }

    /// 3-D Range-Contains: center-point reduction (§3.2), exact filter.
    pub fn contains_query<H: QueryHandler>(
        &self,
        queries: &[Rect<C, 3>],
        handler: &H,
    ) -> QueryReport {
        let wall_start = Instant::now();
        let span = obs::span!("query3.contains");
        let results = obs::Counter::standalone();
        let counted = crate::queries::CountResults {
            inner: handler,
            count: &results,
        };
        let program = Contains3Program {
            boxes: &self.boxes,
            deleted: &self.deleted,
            queries,
            handler: &counted,
        };
        let keys = crate::queries::probe_keys(&self.gas.bounds(), queries.len(), |i| {
            let q = &queries[i];
            is_valid_query3(q).then(|| q.center())
        });
        let launch = self.device.launch_by_key::<C, _>(&keys, |i, session| {
            let q = &queries[i];
            if !is_valid_query3(q) {
                return;
            }
            session.trace(
                &*self.gas,
                &program,
                &Ray::point_probe(q.center()),
                &mut (i as u32),
            );
        });
        span.device(launch.device_time);
        let report = wrap(launch);
        crate::queries::record_batch_trace(
            "contains3",
            queries.len() as u64,
            queries.iter().filter(|q| is_valid_query3(q)).count() as u64,
            self.live as u64,
            &report,
            results.value(),
            wall_start,
        );
        report
    }

    /// 3-D Range-Intersects via the Minkowski center-probe formulation.
    ///
    /// Theorem 1 is planar and does **not** extend to 3-D (two boxes can
    /// overlap in a thin slab missed by both main diagonals), so the 3-D
    /// query runs one backward-style pass instead: a per-batch GAS is
    /// built over the *query* boxes, each expanded by the index-wide
    /// maximum data half-extent `h_max` (Minkowski upper bound), and
    /// every live data box that touches the union of the queries casts
    /// a point probe from its center (any other box intersects no
    /// query). Completeness:
    /// `Intersects(r, q)` ⟹ `center(r) ∈ q ⊕ half(r) ⊆ q ⊕ h_max`, so
    /// the probe's Case-2 hit fires; Definition 3 confirms exactly in
    /// the IS shader. The expansion is conservative when extents vary
    /// wildly — the price of exactness in 3-D.
    pub fn intersects_query<H: QueryHandler>(
        &self,
        queries: &[Rect<C, 3>],
        handler: &H,
    ) -> QueryReport {
        let wall_start = Instant::now();
        let span = obs::span!("query3.intersects");
        let results = obs::Counter::standalone();
        let counted = crate::queries::CountResults {
            inner: handler,
            count: &results,
        };
        // Invalid (non-finite / empty) query boxes can never match and
        // must not reach the per-batch GAS build, which rejects
        // non-finite AABBs. Filtering preserves original query ids via
        // the `valid_ids` side table (same fix as the 2-D engine).
        // `batch_box` is B, the union of the valid queries (unexpanded).
        let mut batch_box = Rect::empty();
        let valid_ids: Vec<u32> = (0..queries.len() as u32)
            .filter(|&qi| {
                let q = &queries[qi as usize];
                let valid = is_valid_query3(q);
                if valid {
                    batch_box.expand(q);
                }
                valid
            })
            .collect();
        obs::counter("query3.intersects.invalid_queries")
            .add((queries.len() - valid_ids.len()) as u64);
        if valid_ids.is_empty() || self.live == 0 {
            let report = QueryReport {
                chosen_k: 1,
                ..Default::default()
            };
            crate::queries::record_batch_trace(
                "intersects3",
                queries.len() as u64,
                valid_ids.len() as u64,
                self.live as u64,
                &report,
                results.value(),
                wall_start,
            );
            return report;
        }
        let expanded: Vec<Rect<C, 3>> = valid_ids
            .iter()
            .map(|&qi| {
                let mut e = queries[qi as usize];
                for d in 0..3 {
                    e.min.coords[d] -= self.max_half.coords[d];
                    e.max.coords[d] += self.max_half.coords[d];
                }
                e
            })
            .collect();
        // Content-addressed cache: repeated batches (the common serving
        // pattern — a fixed query workload replayed against a mutating
        // index) skip the per-batch accel build entirely. Counters are
        // charged identically on a hit, so results and budgets are
        // byte-for-byte the same either way.
        let query_gas = self
            .query_gas_cache
            .get_or_build(
                &expanded,
                BuildOptions {
                    allow_update: false,
                    quality: rtcore::BuildQuality::PreferFastTrace,
                    leaf_size: 4,
                },
            )
            .expect("expanded finite queries");
        let program = Intersects3Program {
            boxes: &self.boxes,
            valid_ids: &valid_ids,
            queries,
            handler: &counted,
        };
        // Only live boxes that touch B cast probes: a box that misses B
        // intersects no query, so its probe could only miss. The filter
        // is a linear scan, not a tree walk: corridor batches span the
        // map, so nearly every box touches B and a walk costs more than
        // it skips.
        let cast_ids: Vec<u32> = (0..self.boxes.len() as u32)
            .filter(|&i| !self.deleted[i as usize] && self.boxes[i as usize].intersects(&batch_box))
            .collect();
        // Index order, not `launch_by_key`: the probes walk the per-batch
        // query GAS, which stays in cache, and read `boxes` in id order.
        let launch = self.device.launch::<C, _>(cast_ids.len(), |i, session| {
            let mut rid = cast_ids[i];
            let c = self.boxes[rid as usize].center();
            session.trace(&*query_gas, &program, &Ray::point_probe(c), &mut rid);
        });
        span.device(launch.device_time);
        let report = wrap(launch);
        crate::queries::record_batch_trace(
            "intersects3",
            queries.len() as u64,
            valid_ids.len() as u64,
            self.live as u64,
            &report,
            results.value(),
            wall_start,
        );
        report
    }

    /// Convenience collectors.
    pub fn collect_point_query(&self, points: &[Point<C, 3>]) -> Vec<ResultPair> {
        let h = CollectingHandler::new();
        self.point_query(points, &h);
        h.into_sorted_vec()
    }

    /// Collects Range-Intersects pairs, sorted.
    pub fn collect_intersects(&self, queries: &[Rect<C, 3>]) -> Vec<ResultPair> {
        let h = CollectingHandler::new();
        self.intersects_query(queries, &h);
        h.into_sorted_vec()
    }

    /// Collects Range-Contains pairs, sorted.
    pub fn collect_contains(&self, queries: &[Rect<C, 3>]) -> Vec<ResultPair> {
        let h = CollectingHandler::new();
        self.contains_query(queries, &h);
        h.into_sorted_vec()
    }
}

/// A castable 3-D query box: finite coordinates and non-inverted extents.
#[inline]
fn is_valid_query3<C: Coord>(q: &Rect<C, 3>) -> bool {
    q.min.is_finite() && q.max.is_finite() && !q.is_empty()
}

fn wrap(launch: rtcore::LaunchReport) -> QueryReport {
    let forward = Phase {
        device: launch.device_time,
        wall: launch.wall_time,
    };
    QueryReport {
        launch,
        breakdown: Breakdown {
            forward,
            ..Default::default()
        },
        chosen_k: 1,
        estimated_selectivity: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid3(n_per_axis: usize) -> Vec<Rect<f32, 3>> {
        let mut out = vec![];
        for x in 0..n_per_axis {
            for y in 0..n_per_axis {
                for z in 0..n_per_axis {
                    let (x, y, z) = (x as f32 * 3.0, y as f32 * 3.0, z as f32 * 3.0);
                    out.push(Rect::xyzxyz(x, y, z, x + 2.0, y + 2.0, z + 2.0));
                }
            }
        }
        out
    }

    #[test]
    fn point_query_3d_matches_oracle() {
        let boxes = grid3(6);
        let index = RTSIndex3::build(&boxes, IndexOptions::default()).unwrap();
        let pts = vec![
            Point::xyz(1.0f32, 1.0, 1.0),
            Point::xyz(4.0, 4.0, 4.0),
            Point::xyz(2.5, 1.0, 1.0), // in a gap on x
            Point::xyz(100.0, 0.0, 0.0),
        ];
        let got = index.collect_point_query(&pts);
        let mut want = vec![];
        for (ri, r) in boxes.iter().enumerate() {
            for (pi, p) in pts.iter().enumerate() {
                if r.contains_point(p) {
                    want.push((ri as u32, pi as u32));
                }
            }
        }
        assert_eq!(got, want);
    }

    #[test]
    fn intersects_3d_matches_oracle() {
        let boxes = grid3(5);
        let index = RTSIndex3::build(&boxes, IndexOptions::default()).unwrap();
        let qs = vec![
            Rect::xyzxyz(1.0f32, 1.0, 1.0, 4.0, 4.0, 4.0),
            Rect::xyzxyz(-1.0, -1.0, -1.0, 0.5, 0.5, 0.5),
            Rect::xyzxyz(50.0, 50.0, 50.0, 60.0, 60.0, 60.0),
            // Slab-like overlap that 3-D diagonals would miss: thin in z.
            Rect::xyzxyz(0.0, 0.0, 1.9, 14.0, 14.0, 2.0),
        ];
        let got = index.collect_intersects(&qs);
        let mut want = vec![];
        for (ri, r) in boxes.iter().enumerate() {
            for (qi, q) in qs.iter().enumerate() {
                if r.intersects(q) {
                    want.push((ri as u32, qi as u32));
                }
            }
        }
        assert_eq!(got, want);
    }

    #[test]
    fn contains_3d_matches_oracle() {
        let boxes = grid3(4);
        let index = RTSIndex3::build(&boxes, IndexOptions::default()).unwrap();
        let qs = vec![
            Rect::xyzxyz(0.5f32, 0.5, 0.5, 1.5, 1.5, 1.5),
            Rect::xyzxyz(0.0, 0.0, 0.0, 2.0, 2.0, 2.0),
            Rect::xyzxyz(0.5, 0.5, 0.5, 3.5, 3.5, 3.5), // spans a gap
        ];
        let got = index.collect_contains(&qs);
        let mut want = vec![];
        for (ri, r) in boxes.iter().enumerate() {
            for (qi, q) in qs.iter().enumerate() {
                if r.contains_rect(q) {
                    want.push((ri as u32, qi as u32));
                }
            }
        }
        assert_eq!(got, want);
    }

    #[test]
    fn rejects_invalid_boxes() {
        // min > max on x (constructed raw — `Rect::new` debug-asserts):
        // build must reject it as empty.
        let bad = vec![Rect {
            min: Point::xyz(0.0f32, 0.0, 0.0),
            max: Point::xyz(-1.0, 1.0, 1.0),
        }];
        let r = RTSIndex3::build(&bad, IndexOptions::default());
        assert!(matches!(r, Err(IndexError::InvalidRect { index: 0 })));
        let nan = vec![Rect {
            min: Point::xyz(f32::NAN, 0.0, 0.0),
            max: Point::xyz(1.0, 1.0, 1.0),
        }];
        let r = RTSIndex3::build(&nan, IndexOptions::default());
        assert!(matches!(r, Err(IndexError::InvalidRect { index: 0 })));
    }

    #[test]
    fn delete_3d_removes_from_all_queries() {
        let boxes = grid3(4);
        let n = boxes.len();
        let mut index = RTSIndex3::build(&boxes, IndexOptions::default()).unwrap();
        let victims: Vec<u32> = (0..n as u32).step_by(3).collect();
        let report = index.delete(&victims).unwrap();
        assert_eq!(report.affected, victims.len());
        assert_eq!(index.len(), n - victims.len());

        let live = |rid: u32| !victims.contains(&rid);
        let pts = vec![Point::xyz(1.0f32, 1.0, 1.0), Point::xyz(4.0, 4.0, 4.0)];
        let got = index.collect_point_query(&pts);
        let mut want = vec![];
        for (ri, r) in boxes.iter().enumerate() {
            for (pi, p) in pts.iter().enumerate() {
                if live(ri as u32) && r.contains_point(p) {
                    want.push((ri as u32, pi as u32));
                }
            }
        }
        assert_eq!(got, want);

        let qs = vec![Rect::xyzxyz(0.0f32, 0.0, 0.0, 5.0, 5.0, 5.0)];
        let got = index.collect_intersects(&qs);
        let mut want = vec![];
        for (ri, r) in boxes.iter().enumerate() {
            if live(ri as u32) && r.intersects(&qs[0]) {
                want.push((ri as u32, 0));
            }
        }
        assert_eq!(got, want);

        let cs = vec![Rect::xyzxyz(0.5f32, 0.5, 0.5, 1.5, 1.5, 1.5)];
        let got = index.collect_contains(&cs);
        let mut want = vec![];
        for (ri, r) in boxes.iter().enumerate() {
            if live(ri as u32) && r.contains_rect(&cs[0]) {
                want.push((ri as u32, 0));
            }
        }
        assert_eq!(got, want);
    }

    #[test]
    fn delete_3d_rejects_bad_batches() {
        let boxes = grid3(3);
        let mut index = RTSIndex3::build(&boxes, IndexOptions::default()).unwrap();
        let n = boxes.len();
        assert!(matches!(
            index.delete(&[n as u32]),
            Err(IndexError::UnknownId { .. })
        ));
        // A duplicate id inside one batch must be rejected atomically —
        // accepting it would decrement `live` twice for one box.
        assert!(matches!(
            index.delete(&[0, 1, 0]),
            Err(IndexError::DuplicateId { id: 0 })
        ));
        assert_eq!(index.len(), n, "failed batch must not mutate the index");
        index.delete(&[1]).unwrap();
        assert!(matches!(
            index.delete(&[1]),
            Err(IndexError::AlreadyDeleted { id: 1 })
        ));
        assert_eq!(index.len(), n - 1);
    }

    #[test]
    fn intersects_3d_skips_invalid_queries() {
        let boxes = grid3(3);
        let index = RTSIndex3::build(&boxes, IndexOptions::default()).unwrap();
        let qs = vec![
            Rect::xyzxyz(1.0f32, 1.0, 1.0, 4.0, 4.0, 4.0),
            Rect {
                min: Point::xyz(f32::NAN, 0.0, 0.0),
                max: Point::xyz(1.0, 1.0, 1.0),
            },
            Rect {
                min: Point::xyz(2.0f32, 0.0, 0.0),
                max: Point::xyz(-2.0, 1.0, 1.0),
            },
            Rect::xyzxyz(0.0f32, 0.0, 0.0, 0.5, 0.5, 0.5),
        ];
        let got = index.collect_intersects(&qs);
        let mut want = vec![];
        for (ri, r) in boxes.iter().enumerate() {
            for qi in [0usize, 3] {
                if r.intersects(&qs[qi]) {
                    want.push((ri as u32, qi as u32));
                }
            }
        }
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn update_3d_moves_boxes_and_grows_minkowski_bound() {
        let boxes = grid3(4);
        let mut index = RTSIndex3::build(&boxes, IndexOptions::default()).unwrap();
        // Move box 0 far away and make it larger than any other box, so
        // the intersects pass is only exact if `max_half` grew with it.
        let moved = Rect::xyzxyz(100.0, 100.0, 100.0, 110.0, 104.0, 104.0);
        index.update(&[0], &[moved]).unwrap();
        assert_eq!(
            index.collect_point_query(&[Point::xyz(105.0, 102.0, 102.0)]),
            vec![(0, 0)]
        );
        assert!(
            index
                .collect_point_query(&[Point::xyz(1.0, 1.0, 1.0)])
                .is_empty(),
            "old location must no longer answer"
        );
        let mut cur = boxes.clone();
        cur[0] = moved;
        let qs = vec![
            Rect::xyzxyz(99.0f32, 99.0, 99.0, 101.0, 101.0, 101.0),
            Rect::xyzxyz(0.0, 0.0, 0.0, 5.0, 5.0, 5.0),
        ];
        let got = index.collect_intersects(&qs);
        let mut want = vec![];
        for (ri, r) in cur.iter().enumerate() {
            for (qi, q) in qs.iter().enumerate() {
                if r.intersects(q) {
                    want.push((ri as u32, qi as u32));
                }
            }
        }
        want.sort_unstable();
        assert_eq!(got, want);

        // Validation mirrors the 2-D engine and mutates nothing on error.
        assert!(matches!(
            index.update(&[999], &[moved]),
            Err(IndexError::UnknownId { id: 999 })
        ));
        assert!(matches!(
            index.update(&[1], &[]),
            Err(IndexError::LengthMismatch { ids: 1, rects: 0 })
        ));
        let bad = Rect {
            min: Point::xyz(f32::NAN, 0.0, 0.0),
            max: Point::xyz(1.0, 1.0, 1.0),
        };
        assert!(matches!(
            index.update(&[1], &[bad]),
            Err(IndexError::InvalidRect { index: 0 })
        ));
        assert_eq!(
            index.collect_point_query(&[Point::xyz(105.0, 102.0, 102.0)]),
            vec![(0, 0)]
        );
    }

    #[test]
    fn compact_3d_remaps_ids_and_preserves_results() {
        let boxes = grid3(4);
        let n = boxes.len();
        let mut index = RTSIndex3::build(&boxes, IndexOptions::default()).unwrap();
        let victims: Vec<u32> = (0..n as u32).step_by(4).collect();
        index.delete(&victims).unwrap();

        let remap = index.compact();
        assert_eq!(remap.len(), n);
        assert!(victims.iter().all(|&v| remap[v as usize] == u32::MAX));
        assert_eq!(index.capacity_ids(), n - victims.len());
        assert_eq!(index.len(), n - victims.len());

        let q = Rect::xyzxyz(0.0f32, 0.0, 0.0, 5.0, 5.0, 5.0);
        let got = index.collect_intersects(&[q]);
        let mut want = vec![];
        for (old, b) in boxes.iter().enumerate() {
            let nid = remap[old];
            if nid != u32::MAX && b.intersects(&q) {
                want.push((nid, 0));
            }
        }
        want.sort_unstable();
        assert_eq!(got, want);

        // Remapped ids are live and mutable again.
        index.delete(&[0]).unwrap();
        assert!(matches!(
            index.delete(&[0]),
            Err(IndexError::AlreadyDeleted { id: 0 })
        ));
    }

    #[test]
    fn empty_index_3d() {
        let index = RTSIndex3::<f32>::build(&[], IndexOptions::default()).unwrap();
        assert!(index.is_empty());
        assert_eq!(
            index.collect_point_query(&[Point::xyz(0.0, 0.0, 0.0)]),
            vec![]
        );
    }
}
