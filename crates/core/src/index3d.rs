//! 3-D spatial index — the `N_DIMS = 3` instantiation of [`RTSIndex`]
//! the paper's API advertises (§5: `N_DIMS` is 2 or 3; §3: "extending to
//! 3D is straightforward since OptiX operates natively in 3D space").
//!
//! [`RTSIndex3`] is the same engine as the 2-D index: validation,
//! deletion, update, rebuild, compaction, maintenance, point queries and
//! Range-Contains run one code path for both dimensions (a point probe
//! ray works in any dimension, and the center-point reduction of §3.2 is
//! dimension-independent). It is built once, into a single GAS that rays
//! enter directly (no IAS, so a 3-D ray pays no instance visit); 3-D
//! insert is not offered.
//!
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

use geom::{Coord, Ray, Rect};
use rtcore::{BuildOptions, HitContext, IsResult, RtProgram};

use crate::config::IndexOptions;
use crate::error::IndexError;
use crate::handlers::{CollectingHandler, QueryHandler, ResultPair};
use crate::index::{check_rects, is_valid_rect, RTSIndex};
use crate::queries;
use crate::report::QueryReport;

/// A 3-D box index: [`RTSIndex`] with `D = 3`. It supports point
/// queries, Range-Contains, Range-Intersects, deletion, update,
/// compaction and maintenance; the paper's §4.2 deletion trick works
/// directly on its single GAS (deleted boxes are degenerated to zero
/// extent and refit).
pub type RTSIndex3<C> = RTSIndex<C, 3>;

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
    /// Builds the index over 3-D boxes, into one GAS.
    pub fn build(boxes: &[Rect<C, 3>], opts: IndexOptions) -> Result<Self, IndexError> {
        check_rects(boxes)?;
        let mut index = Self::empty(opts);
        // Built before the boxes are cached, so that the build's peak
        // memory does not also hold the cache.
        let gas = index.build_gas(boxes)?;
        index.gases.push(Arc::new(gas));
        index.batch_offsets.push(boxes.len() as u32);
        index.rects = boxes.to_vec();
        index.deleted = vec![false; boxes.len()];
        index.live = boxes.len();
        for b in boxes {
            index.live_bounds.expand(b);
        }
        Self::grow_max_half(&mut index.max_half, boxes);
        Ok(index)
    }

    /// 3-D Range-Contains: center-point reduction (§3.2), exact filter.
    pub fn contains_query<H: QueryHandler>(
        &self,
        queries: &[Rect<C, 3>],
        handler: &H,
    ) -> QueryReport {
        queries::contains::run(self.snapshot(), queries, handler)
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
        let counted = queries::CountResults {
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
                let valid = is_valid_rect(q);
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
            queries::record_batch_trace(
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
            boxes: &self.rects,
            valid_ids: &valid_ids,
            queries,
            handler: &counted,
        };
        // Only live boxes that touch B cast probes: a box that misses B
        // intersects no query, so its probe could only miss. The filter
        // is a linear scan, not the 2-D backward pass's box walk:
        // corridor batches span the map, so nearly every box touches B
        // and a walk costs more than it skips.
        let cast_ids: Vec<u32> = (0..self.rects.len() as u32)
            .filter(|&i| !self.deleted[i as usize] && self.rects[i as usize].intersects(&batch_box))
            .collect();
        // Index order, not `launch_by_key`: the probes walk the per-batch
        // query GAS, which stays in cache, and read `boxes` in id order.
        let launch = self.device.launch::<C, _>(cast_ids.len(), |i, session| {
            let mut rid = cast_ids[i];
            let c = self.rects[rid as usize].center();
            session.trace(&*query_gas, &program, &Ray::point_probe(c), &mut rid);
        });
        span.device(launch.device_time);
        let report = queries::single_launch(launch);
        queries::record_batch_trace(
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

#[cfg(test)]
mod tests {
    use super::*;
    use geom::Point;

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
