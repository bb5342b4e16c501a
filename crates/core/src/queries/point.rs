//! Point query (§3.1): simulate each query point with a short ray
//! (`t_max = FLT_MIN`); Case-2 ray–AABB hits indicate containment, Case-1
//! false positives are filtered in the IS shader by evaluating the
//! `Contains` predicate on the original coordinates. The same code serves
//! both dimensions.

use std::time::Instant;

use geom::{Coord, Point, Ray};
use rtcore::{HitContext, IsResult, RtProgram};

use crate::handlers::QueryHandler;
use crate::index::{dim_name, place_point, Snapshot};
use crate::report::QueryReport;

/// The IS-shader program for point queries.
struct PointProgram<'a, C: Coord, H: QueryHandler, const D: usize> {
    snap: Snapshot<'a, C, D>,
    points: &'a [Point<C, D>],
    handler: &'a H,
}

impl<C: Coord, H: QueryHandler, const D: usize> RtProgram<C> for PointProgram<'_, C, H, D> {
    /// Payload register 0: the query (point) id, as in Algorithm 1.
    type Payload = u32;

    #[inline]
    fn intersection(&self, ctx: &HitContext<'_, C>, qid: &mut u32) -> IsResult<C> {
        let gid = self.snap.global_id(ctx.instance_id, ctx.primitive_index);
        if !self.snap.deleted[gid as usize] {
            let r = &self.snap.rects[gid as usize];
            let p = &self.points[*qid as usize];
            // Filter Case-1 false-positive hits (§3.1 Result Collection).
            if r.contains_point(p) {
                self.handler.handle(gid, *qid);
            }
        }
        // LibRTS never reports hits: all work happens in IS, traversal
        // must enumerate every potential hit.
        IsResult::Ignore
    }
}

/// Runs the point query over the index snapshot.
pub(crate) fn run<C: Coord, H: QueryHandler, const D: usize>(
    snap: Snapshot<'_, C, D>,
    points: &[Point<C, D>],
    handler: &H,
) -> QueryReport {
    let wall_start = Instant::now();
    let span = obs::span!(dim_name::<D>("query.point", "query3.point"));
    let results = obs::Counter::standalone();
    let counted = super::CountResults {
        inner: handler,
        count: &results,
    };
    let program = PointProgram {
        snap,
        points,
        handler: &counted,
    };
    let keys = super::probe_keys(&snap.trace_bounds(), points.len(), |i| {
        let p = points[i];
        p.is_finite().then(|| place_point(&p))
    });
    let launch = snap.device.launch_by_key::<C, _>(&keys, |i, session| {
        let p = points[i];
        if !p.is_finite() {
            return; // NaN queries can never match; skip the cast.
        }
        let ray = Ray::point_probe(place_point(&p));
        snap.trace(session, &program, &ray, &mut (i as u32));
    });
    span.device(launch.device_time);
    let report = super::single_launch(launch);
    super::record_batch_trace(
        dim_name::<D>("point", "point3"),
        points.len() as u64,
        points.iter().filter(|p| p.is_finite()).count() as u64,
        snap.live as u64,
        &report,
        results.value(),
        wall_start,
    );
    report
}
