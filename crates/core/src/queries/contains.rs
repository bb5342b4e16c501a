//! Range query with the `Contains` predicate (§3.2): reduced to a point
//! query on each query rectangle's center — if `Contains(r, s)` then `r`
//! contains the center of `s` — followed by exact predicate filtering in
//! the IS shader. The reduction holds in any dimension, so the same code
//! serves both.

use std::time::Instant;

use geom::{Coord, Ray, Rect};
use rtcore::{HitContext, IsResult, RtProgram};

use crate::handlers::QueryHandler;
use crate::index::{dim_name, is_valid_rect, place_point, Snapshot};
use crate::report::QueryReport;

struct ContainsProgram<'a, C: Coord, H: QueryHandler, const D: usize> {
    snap: Snapshot<'a, C, D>,
    queries: &'a [Rect<C, D>],
    handler: &'a H,
}

impl<C: Coord, H: QueryHandler, const D: usize> RtProgram<C> for ContainsProgram<'_, C, H, D> {
    type Payload = u32;

    #[inline]
    fn intersection(&self, ctx: &HitContext<'_, C>, qid: &mut u32) -> IsResult<C> {
        let gid = self.snap.global_id(ctx.instance_id, ctx.primitive_index);
        if !self.snap.deleted[gid as usize] {
            let r = &self.snap.rects[gid as usize];
            let s = &self.queries[*qid as usize];
            // The center-point reduction yields candidates; the exact
            // Definition-2 predicate filters them (§3.2).
            if r.contains_rect(s) {
                self.handler.handle(gid, *qid);
            }
        }
        IsResult::Ignore
    }
}

/// Runs the Range-Contains query over the index snapshot.
pub(crate) fn run<C: Coord, H: QueryHandler, const D: usize>(
    snap: Snapshot<'_, C, D>,
    queries: &[Rect<C, D>],
    handler: &H,
) -> QueryReport {
    let wall_start = Instant::now();
    let span = obs::span!(dim_name::<D>("query.contains", "query3.contains"));
    let results = obs::Counter::standalone();
    let counted = super::CountResults {
        inner: handler,
        count: &results,
    };
    let program = ContainsProgram {
        snap,
        queries,
        handler: &counted,
    };
    let keys = super::probe_keys(&snap.trace_bounds(), queries.len(), |i| {
        let s = &queries[i];
        is_valid_rect(s).then(|| place_point(&s.center()))
    });
    let launch = snap.device.launch_by_key::<C, _>(&keys, |i, session| {
        let s = &queries[i];
        if !is_valid_rect(s) {
            return;
        }
        let ray = Ray::point_probe(place_point(&s.center()));
        snap.trace(session, &program, &ray, &mut (i as u32));
    });
    span.device(launch.device_time);
    let report = super::single_launch(launch);
    super::record_batch_trace(
        dim_name::<D>("range_contains", "contains3"),
        queries.len() as u64,
        queries.iter().filter(|s| is_valid_rect(s)).count() as u64,
        snap.live as u64,
        &report,
        results.value(),
        wall_start,
    );
    report
}
