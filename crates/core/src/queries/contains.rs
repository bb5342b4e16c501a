//! Range query with the `Contains` predicate (§3.2): reduced to a point
//! query on each query rectangle's center — if `Contains(r, s)` then `r`
//! contains the center of `s` — followed by exact predicate filtering in
//! the IS shader.

use std::time::Instant;

use geom::{Coord, Ray, Rect};
use rtcore::{HitContext, IsResult, RtProgram};

use crate::handlers::QueryHandler;
use crate::index::Snapshot;
use crate::report::{Phase, QueryReport};

/// A castable `Contains` query: finite and non-inverted.
#[inline]
fn is_valid_query<C: Coord>(s: &Rect<C, 2>) -> bool {
    s.min.is_finite() && s.max.is_finite() && !s.is_empty()
}

struct ContainsProgram<'a, C: Coord, H: QueryHandler> {
    snap: Snapshot<'a, C>,
    queries: &'a [Rect<C, 2>],
    handler: &'a H,
}

impl<C: Coord, H: QueryHandler> RtProgram<C> for ContainsProgram<'_, C, H> {
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
pub(crate) fn run<C: Coord, H: QueryHandler>(
    snap: Snapshot<'_, C>,
    queries: &[Rect<C, 2>],
    handler: &H,
) -> QueryReport {
    let wall_start = Instant::now();
    let span = obs::span!("query.contains");
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
    let keys = super::probe_keys(&snap.ias.bounds(), queries.len(), |i| {
        let s = &queries[i];
        is_valid_query(s).then(|| s.center().lift(C::ZERO))
    });
    let launch = snap.device.launch_by_key::<C, _>(&keys, |i, session| {
        let s = &queries[i];
        if !is_valid_query(s) {
            return;
        }
        let ray = Ray::point_probe(s.center()).lift();
        session.trace(snap.ias, &program, &ray, &mut (i as u32));
    });
    span.device(launch.device_time);
    // Same single-launch deadline accounting as the point query.
    crate::deadline::charge(launch.device_time);
    let forward = Phase {
        device: launch.device_time,
        wall: launch.wall_time,
    };
    let report = QueryReport {
        launch,
        breakdown: crate::report::Breakdown {
            forward,
            ..Default::default()
        },
        chosen_k: 1,
        estimated_selectivity: None,
    };
    super::record_batch_trace(
        "range_contains",
        queries.len() as u64,
        queries.iter().filter(|s| is_valid_query(s)).count() as u64,
        snap.live as u64,
        &report,
        results.value(),
        wall_start,
    );
    report
}
