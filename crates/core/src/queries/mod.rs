//! Query implementations: the RT programs that realize §3 of the paper.

pub(crate) mod contains;
pub(crate) mod intersects;
pub(crate) mod point;

use std::time::Instant;

use geom::{Coord, Point, Rect};

use crate::handlers::QueryHandler;
use crate::report::QueryReport;

/// Launch keys for [`rtcore::Device::launch_by_key`]: the Morton code of
/// each ray's probe point within `frame`, the world bounds of what the
/// rays walk. Launches that walk the index run in this order so that
/// consecutive rays find its nodes in cache. Items with no probe
/// (non-finite or invalid, which raygen skips) key `u64::MAX`. Keys
/// change speed only: results, counters and modeled time are the same
/// for any keys, and a degenerate frame just yields equal keys.
pub(crate) fn probe_keys<C: Coord>(
    frame: &Rect<C, 3>,
    n: usize,
    probe: impl Fn(usize) -> Option<Point<C, 3>>,
) -> Vec<u64> {
    (0..n)
        .map(|i| probe(i).map_or(u64::MAX, |p| geom::morton::morton_of_point_3d(&p, frame)))
        .collect()
}

/// Counts pairs delivered to the caller's handler without changing
/// them — feeds `results` in the per-query trace record. The tally is
/// Stable-class by construction: logical result pairs are
/// scheduling-independent.
pub(crate) struct CountResults<'a, H: QueryHandler> {
    pub inner: &'a H,
    pub count: &'a obs::Counter,
}

impl<H: QueryHandler> QueryHandler for CountResults<'_, H> {
    #[inline]
    fn handle(&self, rect_id: u32, query_id: u32) {
        self.count.inc();
        self.inner.handle(rect_id, query_id);
    }
}

/// Emits the per-batch trace record for a query kind without a cost
/// model (everything except Range-Intersects, which predicts and needs
/// [`intersects`]' richer `finish_batch`). One record per batch, emitted
/// on the calling thread at batch end.
pub(crate) fn record_batch_trace(
    kind: &'static str,
    batch: u64,
    valid: u64,
    live: u64,
    report: &QueryReport,
    results: u64,
    wall_start: Instant,
) {
    let totals = &report.launch.totals;
    obs::trace::record_query(obs::QueryTrace {
        seq: 0,
        kind,
        batch,
        valid,
        live,
        chosen_k: report.chosen_k as u32,
        selectivity: None,
        predicted_cr: 0.0,
        predicted_ci: 0.0,
        predicted_pairs: None,
        results,
        rays: totals.rays,
        is_calls: totals.is_calls,
        nodes_visited: totals.wide_nodes_visited,
        max_is_per_thread: report.max_is_per_thread(),
        device_ns: report.breakdown.nanos(|p| p.device),
        wall_ns: wall_start.elapsed().as_nanos() as u64,
        wall_phase_ns: report.breakdown.nanos(|p| p.wall),
        ts_ns: 0,
        tid: 0,
    });
}
