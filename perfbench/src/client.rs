//! The closed loop shared by the single-client workloads, and
//! the span bookkeeping shared with `serve-churn`.
//!
//! A run builds the index [`SETUPS`] times after one untimed build (the
//! median is `setup_s`), sends untimed warm-up requests (they spawn the
//! lazy `exec` pool and fault pages in), then replays the timed request
//! sequence. The traced run sends every timed request twice, untraced
//! and traced, so the tracing overhead compares identical work.

use std::time::{Duration, Instant};

use librts::{IndexError, QueryReport};

use crate::check::{corrupt_first, gate, mode_guard, Digest};
use crate::metrics::{per_layer, table, MetricSet, END_TO_END};
use crate::stats::{mean, median, peak_rss_mib, quantile, sorted, tail};
use crate::trace::Tracer;
use crate::{Outcome, RunConfig};

/// Threads of the single client (`nproc` on the reference host).
pub const THREADS: usize = 2;

/// Timed set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Which query entry point a call went to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `RTSIndex::try_range_query(Intersects, ..)`.
    Intersects,
    /// `RTSIndex::point_query`.
    Point,
    /// `RTSIndex::try_range_query(Contains, ..)`.
    Contains,
    /// `RTSIndex3::point_query`.
    Point3,
    /// `RTSIndex3::intersects_query`.
    Intersects3,
}

impl Kind {
    /// Name of the call span.
    pub fn span(self) -> &'static str {
        match self {
            Kind::Intersects => "intersects.call",
            Kind::Point => "point.call",
            Kind::Contains => "contains.call",
            Kind::Point3 => "index3d.point",
            Kind::Intersects3 => "index3d.intersects",
        }
    }
}

/// One answered query call.
pub struct Answer {
    /// Entry point called.
    pub kind: Kind,
    /// Query items in the batch.
    pub items: u64,
    /// Digest of the results.
    pub digest: Digest,
    /// The report the call returned.
    pub report: QueryReport,
    /// When the library call started and returned.
    pub call: (Instant, Instant),
}

/// One write call made while setting the index up.
pub struct Write {
    /// Span name (`index.insert` or `index3d.build`).
    pub name: &'static str,
    /// Rectangles (or boxes) written.
    pub rects: usize,
    /// When the call started and returned.
    pub call: (Instant, Instant),
    /// Wall time the library reports for the call (`MutationReport`).
    pub reported: Duration,
}

/// A single-client workload: generated inputs plus its request
/// sequence (warm-up requests first, then the timed ones).
pub trait SingleClient: Sync {
    /// The index type under test.
    type Index: Sync;
    /// Hash of the generated data and request sequence.
    fn input_hash(&self) -> u64;
    /// Builds the index from the generated data.
    fn setup(&self) -> (Self::Index, Vec<Write>);
    /// Number of untimed warm-up requests (ids `0..warmup()`).
    fn warmup(&self) -> usize;
    /// Number of timed requests (ids `warmup()..warmup() + timed()`).
    fn timed(&self) -> usize;
    /// Sends request `id`.
    fn request(&self, index: &Self::Index, id: usize) -> Result<Answer, IndexError>;
    /// The timed requests the correctness gate checks.
    fn checked(&self) -> Vec<usize>;
    /// Reference digests of `ids`, from an independent implementation.
    fn reference(&self, ids: &[usize]) -> Vec<Digest>;
    /// `memory_bytes() / len()`, where the engine reports memory.
    fn bytes_per_rect(&self, index: &Self::Index) -> Option<f64>;
}

/// What the timed requests of one mode (plain or traced) recorded.
#[derive(Default)]
pub struct Window {
    /// Latency of each request in ms; a failed request counts as taking
    /// the whole window, slower than every success.
    pub latency_ms: Vec<f64>,
    /// Digest per request, in request order; `None` when it failed.
    pub digests: Vec<Option<Digest>>,
    /// Query items answered.
    pub items: u64,
    /// Deterministic work totals: rays, node visits, IS calls, results.
    pub work: [u64; 4],
}

impl Window {
    /// Records one request.
    fn push(&mut self, latency: Duration, answer: Result<&Answer, &IndexError>) {
        match answer {
            Ok(a) => {
                self.latency_ms.push(latency.as_secs_f64() * 1e3);
                self.digests.push(Some(a.digest));
                self.items += a.items;
                let t = &a.report.launch.totals;
                for (acc, v) in
                    self.work
                        .iter_mut()
                        .zip([t.rays, nodes(&a.report), t.is_calls, a.digest.count])
                {
                    *acc += v;
                }
            }
            Err(e) => {
                eprintln!("request {} failed: {e}", self.digests.len());
                self.latency_ms.push(f64::INFINITY);
                self.digests.push(None);
            }
        }
    }

    /// Gives failed requests the latency of the whole window.
    fn close(&mut self, window: Duration) {
        for l in self.latency_ms.iter_mut().filter(|l| l.is_infinite()) {
            *l = window.as_secs_f64() * 1e3;
        }
    }

    /// Requests that returned an error.
    pub fn failed(&self) -> u64 {
        self.digests.iter().filter(|d| d.is_none()).count() as u64
    }
}

/// Node visits of a report, binary and wide kernel alike.
pub fn nodes(report: &QueryReport) -> u64 {
    let t = &report.launch.totals;
    t.nodes_visited + t.wide_nodes_visited
}

/// Records the call span of `answer` under `parent`, its phase spans
/// laid end to end, and the launch counters.
pub fn record_call(
    tracer: &mut Tracer,
    request: u64,
    parent: Option<usize>,
    answer: &Answer,
) -> usize {
    let call = tracer.span(
        answer.kind.span(),
        request,
        parent,
        answer.call.0,
        answer.call.1,
    );
    let bd = &answer.report.breakdown;
    match answer.kind {
        Kind::Intersects => tracer.phases(
            call,
            &[
                ("intersects.k_prediction", bd.k_prediction.wall),
                ("intersects.bvh_build", bd.bvh_build.wall),
                ("intersects.forward", bd.forward.wall),
                ("intersects.backward", bd.backward.wall),
            ],
        ),
        Kind::Point => tracer.phases(call, &[("point.forward", bd.forward.wall)]),
        Kind::Contains => tracer.phases(call, &[("contains.forward", bd.forward.wall)]),
        Kind::Point3 => tracer.phases(call, &[("index3d.point_launch", bd.forward.wall)]),
        Kind::Intersects3 => {
            let whole = answer.call.1 - answer.call.0;
            let launch = answer.report.launch.wall_time.min(whole);
            tracer.phases(
                call,
                &[
                    ("index3d.intersects_build", whole - launch),
                    ("index3d.intersects_launch", launch),
                ],
            )
        }
    }
    let t = &answer.report.launch.totals;
    for (key, v) in [
        ("items", answer.items),
        ("results", answer.digest.count),
        ("rays", t.rays),
        ("nodes", nodes(&answer.report)),
        ("instance_visits", t.instance_visits),
        ("is_calls", t.is_calls),
        ("max_is_per_thread", answer.report.max_is_per_thread()),
        ("k", answer.report.chosen_k as u64),
    ] {
        tracer.count(call, key, v);
    }
    call
}

/// Sends request `id`, traced when `tracer` is given: a request span
/// with the `exec` pool deltas, the call span and its phases.
fn send<W: SingleClient>(
    w: &W,
    index: &W::Index,
    id: usize,
    tracer: Option<&mut Tracer>,
    into: &mut Window,
) {
    let pool0 = tracer.as_ref().map(|_| exec::pool_stats());
    let start = Instant::now();
    let answer = w.request(index, id);
    let end = Instant::now();
    if let (Some(tr), Some(p0), Ok(a)) = (tracer, pool0, &answer) {
        let p = exec::pool_stats();
        let req = tr.span("request", id as u64, None, start, end);
        tr.count(req, "fanouts", p.fanouts - p0.fanouts);
        tr.count(req, "steals", p.steals - p0.steals);
        tr.count(req, "busy_ns", p.busy_ns - p0.busy_ns);
        record_call(tr, id as u64, Some(req), a);
    }
    into.push(end - start, answer.as_ref());
}

/// Builds with `setup` once untimed, then [`SETUPS`] times timed, keeping
/// the last index. Returns it with each timed set-up's seconds and the
/// write calls of all timed set-ups.
pub fn timed_setups<I>(setup: impl Fn() -> (I, Vec<Write>)) -> (I, Vec<f64>, Vec<Write>) {
    drop(setup());
    let mut seconds = Vec::with_capacity(SETUPS);
    let mut writes = Vec::new();
    let mut index = None;
    for _ in 0..SETUPS {
        drop(index.take());
        let t = Instant::now();
        let (ix, ws) = setup();
        seconds.push(t.elapsed().as_secs_f64());
        writes.extend(ws);
        index = Some(ix);
    }
    (index.expect("SETUPS > 0"), seconds, writes)
}

/// Requests per block of the traced run (at least). Each block runs
/// untraced and traced back to back, in alternating order, so both
/// modes see the same host conditions; a block holds more distinct
/// batches than the query-GAS cache (4 entries), so the repeat never
/// hits the cache.
const TRACE_BLOCK: usize = 16;

/// Runs a single-client workload end to end.
pub fn run<W: SingleClient>(w: &W, cfg: &RunConfig) -> Result<Outcome, String> {
    let before = obs::snapshot();
    let mut tracer = Tracer::new(Instant::now());
    exec::with_threads(THREADS, || {
        let (index, setup_s, writes) = timed_setups(|| w.setup());
        for id in 0..w.warmup() {
            w.request(&index, id)
                .map_err(|e| format!("warm-up request {id} failed: {e}"))?;
        }

        let ids: Vec<usize> = (w.warmup()..w.warmup() + w.timed()).collect();
        let mut plain = Window::default();
        let mut traced = Window::default();
        let obs0 = obs::snapshot();
        let t0 = Instant::now();
        if cfg.trace {
            let blocks = (ids.len() / TRACE_BLOCK).max(1);
            for b in 0..blocks {
                let block = &ids[b * ids.len() / blocks..(b + 1) * ids.len() / blocks];
                for pass in [b % 2, 1 - b % 2] {
                    for &id in block {
                        if pass == 0 {
                            send(w, &index, id, None, &mut plain);
                        } else {
                            send(w, &index, id, Some(&mut tracer), &mut traced);
                        }
                    }
                }
            }
        } else {
            for &id in &ids {
                send(w, &index, id, None, &mut plain);
            }
        }
        let elapsed = t0.elapsed();
        let obs_delta = obs::snapshot().delta_since(&obs0);
        plain.close(elapsed);
        traced.close(elapsed);
        let rss = peak_rss_mib();
        let bytes_per_rect = w.bytes_per_rect(&index);
        mode_guard(&before, &obs::snapshot())?;

        // Correctness gate: every checked request, in each mode, against
        // the independent reference.
        let checked_ids = w.checked();
        let reference = w.reference(&checked_ids);
        let mut windows = vec![&plain];
        if cfg.trace {
            windows.push(&traced);
        }
        let (mut checked, mut mismatch) = (0, None);
        for (p, win) in windows.iter().enumerate() {
            let mut recorded: Vec<(usize, Option<Digest>)> = checked_ids
                .iter()
                .map(|&i| (w.warmup() + i, win.digests[i]))
                .collect();
            if p == 0 && cfg.corrupt_checksum {
                corrupt_first(&mut recorded);
            }
            match gate(&recorded, &reference) {
                Ok(n) => checked += n,
                Err(e) => {
                    mismatch.get_or_insert(format!("correctness gate: {e}"));
                }
            }
        }

        let mut lines = vec![
            format!(
                "fingerprint: inputs={:016x} requests={} rays={} nodes={} is_calls={} results={}",
                w.input_hash(),
                w.timed(),
                plain.work[0],
                plain.work[1],
                plain.work[2],
                plain.work[3]
            ),
            format!("checked {checked} request results against the reference"),
        ];
        let attempted = (windows.len() * w.timed()) as u64;
        let failed: u64 = windows.iter().map(|win| win.failed()).sum();
        lines.push(format!(
            "failed_share: {}",
            failed as f64 / attempted as f64
        ));
        let metrics = if cfg.trace {
            let window = tracer.span("window", 0, None, t0, t0 + elapsed);
            let hits = obs_delta.counter("rtcore.gas_cache_hits").unwrap_or(0);
            tracer.count(window, "gas_cache_hits", hits);
            let mut m = per_layer();
            query_layers(&mut m, &tracer);
            insert_layers(&mut m, &mut tracer, &writes);
            // Both modes ran every batch once.
            let batches = 2
                * (tracer.named("intersects.call").count()
                    + tracer.named("index3d.intersects").count());
            if batches > 0 {
                m.set(
                    "rtcore.gas_cache_hit_rate",
                    hits as f64 / batches as f64,
                    batches,
                );
            }
            let busy: Vec<f64> = tracer
                .named("request")
                .map(|s| s.count("busy_ns") as f64)
                .collect();
            let wall_ns: f64 = tracer
                .named("request")
                .map(|s| (s.end_ns - s.start_ns) as f64)
                .sum();
            m.set(
                "exec.busy_ratio",
                busy.iter().sum::<f64>() / (wall_ns * THREADS as f64),
                busy.len(),
            );
            let fanouts = tracer.total("request", "fanouts");
            if fanouts > 0 {
                m.set(
                    "exec.steals_per_fanout",
                    tracer.total("request", "steals") as f64 / fanouts as f64,
                    fanouts as usize,
                );
            }
            if let Some(b) = bytes_per_rect {
                m.set("index.bytes_per_rect", b, 1);
            }
            let sum = |win: &Window| win.latency_ms.iter().sum::<f64>();
            m.set(
                "driver.tracing_overhead",
                sum(&plain) / sum(&traced),
                traced.latency_ms.len(),
            );
            if let Some(path) = &cfg.span_file {
                tracer
                    .write_jsonl(path)
                    .map_err(|e| format!("writing {}: {e}", path.display()))?;
                lines.push(format!("spans written to {}", path.display()));
            }
            m.into_vec()
        } else {
            let reads = sorted(&plain.latency_ms);
            let (read_label, read_tail) = tail(&reads);
            lines.push(format!(
                "read_tail_ms is the {read_label} of {} requests; read_p95_ms: {} ms",
                reads.len(),
                quantile(&reads, 0.95)
            ));
            if let Some(b) = bytes_per_rect {
                lines.push(format!("index_bytes_per_rect: {b} B"));
            }
            let mut m = MetricSet::new(END_TO_END);
            m.set("setup_s", median(&setup_s), SETUPS);
            m.set(
                "query_qps",
                plain.items as f64 / elapsed.as_secs_f64(),
                reads.len(),
            );
            m.set("read_p50_ms", quantile(&reads, 0.5), reads.len());
            m.set("read_tail_ms", read_tail, reads.len());
            m.set("peak_rss_mib", rss, 1);
            m.into_vec()
        };
        lines.extend(table(&metrics));
        Ok(Outcome {
            mismatch,
            attempted,
            failed,
            metrics,
            lines,
        })
    })
}

/// Per-layer query metrics from the call spans in `tracer`.
pub fn query_layers(m: &mut MetricSet, tracer: &Tracer) {
    let p50 = |name: &str| {
        let v = tracer.durations_ms(name);
        (median(&v), v.len())
    };
    let calls = |kind: Kind| tracer.named(kind.span()).count();
    let n = calls(Kind::Intersects);
    if n > 0 {
        for (metric, span) in [
            ("intersects.k_prediction_ms", "intersects.k_prediction"),
            ("intersects.bvh_build_ms", "intersects.bvh_build"),
            ("intersects.forward_ms", "intersects.forward"),
            ("intersects.backward_ms", "intersects.backward"),
        ] {
            let (v, s) = p50(span);
            m.set(metric, v, s);
        }
        m.set(
            "intersects.self_ms",
            median(&tracer.self_ms("intersects.call")),
            n,
        );
        m.set("intersects.calls", n as f64, n);
        let ks: Vec<f64> = tracer
            .named("intersects.call")
            .map(|s| s.count("k") as f64)
            .collect();
        m.set("multicast.chosen_k", mean(&ks), n);
    }
    for (kind, fwd, selfm, count, phase) in [
        (
            Kind::Point,
            "point.forward_ms",
            "point.self_ms",
            "point.calls",
            "point.forward",
        ),
        (
            Kind::Contains,
            "contains.forward_ms",
            "contains.self_ms",
            "contains.calls",
            "contains.forward",
        ),
    ] {
        let n = calls(kind);
        if n > 0 {
            let (v, s) = p50(phase);
            m.set(fwd, v, s);
            m.set(selfm, median(&tracer.self_ms(kind.span())), n);
            m.set(count, n as f64, n);
        }
    }
    let n = calls(Kind::Point3);
    if n > 0 {
        let (v, s) = p50("index3d.point");
        m.set("index3d.point_ms", v, s);
        m.set("index3d.point_calls", n as f64, n);
    }
    let n = calls(Kind::Intersects3);
    if n > 0 {
        let (v, s) = p50("index3d.intersects_launch");
        m.set("index3d.intersects_launch_ms", v, s);
        let (v, s) = p50("index3d.intersects_build");
        m.set("index3d.intersects_build_ms", v, s);
        m.set("index3d.intersects_calls", n as f64, n);
    }

    // Launch counters over every query call.
    let kinds = [
        Kind::Intersects,
        Kind::Point,
        Kind::Contains,
        Kind::Point3,
        Kind::Intersects3,
    ];
    let sum = |key: &str| {
        kinds
            .iter()
            .map(|k| tracer.total(k.span(), key))
            .sum::<u64>() as f64
    };
    let all_calls: usize = kinds.iter().map(|&k| calls(k)).sum();
    if all_calls == 0 {
        return;
    }
    let (items, rays, nodes_total) = (sum("items"), sum("rays"), sum("nodes"));
    m.set("rtcore.rays_per_item", rays / items, all_calls);
    if rays > 0.0 {
        m.set("rtcore.nodes_per_ray", nodes_total / rays, all_calls);
        m.set(
            "rtcore.instance_visits_per_ray",
            sum("instance_visits") / rays,
            all_calls,
        );
        m.set("rtcore.is_calls_per_ray", sum("is_calls") / rays, all_calls);
    }
    if sum("is_calls") > 0.0 {
        m.set(
            "rtcore.is_precision",
            sum("results") / sum("is_calls"),
            all_calls,
        );
    }
    let max_is: Vec<f64> = kinds
        .iter()
        .flat_map(|k| {
            tracer
                .named(k.span())
                .map(|s| s.count("max_is_per_thread") as f64)
        })
        .collect();
    m.set("rtcore.max_is_per_thread", median(&max_is), all_calls);

    // Wall ns per node visit: forward-only calls, and Range-Intersects,
    // whose report merges the counters of its two passes.
    let ns = |phases: &[&str]| {
        phases
            .iter()
            .map(|p| tracer.durations_ms(p).iter().sum::<f64>())
            .sum::<f64>()
            * 1e6
    };
    let fwd_nodes: u64 = [Kind::Point, Kind::Contains, Kind::Point3]
        .iter()
        .map(|k| tracer.total(k.span(), "nodes"))
        .sum();
    if fwd_nodes > 0 {
        let wall = ns(&["point.forward", "contains.forward", "index3d.point_launch"]);
        m.set(
            "rtcore.forward_ns_per_node",
            wall / fwd_nodes as f64,
            all_calls - calls(Kind::Intersects) - calls(Kind::Intersects3),
        );
    }
    let ri_nodes = tracer.total(Kind::Intersects.span(), "nodes");
    if ri_nodes > 0 {
        let wall = ns(&["intersects.forward", "intersects.backward"]);
        m.set(
            "rtcore.intersects_ns_per_node",
            wall / ri_nodes as f64,
            calls(Kind::Intersects),
        );
    }
}

/// Records the set-up's write calls as spans and sets the per-layer
/// set-up metrics from them.
pub fn insert_layers(m: &mut MetricSet, tracer: &mut Tracer, writes: &[Write]) {
    for wr in writes {
        let s = tracer.span(wr.name, 0, None, wr.call.0, wr.call.1);
        tracer.count(s, "rects", wr.rects as u64);
        tracer.count(s, "reported_ns", wr.reported.as_nanos() as u64);
    }
    for (span, metric, count) in [
        (
            "index.insert",
            "index.insert_ns_per_rect",
            Some("index.insert_calls"),
        ),
        ("index3d.build", "index3d.build_ns_per_box", None),
    ] {
        let per: Vec<f64> = tracer
            .named(span)
            .map(|s| s.count("reported_ns") as f64 / s.count("rects").max(1) as f64)
            .collect();
        if !per.is_empty() {
            m.set(metric, median(&per), per.len());
            if let Some(c) = count {
                m.set(c, per.len() as f64, per.len());
            }
        }
    }
}
