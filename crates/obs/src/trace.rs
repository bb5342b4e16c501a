//! Per-query trace records and a bounded, lock-free-ish event log.
//!
//! Two independent facilities share this module:
//!
//! - **Query records** ([`QueryTrace`]): one structured record per query
//!   batch — kind, batch size, chosen `k`, sampled selectivity, the cost
//!   model's predicted `C_R`/`C_I` versus the measured ray/IS counts, and
//!   modelled device time per phase. The engines emit these on the calling
//!   thread at the end of every batch, so record order is the program's
//!   query order. Enabled by [`enable_queries`] (cheap: one relaxed atomic
//!   load per query when disabled).
//! - **Timeline events** ([`Event`]): span begin/end markers, per-launch
//!   instants, and query instants with host timestamps, consumed by the
//!   Chrome-trace exporter in [`crate::chrome`]. Enabled by
//!   [`enable_full`]; off, span open/close costs nothing extra.
//!
//! Both sit on fixed-capacity rings ([`ring_capacity`], default 65 536
//! entries, `LIBRTS_TRACE_CAPACITY` overrides): a push claims a slot with a
//! relaxed fetch-add and `try_lock`s it, so writers never block — an
//! overwrite of an unread entry or a lost `try_lock` race bumps
//! [`dropped_events`] (also mirrored as the Host-class counter
//! `trace.dropped_events`) instead of stalling a query.
//!
//! ## Determinism
//!
//! A [`QueryTrace`]'s *logical* payload ([`QueryTrace::stable_json`]) is
//! byte-identical at any `LIBRTS_THREADS` — it contains only Stable-class
//! quantities (counts, chosen `k`, sampled selectivity, modelled device
//! nanoseconds). Wall time, host timestamps and thread ids are Host-class
//! and only appear in the full [`QueryTrace::to_json`] rendering.
//!
//! ## Slow-query log
//!
//! Independently of tracing, queries whose wall time exceeds
//! `LIBRTS_SLOW_QUERY_MS` (default: off; [`set_slow_query_threshold`]
//! overrides at runtime) have their full record retained in a small
//! capped list ([`SLOW_QUERY_RETENTION`] entries, newest kept) and exposed
//! via [`slow_queries`] for the final snapshot dump.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Maximum number of retained slow-query records (oldest evicted first).
pub const SLOW_QUERY_RETENTION: usize = 64;

const DEFAULT_CAPACITY: usize = 65_536;

/// Nanoseconds per query phase, of modelled device time or of host wall
/// time. Phases a query kind does not run (e.g. `backward` for point
/// queries) stay zero.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseNanos {
    /// Selectivity sampling + `k` sweep (the cost model itself).
    pub k_prediction: u64,
    /// Query-side GAS build (Range-Intersects backward pass input).
    pub build: u64,
    /// Forward cast (query rays vs index BVH).
    pub forward: u64,
    /// Backward cast (index anti-diagonals vs query GAS).
    pub backward: u64,
    /// Post-processing dedup (hash strategy only).
    pub dedup: u64,
}

impl PhaseNanos {
    /// Sum over all phases.
    pub fn total(&self) -> u64 {
        self.k_prediction + self.build + self.forward + self.backward + self.dedup
    }

    pub(crate) fn json(&self) -> String {
        format!(
            "{{\"k_prediction\": {}, \"build\": {}, \"forward\": {}, \"backward\": {}, \"dedup\": {}}}",
            self.k_prediction, self.build, self.forward, self.backward, self.dedup
        )
    }
}

/// Renders an `f64` for JSON: Rust's shortest round-trip representation,
/// which is deterministic across platforms; non-finite values (which the
/// engines never produce) degrade to `null`.
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_opt_f64(v: Option<f64>) -> String {
    match v {
        Some(v) => json_f64(v),
        None => "null".to_string(),
    }
}

/// One per-query-batch trace record.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryTrace {
    /// Monotone record number (assignment order; 0-based).
    pub seq: u64,
    /// Query kind: `point`, `range_contains`, `range_intersects`,
    /// `point3`, `contains3`, `intersects3`.
    pub kind: &'static str,
    /// Batch size as submitted.
    pub batch: u64,
    /// Queries surviving validity filtering (finite, non-inverted).
    pub valid: u64,
    /// Live rectangles in the index at query time.
    pub live: u64,
    /// Ray Multicast `k` actually used (1 when multicast is off).
    pub chosen_k: u32,
    /// Sampled selectivity `s`, when the cost model ran.
    pub selectivity: Option<f64>,
    /// Predicted `C_R = |R|·k·log N` at the chosen `k` (0 if no model).
    pub predicted_cr: f64,
    /// Predicted `C_I = N·|R|·s/k` at the chosen `k` (0 if no model).
    pub predicted_ci: f64,
    /// Predicted result-pair count `|R|·|S_valid|·s`, when sampled.
    pub predicted_pairs: Option<f64>,
    /// Result pairs delivered to the caller's handler (post-dedup).
    pub results: u64,
    /// Rays cast across all phases.
    pub rays: u64,
    /// Intersection-shader invocations across all phases.
    pub is_calls: u64,
    /// BVH nodes visited across all phases.
    pub nodes_visited: u64,
    /// Maximum IS invocations on any single ray (the measured `C_I`).
    pub max_is_per_thread: u64,
    /// Modelled device time per phase (Stable).
    pub device_ns: PhaseNanos,
    /// Host wall time of the whole batch (Host-class).
    pub wall_ns: u64,
    /// Host wall time per phase (Host-class): next to `device_ns`, it
    /// shows where the host and the modelled device spend differently.
    pub wall_phase_ns: PhaseNanos,
    /// Host timestamp of record emission, ns since the trace origin
    /// (Host-class).
    pub ts_ns: u64,
    /// Emitting thread: `i + 1` = exec worker `i`, from
    /// [`FIRST_CALLER_TID`] up = one non-pool thread each (Host-class).
    pub tid: u32,
}

impl QueryTrace {
    /// Selectivity-prediction error: `|predicted_pairs − results| /
    /// max(results, 1)`, when the cost model sampled a selectivity.
    pub fn prediction_error(&self) -> Option<f64> {
        self.predicted_pairs
            .map(|p| (p - self.results as f64).abs() / (self.results.max(1) as f64))
    }

    /// The logical payload only — byte-identical at any `LIBRTS_THREADS`
    /// for the same program. Excludes `seq`, wall times, host timestamp
    /// and thread id.
    pub fn stable_json(&self) -> String {
        format!(
            "{{\"kind\": \"{}\", \"batch\": {}, \"valid\": {}, \"live\": {}, \
             \"chosen_k\": {}, \"selectivity\": {}, \"predicted_cr\": {}, \
             \"predicted_ci\": {}, \"predicted_pairs\": {}, \"results\": {}, \
             \"rays\": {}, \"is_calls\": {}, \"nodes_visited\": {}, \
             \"max_is_per_thread\": {}, \"device_ns\": {}}}",
            self.kind,
            self.batch,
            self.valid,
            self.live,
            self.chosen_k,
            json_opt_f64(self.selectivity),
            json_f64(self.predicted_cr),
            json_f64(self.predicted_ci),
            json_opt_f64(self.predicted_pairs),
            self.results,
            self.rays,
            self.is_calls,
            self.nodes_visited,
            self.max_is_per_thread,
            self.device_ns.json(),
        )
    }

    /// Full rendering: the stable payload plus Host-class fields.
    pub fn to_json(&self) -> String {
        let stable = self.stable_json();
        format!(
            "{{\"seq\": {}, \"wall_ns\": {}, \"wall_phase_ns\": {}, \"ts_ns\": {}, \"tid\": {}, {}",
            self.seq,
            self.wall_ns,
            self.wall_phase_ns.json(),
            self.ts_ns,
            self.tid,
            &stable[1..], // splice host fields before the stable ones
        )
    }
}

/// One timeline event in the Chrome-trace ring.
#[derive(Clone, Debug)]
pub enum Event {
    /// A span opened (`ph: "B"`).
    SpanBegin {
        /// Ring sequence number.
        seq: u64,
        /// Full dotted span path.
        path: String,
        /// Name pushed at this level (last path component, may itself
        /// contain dots).
        name: &'static str,
        /// Emitting thread (0 = caller, `i + 1` = worker `i`).
        tid: u32,
        /// ns since the trace origin.
        ts_ns: u64,
    },
    /// A span closed (`ph: "E"`), carrying its accumulated device time.
    SpanEnd {
        /// Ring sequence number.
        seq: u64,
        /// Full dotted span path.
        path: String,
        /// Emitting thread.
        tid: u32,
        /// Open timestamp, ns since the trace origin.
        start_ns: u64,
        /// Close timestamp, ns since the trace origin.
        ts_ns: u64,
        /// Modelled device ns attached to this span instance.
        device_ns: u64,
    },
    /// One `rtcore` launch completed (instant event).
    Launch {
        /// Ring sequence number.
        seq: u64,
        /// Emitting thread.
        tid: u32,
        /// ns since the trace origin.
        ts_ns: u64,
        /// Launch width (rays requested).
        width: u64,
        /// Rays actually cast.
        rays: u64,
        /// Modelled device ns of the launch.
        device_ns: u64,
    },
    /// A query batch finished (instant event wrapping its record).
    Query {
        /// Ring sequence number.
        seq: u64,
        /// The per-query record.
        trace: QueryTrace,
    },
}

impl Event {
    /// Ring sequence number of this event.
    pub fn seq(&self) -> u64 {
        match self {
            Event::SpanBegin { seq, .. }
            | Event::SpanEnd { seq, .. }
            | Event::Launch { seq, .. }
            | Event::Query { seq, .. } => *seq,
        }
    }
}

// ---------------------------------------------------------------------------
// Rings
// ---------------------------------------------------------------------------

/// One ring slot: the claimed sequence number plus the stored record.
type Slot<T> = Mutex<Option<(u64, T)>>;

/// Fixed-capacity overwrite ring. Writers claim a monotone sequence
/// number and `try_lock` the slot it maps to; readers lock every slot.
/// Nothing ever blocks a writer: contention or overwrite counts a drop.
struct Ring<T> {
    slots: Box<[Slot<T>]>,
    head: AtomicU64,
    dropped: AtomicU64,
}

impl<T: Clone> Ring<T> {
    fn new(capacity: usize) -> Self {
        Self {
            slots: (0..capacity.max(1)).map(|_| Mutex::new(None)).collect(),
            head: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Claim the next sequence number and store `make(seq)`.
    fn push(&self, make: impl FnOnce(u64) -> T) -> u64 {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = (seq % self.slots.len() as u64) as usize;
        match self.slots[slot].try_lock() {
            Ok(mut guard) => {
                if guard.replace((seq, make(seq))).is_some() {
                    self.note_drop();
                }
            }
            Err(_) => self.note_drop(),
        }
        seq
    }

    fn note_drop(&self) {
        self.dropped.fetch_add(1, Ordering::Relaxed);
        dropped_counter().inc();
    }

    /// All retained entries in sequence order (non-draining).
    fn collect(&self) -> Vec<(u64, T)> {
        let mut out: Vec<(u64, T)> = self
            .slots
            .iter()
            .filter_map(|s| s.lock().unwrap().clone())
            .collect();
        out.sort_by_key(|(seq, _)| *seq);
        out
    }

    fn clear(&self) {
        for slot in self.slots.iter() {
            *slot.lock().unwrap() = None;
        }
        self.head.store(0, Ordering::Relaxed);
        self.dropped.store(0, Ordering::Relaxed);
    }
}

struct Tracer {
    events: Ring<Event>,
    queries: Ring<QueryTrace>,
    slow: Mutex<Vec<QueryTrace>>,
}

/// Ring capacity: `LIBRTS_TRACE_CAPACITY` (entries, ≥ 1) or 65 536.
pub fn ring_capacity() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        std::env::var("LIBRTS_TRACE_CAPACITY")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or(DEFAULT_CAPACITY)
    })
}

fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(|| Tracer {
        events: Ring::new(ring_capacity()),
        queries: Ring::new(ring_capacity()),
        slow: Mutex::new(Vec::new()),
    })
}

fn dropped_counter() -> &'static Arc<crate::Counter> {
    static CTR: OnceLock<Arc<crate::Counter>> = OnceLock::new();
    CTR.get_or_init(|| crate::host_counter("trace.dropped_events"))
}

/// Always-on Host-class per-query wall-time histogram (`query.wall_ns`)
/// feeding the live plane's windowed SLOs.
fn wall_histogram() -> &'static Arc<crate::Histogram> {
    static H: OnceLock<Arc<crate::Histogram>> = OnceLock::new();
    H.get_or_init(|| crate::host_histogram("query.wall_ns"))
}

static QUERIES_ON: AtomicBool = AtomicBool::new(false);
static SPANS_ON: AtomicBool = AtomicBool::new(false);

/// Origin instant; all `ts_ns` are measured from here.
fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// Nanoseconds since the process-wide trace origin (Host-class time).
pub fn now_ns() -> u64 {
    origin().elapsed().as_nanos() as u64
}

/// Trace id of the first non-pool thread; every exec worker id
/// (`1..=exec::MAX_THREADS`) is below it.
pub const FIRST_CALLER_TID: u32 = exec::MAX_THREADS as u32 + 1;

/// Emitting-thread id for trace events: `i + 1` for exec worker `i`;
/// every other thread (the main thread, a study's readers, the obs
/// server) gets an id of its own from [`FIRST_CALLER_TID`] up, on its
/// first call. Each thread's events are in time order, so every track
/// of an export is too.
pub fn current_tid() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(FIRST_CALLER_TID);
    thread_local! {
        static CALLER_TID: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    exec::worker_index().map_or_else(|| CALLER_TID.with(|t| *t), |i| i as u32 + 1)
}

/// Start collecting [`QueryTrace`] records (cheap; no span events).
pub fn enable_queries() {
    QUERIES_ON.store(true, Ordering::Release);
}

/// Start collecting everything: query records *and* span/launch timeline
/// events for the Chrome exporter.
pub fn enable_full() {
    enable_queries();
    SPANS_ON.store(true, Ordering::Release);
}

/// Stop collecting (retained entries stay until [`clear`]).
pub fn disable() {
    SPANS_ON.store(false, Ordering::Release);
    QUERIES_ON.store(false, Ordering::Release);
}

/// Whether span/launch timeline events are being recorded.
#[inline]
pub fn spans_enabled() -> bool {
    SPANS_ON.load(Ordering::Acquire)
}

/// Whether query records are being recorded (independent of the
/// slow-query log, which is always armed when its threshold is set).
#[inline]
pub fn queries_enabled() -> bool {
    QUERIES_ON.load(Ordering::Acquire)
}

/// Empty both rings and the slow-query log; sequence numbers restart at
/// zero. Does not change the enabled flags.
pub fn clear() {
    let t = tracer();
    t.events.clear();
    t.queries.clear();
    t.slow.lock().unwrap().clear();
}

// ---------------------------------------------------------------------------
// Slow-query threshold
// ---------------------------------------------------------------------------

const SLOW_OFF: u64 = u64::MAX;

fn slow_cell() -> &'static AtomicU64 {
    static CELL: OnceLock<AtomicU64> = OnceLock::new();
    CELL.get_or_init(|| {
        let ns = std::env::var("LIBRTS_SLOW_QUERY_MS")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .map_or(SLOW_OFF, |ms| ms.saturating_mul(1_000_000));
        AtomicU64::new(ns)
    })
}

/// Override the slow-query threshold (`None` disables). The initial
/// value comes from `LIBRTS_SLOW_QUERY_MS` (milliseconds; unset = off).
pub fn set_slow_query_threshold(threshold: Option<Duration>) {
    let ns = threshold.map_or(SLOW_OFF, |d| d.as_nanos().min(SLOW_OFF as u128 - 1) as u64);
    slow_cell().store(ns, Ordering::Relaxed);
}

/// The active slow-query threshold, if any.
pub fn slow_query_threshold() -> Option<Duration> {
    match slow_cell().load(Ordering::Relaxed) {
        SLOW_OFF => None,
        ns => Some(Duration::from_nanos(ns)),
    }
}

/// Retained slow-query records, oldest first (capped at
/// [`SLOW_QUERY_RETENTION`]).
pub fn slow_queries() -> Vec<QueryTrace> {
    tracer().slow.lock().unwrap().clone()
}

// ---------------------------------------------------------------------------
// Recording
// ---------------------------------------------------------------------------

/// Record one query batch. `record.seq`, `ts_ns` and `tid` are assigned
/// here; callers fill everything else. Returns the assigned sequence
/// number (or `None` when nothing captured it).
pub fn record_query(mut record: QueryTrace) -> Option<u64> {
    // Always-on Host-class latency feed: the live plane's windowed p99
    // ([`crate::timeseries::window_p99`], the `/health` SLO rules) must
    // see every query's wall time even when query tracing is disabled.
    wall_histogram().observe(record.wall_ns);
    let queries = queries_enabled();
    let slow = slow_cell().load(Ordering::Relaxed);
    let is_slow = record.wall_ns >= slow;
    if !queries && !is_slow {
        return None;
    }
    record.ts_ns = now_ns();
    record.tid = current_tid();
    let t = tracer();
    let mut seq = None;
    if queries {
        let assigned = t.queries.push(|seq| {
            record.seq = seq;
            record.clone()
        });
        seq = Some(assigned);
        if spans_enabled() {
            let snapshot = record.clone();
            t.events.push(|seq| Event::Query {
                seq,
                trace: QueryTrace {
                    seq: assigned,
                    ..snapshot
                },
            });
        }
    }
    if is_slow {
        let mut slow_log = t.slow.lock().unwrap();
        if slow_log.len() == SLOW_QUERY_RETENTION {
            slow_log.remove(0);
        }
        slow_log.push(record);
    }
    seq
}

/// Record a span opening (called by [`crate::spans`] when full tracing
/// is on). Returns the open timestamp.
pub(crate) fn record_span_begin(path: &str, name: &'static str) -> u64 {
    let ts_ns = now_ns();
    let tid = current_tid();
    tracer().events.push(|seq| Event::SpanBegin {
        seq,
        path: path.to_string(),
        name,
        tid,
        ts_ns,
    });
    ts_ns
}

/// Record a span closing.
pub(crate) fn record_span_end(path: &str, start_ns: u64, device_ns: u64) {
    let ts_ns = now_ns();
    let tid = current_tid();
    tracer().events.push(|seq| Event::SpanEnd {
        seq,
        path: path.to_string(),
        tid,
        start_ns,
        ts_ns,
        device_ns,
    });
}

/// Record one device launch as an instant event (called by `rtcore`;
/// no-op unless full tracing is on).
pub fn record_launch(width: u64, rays: u64, device_ns: u64) {
    if !spans_enabled() {
        return;
    }
    let ts_ns = now_ns();
    let tid = current_tid();
    tracer().events.push(|seq| Event::Launch {
        seq,
        tid,
        ts_ns,
        width,
        rays,
        device_ns,
    });
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

/// Retained timeline events in sequence order (non-draining).
pub fn events() -> Vec<Event> {
    tracer()
        .events
        .collect()
        .into_iter()
        .map(|(_, e)| e)
        .collect()
}

/// Retained query records in sequence order (non-draining).
pub fn query_records() -> Vec<QueryTrace> {
    tracer()
        .queries
        .collect()
        .into_iter()
        .map(|(_, q)| q)
        .collect()
}

/// Sequence number the *next* query record will receive; use as a mark
/// for [`query_records_since`].
pub fn next_query_seq() -> u64 {
    tracer().queries.head.load(Ordering::Relaxed)
}

/// Retained query records with `seq >= mark`, in sequence order.
pub fn query_records_since(mark: u64) -> Vec<QueryTrace> {
    tracer()
        .queries
        .collect()
        .into_iter()
        .filter(|(seq, _)| *seq >= mark)
        .map(|(_, q)| q)
        .collect()
}

/// Events lost to ring overwrites or slot contention since the last
/// [`clear`].
pub fn dropped_events() -> u64 {
    let t = tracer();
    t.events.dropped.load(Ordering::Relaxed) + t.queries.dropped.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy(kind: &'static str, results: u64) -> QueryTrace {
        QueryTrace {
            seq: 0,
            kind,
            batch: 10,
            valid: 9,
            live: 100,
            chosen_k: 4,
            selectivity: Some(0.125),
            predicted_cr: 240.0,
            predicted_ci: 28.125,
            predicted_pairs: Some(112.5),
            results,
            rays: 436,
            is_calls: 900,
            nodes_visited: 4_000,
            max_is_per_thread: 31,
            device_ns: PhaseNanos {
                k_prediction: 10,
                build: 20,
                forward: 30,
                backward: 40,
                dedup: 0,
            },
            wall_ns: 1_234,
            wall_phase_ns: PhaseNanos {
                k_prediction: 100,
                build: 200,
                forward: 300,
                backward: 400,
                dedup: 0,
            },
            ts_ns: 0,
            tid: 0,
        }
    }

    #[test]
    fn plain_threads_get_distinct_tids() {
        let spawn = || std::thread::spawn(|| (current_tid(), current_tid()));
        let (a, b) = (spawn().join().unwrap(), spawn().join().unwrap());
        assert_eq!(a.0, a.1, "a thread keeps its tid");
        assert_eq!(b.0, b.1, "a thread keeps its tid");
        assert_ne!(a.0, b.0, "two plain threads share a track");
        assert!(a.0 >= FIRST_CALLER_TID && b.0 >= FIRST_CALLER_TID);
        assert_ne!(current_tid(), a.0);
    }

    #[test]
    fn stable_json_excludes_host_fields() {
        let json = dummy("range_intersects", 120).stable_json();
        assert!(json.contains("\"kind\": \"range_intersects\""));
        assert!(json.contains("\"chosen_k\": 4"));
        assert!(json.contains("\"selectivity\": 0.125"));
        assert!(json.contains("\"device_ns\": {\"k_prediction\": 10"));
        assert!(!json.contains("wall_ns"));
        assert!(!json.contains("wall_phase_ns"));
        assert!(!json.contains("\"forward\": 300"));
        assert!(!json.contains("ts_ns"));
        assert!(!json.contains("\"tid\""));
        assert!(!json.contains("\"seq\""));
        let full = dummy("range_intersects", 120).to_json();
        assert!(full.contains("\"wall_ns\": 1234"));
        assert!(full.contains(
            "\"wall_phase_ns\": {\"k_prediction\": 100, \"build\": 200, \"forward\": 300, \"backward\": 400, \"dedup\": 0}"
        ));
        assert!(full.contains("\"kind\": \"range_intersects\""));
    }

    #[test]
    fn prediction_error_is_relative_to_actual() {
        let t = dummy("range_intersects", 100);
        let err = t.prediction_error().unwrap();
        assert!((err - 0.125).abs() < 1e-12, "got {err}");
        let none = QueryTrace {
            selectivity: None,
            predicted_pairs: None,
            ..dummy("point", 5)
        };
        assert_eq!(none.prediction_error(), None);
    }

    #[test]
    fn ring_drops_instead_of_blocking_and_counts_it() {
        let ring: Ring<u64> = Ring::new(4);
        for i in 0..10 {
            ring.push(|_| i);
        }
        let kept = ring.collect();
        assert_eq!(kept.len(), 4);
        // The newest four survive, in order.
        assert_eq!(
            kept.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
        assert_eq!(ring.dropped.load(Ordering::Relaxed), 6);
        ring.clear();
        assert!(ring.collect().is_empty());
    }

    #[test]
    fn slow_query_log_is_capped_and_independent_of_tracing() {
        // Serialize against other tests that poke the global tracer.
        let _guard = crate::test_lock();
        clear();
        disable();
        set_slow_query_threshold(Some(Duration::ZERO));
        for i in 0..(SLOW_QUERY_RETENTION as u64 + 8) {
            record_query(dummy("point", i));
        }
        let slow = slow_queries();
        assert_eq!(slow.len(), SLOW_QUERY_RETENTION);
        assert_eq!(
            slow.last().unwrap().results,
            SLOW_QUERY_RETENTION as u64 + 7
        );
        // Nothing reached the query ring: tracing was off.
        assert!(query_records().is_empty());
        set_slow_query_threshold(None);
        record_query(dummy("point", 0));
        assert_eq!(slow_queries().len(), SLOW_QUERY_RETENTION);
        clear();
        assert!(slow_queries().is_empty());
    }

    #[test]
    fn query_records_honor_marks() {
        let _guard = crate::test_lock();
        clear();
        enable_queries();
        record_query(dummy("point", 1));
        let mark = next_query_seq();
        record_query(dummy("point", 2));
        record_query(dummy("point", 3));
        let since = query_records_since(mark);
        assert_eq!(since.len(), 2);
        assert_eq!(since[0].results, 2);
        assert_eq!(since[1].results, 3);
        disable();
        clear();
    }
}
