//! Chrome Trace Format (Perfetto-loadable) exporter for the trace ring.
//!
//! Serializes the retained [`crate::trace::Event`]s to the JSON object
//! format understood by `ui.perfetto.dev` and `chrome://tracing`:
//!
//! - span begin/end → `ph: "B"` / `ph: "E"` duration slices on the
//!   emitting thread's track, so `query.intersects` shows its
//!   `k_prediction` / `bvh_build` / `forward` / `backward` children as
//!   nested slices;
//! - `rtcore` launches and completed query batches → `ph: "i"` instant
//!   events (the query instant carries the full logical payload in
//!   `args`);
//! - modelled device time → `ph: "b"` / `ph: "e"` async pairs under the
//!   `device` category, one track-id per span instance, so simulated
//!   GPU occupancy is visible alongside host wall time.
//!
//! Timestamps are microseconds (with nanosecond fractions) since the
//! process trace origin. Events on one thread track are emitted in
//! recording order, which is that thread's wall-clock order — the CI
//! checker asserts per-track monotonicity on top of this.

use crate::trace::{self, Event};
use std::io;
use std::path::Path;

const PID: u32 = 1;

fn ts_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Serialize `events` (in ring order) to a Chrome-trace JSON string.
pub fn export(events: &[Event]) -> String {
    let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    let mut first = true;
    let mut push = |line: String, out: &mut String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&line);
    };

    // Process + thread naming metadata.
    push(
        format!(
            "{{\"ph\": \"M\", \"pid\": {PID}, \"tid\": 0, \"name\": \"process_name\", \
             \"args\": {{\"name\": \"librts\"}}}}"
        ),
        &mut out,
    );
    let mut tids: Vec<u32> = events
        .iter()
        .map(|e| match e {
            Event::SpanBegin { tid, .. }
            | Event::SpanEnd { tid, .. }
            | Event::Launch { tid, .. } => *tid,
            Event::Query { trace, .. } => trace.tid,
        })
        .collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in tids {
        let name = if (1..trace::FIRST_CALLER_TID).contains(&tid) {
            format!("exec-worker-{}", tid - 1)
        } else {
            format!("caller-{}", tid.saturating_sub(trace::FIRST_CALLER_TID))
        };
        push(
            format!(
                "{{\"ph\": \"M\", \"pid\": {PID}, \"tid\": {tid}, \"name\": \"thread_name\", \
                 \"args\": {{\"name\": \"{name}\"}}}}"
            ),
            &mut out,
        );
    }

    // Slices and instants, in recording order (per-thread time order).
    let mut device: Vec<(u64, u64, u64, String)> = Vec::new(); // (start, end, id, path)
    for event in events {
        match event {
            Event::SpanBegin {
                path,
                name,
                tid,
                ts_ns,
                ..
            } => push(
                format!(
                    "{{\"ph\": \"B\", \"pid\": {PID}, \"tid\": {tid}, \"ts\": {}, \
                     \"cat\": \"span\", \"name\": \"{}\", \"args\": {{\"path\": \"{}\"}}}}",
                    ts_us(*ts_ns),
                    escape(name),
                    escape(path)
                ),
                &mut out,
            ),
            Event::SpanEnd {
                seq,
                path,
                tid,
                start_ns,
                ts_ns,
                device_ns,
            } => {
                push(
                    format!(
                        "{{\"ph\": \"E\", \"pid\": {PID}, \"tid\": {tid}, \"ts\": {}}}",
                        ts_us(*ts_ns)
                    ),
                    &mut out,
                );
                if *device_ns > 0 {
                    device.push((*start_ns, start_ns + device_ns, *seq, path.clone()));
                }
            }
            Event::Launch {
                tid,
                ts_ns,
                width,
                rays,
                device_ns,
                ..
            } => push(
                format!(
                    "{{\"ph\": \"i\", \"pid\": {PID}, \"tid\": {tid}, \"ts\": {}, \
                     \"cat\": \"rtcore\", \"name\": \"launch\", \"s\": \"t\", \
                     \"args\": {{\"width\": {width}, \"rays\": {rays}, \"device_ns\": {device_ns}}}}}",
                    ts_us(*ts_ns)
                ),
                &mut out,
            ),
            Event::Query { trace, .. } => push(
                format!(
                    "{{\"ph\": \"i\", \"pid\": {PID}, \"tid\": {}, \"ts\": {}, \
                     \"cat\": \"query\", \"name\": \"query:{}\", \"s\": \"t\", \
                     \"args\": {}}}",
                    trace.tid,
                    ts_us(trace.ts_ns),
                    trace.kind,
                    trace.to_json()
                ),
                &mut out,
            ),
        }
    }

    // Modelled device occupancy as async pairs, ordered by start time so
    // nested phases open outermost-first.
    device.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
    for (start, end, id, path) in device {
        push(
            format!(
                "{{\"ph\": \"b\", \"pid\": {PID}, \"tid\": 0, \"ts\": {}, \
                 \"cat\": \"device\", \"id\": {id}, \"name\": \"{}\"}}",
                ts_us(start),
                escape(&path)
            ),
            &mut out,
        );
        push(
            format!(
                "{{\"ph\": \"e\", \"pid\": {PID}, \"tid\": 0, \"ts\": {}, \
                 \"cat\": \"device\", \"id\": {id}, \"name\": \"{}\"}}",
                ts_us(end),
                escape(&path)
            ),
            &mut out,
        );
    }

    out.push_str("\n]}\n");
    out
}

/// Serialize the currently retained trace ring (see
/// [`crate::trace::events`]).
pub fn render() -> String {
    export(&trace::events())
}

/// Write [`render`] to `path`.
pub fn write(path: impl AsRef<Path>) -> io::Result<()> {
    std::fs::write(path, render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{PhaseNanos, QueryTrace};

    #[test]
    fn export_produces_balanced_slices_and_device_pairs() {
        let events = vec![
            Event::SpanBegin {
                seq: 0,
                path: "query.intersects".into(),
                name: "query.intersects",
                tid: 0,
                ts_ns: 1_000,
            },
            Event::SpanBegin {
                seq: 1,
                path: "query.intersects.forward".into(),
                name: "forward",
                tid: 0,
                ts_ns: 2_000,
            },
            Event::Launch {
                seq: 2,
                tid: 0,
                ts_ns: 2_500,
                width: 64,
                rays: 64,
                device_ns: 800,
            },
            Event::SpanEnd {
                seq: 3,
                path: "query.intersects.forward".into(),
                tid: 0,
                start_ns: 2_000,
                ts_ns: 3_000,
                device_ns: 800,
            },
            Event::SpanEnd {
                seq: 4,
                path: "query.intersects".into(),
                tid: 0,
                start_ns: 1_000,
                ts_ns: 4_000,
                device_ns: 0,
            },
            Event::Query {
                seq: 5,
                trace: QueryTrace {
                    seq: 0,
                    kind: "range_intersects",
                    batch: 4,
                    valid: 4,
                    live: 10,
                    chosen_k: 2,
                    selectivity: Some(0.5),
                    predicted_cr: 1.0,
                    predicted_ci: 2.0,
                    predicted_pairs: Some(20.0),
                    results: 18,
                    rays: 28,
                    is_calls: 40,
                    nodes_visited: 100,
                    max_is_per_thread: 6,
                    device_ns: PhaseNanos::default(),
                    wall_ns: 3_000,
                    wall_phase_ns: PhaseNanos::default(),
                    ts_ns: 4_000,
                    tid: 0,
                },
            },
        ];
        let json = export(&events);
        assert_eq!(json.matches("\"ph\": \"B\"").count(), 2);
        assert_eq!(json.matches("\"ph\": \"E\"").count(), 2);
        assert_eq!(json.matches("\"ph\": \"b\"").count(), 1);
        assert_eq!(json.matches("\"ph\": \"e\"").count(), 1);
        assert!(json.contains("\"name\": \"forward\""));
        assert!(json.contains("\"name\": \"query:range_intersects\""));
        assert!(json.contains("\"name\": \"launch\""));
        assert!(json.contains("\"ts\": 2.500"));
        assert!(json.contains("\"name\": \"process_name\""));
        assert!(json.ends_with("]}\n"));
    }

    /// `(tid, ph, ts)` of every B/E/i event line of an export.
    fn track_events(json: &str) -> Vec<(u32, String, f64)> {
        let field = |line: &str, key: &str| {
            let pat = format!("\"{key}\": ");
            let rest = &line[line.find(&pat)? + pat.len()..];
            let end = rest.find([',', '}'])?;
            Some(rest[..end].trim_matches('"').to_string())
        };
        json.lines()
            .filter_map(|l| {
                let ph = field(l, "ph")?;
                if !matches!(ph.as_str(), "B" | "E" | "i") {
                    return None;
                }
                Some((
                    field(l, "tid")?.parse().ok()?,
                    ph,
                    field(l, "ts")?.parse().ok()?,
                ))
            })
            .collect()
    }

    #[test]
    fn concurrent_plain_threads_get_clean_tracks() {
        // Two plain threads tracing at once: each exports on a track of
        // its own, with balanced B/E and non-decreasing ts.
        let _guard = crate::test_lock();
        trace::clear();
        trace::enable_full();
        let worker = || {
            std::thread::spawn(|| {
                for _ in 0..200 {
                    let _outer = crate::spans::span("t.chrome.plain");
                    let _inner = crate::spans::span("inner");
                }
                trace::current_tid()
            })
        };
        let (a, b) = (worker(), worker());
        let tids = [a.join().unwrap(), b.join().unwrap()];
        trace::disable();
        let json = render();
        trace::clear();
        assert_ne!(tids[0], tids[1]);
        let events = track_events(&json);
        for tid in tids {
            let (mut depth, mut last, mut begins) = (0i64, f64::MIN, 0);
            for (_, ph, ts) in events.iter().filter(|e| e.0 == tid) {
                assert!(*ts >= last, "ts regressed on track {tid}: {ts} < {last}");
                last = *ts;
                match ph.as_str() {
                    "B" => {
                        depth += 1;
                        begins += 1;
                    }
                    "E" => depth -= 1,
                    _ => {}
                }
                assert!(depth >= 0, "E without B on track {tid}");
            }
            assert_eq!(depth, 0, "unbalanced track {tid}");
            assert_eq!(begins, 400, "track {tid} lost spans");
            assert!(json.contains(&format!(
                "\"tid\": {tid}, \"name\": \"thread_name\", \"args\": {{\"name\": \"caller-{}\"}}",
                tid - trace::FIRST_CALLER_TID
            )));
        }
    }

    #[test]
    fn empty_ring_still_renders_valid_skeleton() {
        let json = export(&[]);
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.contains("process_name"));
        assert!(json.ends_with("]}\n"));
    }
}
