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
    tids.push(0);
    tids.sort_unstable();
    tids.dedup();
    for tid in tids {
        let name = if tid == 0 {
            "caller".to_string()
        } else {
            format!("exec-worker-{}", tid - 1)
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

    #[test]
    fn empty_ring_still_renders_valid_skeleton() {
        let json = export(&[]);
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.contains("process_name"));
        assert!(json.ends_with("]}\n"));
    }
}
