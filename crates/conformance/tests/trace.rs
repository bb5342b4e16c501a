//! Per-query tracing, EXPLAIN, and Chrome-trace conformance.
//!
//! The determinism contract extended to the tracing layer:
//!
//! - the *stable* payloads (`stable_json`) of an [`obs::QueryTrace`]
//!   and of an EXPLAIN plan are byte-identical at any `LIBRTS_THREADS` —
//!   host timestamps, wall time and thread ids are explicitly excluded
//!   from both renderings;
//! - the Chrome-trace export of a fixed single-threaded workload keeps
//!   its stable fields (event kinds, slice names, span paths, category
//!   labels) pinned to a checked-in golden file
//!   (`CONFORMANCE_BLESS=1 cargo test -p conformance --test trace`
//!   re-blesses after an intentional change);
//! - the slow-query log works with tracing fully disabled and never
//!   exceeds its retention cap.
//!
//! Tracing state is process-global, so every test serializes on a local
//! lock and configures the flags it needs up front.

use std::path::Path;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use conformance::OptionsSpec;
use geom::{Point, Rect};
use librts::{CountingHandler, IndexOptions, Predicate, RTSIndex};

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// Deterministic workload: a jittered grid of rectangles plus
/// overlapping query boxes and probe points.
fn rects(n: usize) -> Vec<Rect<f32, 2>> {
    (0..n)
        .map(|i| {
            let x = (i % 24) as f32 * 2.0;
            let y = (i / 24) as f32 * 2.0;
            let w = 1.0 + (i % 7) as f32 * 0.25;
            Rect::xyxy(x, y, x + w, y + w)
        })
        .collect()
}

fn query_boxes(n: usize) -> Vec<Rect<f32, 2>> {
    (0..n)
        .map(|i| {
            let x = (i % 9) as f32 * 5.0 + 0.5;
            let y = (i / 9) as f32 * 5.0 + 0.5;
            Rect::xyxy(x, y, x + 4.0, y + 3.0)
        })
        .collect()
}

fn points(n: usize) -> Vec<Point<f32, 2>> {
    (0..n)
        .map(|i| Point::xy((i % 48) as f32, (i / 48) as f32 * 2.0 + 0.5))
        .collect()
}

/// Runs the mixed query workload and returns (stable trace payloads,
/// stable EXPLAIN JSON).
fn run_workload() -> (Vec<String>, String) {
    // The paper's configuration, so EXPLAIN has a sampled selectivity
    // and a cost sweep to pin.
    let index = RTSIndex::with_rects(&rects(600), OptionsSpec::MulticastAuto.options())
        .expect("valid rects");
    let mark = obs::trace::next_query_seq();
    let h = CountingHandler::new();
    index.range_query(Predicate::Intersects, &query_boxes(72), &h);
    let h = CountingHandler::new();
    index.point_query(&points(200), &h);
    let h = CountingHandler::new();
    index.range_query(Predicate::Contains, &query_boxes(40), &h);
    let h = CountingHandler::new();
    let plan = index.explain_intersects(&query_boxes(72), &h);
    let stable: Vec<String> = obs::trace::query_records_since(mark)
        .iter()
        .map(|r| r.stable_json())
        .collect();
    (stable, plan.stable_json())
}

#[test]
fn trace_payloads_and_explain_are_thread_invariant() {
    let _g = lock();
    obs::trace::enable_queries();
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut counts = vec![1usize, 4, cpus];
    counts.sort_unstable();
    counts.dedup();

    let mut reference: Option<(usize, Vec<String>, String)> = None;
    for &n in &counts {
        let (stable, plan) = exec::with_threads(n, run_workload);
        assert_eq!(
            stable.len(),
            4,
            "one record per batch (intersects, point, contains, explain)"
        );
        assert!(
            stable[0].contains("\"kind\": \"range_intersects\""),
            "first record is the intersects batch: {}",
            stable[0]
        );
        match &reference {
            None => reference = Some((n, stable, plan)),
            Some((n0, want_stable, want_plan)) => {
                assert_eq!(
                    &stable, want_stable,
                    "stable trace payloads diverge between {n0} and {n} threads"
                );
                assert_eq!(
                    &plan, want_plan,
                    "EXPLAIN JSON diverges between {n0} and {n} threads"
                );
            }
        }
    }

    // The model actually ran and its predictions are wired through.
    let (_, _, plan) = reference.unwrap();
    assert!(plan.contains("\"mode\": \"auto\""));
    assert!(plan.contains("\"candidates\": [{\"k\": 1,"));
    assert!(!plan.contains("\"prediction_error\": null"));
}

#[test]
fn trace_records_carry_per_phase_wall_time() {
    let _g = lock();
    obs::trace::enable_queries();
    let index = RTSIndex::with_rects(&rects(600), IndexOptions::default()).expect("valid rects");
    let mark = obs::trace::next_query_seq();
    let h = CountingHandler::new();
    index.range_query(Predicate::Intersects, &query_boxes(72), &h);
    let h = CountingHandler::new();
    index.point_query(&points(200), &h);
    let records = obs::trace::query_records_since(mark);
    assert_eq!(records.len(), 2, "one record per batch");
    let (intersects, point) = (&records[0].wall_phase_ns, &records[1].wall_phase_ns);
    // Every phase a kind runs took wall time, and the phases are
    // disjoint parts of the batch.
    assert!(
        intersects.k_prediction > 0
            && intersects.build > 0
            && intersects.forward > 0
            && intersects.backward > 0,
        "{intersects:?}"
    );
    assert!(
        point.forward > 0 && point.total() == point.forward,
        "{point:?}"
    );
    for r in &records {
        assert!(r.wall_phase_ns.total() <= r.wall_ns, "{r:?}");
        assert!(r
            .to_json()
            .contains("\"wall_phase_ns\": {\"k_prediction\": "));
        assert!(!r.stable_json().contains("wall_phase_ns"));
    }
}

#[test]
fn explain_carries_per_phase_wall_time() {
    let _g = lock();
    let index = RTSIndex::with_rects(&rects(600), OptionsSpec::MulticastAuto.options())
        .expect("valid rects");
    let plan = index.explain_intersects(&query_boxes(72), &CountingHandler::new());
    let wall = &plan.wall_phase_ns;
    assert!(
        wall.k_prediction > 0 && wall.build > 0 && wall.forward > 0 && wall.backward > 0,
        "{wall:?}"
    );
    let json = plan.to_json();
    assert!(json.contains(&format!(
        "\"device_ns\": {{\"k_prediction\": {}, ",
        plan.device_ns.k_prediction
    )));
    assert!(json.contains(&format!(
        "\"wall_phase_ns\": {{\"k_prediction\": {}, ",
        wall.k_prediction
    )));
    assert!(!plan.stable_json().contains("wall_phase_ns"));
}

/// First top-level `"key": <token>` occurrence in a one-line event.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": ");
    let rest = &line[line.find(&pat)? + pat.len()..];
    if let Some(quoted) = rest.strip_prefix('"') {
        quoted.split('"').next()
    } else {
        rest.split([',', '}']).next()
    }
}

/// Reduces an export to its stable fields: one `ph cat name [path]` line
/// per event, host timestamps / tids / ids dropped.
fn stable_lines(export: &str) -> String {
    export
        .lines()
        .filter_map(|l| Some((l, field(l, "ph")?)))
        .map(|(l, ph)| {
            let mut parts = vec![ph.to_string()];
            for key in ["cat", "name", "path"] {
                if let Some(v) = field(l, key) {
                    parts.push(v.to_string());
                }
            }
            parts.join(" ")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn chrome_trace_stable_fields_match_golden() {
    let _g = lock();
    let stable = exec::with_threads(1, || {
        obs::trace::enable_full();
        obs::trace::clear();
        // The paper's configuration: the golden pins a k-prediction
        // phase that charges device time.
        let index = RTSIndex::with_rects(&rects(600), OptionsSpec::MulticastAuto.options())
            .expect("valid rects");
        let h = CountingHandler::new();
        index.range_query(Predicate::Intersects, &query_boxes(72), &h);
        let export = obs::chrome::render();
        obs::trace::disable();
        obs::trace::clear();
        stable_lines(&export)
    });

    // The Range-Intersects phases must appear as nested slices.
    for phase in ["k_prediction", "bvh_build", "forward", "backward"] {
        assert!(
            stable.contains(&format!("B span {phase}")),
            "phase slice {phase:?} missing:\n{stable}"
        );
    }
    assert!(stable.contains("i query query:range_intersects"));
    assert!(stable.contains("b device query.intersects.forward"));

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden_chrome_trace.txt");
    if std::env::var_os(conformance::BLESS_ENV).is_some() {
        std::fs::write(&path, &stable).expect("bless golden");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "reading {}: {e}\nrun `{}=1 cargo test -p conformance --test trace` to create it",
            path.display(),
            conformance::BLESS_ENV
        )
    });
    assert_eq!(
        stable,
        want,
        "Chrome-trace stable fields drifted from the golden file; if \
         intentional, re-bless with {}=1",
        conformance::BLESS_ENV
    );
}

#[test]
fn slow_query_log_is_independent_of_tracing_and_capped() {
    let _g = lock();
    obs::trace::disable();
    obs::trace::clear();
    obs::trace::set_slow_query_threshold(Some(Duration::ZERO));

    let index = RTSIndex::with_rects(&rects(64), IndexOptions::default()).expect("valid rects");
    let pts = points(16);
    for _ in 0..obs::trace::SLOW_QUERY_RETENTION + 8 {
        let h = CountingHandler::new();
        index.point_query(&pts, &h);
    }
    let slow = obs::trace::slow_queries();
    obs::trace::set_slow_query_threshold(None);

    assert_eq!(
        slow.len(),
        obs::trace::SLOW_QUERY_RETENTION,
        "retention cap holds, newest kept"
    );
    assert!(slow.iter().all(|r| r.kind == "point"));
    // Tracing was off: the slow log captured records anyway, the ring
    // did not.
    assert!(obs::trace::query_records().is_empty());
}
