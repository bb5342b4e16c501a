//! `trace_check` — CI validator for the `runme --trace` artifacts and
//! the live observability plane.
//!
//! ```sh
//! trace_check [trace.json] [BENCH_perf.json] [--max-prediction-error X]
//! trace_check serve [BENCH_perf.json]
//! trace_check chaos [BENCH_perf.json]
//! ```
//!
//! The `serve` mode (ISSUE 9) stands up the whole live plane in-process
//! — a `ConcurrentIndex` churned by a background writer, the
//! time-series sampler, an SLO health engine and the HTTP introspection
//! server on an ephemeral loopback port — then scrapes **every**
//! endpoint over real sockets and validates the payloads: HTTP framing
//! (`Content-Length` matches the body), Prometheus text parseability
//! with cumulative-monotone histogram buckets and `+Inf == _count`,
//! counter monotonicity and label-set stability across two scrapes
//! under churn, `/health` verdict-vs-status-code consistency including
//! a forced Healthy → Degraded → Healthy transition via an injected
//! slow-query storm, and a flight-recorder dump written and re-parsed.
//! With a `BENCH_perf.json` argument it additionally gates the
//! `serving_obs` study's sampler overhead below 2 % of the writer wall.
//!
//! The `chaos` mode (ISSUE 10) gates the chaos resilience study in
//! `BENCH_perf.json`: the seeded fault schedule must actually have
//! fired (`injected_faults >= 1`), the writer must have absorbed every
//! fault without losing an operation (`ops == rounds`, availability
//! `>= 80 %`), recovery latencies must have been measured, and the
//! faulted run must have **converged** — the surviving index answers
//! byte-identically to a fault-free reference built from the same
//! committed batches.
//!
//! The default mode validates the Chrome Trace Format export without a
//! JSON library (the offline workspace carries none), exploiting the
//! exporter's stable one-event-per-line layout:
//!
//! - the file is a well-formed trace object with a non-empty
//!   `traceEvents` array containing span slices (`B`/`E`), instants
//!   (`i`) and device async pairs (`b`/`e`);
//! - per thread track, `B`/`E` events are balanced (depth never goes
//!   negative, ends at zero) and timestamps are monotonically
//!   non-decreasing in file order;
//! - every `device` async `b` has a matching `e` with `ts(b) <= ts(e)`;
//! - the expected phase slices of a Range-Intersects batch
//!   (`k_prediction`, `bvh_build`, `forward`, `backward`) are present.
//!
//! Then reads `BENCH_perf.json` and asserts:
//!
//! - the embedded EXPLAIN record's cost-model `prediction_error` exists
//!   and is below the blessed bound (default 1.0, i.e. within 2x of the
//!   measured pair count; override with `--max-prediction-error`);
//! - the `maintenance` section is present, the policy-driven side ends
//!   within the policy's quality thresholds, and its probe batches'
//!   modeled device p99 does not exceed the unmaintained twin's by more
//!   than 10% (both sides are deterministic model time, so this cannot
//!   flake on a loaded runner);
//! - when the run used `>= 4` executor threads on a host with `>= 4`
//!   CPUs, the scaling study's measured speedup is at least 1.5 (the
//!   gate is skipped — with a note — on smaller hosts, where a parallel
//!   speedup is physically impossible and the study only checks
//!   determinism).
//!
//! Exits non-zero with a diagnostic on the first violation.

use std::collections::HashMap;
use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        check_serve(args.get(1).map(String::as_str));
        println!("trace_check: all serve checks passed");
        return;
    }
    if args.first().map(String::as_str) == Some("chaos") {
        check_chaos(args.get(1).map(String::as_str).unwrap_or("BENCH_perf.json"));
        println!("trace_check: all chaos checks passed");
        return;
    }
    let mut paths: Vec<&str> = Vec::new();
    let mut max_err = 1.0f64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--max-prediction-error" {
            max_err = it
                .next()
                .and_then(|v| v.parse().ok())
                .expect("--max-prediction-error takes a float");
        } else {
            paths.push(a);
        }
    }
    let trace_path = paths.first().copied().unwrap_or("target/trace.json");
    let perf_path = paths.get(1).copied().unwrap_or("BENCH_perf.json");

    check_trace(trace_path);
    check_prediction_error(perf_path, max_err);
    check_maintenance(perf_path);
    check_scaling(perf_path);
    println!("trace_check: all checks passed");
}

fn fail(msg: String) -> ! {
    eprintln!("trace_check: FAIL: {msg}");
    exit(1);
}

/// First top-level occurrence of `"key": <token>` in an event line; the
/// exporter always emits the queried keys before the nested `args`
/// object, so a plain scan finds the event's own field.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    if let Some(quoted) = rest.strip_prefix('"') {
        quoted.split('"').next()
    } else {
        rest.split([',', '}']).next()
    }
}

fn check_trace(path: &str) {
    let content =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
    if !content.starts_with("{\"displayTimeUnit\"") || !content.trim_end().ends_with("]}") {
        fail(format!("{path}: not a Chrome trace object"));
    }
    let body_start = content
        .find("\"traceEvents\": [\n")
        .unwrap_or_else(|| fail(format!("{path}: no traceEvents array")));
    let body = &content[body_start + "\"traceEvents\": [\n".len()..];
    let body = body
        .rsplit_once("\n]}")
        .map(|(b, _)| b)
        .unwrap_or_else(|| fail(format!("{path}: unterminated traceEvents array")));

    // (depth, last_ts) per thread track; open async ids for device pairs.
    let mut tracks: HashMap<String, (i64, f64)> = HashMap::new();
    let mut open_async: HashMap<String, f64> = HashMap::new();
    let mut counts: HashMap<String, usize> = HashMap::new();
    let mut slice_names: Vec<String> = Vec::new();

    for (lineno, line) in body.split(",\n").enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if !(line.starts_with('{') && line.ends_with('}')) {
            fail(format!("{path}:{lineno}: event is not an object: {line}"));
        }
        let ph =
            field(line, "ph").unwrap_or_else(|| fail(format!("{path}:{lineno}: event without ph")));
        *counts.entry(ph.to_string()).or_default() += 1;
        if ph == "M" {
            continue;
        }
        let pid = field(line, "pid")
            .unwrap_or_else(|| fail(format!("{path}:{lineno}: event without pid")));
        let tid = field(line, "tid")
            .unwrap_or_else(|| fail(format!("{path}:{lineno}: event without tid")));
        let ts: f64 = field(line, "ts")
            .and_then(|t| t.parse().ok())
            .unwrap_or_else(|| fail(format!("{path}:{lineno}: event without numeric ts")));
        match ph {
            "B" | "E" | "i" => {
                let key = format!("{pid}/{tid}");
                let track = tracks.entry(key.clone()).or_insert((0, 0.0));
                if ts < track.1 {
                    fail(format!(
                        "{path}:{lineno}: ts regressed on track {key}: {ts} < {}",
                        track.1
                    ));
                }
                track.1 = ts;
                if ph == "B" {
                    track.0 += 1;
                    if let Some(name) = field(line, "name") {
                        slice_names.push(name.to_string());
                    }
                } else if ph == "E" {
                    track.0 -= 1;
                    if track.0 < 0 {
                        fail(format!("{path}:{lineno}: E without B on track {key}"));
                    }
                }
            }
            "b" => {
                let id = field(line, "id").unwrap_or("?").to_string();
                if open_async.insert(id.clone(), ts).is_some() {
                    fail(format!("{path}:{lineno}: duplicate async begin id {id}"));
                }
            }
            "e" => {
                let id = field(line, "id").unwrap_or("?").to_string();
                let begin = open_async.remove(&id).unwrap_or_else(|| {
                    fail(format!("{path}:{lineno}: async end without begin, id {id}"))
                });
                if ts < begin {
                    fail(format!(
                        "{path}:{lineno}: async pair id {id} ends before it begins ({ts} < {begin})"
                    ));
                }
            }
            other => fail(format!("{path}:{lineno}: unexpected ph {other:?}")),
        }
    }

    for (key, (depth, _)) in &tracks {
        if *depth != 0 {
            fail(format!(
                "unbalanced B/E on track {key}: depth {depth} at EOF"
            ));
        }
    }
    if !open_async.is_empty() {
        fail(format!("{} device async pairs left open", open_async.len()));
    }
    let n = |ph: &str| counts.get(ph).copied().unwrap_or(0);
    if n("B") == 0 || n("E") == 0 {
        fail("trace contains no span slices".to_string());
    }
    if n("i") == 0 {
        fail("trace contains no instant events".to_string());
    }
    if n("b") == 0 || n("b") != n("e") {
        fail(format!(
            "device async pairs missing or unbalanced: {} b / {} e",
            n("b"),
            n("e")
        ));
    }
    for phase in ["k_prediction", "bvh_build", "forward", "backward"] {
        if !slice_names.iter().any(|s| s == phase) {
            fail(format!(
                "expected Range-Intersects phase slice {phase:?} not found"
            ));
        }
    }
    println!(
        "trace_check: {path}: {} events ({} slices, {} instants, {} device pairs, {} tracks) OK",
        counts.values().sum::<usize>(),
        n("B"),
        n("i"),
        n("b"),
        tracks.len()
    );
}

fn check_prediction_error(path: &str, max_err: f64) {
    let content =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
    let explain_start = content
        .find("\"explain\": {")
        .unwrap_or_else(|| fail(format!("{path}: no embedded explain record")));
    // The explain object is one line; prediction_error is a top-level
    // field of it (the nested candidates hold no key of that name).
    let line = content[explain_start..]
        .lines()
        .next()
        .unwrap_or_else(|| fail(format!("{path}: truncated explain record")));
    let err: f64 = field(line, "prediction_error")
        .filter(|v| *v != "null")
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| {
            fail(format!(
                "{path}: explain record has no numeric prediction_error (cost model did not run?)"
            ))
        });
    if !err.is_finite() || err > max_err {
        fail(format!(
            "{path}: explain prediction_error {err} exceeds blessed bound {max_err}"
        ));
    }
    println!("trace_check: {path}: explain prediction_error {err:.4} <= {max_err} OK");
}

/// A `"key": <number>` field scanned from a multi-line JSON block. The
/// token is trimmed: a field emitted last in its object is followed by
/// a newline before the closing brace.
fn num_field(block: &str, key: &str) -> Option<f64> {
    field(block, key).and_then(|v| v.trim().parse().ok())
}

fn check_maintenance(path: &str) {
    let content =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
    let start = content.find("\"maintenance\": {").unwrap_or_else(|| {
        fail(format!(
            "{path}: no maintenance section (the churn maintenance study did not run)"
        ))
    });
    let block = &content[start..];
    let max_sah = num_field(block, "max_sah_drift")
        .unwrap_or_else(|| fail(format!("{path}: maintenance has no max_sah_drift")));
    let max_overlap = num_field(block, "max_overlap_drift")
        .unwrap_or_else(|| fail(format!("{path}: maintenance has no max_overlap_drift")));
    // The per-policy sides are single-line objects; scan each side's
    // own line for its fields.
    let side_line = |policy: &str| -> &str {
        let pat = format!("\"policy\": \"{policy}\"");
        let s = block.find(&pat).unwrap_or_else(|| {
            fail(format!(
                "{path}: maintenance is missing the policy-{policy} side"
            ))
        });
        block[s..]
            .lines()
            .next()
            .unwrap_or_else(|| fail(format!("{path}: truncated policy-{policy} side")))
    };
    let on = side_line("on");
    let off = side_line("off");
    let side_num = |line: &str, policy: &str, key: &str| -> f64 {
        num_field(line, key).unwrap_or_else(|| {
            fail(format!(
                "{path}: maintenance policy-{policy} side has no {key}"
            ))
        })
    };
    let on_sah = side_num(on, "on", "final_sah_drift");
    let on_overlap = side_num(on, "on", "final_overlap_drift");
    if on_sah > max_sah || on_overlap > max_overlap {
        fail(format!(
            "{path}: maintained side ended outside the policy thresholds \
             (sah drift {on_sah} vs {max_sah}, overlap drift {on_overlap} vs {max_overlap})"
        ));
    }
    let on_p99 = side_num(on, "on", "device_p99_ns");
    let off_p99 = side_num(off, "off", "device_p99_ns");
    // Maintained BVHs must not traverse worse than refit-degraded ones;
    // allow 10% slack for batch-shape noise at smoke scale.
    if on_p99 > off_p99 * 1.1 {
        fail(format!(
            "{path}: maintained side's probe device p99 {on_p99} ns exceeds \
             the unmaintained side's {off_p99} ns by more than 10%"
        ));
    }
    println!(
        "trace_check: {path}: maintenance on-side sah drift {on_sah:.3} <= {max_sah}, \
         overlap drift {on_overlap:.3} <= {max_overlap}, \
         device p99 {on_p99} ns vs off {off_p99} ns OK"
    );
}

// ---------------------------------------------------------------------
// `trace_check serve` — live-plane validation over real sockets.
// ---------------------------------------------------------------------

/// One HTTP GET against the introspection server, with framing checks:
/// a well-formed status line, a `Content-Length` header that matches
/// the body exactly. Returns `(status, body)`.
fn http_get(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr)
        .unwrap_or_else(|e| fail(format!("serve: cannot connect to {addr}: {e}")));
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(5)));
    let _ = stream.set_write_timeout(Some(std::time::Duration::from_secs(5)));
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: check\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .unwrap_or_else(|e| fail(format!("serve: write to {path} failed: {e}")));
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .unwrap_or_else(|e| fail(format!("serve: read from {path} failed: {e}")));
    let raw = String::from_utf8(raw)
        .unwrap_or_else(|e| fail(format!("serve: {path} reply is not UTF-8: {e}")));
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| fail(format!("serve: {path} reply has no header terminator")));
    let status: u16 = head
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.split(' ').next())
        .and_then(|c| c.parse().ok())
        .unwrap_or_else(|| fail(format!("serve: {path} reply has a malformed status line")));
    let clen: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| fail(format!("serve: {path} reply has no Content-Length")));
    if clen != body.len() {
        fail(format!(
            "serve: {path} Content-Length {clen} != body length {}",
            body.len()
        ));
    }
    (status, body.to_string())
}

/// Structural JSON sanity without a parser: non-empty, starts with the
/// expected opener, braces and brackets balance outside strings.
fn check_balanced_json(path: &str, body: &str, opener: char) {
    let trimmed = body.trim();
    if !trimmed.starts_with(opener) {
        fail(format!(
            "serve: {path} body does not start with {opener:?}: {}",
            &trimmed[..trimmed.len().min(60)]
        ));
    }
    let (mut depth, mut in_str, mut esc) = (0i64, false, false);
    for c in trimmed.chars() {
        if in_str {
            if esc {
                esc = false;
            } else if c == '\\' {
                esc = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' | '[' => depth += 1,
            '}' | ']' => {
                depth -= 1;
                if depth < 0 {
                    fail(format!("serve: {path} body has unbalanced closers"));
                }
            }
            _ => {}
        }
    }
    if depth != 0 || in_str {
        fail(format!(
            "serve: {path} body is structurally unbalanced (depth {depth}, in_str {in_str})"
        ));
    }
}

/// Parses a Prometheus text exposition: every sample line must be
/// `series value` with a numeric value, histogram buckets must be
/// cumulative-monotone with strictly increasing `le` bounds, and the
/// `+Inf` bucket must equal the family's `_count`. Returns
/// `(series → value, counter family names, histogram family names)`.
fn parse_prometheus(
    body: &str,
) -> (
    std::collections::BTreeMap<String, f64>,
    std::collections::BTreeSet<String>,
    std::collections::BTreeSet<String>,
) {
    let mut series = std::collections::BTreeMap::new();
    let mut counters = std::collections::BTreeSet::new();
    let mut histograms = std::collections::BTreeSet::new();
    // Per histogram family: (last le, last cumulative, +Inf value).
    let mut hist: HashMap<String, (f64, f64, Option<f64>)> = HashMap::new();
    for (lineno, line) in body.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split(' ');
            let (name, kind) = (it.next().unwrap_or(""), it.next().unwrap_or(""));
            if !matches!(kind, "counter" | "gauge" | "histogram") {
                fail(format!("serve: /metrics:{lineno}: unknown TYPE {kind:?}"));
            }
            if kind == "counter" {
                counters.insert(name.to_string());
            } else if kind == "histogram" {
                histograms.insert(name.to_string());
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP
        }
        let (key, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| fail(format!("serve: /metrics:{lineno}: no value: {line}")));
        let value: f64 = value.parse().unwrap_or_else(|_| {
            fail(format!(
                "serve: /metrics:{lineno}: non-numeric value: {line}"
            ))
        });
        let name = key.split('{').next().unwrap_or(key);
        if !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            fail(format!(
                "serve: /metrics:{lineno}: invalid series name {name:?}"
            ));
        }
        if series.insert(key.to_string(), value).is_some() {
            fail(format!("serve: /metrics:{lineno}: duplicate series {key}"));
        }
        if let Some(family) = name.strip_suffix("_bucket") {
            let le = key
                .split("le=\"")
                .nth(1)
                .and_then(|r| r.split('"').next())
                .unwrap_or_else(|| fail(format!("serve: /metrics:{lineno}: bucket without le")));
            let le: f64 = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().unwrap_or_else(|_| {
                    fail(format!("serve: /metrics:{lineno}: non-numeric le {le:?}"))
                })
            };
            let entry = hist
                .entry(family.to_string())
                .or_insert((f64::NEG_INFINITY, 0.0, None));
            if le <= entry.0 {
                fail(format!(
                    "serve: /metrics:{lineno}: le {le} not increasing in family {family}"
                ));
            }
            if value < entry.1 {
                fail(format!(
                    "serve: /metrics:{lineno}: cumulative bucket count regressed \
                     in family {family} ({value} < {})",
                    entry.1
                ));
            }
            *entry = (
                le,
                value,
                if le.is_infinite() {
                    Some(value)
                } else {
                    entry.2
                },
            );
        }
    }
    for (family, (_, _, inf)) in &hist {
        let inf =
            inf.unwrap_or_else(|| fail(format!("serve: histogram {family} has no +Inf bucket")));
        let count_key = format!("{family}_count");
        let count = series
            .iter()
            .find(|(k, _)| k.split('{').next() == Some(count_key.as_str()))
            .map(|(_, v)| *v)
            .unwrap_or_else(|| fail(format!("serve: histogram {family} has no _count series")));
        if inf != count {
            fail(format!(
                "serve: histogram {family}: +Inf bucket {inf} != _count {count}"
            ));
        }
    }
    (series, counters, histograms)
}

/// The `serve` mode body: stand up the live plane, churn, scrape,
/// validate. See the module docs.
fn check_serve(perf_path: Option<&str>) {
    use librts::{ConcurrentIndex, CountingHandler, IndexOptions, Predicate, RTSIndex};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    const HEALTH_WINDOW: usize = 16;

    // ---- workload: a churned ConcurrentIndex wired into the plane ----
    obs::trace::enable_queries();
    obs::trace::set_slow_query_threshold(Some(Duration::ZERO)); // everything is "slow"
    let rects = datasets::Dataset::UsCensus.generate(2_000, 42);
    let qs = datasets::queries::intersects_queries(&rects, 100, 0.001, 63);
    let index = Arc::new(
        ConcurrentIndex::with_rects(&rects, IndexOptions::default())
            .expect("generated data is valid"),
    );
    index.install_status_source();
    // One rule only, over the always-on query-latency feed, so the
    // forced transition below cannot be perturbed by churn-side drift.
    obs::health::install(obs::HealthEngine::new(vec![obs::HealthRule::new(
        "query_p99",
        obs::Signal::WindowP99 {
            name: "query.wall_ns".to_string(),
            window: HEALTH_WINDOW,
        },
        250e6,
        obs::Severity::Degrade,
    )]));
    // A real EXPLAIN so /explain serves a plan.
    let explain_index =
        RTSIndex::with_rects(&rects, IndexOptions::default()).expect("generated data is valid");
    explain_index.explain_intersects(&qs, &CountingHandler::new());
    assert!(obs::timeseries::start(Duration::from_millis(25)));
    let server = obs::server::start("127.0.0.1:0", 2)
        .unwrap_or_else(|e| fail(format!("serve: cannot bind loopback: {e}")));
    let addr = server.addr();

    // Warm up every metric-producing path BEFORE the first scrape so
    // the family set is stable across the two compared scrapes: churn
    // (publishes, refits), snapshot queries (query.wall_ns, traces,
    // slow log), maintenance decisions, a sampler tick, one request
    // against every endpoint.
    let warm_churn = |from: u64| {
        let ids: Vec<u32> = (0..64u32).collect();
        let moved: Vec<geom::Rect<f32, 2>> = ids
            .iter()
            .map(|&i| rects[i as usize].translated(&geom::Point::xy(0.01 * from as f32, 0.02)))
            .collect();
        index.update(&ids, &moved).expect("ids are live");
    };
    warm_churn(1);
    index.maintain_with(&librts::MaintenancePolicy::default());
    let h = CountingHandler::new();
    index.snapshot().range_query(Predicate::Intersects, &qs, &h);
    obs::timeseries::sample_now();
    let endpoints = [
        "/",
        "/metrics",
        "/metrics.json",
        "/timeseries",
        "/traces",
        "/slow",
        "/explain",
        "/health",
        "/flight",
        "/index",
    ];
    for path in endpoints {
        http_get(addr, path);
    }

    // ---- background churn for the scrape-under-load phase ----
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let (index, stop) = (Arc::clone(&index), Arc::clone(&stop));
        let rects = rects.clone();
        std::thread::spawn(move || {
            let mut round = 2u64;
            while !stop.load(Ordering::Acquire) {
                let ids: Vec<u32> = (0..64u32).collect();
                let moved: Vec<geom::Rect<f32, 2>> = ids
                    .iter()
                    .map(|&i| {
                        rects[i as usize].translated(&geom::Point::xy(0.01 * round as f32, 0.02))
                    })
                    .collect();
                index.update(&ids, &moved).expect("ids are live");
                round += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
        })
    };

    // ---- every endpoint responds with a valid payload under churn ----
    let expect = |path: &str, want: u16| -> String {
        let (status, body) = http_get(addr, path);
        if status != want {
            fail(format!("serve: GET {path} returned {status}, want {want}"));
        }
        if body.is_empty() {
            fail(format!("serve: GET {path} returned an empty body"));
        }
        body
    };
    expect("/", 200);
    let prom1 = expect("/metrics", 200);
    let (series1, counters, histograms) = parse_prometheus(&prom1);
    if counters.is_empty() {
        fail("serve: /metrics exposes no counter families".to_string());
    }
    check_balanced_json("/metrics.json", &expect("/metrics.json", 200), '{');
    check_balanced_json("/timeseries", &expect("/timeseries", 200), '{');
    let traces = expect("/traces", 200);
    check_balanced_json("/traces", &traces, '[');
    if !traces.contains("\"kind\"") {
        fail("serve: /traces has no query records despite tracing being on".to_string());
    }
    let slow = expect("/slow", 200);
    check_balanced_json("/slow", &slow, '[');
    if !slow.contains("\"kind\"") {
        fail("serve: /slow is empty despite a zero slow-query threshold".to_string());
    }
    let explain = expect("/explain", 200);
    check_balanced_json("/explain", &explain, '{');
    if !explain.contains("\"chosen_k\"") {
        fail("serve: /explain serves no recorded plan".to_string());
    }
    let flight = expect("/flight", 200);
    check_balanced_json("/flight", &flight, '{');
    if !flight.contains("\"config_fingerprint\"") {
        fail("serve: /flight is missing the config fingerprint".to_string());
    }
    let status_body = expect("/index", 200);
    check_balanced_json("/index", &status_body, '{');
    let version = num_field(&status_body, "version")
        .unwrap_or_else(|| fail("serve: /index has no version field".to_string()));
    if version < 1.0 {
        fail(format!("serve: /index version {version} < 1 under churn"));
    }
    let (nf_status, _) = http_get(addr, "/no-such-endpoint");
    if nf_status != 404 {
        fail(format!("serve: unknown path returned {nf_status}, not 404"));
    }

    // ---- counter monotonicity + label-set stability across scrapes ----
    let (series2, _, _) = parse_prometheus(&expect("/metrics", 200));
    for key in series1.keys() {
        if !series2.contains_key(key) {
            fail(format!("serve: series {key} vanished between scrapes"));
        }
    }
    for (key, v1) in &series1 {
        let name = key.split('{').next().unwrap_or(key);
        // Monotone under churn: counters, and every histogram-derived
        // series (cumulative bucket counts, _sum, _count of an
        // append-only histogram).
        let from_histogram = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_count"))
            .or_else(|| name.strip_suffix("_sum"))
            .is_some_and(|family| histograms.contains(family));
        if counters.contains(name) || from_histogram {
            let v2 = series2[key];
            if v2 < *v1 {
                fail(format!(
                    "serve: counter-like series {key} regressed between scrapes ({v2} < {v1})"
                ));
            }
        }
    }

    // ---- /health: verdict consistency + forced transition ----
    let health_consistent = || -> (u16, String) {
        let (status, body) = http_get(addr, "/health");
        let want = match status {
            200 => "\"healthy\"",
            429 => "\"degraded\"",
            503 => "\"unhealthy\"",
            other => fail(format!("serve: /health returned status {other}")),
        };
        if !body.contains(want) {
            fail(format!(
                "serve: /health status {status} but body lacks {want}: {body}"
            ));
        }
        (status, body)
    };
    // Healthy first: quiet windows, p99 of the recent deltas is tiny.
    obs::timeseries::sample_now();
    let (s0, _) = health_consistent();
    if s0 != 200 {
        fail(format!(
            "serve: /health not healthy before the storm ({s0})"
        ));
    }
    // The storm: a burst of half-second queries into the always-on
    // latency feed pushes the windowed p99 over the 250 ms SLO.
    for _ in 0..32 {
        obs::trace::record_query(obs::QueryTrace {
            seq: 0,
            kind: "range_intersects",
            batch: 1,
            valid: 1,
            live: 0,
            chosen_k: 1,
            selectivity: None,
            predicted_cr: 0.0,
            predicted_ci: 0.0,
            predicted_pairs: None,
            results: 0,
            rays: 0,
            is_calls: 0,
            nodes_visited: 0,
            max_is_per_thread: 0,
            device_ns: obs::PhaseNanos::default(),
            wall_ns: 500_000_000,
            wall_phase_ns: obs::PhaseNanos::default(),
            ts_ns: 0,
            tid: 0,
        });
    }
    obs::timeseries::sample_now();
    let (s1, _) = health_consistent();
    if s1 != 429 {
        fail(format!(
            "serve: /health did not degrade under the slow-query storm ({s1})"
        ));
    }
    // Quiet again: enough fresh samples push the storm out the window.
    for _ in 0..(HEALTH_WINDOW + 2) {
        obs::timeseries::sample_now();
    }
    let (s2, _) = health_consistent();
    if s2 != 200 {
        fail(format!(
            "serve: /health did not recover after the storm cleared ({s2})"
        ));
    }
    println!("trace_check: serve: /health transition 200 -> 429 -> 200 OK");

    // ---- flight-recorder dump to disk ----
    obs::flight::dump("target/flight.json")
        .unwrap_or_else(|e| fail(format!("serve: flight dump failed: {e}")));
    let dump = std::fs::read_to_string("target/flight.json")
        .unwrap_or_else(|e| fail(format!("serve: cannot read back flight dump: {e}")));
    check_balanced_json("target/flight.json", &dump, '{');
    if !dump.contains("\"cause\"") || !dump.contains("\"metrics\"") {
        fail("serve: flight dump is missing cause/metrics sections".to_string());
    }

    // ---- teardown ----
    stop.store(true, Ordering::Release);
    writer.join().expect("churn writer panicked");
    server.shutdown();
    obs::timeseries::stop();
    obs::health::uninstall();
    obs::server::clear_status_source();
    obs::trace::set_slow_query_threshold(None);
    println!(
        "trace_check: serve: {} endpoints validated under churn ({} Prometheus series, index v{})",
        endpoints.len(),
        series1.len(),
        version as u64,
    );

    // ---- optional BENCH_perf.json serving_obs gate ----
    let Some(path) = perf_path else { return };
    let content =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
    let start = content.find("\"serving_obs\": {").unwrap_or_else(|| {
        fail(format!(
            "{path}: no serving_obs section (the study did not run)"
        ))
    });
    let block = &content[start..];
    let overhead = num_field(block, "overhead_percent")
        .unwrap_or_else(|| fail(format!("{path}: serving_obs has no overhead_percent")));
    if overhead >= 2.0 {
        fail(format!(
            "{path}: live-plane sampler overhead {overhead:.2}% of writer wall exceeds the 2% gate"
        ));
    }
    let scrapes = num_field(block, "scrapes")
        .unwrap_or_else(|| fail(format!("{path}: serving_obs has no scrapes field")));
    if scrapes < 1.0 {
        fail(format!("{path}: serving_obs recorded no scrapes"));
    }
    println!(
        "trace_check: {path}: serving_obs overhead {overhead:.2}% < 2% over {scrapes} scrapes OK"
    );
}

/// `trace_check chaos` — gates the chaos resilience study (see the
/// module docs for the criteria).
fn check_chaos(path: &str) {
    let content =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
    let start = content.find("\"chaos\": {").unwrap_or_else(|| {
        fail(format!(
            "{path}: no chaos section (the chaos resilience study did not run)"
        ))
    });
    let block = &content[start..];
    let num = |key: &str| -> f64 {
        num_field(block, key).unwrap_or_else(|| fail(format!("{path}: chaos has no {key}")))
    };
    let injected = num("injected_faults");
    if injected < 1.0 {
        fail(format!(
            "{path}: chaos study injected no faults — the schedule never fired"
        ));
    }
    let (rounds, ops) = (num("rounds"), num("ops"));
    if ops != rounds {
        fail(format!(
            "{path}: chaos writer completed {ops} of {rounds} operations — recovery lost work"
        ));
    }
    let availability = num("availability_percent");
    if availability < 80.0 {
        fail(format!(
            "{path}: chaos availability {availability:.2}% < 80% — \
             the schedule cost more retries than the recovery budget allows"
        ));
    }
    let recoveries = num("recoveries");
    let p99 = num("recovery_p99_ns");
    if recoveries >= 1.0 && p99 <= 0.0 {
        fail(format!(
            "{path}: chaos recorded {recoveries} recoveries but no recovery latency"
        ));
    }
    match field(block, "converged").map(str::trim) {
        Some("true") => {}
        other => fail(format!(
            "{path}: chaos study did not converge (converged = {other:?}) — \
             the faulted index diverged from the fault-free reference"
        )),
    }
    println!(
        "trace_check: {path}: chaos {injected} injected faults, availability \
         {availability:.2}% >= 80%, {recoveries} recoveries (p99 {p99} ns), converged OK"
    );
}

fn check_scaling(path: &str) {
    let content =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
    let host_cpus = num_field(&content, "host_cpus")
        .unwrap_or_else(|| fail(format!("{path}: no host_cpus field")));
    let start = content
        .find("\"scaling\": {")
        .unwrap_or_else(|| fail(format!("{path}: no scaling section")));
    let block = &content[start..];
    let threads = num_field(block, "threads")
        .unwrap_or_else(|| fail(format!("{path}: scaling has no threads field")));
    let speedup = num_field(block, "speedup")
        .unwrap_or_else(|| fail(format!("{path}: scaling has no speedup field")));
    if threads >= 4.0 && host_cpus >= 4.0 {
        if speedup < 1.5 {
            fail(format!(
                "{path}: scaling speedup {speedup} < 1.5 at {threads} threads \
                 on a {host_cpus}-CPU host"
            ));
        }
        println!("trace_check: {path}: scaling speedup {speedup} >= 1.5 at {threads} threads OK");
    } else {
        println!(
            "trace_check: {path}: scaling speedup gate skipped \
             ({threads} threads on a {host_cpus}-CPU host; needs >= 4 of both) — \
             determinism asserts inside the study still ran"
        );
    }
}
