//! Live-plane conformance tier (ISSUE 9).
//!
//! Four contracts of the observability plane, each pinned against the
//! running system rather than unit fixtures:
//!
//! 1. **Exporter conformance under churn** — `/metrics` scraped twice
//!    over real sockets while a writer churns a [`ConcurrentIndex`]:
//!    identical series label sets across the scrapes, cumulative
//!    histogram buckets monotone with `+Inf == _count`, and every
//!    counter/histogram series monotone between scrapes.
//! 2. **Stable-class thread invariance with the plane running** — the
//!    sampler and the HTTP server stay up while the same workload runs
//!    at `exec` thread counts {1, 4, ncpus}; the Stable-only metric
//!    deltas must remain byte-identical, proving the live plane is
//!    Host-class only.
//! 3. **Flight recorder on a worker panic** — a panicking thread must
//!    leave a parseable black-box dump at the installed path.
//! 4. **Health hysteresis** — an injected slow-query storm flips the
//!    verdict Healthy → Degraded, and quiet windows clear it again.
//!
//! All tests in this binary serialize on one lock: the obs registry,
//! the sampler, the health engine and the status source are
//! process-global.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use geom::{Point, Rect};
use librts::{ConcurrentIndex, CountingHandler, IndexOptions, Predicate, RTSIndex};

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn ncpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Deterministic rect grid (no RNG dependency in the contract).
fn grid(n: usize) -> Vec<Rect<f32, 2>> {
    (0..n)
        .map(|i| {
            let x = (i % 40) as f32 * 3.0;
            let y = (i / 40) as f32 * 3.0;
            Rect::xyxy(x, y, x + 2.0, y + 2.0)
        })
        .collect()
}

/// One blocking GET; returns the body after asserting basic framing.
fn http_get(addr: SocketAddr, path: &str) -> String {
    let mut s = TcpStream::connect(addr).expect("introspection server is up");
    s.write_all(format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes())
        .expect("request");
    let mut reply = String::new();
    s.read_to_string(&mut reply).expect("response");
    assert!(reply.starts_with("HTTP/1.1 "), "malformed reply on {path}");
    let (head, body) = reply.split_once("\r\n\r\n").expect("header terminator");
    let clen: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.trim().parse().ok())
        .expect("Content-Length header");
    assert_eq!(clen, body.len(), "Content-Length mismatch on {path}");
    body.to_string()
}

/// Parses a Prometheus exposition into `series → value`, asserting the
/// histogram-bucket contract on the way: strictly increasing `le`
/// within a family, cumulative counts monotone, `+Inf == _count`.
fn parse_prometheus(body: &str) -> (BTreeMap<String, f64>, Vec<String>) {
    let mut series = BTreeMap::new();
    let mut monotone_families = Vec::new();
    let mut hist: BTreeMap<String, (f64, f64, Option<f64>)> = BTreeMap::new();
    for line in body.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split(' ');
            let (name, kind) = (it.next().unwrap(), it.next().unwrap());
            if kind == "counter" || kind == "histogram" {
                monotone_families.push(name.to_string());
            }
            continue;
        }
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let (key, value) = line.rsplit_once(' ').expect("sample line has a value");
        let value: f64 = value.parse().expect("numeric sample value");
        assert!(
            series.insert(key.to_string(), value).is_none(),
            "duplicate series {key}"
        );
        let name = key.split('{').next().unwrap();
        if let Some(family) = name.strip_suffix("_bucket") {
            let le = key
                .split("le=\"")
                .nth(1)
                .and_then(|r| r.split('"').next())
                .expect("bucket has an le label");
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().expect("numeric le")
            };
            let e = hist
                .entry(family.to_string())
                .or_insert((f64::NEG_INFINITY, 0.0, None));
            assert!(le > e.0, "le bounds not increasing in {family}");
            assert!(
                value >= e.1,
                "cumulative bucket counts regressed in {family}"
            );
            *e = (le, value, if le.is_infinite() { Some(value) } else { e.2 });
        }
    }
    for (family, (_, _, inf)) in &hist {
        let inf = inf.unwrap_or_else(|| panic!("{family} has no +Inf bucket"));
        let count = series
            .iter()
            .find(|(k, _)| k.split('{').next() == Some(format!("{family}_count").as_str()))
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("{family} has no _count"));
        assert_eq!(inf, count, "+Inf bucket != _count for {family}");
    }
    (series, monotone_families)
}

#[test]
fn exporter_is_scrape_stable_under_churn() {
    let _guard = lock();
    let rects = grid(400);
    let index = Arc::new(
        ConcurrentIndex::with_rects(&rects, IndexOptions::default()).expect("grid is valid"),
    );
    let server = obs::server::start("127.0.0.1:0", 2).expect("bind loopback");
    let addr = server.addr();

    // Warm up every family the churn loop can mint (publish counters,
    // refit spans, query histograms) before the compared scrapes.
    let churn_once = |round: u64| {
        let ids: Vec<u32> = (0..64u32).collect();
        let moved: Vec<Rect<f32, 2>> = ids
            .iter()
            .map(|&i| rects[i as usize].translated(&Point::xy(0.1 * round as f32, 0.1)))
            .collect();
        index.update(&ids, &moved).expect("grid ids are live");
    };
    churn_once(1);
    let h = CountingHandler::new();
    index
        .snapshot()
        .range_query(Predicate::Intersects, &rects[..8], &h);
    http_get(addr, "/metrics");

    // Real churn between and during the compared scrapes.
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let (index, stop, rects) = (Arc::clone(&index), Arc::clone(&stop), rects.clone());
        std::thread::spawn(move || {
            let mut round = 2u64;
            while !stop.load(Ordering::Acquire) {
                let ids: Vec<u32> = (0..64u32).collect();
                let moved: Vec<Rect<f32, 2>> = ids
                    .iter()
                    .map(|&i| rects[i as usize].translated(&Point::xy(0.1 * round as f32, 0.1)))
                    .collect();
                index.update(&ids, &moved).expect("grid ids are live");
                round += 1;
            }
        })
    };

    let (s1, monotone) = parse_prometheus(&http_get(addr, "/metrics"));
    let (s2, _) = parse_prometheus(&http_get(addr, "/metrics"));
    stop.store(true, Ordering::Release);
    writer.join().expect("churn writer panicked");
    server.shutdown();

    let keys1: Vec<&String> = s1.keys().collect();
    let keys2: Vec<&String> = s2.keys().collect();
    assert_eq!(keys1, keys2, "label sets differ between scrapes");
    for (key, v1) in &s1 {
        let name = key.split('{').next().unwrap();
        let family = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_count"))
            .or_else(|| name.strip_suffix("_sum"))
            .unwrap_or(name);
        if monotone.iter().any(|f| f == name || f == family) {
            assert!(
                s2[key] >= *v1,
                "monotone series {key} regressed: {} < {v1}",
                s2[key]
            );
        }
    }
}

#[test]
fn stable_deltas_thread_invariant_with_live_plane_running() {
    let _guard = lock();
    // The whole live plane is up for the duration: sampler ticking,
    // server scrapeable. Everything it derives is Host-class, so the
    // Stable view of the same logical workload must not budge.
    assert!(obs::timeseries::start(Duration::from_millis(10)));
    let server = obs::server::start("127.0.0.1:0", 2).expect("bind loopback");
    let addr = server.addr();

    let rects = grid(600);
    let qs: Vec<Rect<f32, 2>> = rects.iter().take(40).cloned().collect();
    let pts: Vec<Point<f32, 2>> = rects.iter().take(40).map(|r| r.center()).collect();
    let run = || {
        let before = obs::snapshot();
        let index = RTSIndex::with_rects(&rects, IndexOptions::default()).expect("grid is valid");
        let h = CountingHandler::new();
        index.point_query(&pts, &h);
        index.range_query(Predicate::Intersects, &qs, &h);
        index.range_query(Predicate::Contains, &qs, &h);
        obs::snapshot()
            .delta_since(&before)
            .stable_only()
            .to_json(0)
    };

    let base = exec::with_threads(1, run);
    http_get(addr, "/metrics"); // scrapes interleave with the runs
    for n in [4, ncpus()] {
        let other = exec::with_threads(n, run);
        assert_eq!(
            base, other,
            "Stable-class deltas changed at {n} threads with the live plane running"
        );
        http_get(addr, "/metrics.json");
    }

    server.shutdown();
    assert!(obs::timeseries::stop());
}

#[test]
fn flight_recorder_dumps_on_worker_panic() {
    let _guard = lock();
    let path = concat!(env!("CARGO_TARGET_TMPDIR"), "/flight_on_panic.json");
    let _ = std::fs::remove_file(path);
    obs::flight::install_panic_hook(path);

    let worker = std::thread::Builder::new()
        .name("doomed-worker".into())
        .spawn(|| panic!("injected worker failure for the flight recorder"))
        .expect("spawn");
    assert!(worker.join().is_err(), "worker must panic");

    let dump = std::fs::read_to_string(path).expect("panic hook wrote the black box");
    assert!(dump.trim_start().starts_with('{'));
    assert!(dump.contains("\"cause\": \"panic\""));
    assert!(dump.contains("injected worker failure"));
    assert!(dump.contains("\"config_fingerprint\""));
    assert!(dump.contains("\"metrics\""));
    // Structurally parseable: braces/brackets balance outside strings.
    let (mut depth, mut in_str, mut esc) = (0i64, false, false);
    for c in dump.chars() {
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
            '}' | ']' => depth -= 1,
            _ => {}
        }
        assert!(depth >= 0, "unbalanced closers in flight dump");
    }
    assert_eq!(depth, 0, "unbalanced openers in flight dump");
    assert!(!in_str, "unterminated string in flight dump");
}

#[test]
fn health_verdict_follows_slow_query_storm() {
    let _guard = lock();
    const WINDOW: usize = 16;
    let engine = obs::HealthEngine::new(vec![obs::HealthRule::new(
        "query_p99",
        obs::Signal::WindowP99 {
            name: "query.wall_ns".to_string(),
            window: WINDOW,
        },
        250e6,
        obs::Severity::Degrade,
    )]);

    // Quiet window: healthy.
    obs::timeseries::sample_now();
    assert_eq!(engine.evaluate(), obs::Verdict::Healthy);

    // Storm: half-second batches flood the always-on latency feed.
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
    match engine.evaluate() {
        obs::Verdict::Degraded { reasons } => {
            assert!(
                reasons.iter().any(|r| r.contains("query_p99")),
                "degradation must name the tripped rule, got {reasons:?}"
            );
        }
        other => panic!("expected Degraded under the storm, got {other:?}"),
    }

    // Quiet again: enough samples push the storm out of the window and
    // below the hysteresis clear threshold.
    for _ in 0..(WINDOW + 2) {
        obs::timeseries::sample_now();
    }
    assert_eq!(
        engine.evaluate(),
        obs::Verdict::Healthy,
        "verdict must recover once the storm leaves the window"
    );
}
