//! The benchmark's own tests, at smoke size: every workload emits every
//! metric with its unit, the correctness gate rejects a corrupted
//! checksum, and one seed always does the same work.

use perfbench::metrics::{json_line, END_TO_END, PER_LAYER};
use perfbench::{run, Outcome, RunConfig, Scale, Workload};

fn smoke(
    workload: Workload,
    seed: u64,
    trace: bool,
    corrupt_checksum: bool,
) -> Result<Outcome, String> {
    run(&RunConfig {
        workload,
        seed,
        seconds: 1,
        trace,
        scale: Scale::Smoke,
        corrupt_checksum,
        span_file: None,
    })
}

fn fingerprint(o: &Outcome) -> &str {
    o.lines
        .iter()
        .find(|l| l.starts_with("fingerprint:"))
        .expect("every run prints its work fingerprint")
}

#[test]
fn every_metric_is_emitted_with_its_unit_and_is_finite() {
    for w in Workload::ALL {
        let per_layer: Vec<(&str, &str)> = PER_LAYER.iter().map(|m| (m.0, m.1)).collect();
        for (trace, table) in [(false, END_TO_END.to_vec()), (true, per_layer)] {
            let o = smoke(w, 7, trace, false).unwrap_or_else(|e| panic!("{w} trace={trace}: {e}"));
            assert!(
                o.mismatch.is_none() && o.attempted > 0 && o.failed == 0,
                "{w}"
            );
            let got: Vec<(&str, &str)> = o.metrics.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(got, table, "{w} trace={trace}");
            for m in &o.metrics {
                assert!(m.value.is_finite(), "{w}: {} = {}", m.name, m.value);
            }
            if !trace {
                for m in &o.metrics {
                    assert!(m.value > 0.0, "{w}: end-to-end metric {} is 0", m.name);
                }
            }
            let line = json_line(&o).unwrap();
            assert!(line.starts_with("{\"correct\": true"), "{line}");
        }
    }
}

#[test]
fn correctness_gate_rejects_a_corrupted_checksum() {
    for w in Workload::ALL {
        let o = smoke(w, 3, false, true).unwrap();
        let err = o
            .mismatch
            .as_deref()
            .unwrap_or_else(|| panic!("{w}: corrupted run passed"));
        assert!(err.contains("correctness gate"), "{w}: {err}");
        assert!(
            json_line(&o).unwrap().starts_with("{\"correct\": false"),
            "{w}"
        );
    }
}

#[test]
fn refuses_to_run_under_a_variable_that_changes_the_program() {
    for var in perfbench::check::FORBIDDEN_ENV {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args([
                "--workload",
                "range-intersects",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "0",
            ])
            .env(var, "1")
            .output()
            .expect("the benchmark binary runs");
        assert!(!out.status.success(), "{var}");
        assert!(out.stdout.is_empty(), "{var}: printed a result");
        assert!(String::from_utf8_lossy(&out.stderr).contains(var), "{var}");
    }
}

#[test]
fn benchmark_json_lists_every_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let names = END_TO_END
        .iter()
        .copied()
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)));
    for (name, unit) in names {
        let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
        assert!(
            json.contains(&entry),
            "BENCHMARK.json lacks {name} ({unit})"
        );
    }
    for w in Workload::ALL {
        assert!(
            json.contains(&format!("\"name\": \"{w}\"")),
            "BENCHMARK.json lacks workload {w}"
        );
    }
}

#[test]
fn work_fingerprint_repeats_for_one_seed() {
    for w in Workload::ALL {
        let a = smoke(w, 5, false, false).unwrap();
        let b = smoke(w, 5, false, false).unwrap();
        assert_eq!(fingerprint(&a), fingerprint(&b), "{w}");
        let other = smoke(w, 6, false, false).unwrap();
        assert_ne!(
            fingerprint(&a),
            fingerprint(&other),
            "{w}: the seed must change the inputs"
        );
    }
}
