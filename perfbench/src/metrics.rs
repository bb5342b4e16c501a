//! Metric names, units and the output format.
//!
//! Every run reports every metric of its kind, in the order below, so
//! workloads can be compared column by column. A per-layer metric that
//! does not apply to a workload reads 0 with 0 samples.

use crate::Outcome;

/// End-to-end metrics: what a user of the index sees, reported by the
/// untraced run. Every run reports all of them, so only metrics every
/// workload has are here: `serve-churn`'s write latencies, which the
/// read-only workloads lack, are per-layer `driver.write_*` metrics.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("query_qps", "1/s"),
    ("read_p50_ms", "ms"),
    ("read_tail_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, from the traced run's spans: name, unit, and the
/// end-to-end metric each should move, on which workload. Timings are
/// p50 over the spans of that layer unless the text says otherwise.
pub const PER_LAYER: [(&str, &str, &str); 51] = [
    (
        "intersects.k_prediction_ms",
        "ms",
        "read_p50_ms, query_qps @ range-intersects",
    ),
    (
        "intersects.bvh_build_ms",
        "ms",
        "read_p50_ms, query_qps @ range-intersects; about 0 @ serve-churn (cache hits)",
    ),
    (
        "intersects.forward_ms",
        "ms",
        "read_p50_ms, query_qps @ range-intersects",
    ),
    (
        "intersects.backward_ms",
        "ms",
        "read_p50_ms, query_qps @ range-intersects (about 80 % of a batch)",
    ),
    (
        "intersects.self_ms",
        "ms",
        "read_p50_ms, query_qps @ range-intersects",
    ),
    ("intersects.calls", "count", "samples behind intersects.*"),
    (
        "multicast.chosen_k",
        "k",
        "intersects.backward_ms @ range-intersects (backward rays = live x k)",
    ),
    (
        "point.forward_ms",
        "ms",
        "query_qps, read_p50_ms @ point-contains",
    ),
    (
        "point.self_ms",
        "ms",
        "query_qps, read_p50_ms @ point-contains",
    ),
    ("point.calls", "count", "samples behind point.*"),
    (
        "contains.forward_ms",
        "ms",
        "query_qps, read_p50_ms @ point-contains",
    ),
    (
        "contains.self_ms",
        "ms",
        "query_qps, read_p50_ms @ point-contains",
    ),
    ("contains.calls", "count", "samples behind contains.*"),
    (
        "index3d.point_ms",
        "ms",
        "query_qps, read_p50_ms @ airspace-3d",
    ),
    (
        "index3d.point_calls",
        "count",
        "samples behind index3d.point_ms",
    ),
    (
        "index3d.intersects_launch_ms",
        "ms",
        "query_qps, read_p50_ms @ airspace-3d",
    ),
    (
        "index3d.intersects_build_ms",
        "ms",
        "query_qps, read_p50_ms @ airspace-3d",
    ),
    (
        "index3d.intersects_calls",
        "count",
        "samples behind index3d.intersects_*",
    ),
    ("index3d.build_ns_per_box", "ns", "setup_s @ airspace-3d"),
    (
        "rtcore.rays_per_item",
        "ratio",
        "query_qps @ range-intersects",
    ),
    (
        "rtcore.nodes_per_ray",
        "ratio",
        "query_qps @ range-intersects, point-contains",
    ),
    (
        "rtcore.instance_visits_per_ray",
        "ratio",
        "query_qps @ point-contains",
    ),
    (
        "rtcore.is_calls_per_ray",
        "ratio",
        "query_qps @ range-intersects",
    ),
    (
        "rtcore.is_precision",
        "ratio",
        "query_qps @ range-intersects",
    ),
    (
        "rtcore.max_is_per_thread",
        "count",
        "read_tail_ms @ range-intersects",
    ),
    (
        "rtcore.forward_ns_per_node",
        "ns",
        "query_qps @ point-contains (forward only)",
    ),
    (
        "rtcore.intersects_ns_per_node",
        "ns",
        "query_qps @ range-intersects (forward and backward)",
    ),
    (
        "index.insert_ns_per_rect",
        "ns",
        "setup_s @ range-intersects, point-contains, serve-churn",
    ),
    (
        "index.insert_calls",
        "count",
        "samples behind index.insert_ns_per_rect",
    ),
    (
        "index.bytes_per_rect",
        "B",
        "peak_rss_mib @ the 2-D workloads",
    ),
    (
        "rtcore.gas_cache_hit_rate",
        "ratio",
        "read_p50_ms @ serve-churn; must read 0 @ range-intersects",
    ),
    (
        "exec.busy_ratio",
        "ratio",
        "query_qps @ range-intersects, point-contains, airspace-3d",
    ),
    (
        "exec.steals_per_fanout",
        "ratio",
        "query_qps @ range-intersects, point-contains, airspace-3d",
    ),
    ("index.update_ms", "ms", "driver.write_p50_ms @ serve-churn"),
    (
        "index.update_calls",
        "count",
        "samples behind index.update_ms",
    ),
    ("index.churn_ms", "ms", "driver.write_p50_ms @ serve-churn"),
    (
        "index.churn_calls",
        "count",
        "samples behind index.churn_ms",
    ),
    (
        "concurrent.publish_ms",
        "ms",
        "driver.write_p50_ms @ serve-churn",
    ),
    ("concurrent.snapshot_us", "us", "read_p50_ms @ serve-churn"),
    (
        "concurrent.read_staleness",
        "versions",
        "read_p50_ms @ serve-churn (mean, not p50)",
    ),
    ("concurrent.reads", "count", "samples behind concurrent.*"),
    (
        "maintenance.actions_per_100_writes",
        "count",
        "driver.write_p99_ms @ serve-churn",
    ),
    (
        "maintenance.write_ms",
        "ms",
        "driver.write_p99_ms @ serve-churn",
    ),
    (
        "maintenance.action_writes",
        "count",
        "samples behind maintenance.write_ms",
    ),
    (
        "maintenance.sah_drift_max",
        "ratio",
        "read_p50_ms @ serve-churn",
    ),
    (
        "obs.render_ms",
        "ms",
        "driver.write_p99_ms @ serve-churn (the scrape shares the writer thread)",
    ),
    ("obs.renders", "count", "samples behind obs.render_ms"),
    (
        "driver.write_p50_ms",
        "ms",
        "serve-churn writes, due time to return of the publishing call",
    ),
    (
        "driver.write_p99_ms",
        "ms",
        "serve-churn writes, due time to return of the publishing call",
    ),
    (
        "driver.write_lateness_p99_ms",
        "ms",
        "whether a serve-churn run is valid",
    ),
    (
        "driver.tracing_overhead",
        "ratio",
        "whether the traced run is representative (traced / untraced query_qps)",
    ),
];

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
    /// Samples behind the value (requests, calls or set-ups).
    pub samples: usize,
}

/// A full metric set of one kind, filled in by name.
pub struct MetricSet {
    metrics: Vec<Metric>,
}

impl MetricSet {
    /// All metrics named in `table` at 0 with 0 samples.
    pub fn new(table: impl IntoIterator<Item = (&'static str, &'static str)>) -> Self {
        Self {
            metrics: table
                .into_iter()
                .map(|(name, unit)| Metric {
                    name,
                    unit,
                    value: 0.0,
                    samples: 0,
                })
                .collect(),
        }
    }

    /// Sets metric `name`. Panics on a name outside the table: a typo
    /// would otherwise silently report 0.
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        let m = self
            .metrics
            .iter_mut()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("unknown metric {name}"));
        m.value = value;
        m.samples = samples;
    }

    /// The metrics in table order.
    pub fn into_vec(self) -> Vec<Metric> {
        self.metrics
    }
}

/// The per-layer metrics, each at 0 with 0 samples.
pub fn per_layer() -> MetricSet {
    MetricSet::new(PER_LAYER.iter().map(|&(name, unit, _)| (name, unit)))
}

/// Human-readable table, one metric a line; per-layer lines also say
/// which end-to-end metric the layer should move.
pub fn table(metrics: &[Metric]) -> Vec<String> {
    metrics
        .iter()
        .map(|m| {
            let moves = PER_LAYER.iter().find(|p| p.0 == m.name).map_or("", |p| p.2);
            format!(
                "  {:<36} {:>14.6} {:<8} n={:<6} {moves}",
                m.name, m.value, m.unit, m.samples
            )
            .trim_end()
            .to_string()
        })
        .collect()
}

/// The final output line. Fails on a non-finite value, which JSON cannot
/// carry and which would mean the run measured nothing.
pub fn json_line(outcome: &Outcome) -> Result<String, String> {
    let mut fields = Vec::with_capacity(outcome.metrics.len());
    for m in &outcome.metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite ({})", m.name, m.value));
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.mismatch.is_none(),
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        for n in &names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        names.sort_unstable();
        let len = names.len();
        names.dedup();
        assert_eq!(names.len(), len);
    }

    #[test]
    fn json_rejects_non_finite_values() {
        let outcome = |metrics: MetricSet| Outcome {
            mismatch: None,
            attempted: 3,
            failed: 0,
            metrics: metrics.into_vec(),
            lines: Vec::new(),
        };
        let mut set = MetricSet::new(END_TO_END);
        set.set("setup_s", 0.5, 5);
        let line = json_line(&outcome(set)).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        let mut bad = MetricSet::new(END_TO_END);
        bad.set("query_qps", f64::NAN, 1);
        assert!(json_line(&outcome(bad)).is_err());
    }
}
