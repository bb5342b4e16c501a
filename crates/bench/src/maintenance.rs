//! Maintenance study: query quality over churn, policy on vs off.
//!
//! The ISSUE-8 `"maintenance"` section of `BENCH_perf.json`: two
//! [`librts::ConcurrentIndex`] twins replay the same deterministic
//! churn stream (scatter updates + deletes + inserts), one with the
//! automatic [`librts::MaintenancePolicy`] driver installed and one
//! without. After every mutation round both sides run the same fixed
//! Range-Intersects probe batch and record its **modeled device time**
//! — the deterministic cost-model signal, chosen over wall clock so
//! the CI gate (`trace_check --check-maintenance`) never flakes on a
//! loaded runner. Refit-degraded BVHs do more traversal work (§6.7),
//! so the policy-off side's per-round device time drifts upward while
//! the maintained side stays flat; the gate pins exactly that, plus
//! the policy-on side ending within the policy's quality thresholds.
//!
//! Result counts are asserted identical between the sides every round
//! — maintenance must never change what a query answers.

use std::time::Duration;

use geom::Rect;
use librts::{ConcurrentIndex, CountingHandler, IndexOptions, MaintenancePolicy, Predicate};

use crate::config::EvalConfig;

/// Churn rounds per side.
pub const MAINTENANCE_ROUNDS: usize = 12;

/// One side of the study (policy on or off).
#[derive(Clone, Debug)]
pub struct MaintenanceSide {
    /// `"on"` or `"off"`.
    pub policy: &'static str,
    /// Modeled device time of the probe batch after each round.
    pub device_per_round: Vec<Duration>,
    /// p99 (here: max, the batches are few and deterministic) of
    /// `device_per_round`.
    pub device_p99: Duration,
    /// Mean of `device_per_round`.
    pub device_mean: Duration,
    /// Worst per-GAS SAH drift ratio at the end of the run.
    pub final_sah_drift: f64,
    /// Worst per-GAS sibling-overlap drift at the end of the run.
    pub final_overlap_drift: f64,
    /// Dead-slot fraction at the end of the run.
    pub final_dead_fraction: f64,
    /// Version the index ended at (the on-side exceeds the off-side by
    /// its auto-published maintenance versions).
    pub final_version: u64,
}

impl MaintenanceSide {
    /// Flat one-line JSON object (single line so `trace_check` can
    /// scan each side's own line for its fields).
    pub fn to_json(&self) -> String {
        let ns = |d: Duration| d.as_nanos().min(u64::MAX as u128);
        let rounds = self
            .device_per_round
            .iter()
            .map(|d| ns(*d).to_string())
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"policy\": \"{}\", \"device_p99_ns\": {}, \"device_mean_ns\": {}, \
             \"device_per_round_ns\": [{}], \"final_sah_drift\": {:.6}, \
             \"final_overlap_drift\": {:.6}, \"final_dead_fraction\": {:.6}, \
             \"final_version\": {}}}",
            self.policy,
            ns(self.device_p99),
            ns(self.device_mean),
            rounds,
            self.final_sah_drift,
            self.final_overlap_drift,
            self.final_dead_fraction,
            self.final_version,
        )
    }
}

/// The `"maintenance"` record: both sides plus the thresholds the CI
/// gate checks the on-side against.
#[derive(Clone, Debug)]
pub struct MaintenanceRecord {
    /// Indexed rectangles at the start.
    pub rects: usize,
    /// Probe queries per round.
    pub queries: usize,
    /// Churn rounds.
    pub rounds: usize,
    /// Result pairs of the final probe batch (identical between sides).
    pub results: u64,
    /// Policy threshold: max SAH drift ratio.
    pub max_sah_drift: f64,
    /// Policy threshold: max sibling-overlap drift.
    pub max_overlap_drift: f64,
    /// Policy-driven side.
    pub on: MaintenanceSide,
    /// Unmaintained twin.
    pub off: MaintenanceSide,
}

/// The study's policy: tight thresholds and an uncapped budget so the
/// churn reliably crosses them — the study demonstrates the mechanism,
/// not production tuning.
pub fn study_policy() -> MaintenancePolicy {
    MaintenancePolicy {
        max_sah_drift: 1.1,
        max_overlap_drift: 0.1,
        max_dead_fraction: 0.3,
        target_batch_size: 512,
        ..MaintenancePolicy::eager()
    }
}

fn seed_rects(n: usize) -> Vec<Rect<f32, 2>> {
    let cols = (n as f64).sqrt().ceil() as usize;
    (0..n)
        .map(|i| {
            let x = (i % cols) as f32 * (1000.0 / cols as f32);
            let y = (i / cols) as f32 * (1000.0 / cols as f32);
            Rect::xyxy(x, y, x + 600.0 / cols as f32, y + 600.0 / cols as f32)
        })
        .collect()
}

fn probe_queries(n: usize, seed: u64) -> Vec<Rect<f32, 2>> {
    (0..n)
        .map(|i| {
            let k = (i as u64)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(seed)
                >> 33;
            let x = (k % 950) as f32;
            let y = ((k / 7) % 950) as f32;
            Rect::xyxy(x, y, x + 40.0, y + 40.0)
        })
        .collect()
}

/// Runs one side of the churn study. The mutation stream is a pure
/// function of `(round, live ids)`, so both sides see identical
/// batches.
fn run_side(
    index: &ConcurrentIndex<f32>,
    rounds: usize,
    queries: &[Rect<f32, 2>],
    policy: &MaintenancePolicy,
    label: &'static str,
) -> (MaintenanceSide, u64) {
    let mut device_per_round = Vec::with_capacity(rounds);
    let mut results = 0u64;
    for round in 0..rounds {
        let snap = index.snapshot();
        let capacity = snap.capacity_ids() as u32;
        let live: Vec<u32> = (0..capacity).filter(|&id| snap.get(id).is_some()).collect();
        drop(snap);
        let update_ids: Vec<u32> = live.iter().copied().step_by(3).collect();
        let update_rects: Vec<Rect<f32, 2>> = update_ids
            .iter()
            .map(|&id| {
                let k = (id as usize)
                    .wrapping_mul(2654435761)
                    .wrapping_add(round * 97)
                    % 990;
                let x = k as f32;
                let y = ((k * 13) % 990) as f32;
                Rect::xyxy(x, y, x + 3.0, y + 3.0)
            })
            .collect();
        index
            .update(&update_ids, &update_rects)
            .expect("study ids are live");
        let delete_ids: Vec<u32> = live.iter().copied().skip(1).step_by(19).take(16).collect();
        index.delete(&delete_ids).expect("study ids are live");
        let insert_rects: Vec<Rect<f32, 2>> = (0..10)
            .map(|i| {
                let k = (round * 37 + i * 11) % 980;
                let x = k as f32;
                Rect::xyxy(x, 980.0 - x, x + 6.0, 986.0 - x)
            })
            .collect();
        index.insert(&insert_rects).expect("valid rects");

        let h = CountingHandler::new();
        let report = index
            .snapshot()
            .range_query(Predicate::Intersects, queries, &h);
        device_per_round.push(report.device_time());
        results = h.count();
    }
    let device_p99 = device_per_round.iter().copied().max().unwrap_or_default();
    let device_mean = device_per_round
        .iter()
        .sum::<Duration>()
        .checked_div(device_per_round.len().max(1) as u32)
        .unwrap_or_default();
    let report = index.snapshot().maintenance_report(policy);
    // Drift over the GASes the policy governs (>= min_gas_prims) — the
    // same filter as `MaintenanceReport::within_thresholds`; tiny
    // insert-batch GASes are deliberately outside the policy's remit.
    let (mut sah, mut overlap) = (1.0f64, 0.0f64);
    for g in report
        .gases
        .iter()
        .filter(|g| g.prims >= policy.min_gas_prims)
    {
        sah = sah.max(g.sah_drift);
        overlap = overlap.max(g.overlap_drift);
    }
    (
        MaintenanceSide {
            policy: label,
            device_per_round,
            device_p99,
            device_mean,
            final_sah_drift: sah,
            final_overlap_drift: overlap,
            final_dead_fraction: report.dead_fraction,
            final_version: index.version(),
        },
        results,
    )
}

/// Runs the maintenance churn study (see the [module docs](self)).
pub fn run_maintenance_study(cfg: &EvalConfig) -> MaintenanceRecord {
    let rects = seed_rects((40_000 / cfg.scale.max(1)).max(600));
    let queries = probe_queries(cfg.queries(2_000), cfg.seed + 13);
    let policy = study_policy();

    let on = ConcurrentIndex::with_rects(&rects, IndexOptions::default())
        .expect("generated data is valid")
        .with_policy(policy.clone());
    let off = ConcurrentIndex::with_rects(&rects, IndexOptions::default())
        .expect("generated data is valid");

    let (side_on, results_on) = run_side(&on, MAINTENANCE_ROUNDS, &queries, &policy, "on");
    let (side_off, results_off) = run_side(&off, MAINTENANCE_ROUNDS, &queries, &policy, "off");
    assert_eq!(
        results_on, results_off,
        "maintenance must never change query results"
    );

    MaintenanceRecord {
        rects: rects.len(),
        queries: queries.len(),
        rounds: MAINTENANCE_ROUNDS,
        results: results_on,
        max_sah_drift: policy.max_sah_drift,
        max_overlap_drift: policy.max_overlap_drift,
        on: side_on,
        off: side_off,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn study_runs_and_policy_keeps_quality() {
        let cfg = EvalConfig::smoke();
        let r = run_maintenance_study(&cfg);
        assert_eq!(r.on.device_per_round.len(), r.rounds);
        assert!(
            r.on.final_sah_drift <= r.max_sah_drift
                && r.on.final_overlap_drift <= r.max_overlap_drift,
            "policy-on side must end within thresholds (sah {}, overlap {})",
            r.on.final_sah_drift,
            r.on.final_overlap_drift
        );
        assert!(
            r.off.final_sah_drift > r.max_sah_drift
                || r.off.final_overlap_drift > r.max_overlap_drift
                || r.off.final_dead_fraction > 0.3,
            "policy-off side must visibly degrade"
        );
        assert!(
            r.on.final_version > r.off.final_version,
            "maintenance publishes extra versions"
        );
        let json = r.on.to_json();
        assert!(json.contains("\"policy\": \"on\""));
        assert!(!json.contains('\n'), "sides must serialize on one line");
    }
}
