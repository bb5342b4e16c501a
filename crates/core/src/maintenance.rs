//! Quality-driven index maintenance (§6.7 made actionable).
//!
//! The paper observes that refit-updated BVHs degrade when data moves
//! (§6.7) and prescribes rebuild as the recovery path (§4.2) — but
//! leaves *when* to rebuild to the user. This module closes the loop:
//! a [`MaintenancePolicy`] watches the per-GAS [`QualityReport`] drift
//! against the fresh-build baseline (tracked by `rtcore::Gas` itself),
//! the dead-slot fraction, and the batch count, and after each mutation
//! batch decides per GAS between *no-op*, *refit*, *per-GAS rebuild*,
//! or a *whole-index repack* — LSM-style background compaction driven
//! by a degradation signal instead of a user call.
//!
//! # Decision table
//!
//! | Signal | Trigger | Action |
//! |---|---|---|
//! | dead-slot fraction > `max_dead_fraction`, or batches > `max_batches` | whole index | **Compact**: id-stable repack into `target_batch_size` batches |
//! | `sah_cost` > baseline × `max_sah_drift`, or `sibling_overlap` − baseline > `max_overlap_drift` | per GAS | **Rebuild** that GAS (resets its baseline) |
//! | threshold exceeded but the rebuild is unaffordable | per GAS | **Refit**: re-tighten bounds from the authoritative cache (bounded stopgap; drift stays flagged) |
//! | otherwise | — | **NoOp** |
//!
//! # Cost-model amortization
//!
//! Every decision is budgeted in *modeled device time* (the same
//! deterministic [`rtcore::CostModel`] mutations report): mutations
//! accrue credit, maintenance spends it, and an action only runs when
//! `amortize_factor × accrued − spent` covers its modeled cost. This
//! bounds maintenance work to a constant factor of mutation work — and,
//! because no wall clock is involved, the decision sequence is
//! byte-identical at any `LIBRTS_THREADS` (the Stable counters below
//! are pinned by the conformance maintenance tier).
//!
//! # Observability
//!
//! Stable counters `maintenance.checks` / `.noops` / `.refits` /
//! `.rebuilds` / `.compacts` / `.deferred` count decisions taken; Host
//! gauges `maintenance.worst_sah_drift_milli` /
//! `.worst_overlap_drift_milli` / `.dead_fraction_milli` expose the
//! current quality (×1000).

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use geom::Coord;
use rtcore::{Gas, Ias, QualityReport, TraversalBackend};

use crate::index::{lift, RTSIndex};
use crate::index3d::RTSIndex3;

// ---------------------------------------------------------------------------
// Metric handles (process-global, cached)
// ---------------------------------------------------------------------------

fn m_checks() -> &'static Arc<obs::Counter> {
    static M: OnceLock<Arc<obs::Counter>> = OnceLock::new();
    M.get_or_init(|| obs::counter("maintenance.checks"))
}

fn m_noops() -> &'static Arc<obs::Counter> {
    static M: OnceLock<Arc<obs::Counter>> = OnceLock::new();
    M.get_or_init(|| obs::counter("maintenance.noops"))
}

fn m_refits() -> &'static Arc<obs::Counter> {
    static M: OnceLock<Arc<obs::Counter>> = OnceLock::new();
    M.get_or_init(|| obs::counter("maintenance.refits"))
}

fn m_rebuilds() -> &'static Arc<obs::Counter> {
    static M: OnceLock<Arc<obs::Counter>> = OnceLock::new();
    M.get_or_init(|| obs::counter("maintenance.rebuilds"))
}

fn m_compacts() -> &'static Arc<obs::Counter> {
    static M: OnceLock<Arc<obs::Counter>> = OnceLock::new();
    M.get_or_init(|| obs::counter("maintenance.compacts"))
}

fn m_deferred() -> &'static Arc<obs::Counter> {
    static M: OnceLock<Arc<obs::Counter>> = OnceLock::new();
    M.get_or_init(|| obs::counter("maintenance.deferred"))
}

fn g_sah() -> &'static Arc<obs::Gauge> {
    static M: OnceLock<Arc<obs::Gauge>> = OnceLock::new();
    M.get_or_init(|| obs::gauge("maintenance.worst_sah_drift_milli"))
}

fn g_overlap() -> &'static Arc<obs::Gauge> {
    static M: OnceLock<Arc<obs::Gauge>> = OnceLock::new();
    M.get_or_init(|| obs::gauge("maintenance.worst_overlap_drift_milli"))
}

fn g_dead() -> &'static Arc<obs::Gauge> {
    static M: OnceLock<Arc<obs::Gauge>> = OnceLock::new();
    M.get_or_init(|| obs::gauge("maintenance.dead_fraction_milli"))
}

// ---------------------------------------------------------------------------
// Policy
// ---------------------------------------------------------------------------

/// Thresholds and budgets driving automatic maintenance.
#[derive(Clone, Debug)]
pub struct MaintenancePolicy {
    /// A GAS is rebuilt when its `sah_cost` exceeds the fresh-build
    /// baseline by this *multiplicative* factor.
    pub max_sah_drift: f64,
    /// ... or when its `sibling_overlap` exceeds the baseline by this
    /// *absolute* amount (the §6.7 refit-degradation signal; 0 for
    /// disjoint siblings).
    pub max_overlap_drift: f64,
    /// Whole-index repack when the dead-slot fraction (deleted ids /
    /// capacity) exceeds this.
    pub max_dead_fraction: f64,
    /// Whole-index repack when insert batches have fragmented the IAS
    /// past this many GASes.
    pub max_batches: usize,
    /// Batch size the repack re-splits the id space into.
    pub target_batch_size: usize,
    /// GASes smaller than this are never individually rebuilt — the
    /// fixed build cost dwarfs any traversal saving.
    pub min_gas_prims: usize,
    /// Maintenance may spend at most `amortize_factor ×` the modeled
    /// device time mutations have accrued (minus what maintenance
    /// already spent). `f64::INFINITY` disables the budget gate.
    pub amortize_factor: f64,
    /// When `false`, structural work — per-GAS rebuilds and whole-index
    /// repacks — is disabled and drifted GASes are only ever refit (the
    /// bounded stopgap). This is the degraded-serving-mode clamp (see
    /// [`MaintenancePolicy::refit_only`]): under pressure, maintenance
    /// keeps bounds tight without spending rebuild-sized device time.
    pub allow_structural: bool,
}

impl Default for MaintenancePolicy {
    fn default() -> Self {
        Self {
            max_sah_drift: 1.5,
            max_overlap_drift: 0.5,
            max_dead_fraction: 0.4,
            max_batches: 64,
            target_batch_size: 4096,
            min_gas_prims: 32,
            amortize_factor: 4.0,
            allow_structural: true,
        }
    }
}

impl MaintenancePolicy {
    /// A policy with the amortization gate disabled: every triggered
    /// action runs immediately. Useful in tests and offline compaction.
    pub fn eager() -> Self {
        Self {
            amortize_factor: f64::INFINITY,
            ..Default::default()
        }
    }

    /// This policy with structural work disabled — what the concurrent
    /// maintenance drivers apply while the process is serving in
    /// [`Degraded`](obs::health::ServingMode::Degraded) mode.
    pub fn refit_only(&self) -> Self {
        Self {
            allow_structural: false,
            ..self.clone()
        }
    }
}

// ---------------------------------------------------------------------------
// Amortization ledger
// ---------------------------------------------------------------------------

/// Modeled device time accrued by mutations vs spent by maintenance —
/// the amortization ledger carried inside each index. Both sides are
/// deterministic cost-model nanoseconds, never wall clock.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MaintenanceCredit {
    /// Nanoseconds of modeled mutation device time accrued.
    pub accrued_ns: f64,
    /// Nanoseconds of modeled maintenance device time spent.
    pub spent_ns: f64,
}

impl MaintenanceCredit {
    pub(crate) fn accrue(&mut self, d: Duration) {
        self.accrued_ns += d.as_nanos() as f64;
    }

    pub(crate) fn spend(&mut self, d: Duration) {
        self.spent_ns += d.as_nanos() as f64;
    }

    /// Remaining budget under the given factor (∞ disables the gate).
    pub fn budget_ns(&self, amortize_factor: f64) -> f64 {
        if !amortize_factor.is_finite() {
            return f64::INFINITY;
        }
        (amortize_factor * self.accrued_ns - self.spent_ns).max(0.0)
    }
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

/// What the policy decided (or would decide) for one GAS / the index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MaintenanceAction {
    /// Quality within thresholds — nothing to do.
    NoOp,
    /// Re-tighten bounds from the authoritative cache; degradation
    /// stays flagged (bounded stopgap when a rebuild is unaffordable).
    Refit,
    /// Rebuild the GAS from its current primitives (resets baseline).
    Rebuild,
    /// Id-stable whole-index repack into `target_batch_size` batches.
    Compact,
}

/// Quality drift of one GAS relative to its fresh-build baseline.
#[derive(Clone, Copy, Debug)]
pub struct GasDrift {
    /// Batch index.
    pub batch: usize,
    /// Primitives in the GAS.
    pub prims: usize,
    /// Quality at the last full build.
    pub baseline: QualityReport,
    /// Quality now (refreshed on every refit).
    pub current: QualityReport,
    /// `current.sah_cost / baseline.sah_cost` (1.0 when the baseline is
    /// degenerate).
    pub sah_drift: f64,
    /// `current.sibling_overlap − baseline.sibling_overlap`.
    pub overlap_drift: f64,
    /// What the thresholds alone would pick for this GAS (ignoring the
    /// amortization budget).
    pub wanted: MaintenanceAction,
}

impl GasDrift {
    fn measure(
        batch: usize,
        prims: usize,
        baseline: QualityReport,
        current: QualityReport,
    ) -> Self {
        let sah_drift = if baseline.sah_cost > 0.0 {
            current.sah_cost / baseline.sah_cost
        } else {
            1.0
        };
        Self {
            batch,
            prims,
            baseline,
            current,
            sah_drift,
            overlap_drift: current.sibling_overlap - baseline.sibling_overlap,
            wanted: MaintenanceAction::NoOp,
        }
    }

    /// `true` when either quality threshold is exceeded.
    pub fn exceeds(&self, policy: &MaintenancePolicy) -> bool {
        self.sah_drift > policy.max_sah_drift || self.overlap_drift > policy.max_overlap_drift
    }
}

/// A read-only view of what maintenance sees: per-GAS drift, index-wide
/// fragmentation, and the amortization ledger.
#[derive(Clone, Debug)]
pub struct MaintenanceReport {
    /// Per-GAS drift, in batch order.
    pub gases: Vec<GasDrift>,
    /// Number of GASes linked by the IAS.
    pub batches: usize,
    /// Deleted ids / capacity (0 for an empty index).
    pub dead_fraction: f64,
    /// The amortization ledger.
    pub credit: MaintenanceCredit,
    /// Budget currently available under the policy's factor.
    pub budget_ns: f64,
    /// The index-level decision the thresholds alone would pick.
    pub wanted: MaintenanceAction,
}

impl MaintenanceReport {
    /// Worst per-GAS SAH drift ratio (1.0 for an empty index).
    pub fn worst_sah_drift(&self) -> f64 {
        self.gases.iter().map(|g| g.sah_drift).fold(1.0, f64::max)
    }

    /// Worst per-GAS sibling-overlap drift (0.0 for an empty index).
    pub fn worst_overlap_drift(&self) -> f64 {
        self.gases
            .iter()
            .map(|g| g.overlap_drift)
            .fold(0.0, f64::max)
    }

    /// `true` when every GAS (of qualifying size) is within both
    /// quality thresholds — the post-maintenance invariant the
    /// conformance tier pins.
    pub fn within_thresholds(&self, policy: &MaintenancePolicy) -> bool {
        self.gases
            .iter()
            .filter(|g| g.prims >= policy.min_gas_prims)
            .all(|g| !g.exceeds(policy))
    }
}

/// What one [`RTSIndex::maintain`] call actually did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MaintenanceOutcome {
    /// GASes refit (bounded stopgap).
    pub refits: usize,
    /// GASes rebuilt.
    pub rebuilds: usize,
    /// Whether the whole index was repacked.
    pub compacted: bool,
    /// Actions wanted by the thresholds but deferred by the budget.
    pub deferred: usize,
    /// Modeled device time of everything done.
    pub device_time: Duration,
}

impl MaintenanceOutcome {
    /// `true` when any structural work ran (a publishable change).
    pub fn acted(&self) -> bool {
        self.refits > 0 || self.rebuilds > 0 || self.compacted
    }
}

fn publish_gauges(worst_sah: f64, worst_overlap: f64, dead: f64) {
    g_sah().set((worst_sah * 1000.0) as i64);
    g_overlap().set((worst_overlap * 1000.0) as i64);
    g_dead().set((dead * 1000.0) as i64);
}

// ---------------------------------------------------------------------------
// 2-D engine
// ---------------------------------------------------------------------------

impl<C: Coord> RTSIndex<C> {
    /// Measures quality drift, fragmentation, and the amortization
    /// ledger without mutating anything.
    pub fn maintenance_report(&self, policy: &MaintenancePolicy) -> MaintenanceReport {
        let mut gases = Vec::with_capacity(self.gases.len());
        for (b, gas) in self.gases.iter().enumerate() {
            let mut d = GasDrift::measure(b, gas.len(), gas.quality_baseline(), gas.quality());
            if d.prims >= policy.min_gas_prims && d.exceeds(policy) {
                d.wanted = MaintenanceAction::Rebuild;
            }
            gases.push(d);
        }
        let dead_fraction = if self.rects.is_empty() {
            0.0
        } else {
            (self.rects.len() - self.live) as f64 / self.rects.len() as f64
        };
        let wanted =
            if dead_fraction > policy.max_dead_fraction || self.gases.len() > policy.max_batches {
                MaintenanceAction::Compact
            } else if gases.iter().any(|g| g.wanted != MaintenanceAction::NoOp) {
                MaintenanceAction::Rebuild
            } else {
                MaintenanceAction::NoOp
            };
        MaintenanceReport {
            gases,
            batches: self.gases.len(),
            dead_fraction,
            credit: self.maint,
            budget_ns: self.maint.budget_ns(policy.amortize_factor),
            wanted,
        }
    }

    /// Runs one maintenance pass under `policy`: decides per GAS
    /// between no-op, refit, rebuild, or an id-stable whole-index
    /// repack (see the [module docs](self)), bounded by the cost-model
    /// amortization budget. Deterministic: decisions depend only on
    /// modeled costs and BVH quality, never on wall clock, so the
    /// sequence of actions is byte-identical at any `LIBRTS_THREADS`.
    ///
    /// All actions preserve ids and results exactly — queries against
    /// the maintained index return byte-identical pairs.
    pub fn maintain(&mut self, policy: &MaintenancePolicy) -> MaintenanceOutcome {
        let span = obs::span!("index.maintain");
        m_checks().inc();
        let mut outcome = MaintenanceOutcome::default();
        if self.rects.is_empty() {
            m_noops().inc();
            return outcome;
        }
        let model = self.device.cost_model;
        let mut budget = self.maint.budget_ns(policy.amortize_factor);
        let dead_fraction = (self.rects.len() - self.live) as f64 / self.rects.len() as f64;

        // Whole-index repack: resolves fragmentation (batch count) and
        // dead slots in one pass and resets every baseline. Id-stable —
        // unlike the explicit `compact()`, deleted slots keep riding
        // along degenerated, so automatic maintenance never remaps ids
        // under a serving workload.
        let target = policy.target_batch_size.max(1);
        if policy.allow_structural
            && (dead_fraction > policy.max_dead_fraction || self.gases.len() > policy.max_batches)
        {
            let cost = model.build_time(self.rects.len(), TraversalBackend::RtCore)
                + model.ias_build_time(self.rects.len().div_ceil(target));
            let cost_ns = cost.as_nanos() as f64;
            if cost_ns <= budget {
                self.rebuild_batches(target);
                self.maint.spend(cost);
                budget -= cost_ns;
                outcome.compacted = true;
                outcome.device_time += cost;
                m_compacts().inc();
            } else {
                outcome.deferred += 1;
                m_deferred().inc();
            }
        }

        if !outcome.compacted {
            // Per-GAS decisions, planned first (reading), then executed.
            let mut plan: Vec<(usize, MaintenanceAction, Duration)> = Vec::new();
            for (b, gas) in self.gases.iter().enumerate() {
                if gas.len() < policy.min_gas_prims {
                    continue;
                }
                let drift = GasDrift::measure(b, gas.len(), gas.quality_baseline(), gas.quality());
                if !drift.exceeds(policy) {
                    continue;
                }
                if policy.allow_structural {
                    let rebuild = model.build_time(gas.len(), TraversalBackend::RtCore);
                    if rebuild.as_nanos() as f64 <= budget {
                        budget -= rebuild.as_nanos() as f64;
                        plan.push((b, MaintenanceAction::Rebuild, rebuild));
                        continue;
                    }
                }
                let refit = model.refit_time(gas.len());
                if refit.as_nanos() as f64 <= budget {
                    budget -= refit.as_nanos() as f64;
                    plan.push((b, MaintenanceAction::Refit, refit));
                } else {
                    outcome.deferred += 1;
                    m_deferred().inc();
                }
            }
            if !plan.is_empty() {
                // Drop the IAS's Arcs so a GAS no snapshot holds is
                // rebuilt or refit in place.
                self.ias = Ias::build(&[]).expect("empty IAS");
                for &(b, action, cost) in &plan {
                    match action {
                        MaintenanceAction::Rebuild => {
                            Gas::rebuild_shared(&mut self.gases[b]);
                            outcome.rebuilds += 1;
                            m_rebuilds().inc();
                        }
                        MaintenanceAction::Refit => {
                            let lo = self.batch_offsets[b] as usize;
                            let hi = self.batch_offsets[b + 1] as usize;
                            let fresh: Vec<_> = self.rects[lo..hi].iter().map(lift).collect();
                            Gas::refit_shared(&mut self.gases[b], fresh)
                                .expect("cached rectangles are always finite");
                            outcome.refits += 1;
                            m_refits().inc();
                        }
                        _ => unreachable!("plan holds only refit/rebuild"),
                    }
                    self.maint.spend(cost);
                    outcome.device_time += cost;
                }
                let ias_cost = model.ias_build_time(self.gases.len());
                self.maint.spend(ias_cost);
                outcome.device_time += ias_cost;
                self.rebuild_ias();
            }
        }

        if !outcome.acted() {
            m_noops().inc();
        }
        let (mut worst_sah, mut worst_overlap) = (1.0f64, 0.0f64);
        for gas in &self.gases {
            let d = GasDrift::measure(0, gas.len(), gas.quality_baseline(), gas.quality());
            worst_sah = worst_sah.max(d.sah_drift);
            worst_overlap = worst_overlap.max(d.overlap_drift);
        }
        let dead_after = if self.rects.is_empty() {
            0.0
        } else {
            (self.rects.len() - self.live) as f64 / self.rects.len() as f64
        };
        publish_gauges(worst_sah, worst_overlap, dead_after);
        span.device(outcome.device_time);
        outcome
    }
}

// ---------------------------------------------------------------------------
// 3-D engine
// ---------------------------------------------------------------------------

impl<C: Coord> RTSIndex3<C> {
    /// Measures quality drift and the dead-slot fraction of the single
    /// data GAS (see [`RTSIndex::maintenance_report`]).
    pub fn maintenance_report(&self, policy: &MaintenancePolicy) -> MaintenanceReport {
        let mut d = GasDrift::measure(
            0,
            self.gas.len(),
            self.gas.quality_baseline(),
            self.gas.quality(),
        );
        let dead_fraction = if self.boxes.is_empty() {
            0.0
        } else {
            (self.boxes.len() - self.live) as f64 / self.boxes.len() as f64
        };
        // A single GAS has no instancing to repack: the id-stable
        // recovery for dead slots and drift alike is a rebuild (the
        // degenerate primitives re-cluster into dense leaves). The
        // explicit, id-remapping `compact()` stays a user call.
        if (d.prims >= policy.min_gas_prims && d.exceeds(policy))
            || dead_fraction > policy.max_dead_fraction
        {
            d.wanted = MaintenanceAction::Rebuild;
        }
        let wanted = d.wanted;
        MaintenanceReport {
            gases: vec![d],
            batches: 1,
            dead_fraction,
            credit: self.maint,
            budget_ns: self.maint.budget_ns(policy.amortize_factor),
            wanted,
        }
    }

    /// Runs one maintenance pass on the single data GAS: rebuild when
    /// quality drift or the dead-slot fraction exceeds the policy (and
    /// the budget affords it), refit as the bounded stopgap. Id-stable,
    /// deterministic — same contract as [`RTSIndex::maintain`].
    pub fn maintain(&mut self, policy: &MaintenancePolicy) -> MaintenanceOutcome {
        let span = obs::span!("index3.maintain");
        m_checks().inc();
        let mut outcome = MaintenanceOutcome::default();
        if self.boxes.is_empty() {
            m_noops().inc();
            return outcome;
        }
        let model = self.device.cost_model;
        let budget = self.maint.budget_ns(policy.amortize_factor);
        let report = self.maintenance_report(policy);
        if report.wanted == MaintenanceAction::Rebuild {
            let rebuild = model.build_time(self.gas.len(), TraversalBackend::RtCore);
            let refit = model.refit_time(self.gas.len());
            if policy.allow_structural && rebuild.as_nanos() as f64 <= budget {
                Gas::rebuild_shared(&mut self.gas);
                self.maint.spend(rebuild);
                outcome.rebuilds = 1;
                outcome.device_time += rebuild;
                m_rebuilds().inc();
            } else if refit.as_nanos() as f64 <= budget {
                let boxes = self.gas.aabbs().to_vec();
                Gas::refit_shared(&mut self.gas, boxes)
                    .expect("re-tightening existing finite boxes");
                self.maint.spend(refit);
                outcome.refits = 1;
                outcome.device_time += refit;
                m_refits().inc();
            } else {
                outcome.deferred = 1;
                m_deferred().inc();
            }
        }
        if !outcome.acted() {
            m_noops().inc();
        }
        let d = GasDrift::measure(
            0,
            self.gas.len(),
            self.gas.quality_baseline(),
            self.gas.quality(),
        );
        publish_gauges(d.sah_drift.max(1.0), d.overlap_drift.max(0.0), {
            if self.boxes.is_empty() {
                0.0
            } else {
                (self.boxes.len() - self.live) as f64 / self.boxes.len() as f64
            }
        });
        span.device(outcome.device_time);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IndexOptions;
    use geom::{Point, Rect};

    fn r(a: f32, b: f32, c: f32, d: f32) -> Rect<f32, 2> {
        Rect::xyxy(a, b, c, d)
    }

    fn grid(n: usize) -> Vec<Rect<f32, 2>> {
        (0..n)
            .map(|i| {
                let x = (i % 32) as f32 * 2.0;
                let y = (i / 32) as f32 * 2.0;
                r(x, y, x + 1.0, y + 1.0)
            })
            .collect()
    }

    /// Scatter a subset of ids far away — the §6.7 degradation driver.
    fn scatter(index: &mut RTSIndex<f32>, n: usize, round: usize) {
        let ids: Vec<u32> = (0..n as u32).step_by(3).collect();
        let rects: Vec<Rect<f32, 2>> = ids
            .iter()
            .map(|&id| {
                let k = (id as usize * 37 + round * 101) % 1000;
                let x = k as f32 * 11.0;
                let y = ((k * 7) % 900) as f32 * 5.0;
                r(x, y, x + 1.0, y + 1.0)
            })
            .collect();
        index.update(&ids, &rects).unwrap();
    }

    #[test]
    fn drift_triggers_rebuild_and_resets_baseline() {
        let mut index = RTSIndex::with_rects(&grid(512), IndexOptions::default()).unwrap();
        let policy = MaintenancePolicy::eager();
        assert!(index.maintenance_report(&policy).within_thresholds(&policy));
        assert_eq!(index.maintain(&policy), MaintenanceOutcome::default());

        for round in 0..4 {
            scatter(&mut index, 512, round);
        }
        let report = index.maintenance_report(&policy);
        assert!(
            !report.within_thresholds(&policy),
            "scatter must push drift past thresholds (sah {}, overlap {})",
            report.worst_sah_drift(),
            report.worst_overlap_drift()
        );

        let before = index.collect_range_query(
            crate::config::Predicate::Intersects,
            &[r(-1.0, -1.0, 20000.0, 20000.0)],
        );
        let outcome = index.maintain(&policy);
        assert!(outcome.rebuilds >= 1 && !outcome.compacted);
        assert!(index.maintenance_report(&policy).within_thresholds(&policy));
        // Results are byte-identical across maintenance.
        let after = index.collect_range_query(
            crate::config::Predicate::Intersects,
            &[r(-1.0, -1.0, 20000.0, 20000.0)],
        );
        assert_eq!(before, after);
    }

    #[test]
    fn dead_fraction_triggers_id_stable_repack() {
        let mut index = RTSIndex::with_rects(&grid(256), IndexOptions::default()).unwrap();
        let policy = MaintenancePolicy {
            target_batch_size: 64,
            ..MaintenancePolicy::eager()
        };
        index.delete(&(0..160).collect::<Vec<u32>>()).unwrap();
        let outcome = index.maintain(&policy);
        assert!(outcome.compacted);
        // Ids survive: capacity unchanged, live ids answer as before.
        assert_eq!(index.capacity_ids(), 256);
        assert_eq!(index.len(), 96);
        assert_eq!(index.batch_count(), 256usize.div_ceil(64));
        let hits = index.collect_point_query(&[Point::xy(
            (200 % 32) as f32 * 2.0 + 0.5,
            (200 / 32) as f32 * 2.0 + 0.5,
        )]);
        assert_eq!(hits, vec![(200, 0)]);
    }

    #[test]
    fn batch_fragmentation_triggers_repack() {
        let mut index = RTSIndex::<f32>::new(IndexOptions::default());
        for chunk in grid(512).chunks(8) {
            index.insert(chunk).unwrap();
        }
        assert_eq!(index.batch_count(), 64);
        let policy = MaintenancePolicy {
            max_batches: 16,
            target_batch_size: 128,
            ..MaintenancePolicy::eager()
        };
        let outcome = index.maintain(&policy);
        assert!(outcome.compacted);
        assert_eq!(index.batch_count(), 4);
        assert_eq!(index.len(), 512);
    }

    #[test]
    fn budget_defers_then_allows() {
        let mut index = RTSIndex::with_rects(&grid(512), IndexOptions::default()).unwrap();
        // Starve the budget: tiny factor, nothing accrued yet beyond
        // one insert.
        let starved = MaintenancePolicy {
            amortize_factor: 0.0,
            ..MaintenancePolicy::default()
        };
        for round in 0..4 {
            scatter(&mut index, 512, round);
        }
        let outcome = index.maintain(&starved);
        assert!(!outcome.acted());
        assert!(outcome.deferred >= 1, "threshold exceeded but no budget");

        // With credit, the same state rebuilds.
        let funded = MaintenancePolicy::default();
        let outcome = index.maintain(&funded);
        assert!(outcome.rebuilds >= 1);
        assert!(index.maintenance_report(&funded).within_thresholds(&funded));
    }

    #[test]
    fn rebuild_leaves_a_shared_gas_to_its_holder() {
        // Every per-GAS rebuild (`RTSIndex::rebuild`, maintenance's
        // Rebuild action, `RTSIndex3::rebuild`) of a GAS a clone still
        // holds builds a fresh GAS: the clone keeps its own, and the
        // rebuilt one equals a fresh build over the same boxes.
        let fresh_quality = |gas: &Gas<f32>| {
            Gas::build(gas.aabbs().to_vec(), gas.options())
                .unwrap()
                .quality()
        };
        let probe = Point::xy(0.5, 0.5);
        for via_maintain in [false, true] {
            let mut index = RTSIndex::with_rects(&grid(512), IndexOptions::default()).unwrap();
            for round in 0..4 {
                scatter(&mut index, 512, round);
            }
            let held = index.clone();
            let before: Vec<Vec<Rect<f32, 3>>> =
                held.gases.iter().map(|g| g.aabbs().to_vec()).collect();
            let hits = held.collect_point_query(&[probe]);
            if via_maintain {
                assert!(index.maintain(&MaintenancePolicy::eager()).rebuilds >= 1);
            } else {
                index.rebuild();
            }
            for (b, (mine, theirs)) in index.gases.iter().zip(&held.gases).enumerate() {
                assert_eq!(theirs.aabbs(), &before[b][..]);
                assert!(!Arc::ptr_eq(mine, theirs), "batch {b} rebuilt by copy");
                assert_eq!(mine.quality(), fresh_quality(mine));
            }
            assert_eq!(held.collect_point_query(&[probe]), hits);
            assert_eq!(index.collect_point_query(&[probe]), hits);
        }

        let boxes: Vec<Rect<f32, 3>> = grid(256).iter().map(|r| r.lift(0.0, 1.0)).collect();
        let mut index3 = RTSIndex3::build(&boxes, IndexOptions::default()).unwrap();
        let held = index3.clone();
        index3.rebuild();
        assert!(!Arc::ptr_eq(&index3.gas, &held.gas));
        assert_eq!(held.gas.aabbs(), &boxes[..]);
        assert_eq!(index3.gas.quality(), fresh_quality(&index3.gas));
    }

    #[test]
    fn huge_finite_coordinates_keep_drift_measurable() {
        // f32 boxes spread over ±1e19: the root's half perimeter
        // (4e38) overflows f32. Measured in f32, every quality ratio
        // would be inf / inf = NaN, which no drift threshold exceeds.
        let big = 1e19f32;
        let at = |k: usize| {
            let (x, y) = ((k % 32) as f32, ((k / 32) % 32) as f32);
            let (x, y) = (-big + x * big / 16.0, -big + y * big / 16.0);
            r(x, y, x + big / 64.0, y + big / 64.0)
        };
        let rects: Vec<Rect<f32, 2>> = (0..1024).map(at).collect();
        let mut index = RTSIndex::with_rects(&rects, IndexOptions::default()).unwrap();
        let policy = MaintenancePolicy::eager();
        let q = index.gases[0].quality();
        assert!(q.sah_cost.is_finite() && q.sah_cost > 0.0, "{q:?}");
        assert!(q.sibling_overlap.is_finite());
        assert!(index.maintenance_report(&policy).within_thresholds(&policy));

        let ids: Vec<u32> = (0..1024).step_by(2).collect();
        let moved: Vec<Rect<f32, 2>> = ids.iter().map(|&id| at(id as usize * 37 % 1024)).collect();
        index.update(&ids, &moved).unwrap();
        let report = index.maintenance_report(&policy);
        let drift = report.worst_sah_drift();
        assert!(
            drift.is_finite() && drift > policy.max_sah_drift,
            "drift {drift}"
        );
        assert!(index.maintain(&policy).rebuilds >= 1);
    }

    #[test]
    fn maintain_3d_rebuilds_on_drift() {
        let boxes: Vec<Rect<f32, 3>> = (0..256)
            .map(|i| {
                let x = (i % 16) as f32 * 3.0;
                let y = (i / 16) as f32 * 3.0;
                Rect::xyzxyz(x, y, 0.0, x + 2.0, y + 2.0, 2.0)
            })
            .collect();
        let mut index = RTSIndex3::build(&boxes, IndexOptions::default()).unwrap();
        let policy = MaintenancePolicy::eager();
        assert_eq!(index.maintain(&policy), MaintenanceOutcome::default());

        let ids: Vec<u32> = (0..256).step_by(2).collect();
        let moved: Vec<Rect<f32, 3>> = ids
            .iter()
            .map(|&id| {
                let k = (id as usize * 53) % 777;
                Rect::xyzxyz(
                    k as f32 * 13.0,
                    ((k * 3) % 700) as f32 * 7.0,
                    0.0,
                    k as f32 * 13.0 + 2.0,
                    ((k * 3) % 700) as f32 * 7.0 + 2.0,
                    2.0,
                )
            })
            .collect();
        index.update(&ids, &moved).unwrap();
        let report = index.maintenance_report(&policy);
        assert!(!report.within_thresholds(&policy), "3-D scatter must drift");
        let outcome = index.maintain(&policy);
        assert_eq!(outcome.rebuilds, 1);
        assert!(index.maintenance_report(&policy).within_thresholds(&policy));
    }
}
