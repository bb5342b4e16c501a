//! Wall-clock benchmark of the LibRTS reproduction.
//!
//! Four seeded workloads drive the public APIs of `librts`
//! (`RTSIndex`, `RTSIndex3`, `ConcurrentIndex`) the way a user would.
//! Each run generates its data and its whole request sequence from the
//! seed before timing, warms up untimed, replays the fixed sequence,
//! checks every result (or a fixed seeded sample, for the 3-D engine)
//! against an independent reference, and reports end-to-end metrics.
//! A traced run reports per-layer metrics instead, from spans recorded
//! around the calls into each layer (see [`trace`]).
//!
//! | workload | layers it isolates |
//! |---|---|
//! | `range-intersects` | multicast, query-GAS build, backward pass |
//! | `point-contains` | forward traversal through the two-level IAS |
//! | `serve-churn` | concurrent publish, maintenance, refit, cache hits |
//! | `airspace-3d` | the separate 3-D engine (`index3d`) |

pub mod check;
pub mod client;
pub mod metrics;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::fmt;

/// The benchmark's workloads, by the name `--workload` takes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Range-Intersects batches over heavy-tailed `OsmLakes` rectangles.
    RangeIntersects,
    /// Alternating point and Range-Contains batches over `UsCensus`.
    PointContains,
    /// One reader and one open-loop writer on a `ConcurrentIndex`.
    ServeChurn,
    /// 3-D point and Range-Intersects batches on `RTSIndex3`.
    Airspace3d,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::RangeIntersects,
        Workload::PointContains,
        Workload::ServeChurn,
        Workload::Airspace3d,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RangeIntersects => "range-intersects",
            Workload::PointContains => "point-contains",
            Workload::ServeChurn => "serve-churn",
            Workload::Airspace3d => "airspace-3d",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Sizes of one run. [`Scale::Full`] is what the command line runs;
/// [`Scale::Smoke`] shrinks data and request counts so the benchmark's
/// own tests finish in seconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Full-size inputs; request counts follow `--seconds`.
    Full,
    /// Tiny inputs and a few requests.
    Smoke,
}

/// Everything one run needs.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed for data and requests.
    pub seed: u64,
    /// Target length of the timed window on the reference host. The
    /// request count is derived from it, so two runs with one seed do
    /// the same work.
    pub seconds: u64,
    /// `true` for the traced run (per-layer metrics).
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Test hook: flip the recorded checksum of the first checked
    /// request before the correctness gate runs (the gate must reject
    /// the run).
    pub corrupt_checksum: bool,
    /// Where the traced run writes its spans (`None`: kept in memory).
    pub span_file: Option<std::path::PathBuf>,
}

/// Result of one run, printed as the final JSON line.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The first result that differed from its reference, if any. Such a
    /// run still prints its metrics, with `correct: false`, and then
    /// exits non-zero.
    pub mismatch: Option<String>,
    /// Operations attempted in the timed window(s).
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<metrics::Metric>,
    /// Human-readable lines printed before the JSON line: the work
    /// fingerprint, the metric table, and any failure detail.
    pub lines: Vec<String>,
}

/// Derives an independent stream seed from the run seed and a tag.
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    check::splitmix64(seed ^ tag.rotate_left(29) ^ 0x5EED_BA5E_D00D_F00D)
}

/// Runs one configured benchmark run.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    match cfg.workload {
        Workload::ServeChurn => workloads::churn::run(cfg),
        Workload::RangeIntersects => {
            client::run(&workloads::intersects::RangeIntersects::new(cfg), cfg)
        }
        Workload::PointContains => client::run(&workloads::contains::PointContains::new(cfg), cfg),
        Workload::Airspace3d => client::run(&workloads::airspace::Airspace::new(cfg), cfg),
    }
}
