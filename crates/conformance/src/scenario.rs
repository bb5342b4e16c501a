//! The lifecycle scenario DSL and the canonical scenario suites.
//!
//! A [`Scenario`] is a named, seeded `Init/Query/Insert/Delete/Update`
//! program. Everything downstream of the `(name, seed, ops)` triple is
//! deterministic: dataset batches, query sets, deletion victims, and
//! update targets are all derived from the scenario seed mixed with
//! the op index, so a scenario replays byte-for-byte across runs and
//! across engines.

use datasets::spider::{self, SpiderParams};
use datasets::SpiderDistribution;
use geom::Rect;
use librts::{DedupStrategy, IndexOptions, MulticastConfig, MulticastMode, Predicate};

/// Which synthetic dataset family an `Insert` batch draws from.
///
/// The variants deliberately span the skew spectrum of the paper's
/// Table 2 workloads: uniform, Gaussian, diagonal (hydrography-like),
/// dyadic bit clustering (OSM-like voids), and Zipf-weighted cluster
/// mixtures (the §3.4 load-imbalance shape).
#[derive(Clone, Copy, Debug)]
pub enum DataSpec {
    /// Uniform centers over the world box.
    Uniform { n: usize },
    /// Isotropic Gaussian blob.
    Gaussian { n: usize },
    /// Concentrated around the main diagonal.
    Diagonal { n: usize },
    /// Dyadic bit-distribution clustering.
    Bit { n: usize },
    /// Zipf-weighted Gaussian cluster mixture (heaviest skew).
    Clusters { n: usize },
}

impl DataSpec {
    /// Number of rects the batch will contain.
    pub fn n(&self) -> usize {
        match *self {
            DataSpec::Uniform { n }
            | DataSpec::Gaussian { n }
            | DataSpec::Diagonal { n }
            | DataSpec::Bit { n }
            | DataSpec::Clusters { n } => n,
        }
    }

    /// Deterministically materializes the batch.
    pub fn generate(&self, seed: u64) -> Vec<Rect<f32, 2>> {
        let distribution = match *self {
            DataSpec::Uniform { .. } => SpiderDistribution::Uniform,
            DataSpec::Gaussian { .. } => SpiderDistribution::Gaussian {
                mu: 0.5,
                sigma: 0.1,
            },
            DataSpec::Diagonal { .. } => SpiderDistribution::Diagonal { buffer: 0.1 },
            DataSpec::Bit { .. } => SpiderDistribution::Bit {
                probability: 0.4,
                digits: 16,
            },
            DataSpec::Clusters { .. } => SpiderDistribution::Clusters {
                clusters: 24,
                sigma: 0.03,
            },
        };
        let params = SpiderParams {
            distribution,
            ..SpiderParams::default()
        };
        spider::generate_rects(&params, self.n(), seed)
    }
}

/// One step of a scenario program.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    /// Insert a generated batch (the first `Insert` is the `Init`).
    Insert(DataSpec),
    /// Delete every `stride`-th live id starting at `offset`.
    Delete { offset: usize, stride: usize },
    /// Translate every `stride`-th live rect starting at `offset`.
    Update {
        offset: usize,
        stride: usize,
        dx: f32,
        dy: f32,
    },
    /// Differential point query with `n` probes (hit-biased sampling).
    PointQuery { n: usize },
    /// Differential range query with `n` query boxes. For
    /// `Predicate::Intersects` the boxes are sized for roughly
    /// `selectivity · N` results each; `Contains` queries are shrunken
    /// sub-boxes of indexed rects.
    RangeQuery {
        predicate: Predicate,
        n: usize,
        selectivity: f64,
    },
    /// Differential point-in-polygon query: polygons are derived from
    /// the live rect set, probed with `n` points.
    PipQuery { n: usize },
    /// Force a from-scratch rebuild of the mutable index (exercises
    /// the §4.1 compaction path without changing ids).
    Rebuild,
}

/// Index-option variants a scenario can pin, so the suite covers the
/// ablation knobs (multicast `k`, dedup strategy, leaf size) and not
/// just the defaults.
#[derive(Clone, Copy, Debug, Default)]
pub enum OptionsSpec {
    /// `IndexOptions::default()`.
    #[default]
    Default,
    /// Force Ray-Multicast `k`.
    FixedK(usize),
    /// Disable multicast entirely.
    MulticastOff,
    /// The paper's cost-model `k` (`MulticastMode::Auto`); the default
    /// index runs `k = 1`.
    MulticastAuto,
    /// Hash-set dedup instead of the paper's forward-check rule.
    HashDedup,
    /// Non-default BVH leaf width.
    LeafSize(usize),
}

impl OptionsSpec {
    /// Materializes the [`IndexOptions`].
    pub fn options(&self) -> IndexOptions {
        let mut opts = IndexOptions::default();
        match *self {
            OptionsSpec::Default => {}
            OptionsSpec::FixedK(k) => {
                opts.multicast = MulticastConfig {
                    mode: MulticastMode::Fixed(k),
                    ..Default::default()
                };
            }
            OptionsSpec::MulticastOff => {
                opts.multicast = MulticastConfig {
                    mode: MulticastMode::Off,
                    ..Default::default()
                };
            }
            OptionsSpec::MulticastAuto => {
                opts.multicast = MulticastConfig {
                    mode: MulticastMode::Auto,
                    ..Default::default()
                };
            }
            OptionsSpec::HashDedup => opts.dedup = DedupStrategy::HashPostProcess,
            OptionsSpec::LeafSize(l) => opts.leaf_size = l,
        }
        opts
    }
}

/// A named, seeded lifecycle program.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Stable name — also the key in the counter-budget baseline.
    pub name: &'static str,
    /// Master seed; every op derives its own stream from it.
    pub seed: u64,
    /// Index options under test.
    pub opts: OptionsSpec,
    /// The program.
    pub ops: Vec<Op>,
}

impl Scenario {
    /// Shorthand constructor.
    pub fn new(name: &'static str, seed: u64, opts: OptionsSpec, ops: Vec<Op>) -> Self {
        Self {
            name,
            seed,
            opts,
            ops,
        }
    }
}

use DataSpec::{Bit, Clusters, Diagonal, Gaussian, Uniform};
use Op::{Delete, Insert, PipQuery, PointQuery, RangeQuery, Rebuild, Update};

fn rq(predicate: Predicate, n: usize, selectivity: f64) -> Op {
    RangeQuery {
        predicate,
        n,
        selectivity,
    }
}

/// The deterministic smoke tier: ≥ 25 scenarios, each replayed against
/// every engine plus the oracle, sized to finish well inside a minute.
#[allow(clippy::vec_init_then_push)] // grouped pushes keep the section comments attached
pub fn smoke_suite() -> Vec<Scenario> {
    use OptionsSpec::{Default as Dft, FixedK, HashDedup, LeafSize, MulticastAuto, MulticastOff};
    let mut s = Vec::new();

    // -- Static builds, one per distribution family × query kind ------
    s.push(Scenario::new(
        "static_uniform_point",
        101,
        Dft,
        vec![Insert(Uniform { n: 400 }), PointQuery { n: 200 }],
    ));
    s.push(Scenario::new(
        "static_uniform_intersects",
        102,
        Dft,
        vec![
            Insert(Uniform { n: 400 }),
            rq(Predicate::Intersects, 120, 0.01),
        ],
    ));
    s.push(Scenario::new(
        "static_uniform_contains",
        103,
        Dft,
        vec![
            Insert(Uniform { n: 400 }),
            rq(Predicate::Contains, 120, 0.0),
        ],
    ));
    s.push(Scenario::new(
        "static_gaussian_point",
        104,
        Dft,
        vec![Insert(Gaussian { n: 400 }), PointQuery { n: 200 }],
    ));
    s.push(Scenario::new(
        "static_gaussian_intersects",
        105,
        Dft,
        vec![
            Insert(Gaussian { n: 400 }),
            rq(Predicate::Intersects, 120, 0.02),
        ],
    ));
    s.push(Scenario::new(
        "static_diagonal_point",
        106,
        Dft,
        vec![Insert(Diagonal { n: 400 }), PointQuery { n: 200 }],
    ));
    s.push(Scenario::new(
        "static_diagonal_contains",
        107,
        Dft,
        vec![
            Insert(Diagonal { n: 400 }),
            rq(Predicate::Contains, 120, 0.0),
        ],
    ));
    s.push(Scenario::new(
        "static_bit_point",
        108,
        Dft,
        vec![Insert(Bit { n: 400 }), PointQuery { n: 200 }],
    ));
    s.push(Scenario::new(
        "static_bit_intersects",
        109,
        Dft,
        vec![Insert(Bit { n: 400 }), rq(Predicate::Intersects, 120, 0.01)],
    ));
    s.push(Scenario::new(
        "static_clusters_point",
        110,
        Dft,
        vec![Insert(Clusters { n: 400 }), PointQuery { n: 200 }],
    ));
    s.push(Scenario::new(
        "static_clusters_intersects",
        111,
        Dft,
        vec![
            Insert(Clusters { n: 400 }),
            rq(Predicate::Intersects, 120, 0.02),
        ],
    ));

    // -- Option ablations over a skewed base ---------------------------
    s.push(Scenario::new(
        "opts_fixed_k4",
        120,
        FixedK(4),
        vec![
            Insert(Clusters { n: 300 }),
            rq(Predicate::Intersects, 100, 0.02),
            PointQuery { n: 100 },
        ],
    ));
    s.push(Scenario::new(
        "opts_fixed_k16",
        121,
        FixedK(16),
        vec![
            Insert(Clusters { n: 300 }),
            rq(Predicate::Intersects, 100, 0.02),
        ],
    ));
    s.push(Scenario::new(
        "opts_multicast_off",
        122,
        MulticastOff,
        vec![
            Insert(Clusters { n: 300 }),
            rq(Predicate::Intersects, 100, 0.02),
        ],
    ));
    // The paper's cost model on `static_clusters_intersects`' program:
    // its counters must equal that scenario's before the default became
    // `k = 1`.
    s.push(Scenario::new(
        "opts_multicast_auto",
        111,
        MulticastAuto,
        vec![
            Insert(Clusters { n: 400 }),
            rq(Predicate::Intersects, 120, 0.02),
        ],
    ));
    s.push(Scenario::new(
        "opts_hash_dedup",
        123,
        HashDedup,
        vec![
            Insert(Gaussian { n: 300 }),
            rq(Predicate::Intersects, 100, 0.02),
        ],
    ));
    s.push(Scenario::new(
        "opts_leaf1",
        124,
        LeafSize(1),
        vec![
            Insert(Uniform { n: 300 }),
            PointQuery { n: 150 },
            rq(Predicate::Intersects, 80, 0.01),
        ],
    ));
    s.push(Scenario::new(
        "opts_leaf16",
        125,
        LeafSize(16),
        vec![
            Insert(Uniform { n: 300 }),
            PointQuery { n: 150 },
            rq(Predicate::Contains, 80, 0.0),
        ],
    ));

    // -- Lifecycle: inserts, deletes, updates, rebuilds ----------------
    s.push(Scenario::new(
        "life_insert_growth",
        140,
        Dft,
        vec![
            Insert(Uniform { n: 150 }),
            PointQuery { n: 100 },
            Insert(Gaussian { n: 150 }),
            PointQuery { n: 100 },
            Insert(Clusters { n: 150 }),
            rq(Predicate::Intersects, 80, 0.01),
        ],
    ));
    s.push(Scenario::new(
        "life_delete_quarter",
        141,
        Dft,
        vec![
            Insert(Uniform { n: 400 }),
            Delete {
                offset: 0,
                stride: 4,
            },
            PointQuery { n: 150 },
            rq(Predicate::Intersects, 80, 0.01),
        ],
    ));
    s.push(Scenario::new(
        "life_delete_most",
        142,
        Dft,
        vec![
            Insert(Gaussian { n: 300 }),
            Delete {
                offset: 0,
                stride: 2,
            },
            Delete {
                offset: 1,
                stride: 2,
            },
            PointQuery { n: 120 },
        ],
    ));
    s.push(Scenario::new(
        "life_update_drift",
        143,
        Dft,
        vec![
            Insert(Clusters { n: 300 }),
            Update {
                offset: 0,
                stride: 3,
                dx: 120.0,
                dy: -60.0,
            },
            PointQuery { n: 150 },
            rq(Predicate::Intersects, 80, 0.02),
        ],
    ));
    s.push(Scenario::new(
        "life_churn_mixed",
        144,
        Dft,
        vec![
            Insert(Uniform { n: 200 }),
            Delete {
                offset: 1,
                stride: 3,
            },
            Insert(Diagonal { n: 150 }),
            Update {
                offset: 2,
                stride: 5,
                dx: -40.0,
                dy: 80.0,
            },
            PointQuery { n: 120 },
            rq(Predicate::Contains, 60, 0.0),
            rq(Predicate::Intersects, 60, 0.015),
        ],
    ));
    s.push(Scenario::new(
        "life_rebuild_after_churn",
        145,
        Dft,
        vec![
            Insert(Gaussian { n: 250 }),
            Delete {
                offset: 0,
                stride: 5,
            },
            Update {
                offset: 1,
                stride: 4,
                dx: 200.0,
                dy: 200.0,
            },
            Rebuild,
            PointQuery { n: 120 },
            rq(Predicate::Intersects, 60, 0.01),
        ],
    ));
    s.push(Scenario::new(
        "life_delete_then_refill",
        146,
        Dft,
        vec![
            Insert(Bit { n: 200 }),
            Delete {
                offset: 0,
                stride: 2,
            },
            Insert(Uniform { n: 200 }),
            PointQuery { n: 150 },
        ],
    ));
    s.push(Scenario::new(
        "life_update_all",
        147,
        Dft,
        vec![
            Insert(Uniform { n: 200 }),
            Update {
                offset: 0,
                stride: 1,
                dx: 33.0,
                dy: 47.0,
            },
            PointQuery { n: 120 },
            rq(Predicate::Intersects, 60, 0.01),
        ],
    ));

    // -- PIP scenarios (rayjoin / PipIndex / quadtree path) ------------
    s.push(Scenario::new(
        "pip_uniform",
        160,
        Dft,
        vec![Insert(Uniform { n: 120 }), PipQuery { n: 250 }],
    ));
    s.push(Scenario::new(
        "pip_clusters",
        161,
        Dft,
        vec![Insert(Clusters { n: 120 }), PipQuery { n: 250 }],
    ));
    s.push(Scenario::new(
        "pip_after_churn",
        162,
        Dft,
        vec![
            Insert(Gaussian { n: 140 }),
            Delete {
                offset: 0,
                stride: 3,
            },
            Update {
                offset: 1,
                stride: 4,
                dx: 60.0,
                dy: -30.0,
            },
            PipQuery { n: 200 },
        ],
    ));

    // -- Degenerate shapes -------------------------------------------
    s.push(Scenario::new(
        "tiny_set",
        180,
        Dft,
        vec![
            Insert(Uniform { n: 3 }),
            PointQuery { n: 60 },
            rq(Predicate::Intersects, 40, 0.5),
            rq(Predicate::Contains, 40, 0.0),
        ],
    ));
    s.push(Scenario::new(
        "single_rect",
        181,
        Dft,
        vec![
            Insert(Uniform { n: 1 }),
            PointQuery { n: 40 },
            rq(Predicate::Intersects, 30, 0.9),
        ],
    ));
    s.push(Scenario::new(
        "empty_after_total_delete",
        182,
        Dft,
        vec![
            Insert(Uniform { n: 50 }),
            Delete {
                offset: 0,
                stride: 1,
            },
            PointQuery { n: 40 },
            rq(Predicate::Intersects, 30, 0.01),
        ],
    ));

    s
}

/// The deep tier (`--ignored`): same shapes, an order of magnitude
/// larger, plus longer churn programs.
pub fn deep_suite() -> Vec<Scenario> {
    use OptionsSpec::{Default as Dft, FixedK};
    vec![
        Scenario::new(
            "deep_uniform_all_queries",
            1001,
            Dft,
            vec![
                Insert(Uniform { n: 4000 }),
                PointQuery { n: 800 },
                rq(Predicate::Intersects, 300, 0.005),
                rq(Predicate::Contains, 300, 0.0),
            ],
        ),
        Scenario::new(
            "deep_clusters_multicast",
            1002,
            FixedK(32),
            vec![
                Insert(Clusters { n: 4000 }),
                rq(Predicate::Intersects, 300, 0.01),
                PointQuery { n: 600 },
            ],
        ),
        Scenario::new(
            "deep_long_churn",
            1003,
            Dft,
            vec![
                Insert(Uniform { n: 1500 }),
                PointQuery { n: 300 },
                Delete {
                    offset: 0,
                    stride: 3,
                },
                Insert(Gaussian { n: 1500 }),
                Update {
                    offset: 1,
                    stride: 2,
                    dx: 90.0,
                    dy: -45.0,
                },
                PointQuery { n: 300 },
                Insert(Clusters { n: 1500 }),
                Delete {
                    offset: 2,
                    stride: 5,
                },
                Rebuild,
                PointQuery { n: 300 },
                rq(Predicate::Intersects, 200, 0.004),
                rq(Predicate::Contains, 200, 0.0),
            ],
        ),
        Scenario::new(
            "deep_pip",
            1004,
            Dft,
            vec![Insert(Bit { n: 600 }), PipQuery { n: 1500 }],
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_suite_is_large_enough_and_uniquely_named() {
        let suite = smoke_suite();
        assert!(suite.len() >= 25, "smoke tier must keep ≥ 25 scenarios");
        let mut names: Vec<_> = suite.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), suite.len(), "duplicate scenario names");
    }

    #[test]
    fn dataspec_generation_is_deterministic() {
        let spec = DataSpec::Clusters { n: 64 };
        assert_eq!(spec.generate(9), spec.generate(9));
        assert_ne!(spec.generate(9), spec.generate(10));
    }
}
