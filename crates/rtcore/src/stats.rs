//! Hardware counters and the calibrated device-time model.
//!
//! We cannot observe a real RT core, so every traversal records the
//! operations the hardware would have executed (BVH nodes visited,
//! ray–AABB primitive tests, IS-shader invocations, instance transforms).
//! A SIMT cost model converts those counters into *simulated device time*:
//! rays are grouped into warps of 32 consecutive launch indices, a warp
//! costs as much as its slowest lane (divergence!), and warps execute
//! with bounded concurrency. The constants are calibrated so that
//! hardware BVH traversal is ~25× cheaper per node than a software walk:
//! the Turing whitepaper's ≥10× instruction-offload figure [50]
//! compounded with the uncoalesced memory traffic of a software walk.

use std::ops::AddAssign;
use std::time::Duration;

/// Number of lanes per warp in the SIMT model.
pub const WARP_SIZE: usize = 32;

/// Per-ray operation counters, filled during traversal.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RayStats {
    /// Binary-tree nodes popped and box-tested (internal + leaf) by a
    /// binary walk ([`Bvh::traverse`](crate::Bvh::traverse), the LBVH
    /// and quadtree baselines). RT launches walk the wide tree and
    /// charge [`RayStats::wide_nodes_visited`] instead.
    pub nodes_visited: u64,
    /// Ray–AABB tests against *primitive* boxes issued from binary
    /// leaves.
    pub prim_tests: u64,
    /// IS-shader invocations (primitive box test passed; shader runs on
    /// the SM, not the RT core).
    pub is_calls: u64,
    /// Hits reported by the IS shader (`report_intersection`).
    pub hits_reported: u64,
    /// AH-shader invocations.
    pub anyhit_calls: u64,
    /// Instance (IAS→GAS) transitions, each implying a ray transform.
    pub instance_visits: u64,
    /// Rays cast via `trace` by this launch index.
    pub rays: u64,
    /// Wide (BVH4) nodes popped by an RT launch's traversal. One wide
    /// pop box-tests up to four children at once, so this counter is not
    /// comparable 1:1 with [`RayStats::nodes_visited`] (binary pops);
    /// the cost model prices them separately.
    pub wide_nodes_visited: u64,
    /// Hardware ray–AABB tests against primitive boxes issued from wide
    /// (BVH4) leaves — the wide traversal's analogue of
    /// [`RayStats::prim_tests`].
    pub wide_prim_tests: u64,
}

impl AddAssign for RayStats {
    fn add_assign(&mut self, o: Self) {
        self.nodes_visited += o.nodes_visited;
        self.prim_tests += o.prim_tests;
        self.is_calls += o.is_calls;
        self.hits_reported += o.hits_reported;
        self.anyhit_calls += o.anyhit_calls;
        self.instance_visits += o.instance_visits;
        self.rays += o.rays;
        self.wide_nodes_visited += o.wide_nodes_visited;
        self.wide_prim_tests += o.wide_prim_tests;
    }
}

/// Which machine executes the BVH walk — decides the per-node cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraversalBackend {
    /// Dedicated RT core: node tests are hardware-offloaded.
    RtCore,
    /// Software walk on the SMs (the LBVH baseline / "RT cores off").
    Software,
}

/// Cost-model constants, in nanoseconds per operation.
///
/// Absolute values are *not* meant to match the paper's testbed; only the
/// ratios matter for reproducing the evaluation's shape. Defaults:
/// RT-core node step 1 ns vs software node step 25 ns — the ≥10×
/// instruction-offload factor of the Turing whitepaper \[50\] compounded
/// with the uncoalesced memory traffic a software walk incurs; shader
/// work (IS, result handling) runs on SMs in both backends.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Fixed per-ray setup cost (launch + `optixTrace` entry).
    pub ns_per_ray: f64,
    /// Per-BVH-node cost on the RT core.
    pub ns_per_node_hw: f64,
    /// Per-BVH-node cost for a software traversal on SMs.
    pub ns_per_node_sw: f64,
    /// Per wide (BVH4) node cost on the RT core. Hardware box-test units
    /// evaluate all four children of a wide node in one step (the actual
    /// RT-core datapath is a multi-way tree walker), so a wide pop costs
    /// the same as a binary pop while covering twice the fanout.
    pub ns_per_wide_node_hw: f64,
    /// Per wide (BVH4) node cost of a software walk: four slab tests,
    /// discounted below 4× the binary price because the packed node
    /// record makes their bounds one contiguous read.
    pub ns_per_wide_node_sw: f64,
    /// Per primitive ray–AABB test (hardware path).
    pub ns_per_prim_test: f64,
    /// Per IS-shader invocation (SM work: predicate evaluation).
    pub ns_per_is_call: f64,
    /// Per reported hit / result append (queue pressure).
    pub ns_per_hit: f64,
    /// Per instance transition (ray transform by the SRT matrix).
    pub ns_per_instance: f64,
    /// Number of warps the device can keep in flight (SM count × issue
    /// slots). RTX 3090: 82 SMs, ~4 concurrently issuing warps each.
    pub concurrent_warps: usize,
    /// Fixed overhead of a device acceleration-structure build (driver +
    /// kernel launches). OptiX has a substantially higher fixed cost than
    /// a bare Morton sort, which is why LBVH out-builds it on tiny inputs
    /// (Fig. 10a, USCounty) while OptiX wins 3.7–4.5× at scale.
    pub ns_build_fixed_hw: f64,
    /// Per-primitive cost of the OptiX (hardware-path) build.
    pub ns_build_per_prim_hw: f64,
    /// Fixed overhead of a software LBVH build.
    pub ns_build_fixed_sw: f64,
    /// Per-primitive cost of a software LBVH build (Morton sort + link).
    pub ns_build_per_prim_sw: f64,
    /// Per-primitive cost of a BVH *refit* — ~3× cheaper than rebuilding,
    /// per RTIndeX's measurement cited in §2.4 [26].
    pub ns_refit_per_prim: f64,
    /// Fixed cost of rebuilding an IAS (driver round-trips); IAS builds
    /// are "lightweight and very fast" (§2.3) but not free — this fixed
    /// cost dominates small-batch insertion throughput (Fig. 10b).
    pub ns_ias_build_fixed: f64,
    /// Per-instance cost of an IAS rebuild.
    pub ns_ias_per_instance: f64,
    /// Fixed cost of refitting an IAS in place (deletions, §4.2).
    pub ns_ias_refit_fixed: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            ns_per_ray: 25.0,
            ns_per_node_hw: 1.0,
            ns_per_node_sw: 25.0,
            ns_per_wide_node_hw: 1.0,
            ns_per_wide_node_sw: 70.0,
            ns_per_prim_test: 1.0,
            ns_per_is_call: 60.0,
            ns_per_hit: 30.0,
            ns_per_instance: 4.0,
            concurrent_warps: 328,
            ns_build_fixed_hw: 28_000.0,
            ns_build_per_prim_hw: 2.0,
            ns_build_fixed_sw: 2_500.0,
            ns_build_per_prim_sw: 8.0,
            ns_refit_per_prim: 0.6,
            ns_ias_build_fixed: 40_000.0,
            ns_ias_per_instance: 1_000.0,
            ns_ias_refit_fixed: 10_000.0,
        }
    }
}

impl CostModel {
    /// Simulated time for one ray's worth of counters on a backend.
    #[inline]
    pub fn ray_time_ns(&self, s: &RayStats, backend: TraversalBackend) -> f64 {
        let (node_cost, wide_node_cost) = match backend {
            TraversalBackend::RtCore => (self.ns_per_node_hw, self.ns_per_wide_node_hw),
            TraversalBackend::Software => (self.ns_per_node_sw, self.ns_per_wide_node_sw),
        };
        // Software traversal also pays software prices for its box tests.
        let prim_cost = match backend {
            TraversalBackend::RtCore => self.ns_per_prim_test,
            TraversalBackend::Software => self.ns_per_prim_test * 4.0,
        };
        s.rays as f64 * self.ns_per_ray
            + s.nodes_visited as f64 * node_cost
            + s.wide_nodes_visited as f64 * wide_node_cost
            + (s.prim_tests + s.wide_prim_tests) as f64 * prim_cost
            + s.is_calls as f64 * self.ns_per_is_call
            + s.hits_reported as f64 * self.ns_per_hit
            + s.anyhit_calls as f64 * self.ns_per_is_call
            + s.instance_visits as f64 * self.ns_per_instance
    }

    /// Simulated device time of an acceleration-structure build over `n`
    /// primitives (Fig. 10a calibration — see DESIGN.md §2).
    pub fn build_time(&self, n: usize, backend: TraversalBackend) -> Duration {
        let ns = match backend {
            TraversalBackend::RtCore => {
                self.ns_build_fixed_hw + n as f64 * self.ns_build_per_prim_hw
            }
            TraversalBackend::Software => {
                self.ns_build_fixed_sw + n as f64 * self.ns_build_per_prim_sw
            }
        };
        Duration::from_nanos(ns as u64)
    }

    /// Simulated device time of refitting a structure of `n` primitives.
    pub fn refit_time(&self, n: usize) -> Duration {
        Duration::from_nanos((n as f64 * self.ns_refit_per_prim) as u64)
    }

    /// Simulated device time of rebuilding an IAS over `n` instances.
    pub fn ias_build_time(&self, n: usize) -> Duration {
        Duration::from_nanos((self.ns_ias_build_fixed + n as f64 * self.ns_ias_per_instance) as u64)
    }

    /// Simulated device time of refitting an IAS in place.
    pub fn ias_refit_time(&self, n: usize) -> Duration {
        Duration::from_nanos((self.ns_ias_refit_fixed + n as f64 * 10.0) as u64)
    }

    /// Aggregates per-lane times into simulated device time: each warp
    /// costs its slowest lane; warps overlap up to `concurrent_warps`,
    /// and the total can never undercut the single slowest warp
    /// (critical path).
    pub fn device_time(&self, lane_times_ns: &[f64]) -> Duration {
        if lane_times_ns.is_empty() {
            return Duration::ZERO;
        }
        let mut warp_sum = 0.0f64;
        let mut warp_max = 0.0f64;
        for warp in lane_times_ns.chunks(WARP_SIZE) {
            let t = warp.iter().cloned().fold(0.0, f64::max);
            warp_sum += t;
            warp_max = warp_max.max(t);
        }
        let throughput_bound = warp_sum / self.concurrent_warps.max(1) as f64;
        Duration::from_nanos(throughput_bound.max(warp_max) as u64)
    }
}

/// Aggregate report for one launch.
#[derive(Clone, Debug, Default)]
pub struct LaunchReport {
    /// Launch width (number of raygen invocations).
    pub width: usize,
    /// Sum of all per-ray counters.
    pub totals: RayStats,
    /// Largest number of IS invocations handled by one launch index — the
    /// load-imbalance metric Ray Multicast attacks (§3.4).
    pub max_is_per_thread: u64,
    /// Simulated device time under the SIMT cost model.
    pub device_time: Duration,
    /// Host wall-clock time of the (parallel, software) launch.
    pub wall_time: Duration,
}

impl LaunchReport {
    /// Merges another report (e.g. the two casting passes of
    /// Range-Intersects) by summing counters and times.
    pub fn merge(&mut self, other: &LaunchReport) {
        self.width += other.width;
        self.totals += other.totals;
        self.max_is_per_thread = self.max_is_per_thread.max(other.max_is_per_thread);
        self.device_time += other.device_time;
        self.wall_time += other.wall_time;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_ratio_hw_vs_sw() {
        // >=10x per the Turing whitepaper, widened for memory traffic.
        let m = CostModel::default();
        let ratio = m.ns_per_node_sw / m.ns_per_node_hw;
        assert!((10.0..=50.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn ray_time_backend_difference() {
        let m = CostModel::default();
        let s = RayStats {
            nodes_visited: 100,
            rays: 1,
            ..Default::default()
        };
        let hw = m.ray_time_ns(&s, TraversalBackend::RtCore);
        let sw = m.ray_time_ns(&s, TraversalBackend::Software);
        assert!(sw > hw);
        let expected = 100.0 * (m.ns_per_node_sw - m.ns_per_node_hw);
        assert!((sw - hw - expected).abs() < 1e-6);
    }

    #[test]
    fn wide_counters_priced_separately() {
        let m = CostModel::default();
        // A wide pop covers 4 children for the price of one binary pop on
        // hardware: a ray that needed 100 binary pops needs ~half the
        // wide pops, so the modeled hardware time must strictly drop.
        let binary = RayStats {
            nodes_visited: 100,
            prim_tests: 8,
            rays: 1,
            ..Default::default()
        };
        let wide = RayStats {
            wide_nodes_visited: 50,
            wide_prim_tests: 8,
            rays: 1,
            ..Default::default()
        };
        let t_bin = m.ray_time_ns(&binary, TraversalBackend::RtCore);
        let t_wide = m.ray_time_ns(&wide, TraversalBackend::RtCore);
        assert!(t_wide < t_bin, "wide {t_wide} vs binary {t_bin}");
        // On the software backend a wide node is four slab tests and
        // costs more than one binary node, but less than four.
        let sw_one_wide = RayStats {
            wide_nodes_visited: 1,
            ..Default::default()
        };
        let sw_one_bin = RayStats {
            nodes_visited: 1,
            ..Default::default()
        };
        let w = m.ray_time_ns(&sw_one_wide, TraversalBackend::Software);
        let b = m.ray_time_ns(&sw_one_bin, TraversalBackend::Software);
        assert!(w > b && w < 4.0 * b);
    }

    #[test]
    fn device_time_warp_divergence() {
        let m = CostModel {
            concurrent_warps: 1,
            ..Default::default()
        };
        // One warp where a single lane does all the work costs the same
        // as that lane alone...
        let mut skewed = vec![1.0f64; WARP_SIZE];
        skewed[0] = 1000.0;
        let t_skewed = m.device_time(&skewed);
        // ...while a balanced warp with the same total work is cheaper.
        let balanced = vec![1000.0 / WARP_SIZE as f64 + 1.0; WARP_SIZE];
        let t_balanced = m.device_time(&balanced);
        assert!(t_skewed > t_balanced * 10);
    }

    #[test]
    fn device_time_critical_path_lower_bound() {
        let m = CostModel {
            concurrent_warps: 1_000_000,
            ..Default::default()
        };
        // Even with unbounded concurrency, one slow warp bounds the time.
        let lanes = vec![500.0f64; WARP_SIZE * 4];
        assert!(m.device_time(&lanes) >= Duration::from_nanos(500));
    }

    #[test]
    fn empty_launch_zero_time() {
        assert_eq!(CostModel::default().device_time(&[]), Duration::ZERO);
    }

    #[test]
    fn stats_accumulate() {
        let mut a = RayStats {
            nodes_visited: 1,
            rays: 1,
            ..Default::default()
        };
        a += RayStats {
            nodes_visited: 2,
            is_calls: 5,
            rays: 1,
            ..Default::default()
        };
        assert_eq!(a.nodes_visited, 3);
        assert_eq!(a.is_calls, 5);
        assert_eq!(a.rays, 2);
    }

    #[test]
    fn build_time_crossover() {
        // Tiny inputs: software LBVH builds faster (low fixed cost);
        // large inputs: the hardware path wins by ~4x — the Fig. 10a
        // shape. (The crossover sits at a fixed primitive count, ~4K
        // with the default constants; the paper's USCounty full size is
        // above it on their testbed, our 1/64-scaled USCounty is below.)
        let m = CostModel::default();
        let tiny = 2_000;
        let large = 11_500_000;
        assert!(
            m.build_time(tiny, TraversalBackend::Software)
                < m.build_time(tiny, TraversalBackend::RtCore)
        );
        let hw = m.build_time(large, TraversalBackend::RtCore).as_nanos() as f64;
        let sw = m.build_time(large, TraversalBackend::Software).as_nanos() as f64;
        assert!(sw / hw > 3.0 && sw / hw < 5.0, "ratio {}", sw / hw);
    }

    #[test]
    fn refit_cheaper_than_rebuild() {
        let m = CostModel::default();
        let n = 1_000_000;
        assert!(m.refit_time(n) * 3 < m.build_time(n, TraversalBackend::RtCore));
    }

    #[test]
    fn report_merge() {
        let mut a = LaunchReport {
            width: 10,
            max_is_per_thread: 3,
            device_time: Duration::from_nanos(100),
            ..Default::default()
        };
        let b = LaunchReport {
            width: 5,
            max_is_per_thread: 7,
            device_time: Duration::from_nanos(50),
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.width, 15);
        assert_eq!(a.max_is_per_thread, 7);
        assert_eq!(a.device_time, Duration::from_nanos(150));
    }
}
