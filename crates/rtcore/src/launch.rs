//! Launching ray-generation programs and tracing rays.
//!
//! `Device::launch(width, raygen)` mirrors `optixLaunch`: the raygen
//! closure runs once per launch index, in parallel over the `exec`
//! work-stealing pool (the SMs). Inside raygen, [`TraceSession::trace`]
//! plays the role of `optixTrace`: it walks the acceleration structure's
//! wide [`Bvh4`](crate::Bvh4) form — the one traversal, as RT hardware
//! exposes one traversal datapath — invoking the program's IS/AH/CH/MS
//! shaders, while hardware counters accumulate per launch index so the
//! SIMT cost model can price warp divergence.
//!
//! The launch is deterministic at any thread count: lane times are
//! written into order-stable per-warp slots, and counters accumulate in
//! per-worker shards whose merge (u64 sums and maxes) is commutative —
//! so the returned [`LaunchReport`] is byte-identical whether the fan-out
//! ran on 1 thread or 64.
//!
//! A warp is a group of slots for the cost model, not an order of
//! execution: warp `w` prices launch indices `32w..32w + 32`, whichever
//! order the host ran them in. [`Device::launch_by_key`] runs the indices
//! in a caller-chosen spatial order, so that consecutive rays find the
//! nodes they walk already in cache, and writes each lane's modeled time
//! back into its own index's slot. Counter sums and `max_is` do not
//! depend on order and the warps are the same, so the report — modeled
//! time included — is identical to `launch`'s.

use std::time::Instant;

use exec::Shards;
use geom::{Coord, Ray};

use crate::bvh::Control;
use crate::gas::Gas;
use crate::ias::Ias;
use crate::program::{AnyHitResult, ClosestHit, HitContext, IsResult, RtProgram};
use crate::stats::{CostModel, LaunchReport, RayStats, TraversalBackend, WARP_SIZE};

/// Anything a ray can be traced against — a GAS directly or an IAS
/// (OptiX traversable handles).
pub trait Traversable<C: Coord>: Sync {
    /// Walks the structure for `ray`, driving the program's shaders.
    fn walk<P: RtProgram<C>>(
        &self,
        program: &P,
        ray: &Ray<C, 3>,
        payload: &mut P::Payload,
        stats: &mut RayStats,
        closest: &mut Option<ClosestHit>,
    ) -> Control;
}

impl<C: Coord> Traversable<C> for Gas<C> {
    fn walk<P: RtProgram<C>>(
        &self,
        program: &P,
        ray: &Ray<C, 3>,
        payload: &mut P::Payload,
        stats: &mut RayStats,
        closest: &mut Option<ClosestHit>,
    ) -> Control {
        walk_gas(self, u32::MAX, program, ray, payload, stats, closest)
    }
}

impl<C: Coord> Traversable<C> for Ias<C> {
    fn walk<P: RtProgram<C>>(
        &self,
        program: &P,
        ray: &Ray<C, 3>,
        payload: &mut P::Payload,
        stats: &mut RayStats,
        closest: &mut Option<ClosestHit>,
    ) -> Control {
        // Two-level traversal: TLAS leaves are instances; each transition
        // transforms the ray into object space and descends into the GAS.
        let mut result = Control::Continue;
        let mut visit = |inst_idx: u32, stats: &mut RayStats| {
            let rec = &self.records[inst_idx as usize];
            stats.instance_visits += 1;
            let object_ray = match &rec.world_to_object {
                None => *ray,
                Some(w2o) => w2o.apply_ray(ray),
            };
            let ctl = walk_gas(
                &rec.gas,
                rec.instance_id,
                program,
                &object_ray,
                payload,
                stats,
                closest,
            );
            if ctl == Control::Terminate {
                result = Control::Terminate;
            }
            ctl
        };
        self.tlas
            .traverse(ray, &self.world_bounds, stats, &mut visit);
        result
    }
}

/// GAS traversal driving the IS/AH shader protocol.
fn walk_gas<C: Coord, P: RtProgram<C>>(
    gas: &Gas<C>,
    instance_id: u32,
    program: &P,
    ray: &Ray<C, 3>,
    payload: &mut P::Payload,
    stats: &mut RayStats,
    closest: &mut Option<ClosestHit>,
) -> Control {
    let aabbs = gas.aabbs();
    let mut visit = |prim: u32, stats: &mut RayStats| {
        stats.is_calls += 1;
        let ctx = HitContext {
            primitive_index: prim,
            instance_id,
            aabb: &aabbs[prim as usize],
            ray,
        };
        match program.intersection(&ctx, payload) {
            IsResult::Ignore => Control::Continue,
            IsResult::Report(t) => {
                stats.hits_reported += 1;
                stats.anyhit_calls += 1;
                match program.any_hit(&ctx, t, payload) {
                    AnyHitResult::IgnoreHit => Control::Continue,
                    accept @ (AnyHitResult::Accept | AnyHitResult::Terminate) => {
                        let t64 = t.to_f64();
                        if closest.as_ref().is_none_or(|c| t64 < c.t) {
                            *closest = Some(ClosestHit {
                                t: t64,
                                primitive_index: prim,
                                instance_id,
                            });
                        }
                        if accept == AnyHitResult::Terminate {
                            Control::Terminate
                        } else {
                            Control::Continue
                        }
                    }
                }
            }
        }
    };
    gas.wide().traverse(ray, aabbs, stats, &mut visit)
}

/// A per-launch-index handle for casting rays (the `optixTrace` entry
/// point). Created by [`Device::launch`] and [`Device::launch_by_key`];
/// accumulates this thread's hardware counters.
pub struct TraceSession<'a, C: Coord> {
    stats: RayStats,
    _marker: std::marker::PhantomData<&'a C>,
}

impl<C: Coord> TraceSession<'_, C> {
    /// Casts one ray against `handle`, running the program's shaders.
    /// Equivalent to `optixTrace(handle, O, d, tmin, tmax, payload)`.
    pub fn trace<P: RtProgram<C>>(
        &mut self,
        handle: &impl Traversable<C>,
        program: &P,
        ray: &Ray<C, 3>,
        payload: &mut P::Payload,
    ) {
        debug_assert!(ray.is_valid(), "invalid ray: {ray:?}");
        self.stats.rays += 1;
        let mut closest: Option<ClosestHit> = None;
        handle.walk(program, ray, payload, &mut self.stats, &mut closest);
        match closest {
            Some(hit) => program.closest_hit(&hit, payload),
            None => program.miss(payload),
        }
    }

    /// Counters accumulated by this launch index so far.
    pub fn stats(&self) -> &RayStats {
        &self.stats
    }
}

/// Per-worker accumulator for the commutative half of a launch report.
#[derive(Default)]
struct LaunchShard {
    stats: RayStats,
    max_is: u64,
}

/// Warps claimed per deque chunk: big enough to amortise the claim CAS,
/// small enough to keep stealing effective on skewed workloads. Tuned
/// down from 4 for the 50K-query scaling study: 2 warps (64 rays) per
/// claim roughly doubles the steal targets per launch, which is what
/// keeps all workers busy through the skewed tail of a Range-Intersects
/// batch, while the CAS still amortises over ≥64 traced rays.
const WARPS_PER_CHUNK: usize = 2;

/// The simulated RT device: the `exec` work-stealing pool standing in for
/// the GPU, plus the cost model used to derive simulated device time.
#[derive(Clone, Debug, Default)]
pub struct Device {
    /// Cost model for simulated timing.
    pub cost_model: CostModel,
}

impl Device {
    /// Creates a device with the default cost model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `raygen` once per launch index in `0..width`, in parallel.
    /// Returns the aggregated hardware counters and simulated device
    /// time for an RT-core backend.
    pub fn launch<C, F>(&self, width: usize, raygen: F) -> LaunchReport
    where
        C: Coord,
        F: Fn(usize, &mut TraceSession<'_, C>) + Sync,
    {
        self.run(Instant::now(), width, None, raygen)
    }

    /// [`launch`](Self::launch) over `0..keys.len()`, executing the
    /// indices in ascending `(keys[i], i)` order. `raygen` still receives
    /// the original index, and the report equals `launch`'s: only the
    /// order in which the host visits memory changes. The sort runs
    /// inside the launch, so `wall_time` includes it.
    pub fn launch_by_key<C, F>(&self, keys: &[u64], raygen: F) -> LaunchReport
    where
        C: Coord,
        F: Fn(usize, &mut TraceSession<'_, C>) + Sync,
    {
        let start = Instant::now();
        // Stable, so ties run in index order at any thread count.
        let mut order: Vec<(u64, usize)> = keys.iter().copied().zip(0..).collect();
        exec::radix::par_sort_by_u64_key(&mut order);
        self.run(start, keys.len(), Some(&order), raygen)
    }

    /// The one launch body: executes position `p` of `0..width` as launch
    /// index `order[p].1` (`p` itself without an order) and prices every
    /// lane in its launch index's slot.
    fn run<C, F>(
        &self,
        start: Instant,
        width: usize,
        order: Option<&[(u64, usize)]>,
        raygen: F,
    ) -> LaunchReport
    where
        C: Coord,
        F: Fn(usize, &mut TraceSession<'_, C>) + Sync,
    {
        if width == 0 {
            return LaunchReport::default();
        }
        // Chaos injection point: a launch has no error channel (OptiX
        // launches are fire-and-forget), so Fail is fail-stop like Panic;
        // Slow charges extra *modelled* device time — the deadline layer
        // in `core` sees it, wall clock does not.
        let mut injected_ns = 0u64;
        match chaos::fire("rtcore.launch") {
            Some(chaos::FaultAction::Fail) | Some(chaos::FaultAction::Panic) => {
                panic!("chaos: injected panic at rtcore.launch")
            }
            Some(chaos::FaultAction::Slow(ns)) => injected_ns = ns,
            None => {}
        }
        // Warps of consecutive execution positions are the parallel work
        // items; lanes within a warp run sequentially on one worker —
        // mirroring SIMT scheduling while keeping task overhead low. Lane
        // times land in order-stable per-warp slots; counters accumulate
        // in per-worker shards (u64 sums/maxes, commutative), so the
        // report is identical at any thread count.
        let n_warps = width.div_ceil(WARP_SIZE);
        let shards: Shards<LaunchShard> = Shards::new();
        let per_warp: Vec<[f64; WARP_SIZE]> = exec::map_collect(n_warps, WARPS_PER_CHUNK, |w| {
            let warp_start = w * WARP_SIZE;
            let mut warp_stats = RayStats::default();
            let mut lane_times = [0.0f64; WARP_SIZE];
            let mut max_is = 0u64;
            let lanes = WARP_SIZE.min(width - warp_start);
            for (lane, slot) in lane_times.iter_mut().enumerate().take(lanes) {
                let pos = warp_start + lane;
                let mut session = TraceSession {
                    stats: RayStats::default(),
                    _marker: std::marker::PhantomData,
                };
                raygen(order.map_or(pos, |o| o[pos].1), &mut session);
                *slot = self
                    .cost_model
                    .ray_time_ns(&session.stats, TraversalBackend::RtCore);
                max_is = max_is.max(session.stats.is_calls);
                warp_stats += session.stats;
            }
            shards.with(|acc| {
                acc.stats += warp_stats;
                acc.max_is = acc.max_is.max(max_is);
            });
            lane_times
        });

        let merged = shards.merge(|acc, shard| {
            acc.stats += shard.stats;
            acc.max_is = acc.max_is.max(shard.max_is);
        });
        let mut lane_times = per_warp.concat();
        if let Some(order) = order {
            // Back from execution position to launch-index slot, so the
            // cost model's warps are the same 32 indices as `launch`'s.
            let mut by_index = vec![0.0f64; lane_times.len()];
            for (&(_, i), &t) in order.iter().zip(&lane_times) {
                by_index[i] = t;
            }
            lane_times = by_index;
        }
        let device_time =
            self.cost_model.device_time(&lane_times) + std::time::Duration::from_nanos(injected_ns);
        let report = LaunchReport {
            width,
            totals: merged.stats,
            max_is_per_thread: merged.max_is,
            device_time,
            wall_time: start.elapsed(),
        };
        record_launch(&report);
        report
    }
}

/// Cached handles for the launch-path metrics, resolved once: the launch
/// path is hot and must not pay a registry lookup per call.
struct LaunchMetrics {
    launches: std::sync::Arc<obs::Counter>,
    rays: std::sync::Arc<obs::Counter>,
    wide_nodes_visited: std::sync::Arc<obs::Counter>,
    wide_prim_tests: std::sync::Arc<obs::Counter>,
    is_calls: std::sync::Arc<obs::Counter>,
    hits_reported: std::sync::Arc<obs::Counter>,
    anyhit_calls: std::sync::Arc<obs::Counter>,
    instance_visits: std::sync::Arc<obs::Counter>,
    device_ns: std::sync::Arc<obs::Counter>,
    wall_ns: std::sync::Arc<obs::Counter>,
    launch_width: std::sync::Arc<obs::Histogram>,
    launch_device_ns: std::sync::Arc<obs::Histogram>,
}

fn launch_metrics() -> &'static LaunchMetrics {
    static METRICS: std::sync::OnceLock<LaunchMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| LaunchMetrics {
        launches: obs::counter("rtcore.launches"),
        rays: obs::counter("rtcore.rays"),
        wide_nodes_visited: obs::counter("rtcore.wide_nodes_visited"),
        wide_prim_tests: obs::counter("rtcore.wide_prim_tests"),
        is_calls: obs::counter("rtcore.is_calls"),
        hits_reported: obs::counter("rtcore.hits_reported"),
        anyhit_calls: obs::counter("rtcore.anyhit_calls"),
        instance_visits: obs::counter("rtcore.instance_visits"),
        device_ns: obs::counter("rtcore.device_ns"),
        wall_ns: obs::host_counter("rtcore.wall_ns"),
        launch_width: obs::histogram("rtcore.launch_width"),
        launch_device_ns: obs::histogram("rtcore.launch_device_ns"),
    })
}

/// Mirrors one launch's counters into the global registry. Everything
/// here except wall time is derived from the deterministic simulation,
/// so it stays Stable-class (byte-identical at any thread count).
fn record_launch(report: &LaunchReport) {
    let m = launch_metrics();
    m.launches.inc();
    m.rays.add(report.totals.rays);
    m.wide_nodes_visited.add(report.totals.wide_nodes_visited);
    m.wide_prim_tests.add(report.totals.wide_prim_tests);
    m.is_calls.add(report.totals.is_calls);
    m.hits_reported.add(report.totals.hits_reported);
    m.anyhit_calls.add(report.totals.anyhit_calls);
    m.instance_visits.add(report.totals.instance_visits);
    m.device_ns.add(report.device_time.as_nanos() as u64);
    m.wall_ns.add(report.wall_time.as_nanos() as u64);
    m.launch_width.observe(report.width as u64);
    m.launch_device_ns
        .observe(report.device_time.as_nanos() as u64);
    // Timeline instant for the Chrome-trace exporter; no-op unless full
    // tracing is on.
    obs::trace::record_launch(
        report.width as u64,
        report.totals.rays,
        report.device_time.as_nanos() as u64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gas::BuildOptions;
    use crate::ias::Instance;
    use geom::{Point, Rect};
    use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
    use std::sync::Arc;

    /// A LibRTS-style program: does everything in IS, counts containment.
    struct CountContains {
        hits: AtomicU64,
    }

    impl RtProgram<f32> for CountContains {
        type Payload = Point<f32, 3>;

        fn intersection(
            &self,
            ctx: &HitContext<'_, f32>,
            origin: &mut Self::Payload,
        ) -> IsResult<f32> {
            if ctx.aabb.contains_point(origin) {
                self.hits.fetch_add(1, Ordering::Relaxed);
            }
            IsResult::Ignore
        }
    }

    fn grid_gas() -> Gas<f32> {
        let aabbs: Vec<_> = (0..100)
            .map(|i| {
                let x = (i % 10) as f32 * 2.0;
                let y = (i / 10) as f32 * 2.0;
                Rect::xyzxyz(x, y, -0.5, x + 1.0, y + 1.0, 0.5)
            })
            .collect();
        Gas::build(aabbs, BuildOptions::default()).unwrap()
    }

    #[test]
    fn launch_counts_point_hits() {
        let gas = grid_gas();
        let device = Device::new();
        let program = CountContains {
            hits: AtomicU64::new(0),
        };
        // Probe the center of every cell (in and out of boxes).
        let report = device.launch::<f32, _>(400, |i, session| {
            let x = (i % 20) as f32;
            let y = (i / 20) as f32;
            let mut p = Point::xyz(x + 0.5, y + 0.5, 0.0);
            let ray = Ray::point_probe(p);
            session.trace(&gas, &program, &ray, &mut p);
        });
        // Exactly the 100 box centers are contained.
        assert_eq!(program.hits.load(Ordering::Relaxed), 100);
        assert_eq!(report.width, 400);
        assert_eq!(report.totals.rays, 400);
        // Node work lands on the wide counters, never the binary ones.
        assert!(report.totals.wide_nodes_visited > 0);
        assert_eq!(report.totals.nodes_visited, 0);
        assert_eq!(report.totals.prim_tests, 0);
        assert!(report.device_time.as_nanos() > 0);
    }

    #[test]
    fn ias_traversal_equivalent_to_gas() {
        // Split the same primitives across 4 GASes under an IAS; a LibRTS
        // style count program must see the same hits.
        let all: Vec<_> = (0..100)
            .map(|i| {
                let x = (i % 10) as f32 * 2.0;
                let y = (i / 10) as f32 * 2.0;
                Rect::xyzxyz(x, y, -0.5, x + 1.0, y + 1.0, 0.5)
            })
            .collect();
        let mono = Gas::build(all.clone(), BuildOptions::default()).unwrap();
        let instances: Vec<_> = all
            .chunks(25)
            .enumerate()
            .map(|(k, chunk)| {
                Instance::identity(
                    Arc::new(Gas::build(chunk.to_vec(), BuildOptions::default()).unwrap()),
                    k as u32,
                )
            })
            .collect();
        let ias = Ias::build(&instances).unwrap();

        let device = Device::new();
        for handle in 0..2 {
            let program = CountContains {
                hits: AtomicU64::new(0),
            };
            device.launch::<f32, _>(400, |i, session| {
                let x = (i % 20) as f32;
                let y = (i / 20) as f32;
                let mut p = Point::xyz(x + 0.5, y + 0.5, 0.0);
                let ray = Ray::point_probe(p);
                if handle == 0 {
                    session.trace(&mono, &program, &ray, &mut p);
                } else {
                    session.trace(&ias, &program, &ray, &mut p);
                }
            });
            assert_eq!(program.hits.load(Ordering::Relaxed), 100, "handle {handle}");
        }
    }

    #[test]
    fn instance_ids_reported() {
        struct RecordIds;
        impl RtProgram<f32> for RecordIds {
            type Payload = Vec<(u32, u32)>;
            fn intersection(
                &self,
                ctx: &HitContext<'_, f32>,
                seen: &mut Self::Payload,
            ) -> IsResult<f32> {
                seen.push((ctx.instance_id, ctx.primitive_index));
                IsResult::Ignore
            }
        }
        let gas = Arc::new(
            Gas::build(
                vec![Rect::xyzxyz(0.0f32, 0.0, -0.5, 1.0, 1.0, 0.5)],
                BuildOptions::default(),
            )
            .unwrap(),
        );
        // Same GAS instanced twice with different translations.
        let instances = vec![
            Instance {
                gas: Arc::clone(&gas),
                transform: Srt::identity(),
                instance_id: 10,
                visible: true,
            },
            Instance {
                gas,
                transform: Srt::translation(Point::xyz(5.0f32, 0.0, 0.0)),
                instance_id: 20,
                visible: true,
            },
        ];
        use geom::Srt;
        let ias = Ias::build(&instances).unwrap();
        let device = Device::new();
        let program = RecordIds;
        let seen = parking_lot::Mutex::new(Vec::new());
        device.launch::<f32, _>(2, |i, session| {
            let p = if i == 0 {
                Point::xyz(0.5f32, 0.5, 0.0)
            } else {
                Point::xyz(5.5f32, 0.5, 0.0)
            };
            let mut payload = Vec::new();
            session.trace(&ias, &program, &Ray::point_probe(p), &mut payload);
            seen.lock().extend(payload);
        });
        let mut got = seen.into_inner();
        got.sort_unstable();
        assert_eq!(got, vec![(10, 0), (20, 0)]);
    }

    #[test]
    fn miss_shader_runs() {
        struct MissFlag;
        impl RtProgram<f32> for MissFlag {
            type Payload = bool;
            fn intersection(&self, _ctx: &HitContext<'_, f32>, _p: &mut bool) -> IsResult<f32> {
                IsResult::Report(0.0)
            }
            fn miss(&self, missed: &mut bool) {
                *missed = true;
            }
        }
        let gas = grid_gas();
        let device = Device::new();
        let program = MissFlag;
        let flags = parking_lot::Mutex::new(vec![]);
        device.launch::<f32, _>(2, |i, session| {
            let p = if i == 0 {
                Point::xyz(0.5f32, 0.5, 0.0) // inside a box
            } else {
                Point::xyz(-100.0f32, -100.0, 0.0) // far away
            };
            let mut missed = false;
            session.trace(&gas, &program, &Ray::point_probe(p), &mut missed);
            flags.lock().push((i, missed));
        });
        let mut got = flags.into_inner();
        got.sort_unstable();
        assert_eq!(got, vec![(0, false), (1, true)]);
    }

    #[test]
    fn anyhit_terminate_stops() {
        struct FirstHitOnly;
        impl RtProgram<f32> for FirstHitOnly {
            type Payload = u32;
            fn intersection(&self, _ctx: &HitContext<'_, f32>, count: &mut u32) -> IsResult<f32> {
                *count += 1;
                IsResult::Report(0.5)
            }
            fn any_hit(
                &self,
                _ctx: &HitContext<'_, f32>,
                _t: f32,
                _count: &mut u32,
            ) -> AnyHitResult {
                AnyHitResult::Terminate
            }
        }
        // 50 overlapping boxes, a ray through all of them.
        let aabbs = vec![Rect::xyzxyz(0.0f32, 0.0, -0.5, 10.0, 10.0, 0.5); 50];
        let gas = Gas::build(aabbs, BuildOptions::default()).unwrap();
        let device = Device::new();
        let program = FirstHitOnly;
        let count = parking_lot::Mutex::new(0u32);
        device.launch::<f32, _>(1, |_, session| {
            let mut c = 0;
            let ray = Ray::new(
                Point::xyz(5.0f32, 5.0, 0.0),
                Point::xyz(1.0, 0.0, 0.0),
                0.0,
                100.0,
            );
            session.trace(&gas, &program, &ray, &mut c);
            *count.lock() = c;
        });
        assert_eq!(count.into_inner(), 1);
    }

    #[test]
    fn zero_width_launch() {
        let device = Device::new();
        let report = device.launch::<f32, _>(0, |_, _: &mut TraceSession<'_, f32>| {});
        assert_eq!(report.width, 0);
        assert_eq!(report.device_time.as_nanos(), 0);
    }

    /// Skewed work per launch index: every fourth warp of indices casts
    /// up to 16 probes per lane, the rest one, so warp maxima — and a
    /// throughput-bound device time — depend on which indices share a
    /// warp.
    fn skewed_lane(
        gas: &Gas<f32>,
        program: &CountContains,
        i: usize,
        session: &mut TraceSession<'_, f32>,
    ) {
        let reps = if (i / WARP_SIZE).is_multiple_of(4) {
            1 + i % 16
        } else {
            1
        };
        for r in 0..reps {
            let mut p = Point::xyz(((i + r) % 20) as f32 + 0.5, (i / 20 % 20) as f32 + 0.5, 0.0);
            session.trace(gas, program, &Ray::point_probe(p), &mut p);
        }
    }

    #[test]
    fn keyed_launch_reports_what_launch_reports() {
        let gas = grid_gas();
        let program = CountContains {
            hits: AtomicU64::new(0),
        };
        let throughput_bound = Device {
            cost_model: CostModel {
                concurrent_warps: 1,
                ..Default::default()
            },
        };
        for threads in [1, 4] {
            for device in [Device::new(), throughput_bound.clone()] {
                for width in [0usize, 1, 31, 1000] {
                    // A seeded shuffle with duplicate keys, and all-equal keys.
                    let mut state = 0x5EED_u64;
                    let shuffled: Vec<u64> = (0..width)
                        .map(|_| {
                            state = state
                                .wrapping_mul(6364136223846793005)
                                .wrapping_add(1442695040888963407);
                            (state >> 33) % (width as u64 / 4 + 1)
                        })
                        .collect();
                    for keys in [shuffled, vec![7; width]] {
                        let runs: Vec<AtomicU32> = (0..width).map(|_| AtomicU32::new(0)).collect();
                        let executed = parking_lot::Mutex::new(Vec::new());
                        let (base, keyed) = exec::with_threads(threads, || {
                            let base = device
                                .launch::<f32, _>(width, |i, s| skewed_lane(&gas, &program, i, s));
                            let keyed = device.launch_by_key::<f32, _>(&keys, |i, s| {
                                runs[i].fetch_add(1, Ordering::Relaxed);
                                executed.lock().push(i);
                                skewed_lane(&gas, &program, i, s);
                            });
                            (base, keyed)
                        });
                        let case = format!(
                            "threads {threads}, width {width}, concurrent_warps {}, keys {:?}",
                            device.cost_model.concurrent_warps,
                            &keys[..width.min(8)]
                        );
                        assert_eq!(keyed.width, base.width, "{case}");
                        assert_eq!(keyed.totals, base.totals, "{case}");
                        assert_eq!(keyed.max_is_per_thread, base.max_is_per_thread, "{case}");
                        assert_eq!(keyed.device_time, base.device_time, "{case}");
                        assert!(
                            runs.iter().all(|r| r.load(Ordering::Relaxed) == 1),
                            "{case}"
                        );
                        if threads == 1 {
                            let mut expected: Vec<usize> = (0..width).collect();
                            expected.sort_by_key(|&i| (keys[i], i));
                            assert_eq!(executed.into_inner(), expected, "{case}");
                        }
                    }
                }
            }
        }
    }
}
