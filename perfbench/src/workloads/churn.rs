//! `serve-churn`: one reader and one writer on a `ConcurrentIndex`.
//!
//! About 100K small rectangles (vehicles, clustered in cities) are
//! inserted as 4,096-rectangle batches and wrapped in a
//! `ConcurrentIndex` with `MaintenancePolicy::default()`. Two threads
//! run for the window, each under `exec::with_threads(1, ..)`, so
//! there is no `exec` fan-out:
//!
//! - the reader runs a closed loop of point lookups, Range-Contains
//!   batches and dashboard Range-Intersects over 4 fixed viewports
//!   (query-GAS cache hits), each on a freshly pinned snapshot;
//! - the writer runs an open loop at a fixed rate: mostly `update`
//!   batches of random movers (refit), and every [`CHURN_EVERY`]th write
//!   an `apply` of inserts plus deletes, which adds a GAS and leaves dead
//!   slots, so automatic maintenance reaches its compaction trigger.
//!   Once a second it also renders `obs::snapshot().to_prometheus()`, a
//!   scrape that is not counted as a write.
//!
//! Write latency runs from the write's due time to the return of the
//! publishing call. Every read is checked afterwards against an R-tree
//! replay of the writer's publish log up to the read's snapshot version.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use baselines::rtree::RTree;
use geom::{Point, Rect};
use librts::{BatchOp, ConcurrentIndex, MaintenancePolicy, Predicate};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{hash_points, hash_rects, insert_batches, rtree_digest, Batch};
use crate::check::{corrupt_first, gate, mode_guard, Digest, DigestHandler, InputHash};
use crate::client::{
    insert_layers, query_layers, record_call, timed_setups, Answer, Kind, Write, SETUPS, THREADS,
};
use crate::metrics::{per_layer, table, MetricSet, END_TO_END};
use crate::stats::{mean, median, peak_rss_mib, quantile, sorted, tail};
use crate::trace::Tracer;
use crate::{sub_seed, Outcome, RunConfig, Scale};

/// Writes per second of the open-loop writer.
const RATE: f64 = 80.0;
/// Every this many writes, one is an insert + delete `apply`.
const CHURN_EVERY: usize = 3;
/// Untimed writes before the window (they are in the publish log).
const WARM_WRITES: usize = 8;
/// Untimed reads before the window.
const WARM_READS: usize = 30;
/// Reads are drawn from a pool of this many generated requests, cycled.
const READ_POOL: usize = 4096;
const VIEWPORTS: usize = 4;
const WORLD: f32 = 10_000.0;

/// One generated write.
enum WriteOp {
    /// Move `ids` to `rects` (refit).
    Update {
        ids: Vec<u32>,
        rects: Vec<Rect<f32, 2>>,
    },
    /// Insert `inserts`, then delete `deletes`, published as one version.
    Churn {
        inserts: Vec<Rect<f32, 2>>,
        deletes: Vec<u32>,
    },
}

/// One generated read.
enum ReadOp {
    Point(Vec<Point<f32, 2>>),
    Contains(Vec<Rect<f32, 2>>),
    /// Index into the fixed dashboard viewports.
    Dashboard(usize),
}

struct Sizes {
    rects: usize,
    insert_batch: usize,
    movers: usize,
    churn: usize,
    lookups: usize,
    tiles: usize,
}

/// Generated inputs: data, the whole write sequence and the read pool.
struct Inputs {
    data: Vec<Rect<f32, 2>>,
    writes: Vec<WriteOp>,
    reads: Vec<ReadOp>,
    viewports: Vec<Vec<Rect<f32, 2>>>,
    insert_batch: usize,
    hash: u64,
}

fn vehicle(rng: &mut StdRng, cities: &[(f32, f32)]) -> Rect<f32, 2> {
    let (cx, cy) = cities[rng.gen_range(0..cities.len())];
    let x = (cx + rng.gen_range(-150.0f32..150.0) + rng.gen_range(-150.0f32..150.0))
        .clamp(0.0, WORLD - 20.0);
    let y = (cy + rng.gen_range(-150.0f32..150.0) + rng.gen_range(-150.0f32..150.0))
        .clamp(0.0, WORLD - 20.0);
    Rect::xyxy(
        x,
        y,
        x + rng.gen_range(2.0f32..8.0),
        y + rng.gen_range(2.0f32..8.0),
    )
}

fn moved(rng: &mut StdRng, r: &Rect<f32, 2>) -> Rect<f32, 2> {
    let dx = rng.gen_range(-6.0f32..6.0);
    let dy = rng.gen_range(-6.0f32..6.0);
    let dx = dx.clamp(-r.min.x(), WORLD - r.max.x());
    let dy = dy.clamp(-r.min.y(), WORLD - r.max.y());
    Rect::xyxy(
        r.min.x() + dx,
        r.min.y() + dy,
        r.max.x() + dx,
        r.max.y() + dy,
    )
}

impl Inputs {
    fn new(seed: u64, n_writes: usize, s: &Sizes) -> Self {
        let mut rng = StdRng::seed_from_u64(sub_seed(seed, 1));
        let cities: Vec<(f32, f32)> = (0..40)
            .map(|_| {
                (
                    rng.gen_range(500.0..WORLD - 500.0),
                    rng.gen_range(500.0..WORLD - 500.0),
                )
            })
            .collect();
        let data: Vec<Rect<f32, 2>> = (0..s.rects).map(|_| vehicle(&mut rng, &cities)).collect();

        // Simulate the id space to generate valid writes: ids are dense
        // in insertion order and never reused.
        let mut rng = StdRng::seed_from_u64(sub_seed(seed, 2));
        let mut current = data.clone();
        let mut live: Vec<u32> = (0..s.rects as u32).collect();
        let writes: Vec<WriteOp> = (0..n_writes)
            .map(|i| {
                if i % CHURN_EVERY == CHURN_EVERY - 1 {
                    let inserts: Vec<Rect<f32, 2>> =
                        (0..s.churn).map(|_| vehicle(&mut rng, &cities)).collect();
                    let first = current.len() as u32;
                    current.extend_from_slice(&inserts);
                    let deletes: Vec<u32> = (0..s.churn)
                        .map(|_| live.swap_remove(rng.gen_range(0..live.len())))
                        .collect();
                    live.extend(first..current.len() as u32);
                    WriteOp::Churn { inserts, deletes }
                } else {
                    let mut ids: Vec<u32> = (0..s.movers)
                        .map(|_| live[rng.gen_range(0..live.len())])
                        .collect();
                    ids.sort_unstable();
                    ids.dedup();
                    let rects = ids
                        .iter()
                        .map(|&id| {
                            let r = moved(&mut rng, &current[id as usize]);
                            current[id as usize] = r;
                            r
                        })
                        .collect();
                    WriteOp::Update { ids, rects }
                }
            })
            .collect();

        let mut rng = StdRng::seed_from_u64(sub_seed(seed, 3));
        let viewports: Vec<Vec<Rect<f32, 2>>> = (0..VIEWPORTS)
            .map(|_| {
                let (cx, cy) = cities[rng.gen_range(0..cities.len())];
                let side = 400.0 / (s.tiles as f32).sqrt();
                (0..s.tiles)
                    .map(|t| {
                        let row = (t as f32 * side / 400.0).floor();
                        let x = cx - 200.0 + (t as f32 * side) % 400.0;
                        let y = cy - 200.0 + row * side;
                        Rect::xyxy(x, y, x + side, y + side)
                    })
                    .collect()
            })
            .collect();
        let reads: Vec<ReadOp> = (0..READ_POOL)
            .map(|i| match i % 3 {
                0 => ReadOp::Point(
                    (0..s.lookups)
                        .map(|_| {
                            let r = vehicle(&mut rng, &cities);
                            Point::xy(r.min.x(), r.min.y())
                        })
                        .collect(),
                ),
                1 => ReadOp::Contains(
                    (0..s.lookups)
                        .map(|_| {
                            let r = vehicle(&mut rng, &cities);
                            Rect::xyxy(r.min.x(), r.min.y(), r.min.x() + 0.5, r.min.y() + 0.5)
                        })
                        .collect(),
                ),
                _ => ReadOp::Dashboard(rng.gen_range(0..VIEWPORTS)),
            })
            .collect();

        let mut h = InputHash::default();
        hash_rects(&mut h, &data);
        for w in &writes {
            match w {
                WriteOp::Update { ids, rects } => {
                    ids.iter().for_each(|&id| h.word(id as u64));
                    hash_rects(&mut h, rects);
                }
                WriteOp::Churn { inserts, deletes } => {
                    hash_rects(&mut h, inserts);
                    deletes.iter().for_each(|&id| h.word(id as u64));
                }
            }
        }
        for r in &reads {
            match r {
                ReadOp::Point(ps) => hash_points(&mut h, ps),
                ReadOp::Contains(qs) => hash_rects(&mut h, qs),
                ReadOp::Dashboard(v) => h.word(*v as u64),
            }
        }
        viewports.iter().for_each(|v| hash_rects(&mut h, v));
        Self {
            data,
            writes,
            reads,
            viewports,
            insert_batch: s.insert_batch,
            hash: h.finish(),
        }
    }

    fn batch<'a>(&'a self, read: &'a ReadOp) -> Batch<'a> {
        match read {
            ReadOp::Point(ps) => Batch::Point(ps),
            ReadOp::Contains(qs) => Batch::Contains(qs),
            ReadOp::Dashboard(v) => Batch::Intersects(&self.viewports[*v]),
        }
    }

    fn setup(&self) -> (ConcurrentIndex<f32>, Vec<Write>) {
        let (index, writes) = insert_batches(&self.data, self.insert_batch);
        let index = ConcurrentIndex::from_index(index).with_policy(MaintenancePolicy::default());
        (index, writes)
    }
}

/// What the writer recorded for one write.
struct WriteRec {
    /// First and last version the write published (maintenance may add
    /// versions with identical contents after the mutation's own).
    versions: (u64, u64),
    due: Instant,
    call: (Instant, Instant),
    /// `MutationReport::wall_time` of an `update`.
    reported: Option<Duration>,
    /// Maintenance actions (refits, rebuilds, compactions) the call ran.
    actions: u64,
    failed: bool,
}

/// What the reader recorded for one read.
struct ReadRec {
    /// Index into the read pool.
    op: usize,
    version: u64,
    /// `None` when the read returned an error.
    digest: Option<Digest>,
    items: u64,
    /// Start, snapshot pinned, and end after the snapshot was released.
    start: Instant,
    pinned: Instant,
    end: Instant,
    staleness: u64,
    /// The query call, kept for the traced run's spans.
    answer: Option<Answer>,
}

fn maintenance_actions() -> u64 {
    [
        "maintenance.refits",
        "maintenance.rebuilds",
        "maintenance.compacts",
    ]
    .iter()
    .map(|n| obs::counter(n).value())
    .sum()
}

/// Applies write `op`, due at `due`, to the live index.
fn write(index: &ConcurrentIndex<f32>, op: &WriteOp, due: Instant) -> WriteRec {
    let before = index.version();
    let actions = maintenance_actions();
    let start = Instant::now();
    let result = match op {
        WriteOp::Update { ids, rects } => index.update(ids, rects).map(|r| Some(r.wall_time)),
        WriteOp::Churn { inserts, deletes } => index
            .apply(&[
                BatchOp::Insert(inserts.clone()),
                BatchOp::Delete(deletes.clone()),
            ])
            .map(|_| None),
    };
    let end = Instant::now();
    if let Err(e) = &result {
        eprintln!("write failed: {e}");
    }
    WriteRec {
        versions: (before + 1, index.version()),
        due,
        call: (start, end),
        reported: result.as_ref().ok().copied().flatten(),
        actions: maintenance_actions() - actions,
        failed: result.is_err(),
    }
}

/// Sends read `op` of the pool on a freshly pinned snapshot; `keep`
/// keeps the query call for the traced run.
fn read(inputs: &Inputs, index: &ConcurrentIndex<f32>, op: usize, keep: bool) -> ReadRec {
    let start = Instant::now();
    let snap = index.snapshot();
    let pinned = Instant::now();
    let handler = DigestHandler::default();
    let result = match inputs.batch(&inputs.reads[op]) {
        Batch::Point(ps) => Ok((Kind::Point, ps.len(), snap.point_query(ps, &handler))),
        Batch::Contains(qs) => snap
            .try_range_query(Predicate::Contains, qs, &handler)
            .map(|r| (Kind::Contains, qs.len(), r)),
        Batch::Intersects(qs) => snap
            .try_range_query(Predicate::Intersects, qs, &handler)
            .map(|r| (Kind::Intersects, qs.len(), r)),
    };
    let returned = Instant::now();
    let (version, staleness) = (snap.version(), snap.staleness());
    drop(snap);
    let mut rec = ReadRec {
        op,
        version,
        digest: None,
        items: 0,
        start,
        pinned,
        end: Instant::now(),
        staleness,
        answer: None,
    };
    match result {
        Ok((kind, items, report)) => {
            let digest = handler.digest();
            rec.digest = Some(digest);
            rec.items = items as u64;
            rec.answer = keep.then_some(Answer {
                kind,
                items: items as u64,
                digest,
                report,
                call: (pinned, returned),
            });
        }
        Err(e) => eprintln!("read failed: {e}"),
    }
    rec
}

struct Scenario {
    /// When the writer's schedule starts.
    start: Instant,
    /// `obs` counter deltas over the window.
    obs_delta: obs::Snapshot,
    setup_s: Vec<f64>,
    setup_writes: Vec<Write>,
    writes: Vec<WriteRec>,
    reads: Vec<ReadRec>,
    window: Duration,
    final_version: u64,
    actions: u64,
    sah_drift_max: f64,
    bytes_per_rect: f64,
    renders: Vec<(Instant, Instant)>,
}

/// Reads per block of the traced run: blocks alternate untraced and
/// traced reads, so both see the same host conditions and write mix.
const TRACE_BLOCK: usize = 16;

fn scenario(inputs: &Inputs, trace: bool) -> Result<Scenario, String> {
    let (index, setup_s, setup_writes) = timed_setups(|| inputs.setup());
    let actions0 = maintenance_actions();
    let mut writes = Vec::with_capacity(inputs.writes.len());
    exec::with_threads(1, || -> Result<(), String> {
        for op in 0..WARM_READS {
            if read(inputs, &index, op, false).digest.is_none() {
                return Err(format!("warm-up read {op} failed"));
            }
        }
        for (i, op) in inputs.writes[..WARM_WRITES].iter().enumerate() {
            writes.push(write(&index, op, Instant::now()));
            if writes[i].failed {
                return Err(format!("warm-up write {i} failed"));
            }
        }
        Ok(())
    })?;

    let done = AtomicBool::new(false);
    let interval = Duration::from_secs_f64(1.0 / RATE);
    let obs0 = obs::snapshot();
    let t0 = Instant::now() + Duration::from_millis(5);
    let (reads, renders) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            exec::with_threads(1, || {
                let mut reads = Vec::new();
                let mut op = WARM_READS;
                while !done.load(Ordering::Acquire) {
                    let keep = trace && (op - WARM_READS) / TRACE_BLOCK % 2 == 1;
                    reads.push(read(inputs, &index, op % READ_POOL, keep));
                    op += 1;
                }
                reads
            })
        });
        let renders = exec::with_threads(1, || {
            let mut renders = Vec::new();
            let mut next_render = t0 + Duration::from_secs(1);
            for (i, op) in inputs.writes.iter().enumerate().skip(WARM_WRITES) {
                let due = t0 + interval * (i - WARM_WRITES) as u32;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                writes.push(write(&index, op, due));
                if Instant::now() >= next_render {
                    let start = Instant::now();
                    let text = obs::snapshot().to_prometheus();
                    std::hint::black_box(text.len());
                    renders.push((start, Instant::now()));
                    next_render += Duration::from_secs(1);
                }
            }
            done.store(true, Ordering::Release);
            renders
        });
        (reader.join().expect("reader thread panicked"), renders)
    });
    let obs_delta = obs::snapshot().delta_since(&obs0);
    let window = writes
        .last()
        .map_or(Duration::ZERO, |w| w.call.1.saturating_duration_since(t0));
    let report = index.maintenance_report();
    let snap = index.snapshot();
    Ok(Scenario {
        start: t0,
        obs_delta,
        setup_s,
        setup_writes,
        window,
        final_version: index.version(),
        actions: maintenance_actions() - actions0,
        sah_drift_max: report.worst_sah_drift(),
        bytes_per_rect: snap.memory_bytes() as f64 / snap.len() as f64,
        writes,
        reads,
        renders,
    })
}

/// Replays the publish log into an R-tree and checks every read at the
/// version it observed.
fn verify(inputs: &Inputs, sc: &Scenario, corrupt: bool) -> Result<usize, String> {
    let mut rt = RTree::bulk_load(&inputs.data);
    let mut global_of: Vec<u32> = (0..inputs.data.len() as u32).collect();
    let mut tree_of: Vec<u32> = global_of.clone();
    let mut order: Vec<usize> = (0..sc.reads.len()).collect();
    order.sort_by_key(|&i| sc.reads[i].version);
    let mut applied = 0;
    let mut recorded = Vec::with_capacity(order.len());
    let mut reference = Vec::with_capacity(order.len());
    for i in order {
        let r = &sc.reads[i];
        if r.digest.is_none() {
            continue;
        }
        while applied < sc.writes.len() && sc.writes[applied].versions.0 <= r.version {
            if !sc.writes[applied].failed {
                match &inputs.writes[applied] {
                    WriteOp::Update { ids, rects } => {
                        for (&id, rect) in ids.iter().zip(rects) {
                            rt.remove(tree_of[id as usize]);
                            tree_of[id as usize] = rt.insert(*rect);
                            global_of.push(id);
                        }
                    }
                    WriteOp::Churn { inserts, deletes } => {
                        for rect in inserts {
                            global_of.push(tree_of.len() as u32);
                            tree_of.push(rt.insert(*rect));
                        }
                        for &id in deletes {
                            rt.remove(tree_of[id as usize]);
                        }
                    }
                }
            }
            applied += 1;
        }
        recorded.push((i, r.digest));
        reference.push(rtree_digest(&rt, inputs.batch(&inputs.reads[r.op]), |t| {
            global_of[t as usize]
        }));
    }
    if corrupt {
        corrupt_first(&mut recorded);
    }
    gate(&recorded, &reference)
        .map_err(|e| format!("correctness gate (read at its snapshot version): {e}"))
}

/// Lateness of each timed write (start minus due time), in ms.
fn lateness_ms(sc: &Scenario) -> Vec<f64> {
    sc.writes[WARM_WRITES..]
        .iter()
        .map(|w| w.call.0.saturating_duration_since(w.due).as_secs_f64() * 1e3)
        .collect()
}

/// Open-loop validity: the run is invalid when the writer fell behind
/// its schedule, i.e. lateness grew from the first to the last quarter.
fn backlog_check(late: &[f64]) -> Result<(), String> {
    let q = late.len() / 4;
    if q == 0 {
        return Ok(());
    }
    let (first, last) = (median(&late[..q]), median(&late[late.len() - q..]));
    let limit = first + 2e3 / RATE;
    if last > limit {
        return Err(format!(
            "run invalid: writer backlog (median lateness {first:.3} ms in the first quarter, {last:.3} ms in the last)"
        ));
    }
    Ok(())
}

fn write_ms(sc: &Scenario) -> Vec<f64> {
    let window_ms = sc.window.as_secs_f64() * 1e3;
    sc.writes[WARM_WRITES..]
        .iter()
        .map(|w| {
            if w.failed {
                window_ms
            } else {
                (w.call.1 - w.due).as_secs_f64() * 1e3
            }
        })
        .collect()
}

fn read_ms(sc: &Scenario) -> Vec<f64> {
    let window_ms = sc.window.as_secs_f64() * 1e3;
    sc.reads
        .iter()
        .map(|r| {
            if r.digest.is_some() {
                (r.end - r.start).as_secs_f64() * 1e3
            } else {
                window_ms
            }
        })
        .collect()
}

fn read_qps(sc: &Scenario) -> f64 {
    let items: u64 = sc.reads.iter().map(|r| r.items).sum();
    let span = match (sc.reads.first(), sc.reads.last()) {
        (Some(a), Some(b)) => b.end - a.start,
        _ => Duration::ZERO,
    };
    items as f64 / span.as_secs_f64()
}

fn traced_layers(
    inputs: &Inputs,
    sc: &Scenario,
    tracer: &mut Tracer,
) -> Vec<crate::metrics::Metric> {
    for (i, r) in sc.reads.iter().enumerate() {
        let Some(answer) = &r.answer else { continue };
        let req = tracer.span("read", i as u64, None, r.start, r.end);
        tracer.count(req, "staleness", r.staleness);
        tracer.span(
            "concurrent.snapshot",
            i as u64,
            Some(req),
            r.start,
            r.pinned,
        );
        record_call(tracer, i as u64, Some(req), answer);
    }
    for (i, w) in sc.writes.iter().enumerate().skip(WARM_WRITES) {
        let id = (1 << 32) + i as u64;
        let req = tracer.span("write", id, None, w.due, w.call.1);
        tracer.count(req, "actions", w.actions);
        let name = if w.reported.is_some() {
            "concurrent.update"
        } else {
            "concurrent.apply"
        };
        let call = tracer.span(name, id, Some(req), w.call.0, w.call.1);
        if let Some(rep) = w.reported {
            tracer.phases(call, &[("index.update", rep.min(w.call.1 - w.call.0))]);
        }
    }
    for (i, &(s, e)) in sc.renders.iter().enumerate() {
        tracer.span("obs.render", (2 << 32) + i as u64, None, s, e);
    }

    let window = tracer.span("window", 0, None, sc.start, sc.start + sc.window);
    let hits = sc.obs_delta.counter("rtcore.gas_cache_hits").unwrap_or(0);
    tracer.count(window, "gas_cache_hits", hits);

    let mut m = per_layer();
    query_layers(&mut m, tracer);
    insert_layers(&mut m, tracer, &sc.setup_writes);
    let dashboards = sc
        .reads
        .iter()
        .filter(|r| matches!(inputs.reads[r.op], ReadOp::Dashboard(_)))
        .count();
    if dashboards > 0 {
        m.set(
            "rtcore.gas_cache_hit_rate",
            hits as f64 / dashboards as f64,
            dashboards,
        );
    }
    m.set("index.bytes_per_rect", sc.bytes_per_rect, 1);
    let p50 = |name: &str| {
        let v = tracer.durations_ms(name);
        (median(&v), v.len())
    };
    let (v, n) = p50("index.update");
    m.set("index.update_ms", v, n);
    m.set("index.update_calls", n as f64, n);
    let (v, n) = p50("concurrent.apply");
    m.set("index.churn_ms", v, n);
    m.set("index.churn_calls", n as f64, n);
    let publish = tracer.self_ms("concurrent.update");
    m.set("concurrent.publish_ms", median(&publish), publish.len());
    let pins: Vec<f64> = tracer
        .durations_ms("concurrent.snapshot")
        .iter()
        .map(|ms| ms * 1e3)
        .collect();
    m.set("concurrent.snapshot_us", median(&pins), pins.len());
    let stale: Vec<f64> = tracer
        .named("read")
        .map(|s| s.count("staleness") as f64)
        .collect();
    m.set("concurrent.read_staleness", mean(&stale), stale.len());
    m.set("concurrent.reads", stale.len() as f64, stale.len());
    let timed = sc.writes.len() - WARM_WRITES;
    let acted: Vec<f64> = tracer
        .named("write")
        .filter(|s| s.count("actions") > 0)
        .map(|s| s.ms())
        .collect();
    let actions: u64 = tracer.total("write", "actions");
    m.set(
        "maintenance.actions_per_100_writes",
        actions as f64 * 100.0 / timed as f64,
        timed,
    );
    m.set("maintenance.write_ms", median(&acted), acted.len());
    m.set("maintenance.action_writes", acted.len() as f64, acted.len());
    m.set("maintenance.sah_drift_max", sc.sah_drift_max, 1);
    let (v, n) = p50("obs.render");
    m.set("obs.render_ms", v, n);
    m.set("obs.renders", n as f64, n);
    let writes = sorted(&write_ms(sc));
    m.set("driver.write_p50_ms", quantile(&writes, 0.5), writes.len());
    m.set("driver.write_p99_ms", quantile(&writes, 0.99), writes.len());
    let late = sorted(&lateness_ms(sc));
    m.set(
        "driver.write_lateness_p99_ms",
        quantile(&late, 0.99),
        late.len(),
    );
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for (l, r) in read_ms(sc).into_iter().zip(&sc.reads) {
        if r.answer.is_some() {
            traced.push(l);
        } else {
            plain.push(l);
        }
    }
    m.set(
        "driver.tracing_overhead",
        mean(&plain) / mean(&traced),
        traced.len(),
    );
    m.into_vec()
}

/// Runs `serve-churn` end to end.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let (n_writes, sizes) = match cfg.scale {
        Scale::Full => (
            WARM_WRITES + super::timed_requests(cfg.seconds, RATE, 1000),
            Sizes {
                rects: 100_000,
                insert_batch: 4096,
                movers: 32,
                churn: 32,
                lookups: 64,
                tiles: 16,
            },
        ),
        Scale::Smoke => (
            WARM_WRITES + 40,
            Sizes {
                rects: 3_000,
                insert_batch: 512,
                movers: 8,
                churn: 16,
                lookups: 8,
                tiles: 4,
            },
        ),
    };
    let inputs = Inputs::new(cfg.seed, n_writes, &sizes);
    let before = obs::snapshot();
    // Set-up runs under the single-client thread count; the reader and
    // writer pin their own.
    let sc = exec::with_threads(THREADS, || scenario(&inputs, cfg.trace))?;
    let rss = peak_rss_mib();
    mode_guard(&before, &obs::snapshot())?;
    let (checked, mismatch) = match verify(&inputs, &sc, cfg.corrupt_checksum) {
        Ok(n) => (n, None),
        Err(e) => (0, Some(e)),
    };
    backlog_check(&lateness_ms(&sc))?;
    let attempted = (sc.reads.len() + sc.writes.len() - WARM_WRITES) as u64;
    let failed = (sc.reads.iter().filter(|r| r.digest.is_none()).count()
        + sc.writes.iter().filter(|w| w.failed).count()) as u64;

    let mut lines = vec![
        format!(
            "fingerprint: inputs={:016x} writes={} maintenance_actions={} final_version={}",
            inputs.hash,
            sc.writes.len(),
            sc.actions,
            sc.final_version
        ),
        format!("checked {checked} reads against the publish-log replay"),
        format!("failed_share: {}", failed as f64 / attempted as f64),
    ];
    let metrics = if cfg.trace {
        let mut tracer = Tracer::new(
            sc.setup_writes
                .first()
                .map_or_else(Instant::now, |w| w.call.0),
        );
        let metrics = traced_layers(&inputs, &sc, &mut tracer);
        if let Some(path) = &cfg.span_file {
            tracer
                .write_jsonl(path)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            lines.push(format!("spans written to {}", path.display()));
        }
        metrics
    } else {
        let reads = sorted(&read_ms(&sc));
        let writes = sorted(&write_ms(&sc));
        let late = sorted(&lateness_ms(&sc));
        let (read_label, read_tail) = tail(&reads);
        lines.push(format!(
            "read_tail_ms is the {read_label} of {} reads; read_p95_ms: {} ms; write_p50_ms: {} ms and \
             write_p99_ms: {} ms over {} writes; driver.write_lateness_p99_ms: {} ms; index_bytes_per_rect: {} B",
            reads.len(),
            quantile(&reads, 0.95),
            quantile(&writes, 0.5),
            quantile(&writes, 0.99),
            writes.len(),
            quantile(&late, 0.99),
            sc.bytes_per_rect
        ));
        let mut m = MetricSet::new(END_TO_END);
        m.set("setup_s", median(&sc.setup_s), SETUPS);
        m.set("query_qps", read_qps(&sc), reads.len());
        m.set("read_p50_ms", quantile(&reads, 0.5), reads.len());
        m.set("read_tail_ms", read_tail, reads.len());
        m.set("peak_rss_mib", rss, 1);
        m.into_vec()
    };
    lines.extend(table(&metrics));
    Ok(Outcome {
        mismatch,
        attempted,
        failed,
        metrics,
        lines,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backlog_check_flags_growing_lateness_only() {
        let steady: Vec<f64> = (0..400).map(|i| (i % 7) as f64 * 0.1).collect();
        assert!(backlog_check(&steady).is_ok());
        // A stall early in the run that the writer catches up on.
        let mut caught_up = steady.clone();
        caught_up[50..60].iter_mut().for_each(|l| *l = 80.0);
        assert!(backlog_check(&caught_up).is_ok());
        // Lateness that keeps growing: the writer cannot keep its rate.
        let growing: Vec<f64> = (0..400).map(|i| i as f64 * 0.5).collect();
        assert!(backlog_check(&growing).is_err());
    }
}
