//! Concurrent snapshot serving: multi-reader query access racing a
//! single mutating writer.
//!
//! [`RTSIndex`] exposes mutations through `&mut self`, so a deployment
//! serving query traffic cannot run a single query while an
//! insert/delete/compact is in flight. [`ConcurrentIndex`] lifts that
//! restriction with **epoch-style snapshot publication**:
//!
//! - Readers call [`ConcurrentIndex::snapshot`] and get a
//!   [`SnapshotRef`] — an `Arc`-backed, immutable view of the index at
//!   one published version. Acquisition is lock-free (a bounded retry
//!   loop over two atomic slots, never a mutex), and every query
//!   against the handle runs the exact same code path as a plain
//!   `RTSIndex`, so single-threaded results and Stable-class counters
//!   are byte-identical to the non-concurrent engine.
//! - A single writer (serialized by an internal mutex) applies each
//!   mutation batch to a **private successor** index, then publishes
//!   the successor under a monotonically increasing
//!   [`version`](ConcurrentIndex::version). Publication is cheap:
//!   the per-batch GASes are structurally shared through the existing
//!   `Arc<Gas<C>>` handles, so a publish copies the host-side
//!   rectangle cache and rebuilds the (primitive-free) IAS but never
//!   deep-copies a BVH that did not change.
//! - A **failed** mutation batch (the PR-3 atomicity contract) never
//!   publishes: the last-good snapshot stays readable and the private
//!   successor is restored from it, so no partial batch effect can
//!   ever leak into a later publish.
//!
//! # Snapshot consistency
//!
//! The correctness claim the conformance stress tier pins
//! (`crates/conformance/tests/concurrent_stress.rs`): every result set
//! a reader observes is **exactly** the result set of *some* published
//! version — the version reported by the handle — never a torn
//! interleaving of two versions. Handles also pin memory: an old
//! snapshot stays alive only while a reader still holds a handle to
//! it; the publication cell itself retains only the newest version.
//!
//! # Metrics
//!
//! The layer feeds the `obs` registry:
//!
//! - `concurrent.publishes` / `concurrent.failed_publishes`
//!   (Stable counters) — successful and rejected mutation batches;
//! - `concurrent.publish_retries` / `concurrent.backoff_virtual_ns`
//!   (Stable counters) — transient publish failures (the chaos
//!   `concurrent.publish` point) absorbed by the deterministic
//!   retry-with-backoff ladder, and the virtual backoff time the
//!   ladder charged (never slept — the ladder is virtual-time);
//! - `span.concurrent.publish.*` (Stable span counters + Host wall) —
//!   publication cost;
//! - `concurrent.version` (Host gauge) — latest published version;
//! - `concurrent.reader_snapshots` (Host counter) — handles served;
//!   divided by `concurrent.publishes` this is reader batches per
//!   version;
//! - `concurrent.snapshot_age` (Host gauge) and
//!   `concurrent.stale_reads` (Host counter) — on handle drop, how many
//!   publishes the handle was behind, and whether it was behind at all.
//!
//! Reader-side metrics are Host-class by design: they depend on thread
//! scheduling, and Stable-class totals must stay byte-identical between
//! `ConcurrentIndex` and plain `RTSIndex` on the query path.

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::ops::{Deref, Range};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, Weak};

use geom::{Coord, Rect};

use crate::config::IndexOptions;
use crate::error::IndexError;
use crate::index::RTSIndex;
use crate::index3d::RTSIndex3;
use crate::maintenance::{
    MaintenanceAction, MaintenanceOutcome, MaintenancePolicy, MaintenanceReport,
};
use crate::report::MutationReport;

// ---------------------------------------------------------------------------
// Metric handles (process-global, cached)
// ---------------------------------------------------------------------------

fn m_publishes() -> &'static Arc<obs::Counter> {
    static M: OnceLock<Arc<obs::Counter>> = OnceLock::new();
    M.get_or_init(|| obs::counter("concurrent.publishes"))
}

fn m_failed_publishes() -> &'static Arc<obs::Counter> {
    static M: OnceLock<Arc<obs::Counter>> = OnceLock::new();
    M.get_or_init(|| obs::counter("concurrent.failed_publishes"))
}

fn m_publish_retries() -> &'static Arc<obs::Counter> {
    static M: OnceLock<Arc<obs::Counter>> = OnceLock::new();
    M.get_or_init(|| obs::counter("concurrent.publish_retries"))
}

fn m_backoff_ns() -> &'static Arc<obs::Counter> {
    static M: OnceLock<Arc<obs::Counter>> = OnceLock::new();
    M.get_or_init(|| obs::counter("concurrent.backoff_virtual_ns"))
}

fn m_version() -> &'static Arc<obs::Gauge> {
    static M: OnceLock<Arc<obs::Gauge>> = OnceLock::new();
    M.get_or_init(|| obs::gauge("concurrent.version"))
}

fn m_reader_snapshots() -> &'static Arc<obs::Counter> {
    static M: OnceLock<Arc<obs::Counter>> = OnceLock::new();
    M.get_or_init(|| obs::global().counter("concurrent.reader_snapshots", obs::Class::Host))
}

fn m_snapshot_age() -> &'static Arc<obs::Gauge> {
    static M: OnceLock<Arc<obs::Gauge>> = OnceLock::new();
    M.get_or_init(|| obs::gauge("concurrent.snapshot_age"))
}

fn m_stale_reads() -> &'static Arc<obs::Counter> {
    static M: OnceLock<Arc<obs::Counter>> = OnceLock::new();
    M.get_or_init(|| obs::global().counter("concurrent.stale_reads", obs::Class::Host))
}

// ---------------------------------------------------------------------------
// Maintenance-decision introspection
// ---------------------------------------------------------------------------

/// Maintenance decisions each concurrent index retains for `/index`.
const DECISION_RETENTION: usize = 16;

fn action_label(action: MaintenanceAction) -> &'static str {
    match action {
        MaintenanceAction::NoOp => "none",
        MaintenanceAction::Refit => "refit",
        MaintenanceAction::Rebuild => "rebuild",
        MaintenanceAction::Compact => "compact",
    }
}

/// The degraded-mode ladder's maintenance clamp: `Normal` passes the
/// policy through, `Degraded` strips structural work (refit-only),
/// `ReadOnly` suppresses the pass (`None`) — a read-only index must
/// not publish.
fn mode_clamped(policy: &MaintenancePolicy) -> Option<MaintenancePolicy> {
    match obs::health::serving_mode() {
        obs::health::ServingMode::Normal => Some(policy.clone()),
        obs::health::ServingMode::Degraded => Some(policy.refit_only()),
        obs::health::ServingMode::ReadOnly => None,
    }
}

fn record_decision(
    log: &Mutex<VecDeque<obs::MaintenanceDecision>>,
    outcome: &MaintenanceOutcome,
    version: u64,
) {
    let mut log = log.lock().unwrap_or_else(PoisonError::into_inner);
    if log.len() == DECISION_RETENTION {
        log.pop_front();
    }
    log.push_back(obs::MaintenanceDecision {
        version,
        ts_ns: obs::trace::now_ns(),
        refits: outcome.refits,
        rebuilds: outcome.rebuilds,
        compacted: outcome.compacted,
        deferred: outcome.deferred,
        device_ns: outcome.device_time.as_nanos().min(u64::MAX as u128) as u64,
    });
}

fn drift_statuses(report: &MaintenanceReport) -> Vec<obs::GasDriftStatus> {
    report
        .gases
        .iter()
        .map(|g| obs::GasDriftStatus {
            batch: g.batch,
            prims: g.prims,
            sah_drift: g.sah_drift,
            overlap_drift: g.overlap_drift,
            wanted: action_label(g.wanted),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// The publication cell
// ---------------------------------------------------------------------------

/// One published engine state.
struct Published<E> {
    version: u64,
    engine: E,
}

/// A two-slot, lock-free snapshot publication cell.
///
/// Readers never block: [`SnapCell::load`] is an increment of the
/// active slot's in-flight counter, a revalidation load, and an `Arc`
/// clone; it only retries when a publish landed between the two loads
/// of `active` (each publish can force at most one retry per reader).
///
/// The single writer (serialized externally) publishes into the
/// *inactive* slot, flips `active`, then drains and clears the old
/// slot — so the cell itself retains only the newest snapshot, and an
/// old version's memory is freed the moment its last reader handle
/// drops.
///
/// Memory ordering is `SeqCst` throughout: the reader's
/// increment-then-check and the writer's flip-then-drain form a
/// store/load (Dekker) pattern in which weaker orderings would allow
/// the writer to miss an in-flight reader.
struct SnapCell<E> {
    /// Monotone publication counter; the low bit is the active slot.
    active: AtomicU64,
    /// In-flight reader loads per slot.
    readers: [AtomicUsize; 2],
    slots: [UnsafeCell<Option<Arc<Published<E>>>>; 2],
}

// SAFETY: slot contents are only mutated by the (externally serialized)
// writer while the slot is inactive and drained of readers; readers only
// dereference a slot they have pinned via `readers[slot]` *and*
// revalidated as still active. See `load` / `publish` for the protocol.
unsafe impl<E: Send + Sync> Sync for SnapCell<E> {}

impl<E> SnapCell<E> {
    fn new(first: Arc<Published<E>>) -> Self {
        Self {
            active: AtomicU64::new(0),
            readers: [AtomicUsize::new(0), AtomicUsize::new(0)],
            slots: [UnsafeCell::new(Some(first)), UnsafeCell::new(None)],
        }
    }

    /// Lock-free reader load of the current snapshot.
    fn load(&self) -> Arc<Published<E>> {
        let mut spins = 0u32;
        loop {
            let a = self.active.load(Ordering::SeqCst);
            let slot = (a & 1) as usize;
            self.readers[slot].fetch_add(1, Ordering::SeqCst);
            if self.active.load(Ordering::SeqCst) == a {
                // SAFETY: the slot was active at the second `active`
                // load, and our `readers[slot]` increment (SeqCst,
                // before that load) is visible to any writer that flips
                // afterwards — the writer drains `readers[slot]` to 0
                // before touching the slot's contents, and we only
                // decrement after the clone completes. `active` is a
                // monotone counter, so a stale `a` can never revalidate.
                let arc = unsafe {
                    (*self.slots[slot].get())
                        .as_ref()
                        .expect("active slot is always populated")
                        .clone()
                };
                self.readers[slot].fetch_sub(1, Ordering::SeqCst);
                return arc;
            }
            // A publish landed between the two loads; unpin and retry
            // against the new active slot.
            self.readers[slot].fetch_sub(1, Ordering::SeqCst);
            spins += 1;
            if spins.is_multiple_of(32) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// Wait until no reader is mid-load in `slot`. Readers hold the pin
    /// for a handful of instructions, so this terminates quickly; a
    /// laggard that pins the inactive slot fails revalidation and
    /// unpins without dereferencing.
    fn drain(&self, slot: usize) {
        let mut spins = 0u32;
        while self.readers[slot].load(Ordering::SeqCst) != 0 {
            spins += 1;
            if spins.is_multiple_of(32) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// Publish `next` as the new current snapshot.
    ///
    /// Must only be called by the single writer (the callers hold the
    /// `SnapCore` writer mutex).
    fn publish(&self, next: Arc<Published<E>>) {
        let a = self.active.load(Ordering::SeqCst);
        let old_slot = (a & 1) as usize;
        let target = 1 - old_slot;
        // The target slot was cleared by the previous publish; drain any
        // laggard readers still unpinning it before writing.
        self.drain(target);
        // SAFETY: `target` is inactive, drained, and only this (single)
        // writer mutates slot contents.
        unsafe { *self.slots[target].get() = Some(next) };
        // Flip: +1 advances the generation and toggles the slot bit.
        self.active.store(a + 1, Ordering::SeqCst);
        // Retire the previous snapshot: once in-flight readers of the
        // old slot finish their clones, drop the cell's reference so
        // outstanding handles are the only owners.
        self.drain(old_slot);
        // SAFETY: `old_slot` is now inactive and drained (see above).
        unsafe { *self.slots[old_slot].get() = None };
    }
}

// ---------------------------------------------------------------------------
// Reader handles
// ---------------------------------------------------------------------------

/// An immutable, `Arc`-backed view of a published engine state.
///
/// Dereferences to the wrapped engine (an [`RTSIndex`] of either
/// dimension), so every read-only method — queries, `len`,
/// `memory_bytes`, EXPLAIN — is available directly on the handle. The
/// snapshot never changes underneath the holder: a writer publishing a
/// newer version leaves this handle (and its results) untouched.
pub struct SnapshotRef<E> {
    inner: Arc<Published<E>>,
    latest: Arc<AtomicU64>,
}

impl<E> SnapshotRef<E> {
    /// The published version this handle observes (0 is the initial
    /// state; each successful mutation batch increments it by one).
    pub fn version(&self) -> u64 {
        self.inner.version
    }

    /// How many publishes this handle currently lags behind (0 when it
    /// is the newest published version).
    pub fn staleness(&self) -> u64 {
        self.latest
            .load(Ordering::SeqCst)
            .saturating_sub(self.inner.version)
    }

    /// A weak handle that does not keep the snapshot alive — the
    /// memory-reclamation probe used by the deterministic publish
    /// tests: once every strong [`SnapshotRef`] to an old version is
    /// dropped (and a newer version has been published), `upgrade`
    /// returns `None`.
    pub fn downgrade(&self) -> WeakSnapshotRef<E> {
        WeakSnapshotRef {
            inner: Arc::downgrade(&self.inner),
            latest: Arc::clone(&self.latest),
        }
    }
}

impl<E> Clone for SnapshotRef<E> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
            latest: Arc::clone(&self.latest),
        }
    }
}

impl<E> Deref for SnapshotRef<E> {
    type Target = E;

    fn deref(&self) -> &E {
        &self.inner.engine
    }
}

impl<E> Drop for SnapshotRef<E> {
    fn drop(&mut self) {
        let age = self.staleness();
        m_snapshot_age().set(age.min(i64::MAX as u64) as i64);
        if age > 0 {
            m_stale_reads().inc();
        }
    }
}

/// Weak counterpart of [`SnapshotRef`] (see
/// [`SnapshotRef::downgrade`]).
pub struct WeakSnapshotRef<E> {
    inner: Weak<Published<E>>,
    latest: Arc<AtomicU64>,
}

impl<E> WeakSnapshotRef<E> {
    /// Upgrades back to a strong handle while the snapshot is still
    /// alive (some strong handle exists, or it is still the published
    /// version).
    pub fn upgrade(&self) -> Option<SnapshotRef<E>> {
        Some(SnapshotRef {
            inner: self.inner.upgrade()?,
            latest: Arc::clone(&self.latest),
        })
    }
}

impl<E> Clone for WeakSnapshotRef<E> {
    fn clone(&self) -> Self {
        Self {
            inner: self.inner.clone(),
            latest: Arc::clone(&self.latest),
        }
    }
}

// ---------------------------------------------------------------------------
// The generic writer/publication core
// ---------------------------------------------------------------------------

struct WriterState<E> {
    /// The private successor the next mutation batch applies to.
    next: E,
    /// Version of the newest published snapshot.
    version: u64,
}

/// The writer and publication plumbing of [`ConcurrentIndex`].
struct SnapCore<E> {
    cell: SnapCell<E>,
    /// Mirror of the newest published version, shared with handles for
    /// staleness accounting.
    latest: Arc<AtomicU64>,
    /// `obs::trace::now_ns()` of the newest publish (0 before the
    /// first), for `/index` snapshot-age introspection.
    last_publish_ns: AtomicU64,
    /// Writer exclusivity: all mutations serialize here; the query path
    /// never touches it.
    writer: Mutex<WriterState<E>>,
}

impl<E: Clone + Send + Sync> SnapCore<E> {
    fn new(initial: E) -> Self {
        let next = initial.clone();
        Self {
            cell: SnapCell::new(Arc::new(Published {
                version: 0,
                engine: initial,
            })),
            latest: Arc::new(AtomicU64::new(0)),
            last_publish_ns: AtomicU64::new(0),
            writer: Mutex::new(WriterState { next, version: 0 }),
        }
    }

    fn snapshot(&self) -> SnapshotRef<E> {
        m_reader_snapshots().inc();
        let handle = SnapshotRef {
            inner: self.cell.load(),
            latest: Arc::clone(&self.latest),
        };
        // Refresh the age gauge on pin, not only on drop: a process
        // holding long-lived handles would otherwise report the
        // staleness of whatever handle happened to drop last, and the
        // live plane's sampler would never see current staleness.
        m_snapshot_age().set(handle.staleness().min(i64::MAX as u64) as i64);
        handle
    }

    fn version(&self) -> u64 {
        self.latest.load(Ordering::SeqCst)
    }

    /// Rolls the private successor back to the last published engine —
    /// every failed or panicked mutation path funnels through here so a
    /// partially applied batch leaves no residue for the next writer.
    fn restore_successor(&self, st: &mut WriterState<E>) {
        st.next = self.cell.load().engine.clone();
        m_failed_publishes().inc();
    }

    /// Runs the deterministic retry ladder against the chaos
    /// `concurrent.publish` point, then publishes the staged successor
    /// under the next version. A transiently failing publish (an
    /// injected `fail` rule) is retried up to
    /// [`MAX_PUBLISH_ATTEMPTS`] times with an exponential *virtual*
    /// backoff — `PUBLISH_BACKOFF_BASE_NS << retry` nanoseconds charged
    /// to `concurrent.backoff_virtual_ns`, never slept, so the ladder
    /// is byte-identical at any thread count. On exhaustion the
    /// successor is rolled back and `PublishFailed` returned.
    fn publish_locked(&self, st: &mut WriterState<E>) -> Result<u64, IndexError> {
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            match chaos::fire("concurrent.publish") {
                // `slow` models a sluggish (but successful) publish; its
                // virtual time is already tallied in `chaos.slow_virtual_ns`.
                None | Some(chaos::FaultAction::Slow(_)) => break,
                Some(chaos::FaultAction::Panic) => {
                    self.restore_successor(st);
                    panic!("chaos: injected panic at concurrent.publish");
                }
                Some(chaos::FaultAction::Fail) if attempts < MAX_PUBLISH_ATTEMPTS => {
                    m_publish_retries().inc();
                    m_backoff_ns().add(PUBLISH_BACKOFF_BASE_NS << (attempts - 1));
                }
                Some(chaos::FaultAction::Fail) => {
                    self.restore_successor(st);
                    return Err(IndexError::PublishFailed { attempts });
                }
            }
        }
        st.version += 1;
        let version = st.version;
        let span = obs::span!("concurrent.publish");
        let published = Arc::new(Published {
            version,
            engine: st.next.clone(),
        });
        self.cell.publish(published);
        self.latest.store(version, Ordering::SeqCst);
        self.last_publish_ns
            .store(obs::trace::now_ns(), Ordering::SeqCst);
        drop(span);
        m_publishes().inc();
        m_version().set(version.min(i64::MAX as u64) as i64);
        Ok(version)
    }

    /// Applies `f` to the private successor. On `Ok` the successor is
    /// published under the next version (through the retry ladder of
    /// [`publish_locked`](Self::publish_locked)); on `Err` — and on
    /// *panic*, e.g. an injected worker fault unwinding out of a
    /// mid-batch fan-out — nothing is published and the successor is
    /// restored from the last published snapshot, so a partially
    /// applied batch leaves no residue. Panics are re-raised after the
    /// rollback.
    fn mutate<R>(
        &self,
        f: impl FnOnce(&mut E) -> Result<R, IndexError>,
    ) -> Result<(R, u64), IndexError> {
        let mut st = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let out = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut st.next))) {
            Ok(Ok(out)) => out,
            Ok(Err(e)) => {
                self.restore_successor(&mut st);
                return Err(e);
            }
            Err(payload) => {
                // AssertUnwindSafe is sound *because* of this rollback:
                // whatever broken state `f` left behind is discarded
                // before anything can observe it.
                self.restore_successor(&mut st);
                drop(st);
                std::panic::resume_unwind(payload);
            }
        };
        let version = self.publish_locked(&mut st)?;
        Ok((out, version))
    }

    /// Applies `f` to the private successor and publishes **only when
    /// `f` returns `Some`** — the automatic-maintenance entry point. On
    /// `None` nothing is published, no version is consumed, and no
    /// publish counter moves; `f` must leave the successor untouched in
    /// that case (the maintenance no-op contract: a pass that takes no
    /// action does not mutate the engine). A panic inside `f` rolls the
    /// successor back and re-raises; a publish failing through the
    /// whole retry ladder also rolls back — maintenance is best-effort,
    /// so exhaustion reads as "pass did nothing" (`None`).
    fn mutate_if<R>(&self, f: impl FnOnce(&mut E) -> Option<R>) -> Option<(R, u64)> {
        let mut st = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let out = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut st.next))) {
            Ok(Some(out)) => out,
            Ok(None) => return None,
            Err(payload) => {
                self.restore_successor(&mut st);
                drop(st);
                std::panic::resume_unwind(payload);
            }
        };
        match self.publish_locked(&mut st) {
            Ok(version) => Some((out, version)),
            Err(_) => None,
        }
    }
}

/// Publish attempts (initial try + retries) before
/// [`IndexError::PublishFailed`] is returned.
const MAX_PUBLISH_ATTEMPTS: u32 = 4;

/// First-retry virtual backoff; doubles per retry (1 MiB ns ≈ 1.05 ms).
const PUBLISH_BACKOFF_BASE_NS: u64 = 1 << 20;

// ---------------------------------------------------------------------------
// ConcurrentIndex
// ---------------------------------------------------------------------------

/// One operation of an atomic mutation batch for
/// [`ConcurrentIndex::apply`].
#[derive(Clone, Debug)]
pub enum BatchOp<C: Coord> {
    /// Insert a batch of rectangles (see [`RTSIndex::insert`]).
    Insert(Vec<Rect<C, 2>>),
    /// Delete rectangles by id (see [`RTSIndex::delete`]).
    Delete(Vec<u32>),
    /// Update rectangle coordinates (see [`RTSIndex::update`]).
    Update {
        /// Ids to update.
        ids: Vec<u32>,
        /// New coordinates, parallel to `ids`.
        rects: Vec<Rect<C, 2>>,
    },
    /// Compact into a single batch (see [`RTSIndex::compact`]; the id
    /// remap is not surfaced through `apply` — call
    /// [`ConcurrentIndex::compact`] when it is needed).
    Compact,
    /// Rebuild every GAS from scratch (see [`RTSIndex::rebuild`]).
    Rebuild,
}

/// A concurrently readable [`RTSIndex`] of either dimension: lock-free
/// snapshot reads, one serialized writer, epoch-style publication (see
/// the [module docs](self)). [`ConcurrentIndex3`] is the 3-D one.
///
/// All methods take `&self`; the type is `Sync`, so one instance can be
/// shared by reference (or `Arc`) across any number of reader and
/// writer threads.
///
/// ```
/// use geom::{Point, Rect};
/// use librts::ConcurrentIndex;
///
/// let index = ConcurrentIndex::<f32>::new(Default::default());
/// index.insert(&[Rect::xyxy(0.0, 0.0, 10.0, 10.0)]).unwrap();
///
/// // Readers pin a snapshot; later mutations don't affect it.
/// let snap = index.snapshot();
/// assert_eq!(snap.version(), 1);
/// index.delete(&[0]).unwrap();
/// assert_eq!(snap.collect_point_query(&[Point::xy(5.0, 5.0)]), vec![(0, 0)]);
/// assert!(index.snapshot().collect_point_query(&[Point::xy(5.0, 5.0)]).is_empty());
/// ```
pub struct ConcurrentIndex<C: Coord, const D: usize = 2> {
    core: SnapCore<RTSIndex<C, D>>,
    /// Automatic-maintenance policy; `None` (the default) disables the
    /// driver entirely and the writer loop behaves exactly as before.
    policy: Mutex<Option<MaintenancePolicy>>,
    /// Recent maintenance decisions for `/index` introspection.
    decisions: Mutex<VecDeque<obs::MaintenanceDecision>>,
}

/// A concurrently readable [`RTSIndex3`]: [`ConcurrentIndex`] with
/// `D = 3`, the same snapshot contract and maintenance driver. Its
/// single GAS sits behind an `Arc` like every 2-D batch, so a publish
/// shares it and the writer's refit copies it on write without
/// disturbing published snapshots.
pub type ConcurrentIndex3<C> = ConcurrentIndex<C, 3>;

impl<C: Coord> Default for ConcurrentIndex<C> {
    fn default() -> Self {
        Self::new(IndexOptions::default())
    }
}

impl<C: Coord, const D: usize> ConcurrentIndex<C, D> {
    /// Wraps an existing index; its current state becomes version 0.
    pub fn from_index(index: RTSIndex<C, D>) -> Self {
        Self {
            core: SnapCore::new(index),
            policy: Mutex::new(None),
            decisions: Mutex::new(VecDeque::new()),
        }
    }

    /// Builder form of [`ConcurrentIndex::set_maintenance_policy`].
    pub fn with_policy(self, policy: MaintenancePolicy) -> Self {
        self.set_maintenance_policy(Some(policy));
        self
    }

    /// Installs (or with `None` removes) the automatic-maintenance
    /// policy. While a policy is set, the writer runs a maintenance
    /// pass after every successful mutation batch; when the pass takes
    /// a structural action (refit / rebuild / repack) the maintained
    /// successor is published as an ordinary next version — readers see
    /// it exactly like any other publish, with byte-identical query
    /// results to the unmaintained state.
    pub fn set_maintenance_policy(&self, policy: Option<MaintenancePolicy>) {
        *self.policy.lock().unwrap_or_else(PoisonError::into_inner) = policy;
    }

    /// The currently installed automatic-maintenance policy.
    pub fn maintenance_policy(&self) -> Option<MaintenancePolicy> {
        self.policy
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Runs one maintenance pass under the installed policy (or the
    /// default policy when none is installed), publishing a new version
    /// only if the pass acted. Returns what the pass did.
    pub fn maintain(&self) -> MaintenanceOutcome {
        let policy = self.maintenance_policy().unwrap_or_default();
        self.maintain_with(&policy)
    }

    /// As [`ConcurrentIndex::maintain`] with an explicit policy. The
    /// serving mode clamps the pass: `Degraded` runs it refit-only,
    /// `ReadOnly` skips it entirely (maintenance mutates — a read-only
    /// index publishes nothing).
    pub fn maintain_with(&self, policy: &MaintenancePolicy) -> MaintenanceOutcome {
        let Some(policy) = mode_clamped(policy) else {
            return MaintenanceOutcome::default();
        };
        self.run_maintenance(&policy)
    }

    /// Quality drift and amortization state of the newest published
    /// snapshot, measured under the installed policy (or the default).
    pub fn maintenance_report(&self) -> MaintenanceReport {
        let policy = self.maintenance_policy().unwrap_or_default();
        self.snapshot().maintenance_report(&policy)
    }

    /// The automatic driver: one policy-gated maintenance pass, run by
    /// the writer after each successful mutation batch. Clamped by the
    /// serving mode like [`maintain_with`](Self::maintain_with).
    fn auto_maintain(&self) {
        if let Some(policy) = self.maintenance_policy().as_ref().and_then(mode_clamped) {
            self.run_maintenance(&policy);
        }
    }

    /// One maintenance pass on the private successor, published (and
    /// its decision recorded for `/index`) only when it acted.
    fn run_maintenance(&self, policy: &MaintenancePolicy) -> MaintenanceOutcome {
        let mut outcome = MaintenanceOutcome::default();
        if let Some(((), version)) = self.core.mutate_if(|next| {
            outcome = next.maintain(policy);
            outcome.acted().then_some(())
        }) {
            record_decision(&self.decisions, &outcome, version);
        }
        outcome
    }

    /// Acquires a read snapshot of the newest published version.
    /// Lock-free; the handle stays valid (and unchanged) across any
    /// number of concurrent publishes. Never shed — use
    /// [`snapshot_with_priority`](Self::snapshot_with_priority) for
    /// admission-controlled reads.
    pub fn snapshot(&self) -> SnapshotRef<RTSIndex<C, D>> {
        self.core.snapshot()
    }

    /// As [`snapshot`](Self::snapshot), but subject to admission
    /// control: under a degraded serving mode,
    /// [`Priority::Low`](crate::admission::Priority::Low) readers are
    /// shed with `Err(Overloaded)` before any snapshot is pinned.
    pub fn snapshot_with_priority(
        &self,
        priority: crate::admission::Priority,
    ) -> Result<SnapshotRef<RTSIndex<C, D>>, IndexError> {
        crate::admission::admit_read(priority)?;
        Ok(self.core.snapshot())
    }

    /// Version of the newest published snapshot (monotone; starts at 0,
    /// +1 per successful mutation batch).
    pub fn version(&self) -> u64 {
        self.core.version()
    }

    /// Live rectangles in the newest published snapshot.
    pub fn len(&self) -> usize {
        self.snapshot().len()
    }

    /// `true` when the newest published snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.snapshot().is_empty()
    }

    /// Device-memory footprint of the newest published snapshot. Old
    /// versions kept alive by outstanding [`SnapshotRef`] handles are
    /// *not* included — they are the handle holders' memory.
    pub fn memory_bytes(&self) -> usize {
        self.snapshot().memory_bytes()
    }

    /// Deletes by id and publishes the successor (see
    /// [`RTSIndex::delete`]).
    pub fn delete(&self, ids: &[u32]) -> Result<MutationReport, IndexError> {
        crate::admission::admit_write()?;
        let out = self.core.mutate(|next| next.delete(ids)).map(|(r, _)| r)?;
        self.auto_maintain();
        Ok(out)
    }

    /// Updates coordinates and publishes the successor (see
    /// [`RTSIndex::update`]).
    pub fn update(&self, ids: &[u32], rects: &[Rect<C, D>]) -> Result<MutationReport, IndexError> {
        crate::admission::admit_write()?;
        let out = self
            .core
            .mutate(|next| next.update(ids, rects))
            .map(|(r, _)| r)?;
        self.auto_maintain();
        Ok(out)
    }

    /// Compacts away deleted slots and publishes (see
    /// [`RTSIndex::compact`]). Returns the old-id → new-id remap.
    /// Fails only on write rejection (`ReadOnly`) or a publish that
    /// exhausts the retry ladder (`PublishFailed`); the compaction
    /// itself cannot fail.
    pub fn compact(&self) -> Result<Vec<u32>, IndexError> {
        crate::admission::admit_write()?;
        self.core.mutate(|next| Ok(next.compact())).map(|(r, _)| r)
    }

    /// Rebuilds every GAS from scratch and publishes (see
    /// [`RTSIndex::rebuild`]). Same failure modes as
    /// [`compact`](Self::compact).
    pub fn rebuild(&self) -> Result<(), IndexError> {
        crate::admission::admit_write()?;
        self.core
            .mutate(|next| {
                next.rebuild();
                Ok(())
            })
            .map(|_: ((), u64)| ())
    }

    /// A point-in-time [`obs::ServingStatus`] of this index: dimension,
    /// version, publish recency, live/dead counts, memory, per-GAS drift
    /// under the installed policy (default policy when none is
    /// installed), and the recent maintenance decisions. This is what
    /// `/index` serves after [`ConcurrentIndex::install_status_source`].
    pub fn serving_status(&self) -> obs::ServingStatus {
        let snap = self.snapshot();
        let policy = self.maintenance_policy();
        let report = snap.maintenance_report(&policy.clone().unwrap_or_default());
        obs::ServingStatus {
            dimensions: D as u32,
            version: snap.version(),
            last_publish_ns: self.core.last_publish_ns.load(Ordering::SeqCst),
            live: snap.len(),
            dead: snap.capacity_ids().saturating_sub(snap.len()),
            memory_bytes: snap.memory_bytes(),
            policy_active: policy.is_some(),
            gases: drift_statuses(&report),
            decisions: self
                .decisions
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .iter()
                .cloned()
                .collect(),
        }
    }

    /// Register this index as the process-wide `/index` status source
    /// (see [`obs::server::set_status_source`]). Holds only a `Weak`
    /// reference: once the last `Arc` drops, `/index` serves `null`
    /// again.
    pub fn install_status_source(self: &Arc<Self>) {
        let weak = Arc::downgrade(self);
        obs::server::set_status_source(move || weak.upgrade().map(|ix| ix.serving_status()));
    }
}

impl<C: Coord> ConcurrentIndex<C> {
    /// Creates an empty concurrent index; version 0 is the empty state.
    pub fn new(opts: IndexOptions) -> Self {
        Self::from_index(RTSIndex::new(opts))
    }

    /// Convenience: creates a concurrent index pre-loaded with one
    /// batch (the batch is version 0, not a separate publish).
    pub fn with_rects(rects: &[Rect<C, 2>], opts: IndexOptions) -> Result<Self, IndexError> {
        Ok(Self::from_index(RTSIndex::with_rects(rects, opts)?))
    }

    /// Inserts a batch and publishes the successor (see
    /// [`RTSIndex::insert`]). Returns the new ids; on error nothing is
    /// published. `Err(ReadOnly)` when the serving mode rejects writes.
    pub fn insert(&self, batch: &[Rect<C, 2>]) -> Result<Range<u32>, IndexError> {
        crate::admission::admit_write()?;
        let out = self
            .core
            .mutate(|next| next.insert(batch))
            .map(|(r, _)| r)?;
        self.auto_maintain();
        Ok(out)
    }

    /// Applies a multi-op mutation batch **atomically with respect to
    /// publication**: the ops run in order on the private successor and
    /// the result is published once, as a single new version. If any op
    /// fails, nothing is published, the error is returned, and the
    /// successor is restored — readers keep seeing the previous version
    /// exactly.
    ///
    /// Returns the version the batch published (a maintenance pass
    /// triggered by the batch may publish a further version on top).
    pub fn apply(&self, ops: &[BatchOp<C>]) -> Result<u64, IndexError> {
        crate::admission::admit_write()?;
        let v = self
            .core
            .mutate(|next| {
                for op in ops {
                    match op {
                        BatchOp::Insert(batch) => {
                            next.insert(batch)?;
                        }
                        BatchOp::Delete(ids) => {
                            next.delete(ids)?;
                        }
                        BatchOp::Update { ids, rects } => {
                            next.update(ids, rects)?;
                        }
                        BatchOp::Compact => {
                            next.compact();
                        }
                        BatchOp::Rebuild => next.rebuild(),
                    }
                }
                Ok(())
            })
            .map(|((), v)| v)?;
        self.auto_maintain();
        Ok(v)
    }
}

impl<C: Coord> ConcurrentIndex3<C> {
    /// Builds the index over 3-D boxes; the built state is version 0.
    pub fn build(boxes: &[Rect<C, 3>], opts: IndexOptions) -> Result<Self, IndexError> {
        Ok(Self::from_index(RTSIndex3::build(boxes, opts)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geom::Point;

    fn r(a: f32, b: f32, c: f32, d: f32) -> Rect<f32, 2> {
        Rect::xyxy(a, b, c, d)
    }

    // Compile-time: the concurrent types are shareable across threads.
    fn _assert_sync<T: Send + Sync>() {}
    #[allow(dead_code)]
    fn _bounds() {
        _assert_sync::<ConcurrentIndex<f32>>();
        _assert_sync::<ConcurrentIndex3<f32>>();
        _assert_sync::<SnapshotRef<RTSIndex<f32>>>();
    }

    #[test]
    fn versions_are_monotone_and_snapshots_pin_state() {
        let index = ConcurrentIndex::<f32>::new(IndexOptions::default());
        assert_eq!(index.version(), 0);
        assert!(index.is_empty());

        index.insert(&[r(0.0, 0.0, 10.0, 10.0)]).unwrap();
        assert_eq!(index.version(), 1);
        let v1 = index.snapshot();

        index.insert(&[r(20.0, 20.0, 30.0, 30.0)]).unwrap();
        assert_eq!(index.version(), 2);

        // The old handle still answers from version 1.
        assert_eq!(v1.version(), 1);
        assert_eq!(v1.len(), 1);
        assert_eq!(v1.staleness(), 1);
        assert_eq!(index.snapshot().len(), 2);
        assert_eq!(index.snapshot().staleness(), 0);
    }

    #[test]
    fn failed_mutations_do_not_publish() {
        let index = ConcurrentIndex::<f32>::new(IndexOptions::default());
        index.insert(&[r(0.0, 0.0, 10.0, 10.0)]).unwrap();
        let v = index.version();

        let bad = Rect {
            min: Point::xy(f32::NAN, 0.0),
            max: Point::xy(1.0, 1.0),
        };
        assert_eq!(
            index.insert(&[bad]),
            Err(IndexError::InvalidRect { index: 0 })
        );
        assert_eq!(index.delete(&[7]), Err(IndexError::UnknownId { id: 7 }));
        assert_eq!(index.version(), v);
        assert_eq!(index.snapshot().len(), 1);
    }

    #[test]
    fn apply_is_atomic_across_ops() {
        let index = ConcurrentIndex::<f32>::new(IndexOptions::default());
        index
            .insert(&[r(0.0, 0.0, 10.0, 10.0), r(20.0, 20.0, 30.0, 30.0)])
            .unwrap();
        let v = index.version();

        // A batch whose *last* op fails must leave no trace of the
        // earlier ops, even though they succeeded on the successor.
        let err = index
            .apply(&[
                BatchOp::Insert(vec![r(40.0, 40.0, 50.0, 50.0)]),
                BatchOp::Delete(vec![0]),
                BatchOp::Delete(vec![99]),
            ])
            .unwrap_err();
        assert_eq!(err, IndexError::UnknownId { id: 99 });
        assert_eq!(index.version(), v);
        let snap = index.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(
            snap.collect_point_query(&[Point::xy(5.0, 5.0)]),
            vec![(0, 0)]
        );

        // The same batch minus the poison op publishes exactly once.
        let v2 = index
            .apply(&[
                BatchOp::Insert(vec![r(40.0, 40.0, 50.0, 50.0)]),
                BatchOp::Delete(vec![0]),
            ])
            .unwrap();
        assert_eq!(v2, v + 1);
        assert_eq!(index.version(), v + 1);
        let snap = index.snapshot();
        assert_eq!(snap.len(), 2);
        assert!(snap.collect_point_query(&[Point::xy(5.0, 5.0)]).is_empty());
        assert_eq!(
            snap.collect_point_query(&[Point::xy(45.0, 45.0)]),
            vec![(2, 0)]
        );
    }

    #[test]
    fn old_snapshot_is_freed_when_last_handle_drops() {
        let index = ConcurrentIndex::<f32>::new(IndexOptions::default());
        index
            .insert(
                &(0..256)
                    .map(|i| r(i as f32, 0.0, i as f32 + 0.5, 1.0))
                    .collect::<Vec<_>>(),
            )
            .unwrap();
        let handle = index.snapshot();
        let weak = handle.downgrade();

        // Publish a successor; the cell retires its own reference to
        // the old version, leaving `handle` as the only owner.
        index.compact().unwrap();
        index.delete(&(0..256).collect::<Vec<u32>>()).unwrap();
        assert!(weak.upgrade().is_some(), "held handle keeps it alive");

        drop(handle);
        assert!(
            weak.upgrade().is_none(),
            "last reader dropped — the old snapshot must be freed"
        );
    }

    #[test]
    fn auto_maintenance_publishes_ordinary_versions_with_identical_results() {
        use crate::config::Predicate;
        use crate::maintenance::MaintenancePolicy;
        // Tight thresholds so one heavy scatter round reliably triggers.
        let policy = MaintenancePolicy {
            max_sah_drift: 1.05,
            max_overlap_drift: 0.05,
            ..MaintenancePolicy::eager()
        };
        let rects: Vec<Rect<f32, 2>> = (0..512)
            .map(|i| {
                let x = (i % 32) as f32 * 2.0;
                let y = (i / 32) as f32 * 2.0;
                r(x, y, x + 1.0, y + 1.0)
            })
            .collect();
        let on = ConcurrentIndex::with_rects(&rects, IndexOptions::default())
            .unwrap()
            .with_policy(policy.clone());
        let off = ConcurrentIndex::with_rects(&rects, IndexOptions::default()).unwrap();

        let mut last = on.version();
        for round in 0..4usize {
            let ids: Vec<u32> = (0..512).step_by(3).collect();
            let moved: Vec<Rect<f32, 2>> = ids
                .iter()
                .map(|&id| {
                    let k = (id as usize * 37 + round * 101) % 1000;
                    let x = k as f32 * 11.0;
                    let y = ((k * 7) % 900) as f32 * 5.0;
                    r(x, y, x + 1.0, y + 1.0)
                })
                .collect();
            on.update(&ids, &moved).unwrap();
            off.update(&ids, &moved).unwrap();
            let v = on.version();
            assert!(v > last, "versions stay monotone through maintenance");
            last = v;
            // Maintained and unmaintained snapshots answer identically.
            let q = [r(-1.0, -1.0, 20000.0, 20000.0)];
            assert_eq!(
                on.snapshot().collect_range_query(Predicate::Intersects, &q),
                off.snapshot()
                    .collect_range_query(Predicate::Intersects, &q)
            );
        }
        assert!(
            on.version() > off.version(),
            "maintenance must have published extra versions"
        );
        assert!(on.maintenance_report().within_thresholds(&policy));
        assert!(
            !off.maintenance_report().within_thresholds(&policy),
            "policy-off twin must show the drift maintenance removed"
        );
    }

    #[test]
    fn concurrent_index3_update_and_maintenance() {
        let boxes: Vec<Rect<f32, 3>> = (0..256)
            .map(|i| {
                let x = (i % 16) as f32 * 3.0;
                let y = (i / 16) as f32 * 3.0;
                Rect::xyzxyz(x, y, 0.0, x + 2.0, y + 2.0, 2.0)
            })
            .collect();
        let index = ConcurrentIndex3::build(&boxes, IndexOptions::default())
            .unwrap()
            .with_policy(crate::maintenance::MaintenancePolicy {
                max_sah_drift: 1.05,
                max_overlap_drift: 0.05,
                ..crate::maintenance::MaintenancePolicy::eager()
            });
        let ids: Vec<u32> = (0..256).step_by(2).collect();
        let moved: Vec<Rect<f32, 3>> = ids
            .iter()
            .map(|&id| {
                let k = (id as usize * 53) % 777;
                let (x, y) = (k as f32 * 13.0, ((k * 3) % 700) as f32 * 7.0);
                Rect::xyzxyz(x, y, 0.0, x + 2.0, y + 2.0, 2.0)
            })
            .collect();
        index.update(&ids, &moved).unwrap();
        assert!(index.version() >= 1);
        // Maintained snapshot answers exactly like a fresh build.
        let mut cur = boxes;
        for (pos, &id) in ids.iter().enumerate() {
            cur[id as usize] = moved[pos];
        }
        let fresh = RTSIndex3::build(&cur, IndexOptions::default()).unwrap();
        let q = [Rect::xyzxyz(0.0f32, 0.0, 0.0, 100.0, 100.0, 2.0)];
        assert_eq!(
            index.snapshot().collect_intersects(&q),
            fresh.collect_intersects(&q)
        );

        // Compact publishes and remaps.
        index.delete(&[1]).unwrap();
        let remap = index.compact().unwrap();
        assert_eq!(remap[1], u32::MAX);
        assert_eq!(index.snapshot().capacity_ids(), 255);
    }

    #[test]
    fn concurrent_index3_delete_publishes() {
        let boxes = vec![
            Rect::xyzxyz(0.0, 0.0, 0.0, 1.0, 1.0, 1.0),
            Rect::xyzxyz(2.0, 0.0, 0.0, 3.0, 1.0, 1.0),
        ];
        let index = ConcurrentIndex3::build(&boxes, IndexOptions::default()).unwrap();
        assert_eq!(index.version(), 0);
        assert_eq!(index.len(), 2);

        let v0 = index.snapshot();
        index.delete(&[0]).unwrap();
        assert_eq!(index.version(), 1);
        assert_eq!(index.len(), 1);
        assert_eq!(v0.len(), 2, "pinned snapshot unaffected");
        assert_eq!(
            index.delete(&[0]),
            Err(IndexError::AlreadyDeleted { id: 0 })
        );
        assert_eq!(index.version(), 1, "failed delete does not publish");
    }

    /// `/index` of a concurrent index holding 64 live rectangles: it
    /// reports live and dead counts, memory and drift, then a recorded
    /// maintenance decision.
    fn check_serving_status<const D: usize>(index: &ConcurrentIndex<f32, D>) {
        let v = index.version();
        index.delete(&[0, 1, 2]).unwrap();
        let s = index.serving_status();
        assert_eq!(s.dimensions, D as u32);
        assert_eq!(s.version, v + 1);
        assert!(s.last_publish_ns > 0);
        assert_eq!(s.live, 61);
        assert_eq!(s.dead, 3);
        assert!(s.memory_bytes > 0);
        assert!(!s.gases.is_empty());

        // An eager, dead-intolerant policy makes the next mutation
        // (dead fraction 4/64 > 1%) record a repack decision.
        index.set_maintenance_policy(Some(MaintenancePolicy {
            max_dead_fraction: 0.01,
            ..MaintenancePolicy::eager()
        }));
        index.delete(&[3]).unwrap();
        let s = index.serving_status();
        assert!(s.policy_active);
        assert!(
            !s.decisions.is_empty(),
            "eager maintenance after a delete should record a decision"
        );
        let json = s.to_json();
        assert!(json.contains(&format!("\"dimensions\": {D}")));
        assert!(json.contains("\"decisions\": [{"));
    }

    #[test]
    fn serving_status_reports_live_state_and_decisions() {
        let index = ConcurrentIndex::<f32>::new(IndexOptions::default());
        let s0 = index.serving_status();
        assert_eq!(s0.dimensions, 2);
        assert_eq!(s0.version, 0);
        assert_eq!(s0.last_publish_ns, 0, "no publish yet");
        assert!(!s0.policy_active);
        assert!(s0.decisions.is_empty());
        index
            .insert(
                &(0..64)
                    .map(|i| r(i as f32, 0.0, i as f32 + 1.0, 1.0))
                    .collect::<Vec<_>>(),
            )
            .unwrap();
        check_serving_status(&index);

        let boxes: Vec<Rect<f32, 3>> = (0..64)
            .map(|i| Rect::xyzxyz(i as f32, 0.0, 0.0, i as f32 + 1.0, 1.0, 1.0))
            .collect();
        check_serving_status(&ConcurrentIndex3::build(&boxes, IndexOptions::default()).unwrap());
    }

    #[test]
    fn status_source_serves_and_unregisters_on_drop() {
        let index = Arc::new(ConcurrentIndex::<f32>::new(IndexOptions::default()));
        index.insert(&[r(0.0, 0.0, 1.0, 1.0)]).unwrap();
        index.install_status_source();
        let via_obs = obs::server::serving_status().expect("source registered");
        assert_eq!(via_obs.version, 1);
        assert_eq!(via_obs.live, 1);
        drop(index);
        assert!(
            obs::server::serving_status().is_none(),
            "weak source must expire with the index"
        );
        obs::server::clear_status_source();
    }

    #[test]
    fn snapshot_age_gauge_refreshes_on_pin() {
        let index = ConcurrentIndex::<f32>::new(IndexOptions::default());
        index.insert(&[r(0.0, 0.0, 1.0, 1.0)]).unwrap();
        let held = index.snapshot(); // age 0 at pin
        index.insert(&[r(2.0, 0.0, 3.0, 1.0)]).unwrap();
        assert_eq!(held.staleness(), 1);
        // A fresh pin (current version) must reset the gauge to 0 even
        // while the stale handle is still held. Other tests share the
        // global gauge, so allow a few attempts before declaring the
        // pin path broken.
        let refreshed = (0..50).any(|_| {
            let _fresh = index.snapshot();
            obs::snapshot().gauge("concurrent.snapshot_age") == Some(0)
        });
        assert!(
            refreshed,
            "pinning a current snapshot never zeroed the age gauge"
        );
    }
}
