//! Fault-injection and degraded-mode tests for the core serving layer,
//! isolated in their own test binary: chaos schedules and the serving
//! mode are process-global, so these tests must never share a process
//! with queries or mutations that don't expect faults.

use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use geom::{Point, Rect};
use librts::maintenance::MaintenancePolicy;
use librts::{
    admission, deadline, CollectingHandler, ConcurrentIndex, IndexError, IndexOptions, Predicate,
    Priority, RTSIndex, RTSIndex3,
};

/// Serializes the tests in this binary: schedules, the serving mode,
/// and the `concurrent.*` counters are process-global.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Restores the serving mode (and clears any leftover one) on drop, so
/// a failing assertion cannot leak `Degraded` into the next test.
struct NormalMode;

impl NormalMode {
    fn install() -> Self {
        obs::health::set_serving_mode(obs::ServingMode::Normal);
        NormalMode
    }
}

impl Drop for NormalMode {
    fn drop(&mut self) {
        obs::health::set_serving_mode(obs::ServingMode::Normal);
    }
}

fn grid(n: usize) -> Vec<Rect<f32, 2>> {
    (0..n)
        .map(|i| {
            let x = (i % 16) as f32 * 2.0;
            let y = (i / 16) as f32 * 2.0;
            Rect::xyxy(x, y, x + 1.5, y + 1.5)
        })
        .collect()
}

fn queries(n: usize) -> Vec<Rect<f32, 2>> {
    (0..n)
        .map(|i| {
            let x = (i % 8) as f32 * 4.0 + 0.5;
            let y = (i / 8) as f32 * 4.0 + 0.5;
            Rect::xyxy(x, y, x + 2.0, y + 2.0)
        })
        .collect()
}

/// Total modeled device time of one Range-Intersects batch.
fn batch_device_ns(index: &RTSIndex<f32>, qs: &[Rect<f32, 2>]) -> u64 {
    let h = CollectingHandler::new();
    let report = index
        .try_range_query(Predicate::Intersects, qs, &h)
        .expect("no deadline installed");
    report.breakdown.total().device.as_nanos() as u64
}

#[test]
fn deadline_expires_at_the_final_phase_boundary() {
    let _guard = serial();
    let index = RTSIndex::with_rects(&grid(256), IndexOptions::default()).unwrap();
    let qs = queries(64);
    let total = batch_device_ns(&index, &qs);
    let partial = {
        let h = CollectingHandler::new();
        let r = index
            .try_range_query(Predicate::Intersects, &qs, &h)
            .unwrap();
        (r.breakdown.k_prediction.device
            + r.breakdown.bvh_build.device
            + r.breakdown.forward.device)
            .as_nanos() as u64
    };
    assert!(partial < total, "the backward pass must cost something");

    // Budget covers everything up to the backward launch but not the
    // launch itself: the deadline expires *inside* the backward pass
    // and trips at its boundary, with the full overrun visible.
    let budget = partial + (total - partial) / 2;
    let h = CollectingHandler::new();
    let err = deadline::with_deadline(Duration::from_nanos(budget), || {
        index.try_range_query(Predicate::Intersects, &qs, &h)
    })
    .unwrap_err();
    match err {
        IndexError::DeadlineExceeded {
            budget_ns,
            spent_ns,
        } => {
            assert_eq!(budget_ns, budget);
            assert_eq!(spent_ns, total, "modeled charges are exact");
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }

    // The same budget trips identically at any thread count: modeled
    // device time is Stable by construction.
    for threads in [1usize, 4] {
        let h = CollectingHandler::new();
        let again = exec::with_threads(threads, || {
            deadline::with_deadline(Duration::from_nanos(budget), || {
                index.try_range_query(Predicate::Intersects, &qs, &h)
            })
        })
        .unwrap_err();
        assert_eq!(again, err, "threads={threads}");
    }

    // The index stays fully serviceable after an aborted batch.
    let h = CollectingHandler::new();
    assert!(index
        .try_range_query(Predicate::Intersects, &qs, &h)
        .is_ok());
}

#[test]
fn deadline_depletes_across_batches_in_one_scope() {
    let _guard = serial();
    let index = RTSIndex::with_rects(&grid(128), IndexOptions::default()).unwrap();
    let qs = queries(32);
    let one_batch = batch_device_ns(&index, &qs);
    // Room for one batch but not two: the second fails fast at entry.
    deadline::with_deadline(Duration::from_nanos(one_batch + one_batch / 2), || {
        let h = CollectingHandler::new();
        assert!(index
            .try_range_query(Predicate::Intersects, &qs, &h)
            .is_ok());
        // Point queries have no abort path, but they charge the scope.
        index.point_query(&[Point::xy(0.5, 0.5)], &h);
        let err = index
            .try_range_query(Predicate::Intersects, &qs, &h)
            .unwrap_err();
        assert!(matches!(err, IndexError::DeadlineExceeded { .. }));
    });
    // 3-D batches charge the scope too: after one, a 2-D batch that
    // alone uses up the budget exactly no longer fits.
    let boxes: Vec<Rect<f32, 3>> = grid(128).iter().map(|r| r.lift(0.0, 1.0)).collect();
    let index3 = RTSIndex3::build(&boxes, IndexOptions::default()).unwrap();
    let box3 = [Rect::xyzxyz(0.5, 0.5, 0.25, 1.0, 1.0, 0.75)];
    for kind in ["point", "contains", "intersects"] {
        deadline::with_deadline(Duration::from_nanos(one_batch), || {
            let h = CollectingHandler::new();
            let report = match kind {
                "point" => index3.point_query(&[Point::xyz(0.5, 0.5, 0.5)], &h),
                "contains" => index3.contains_query(&box3, &h),
                _ => index3.intersects_query(&box3, &h),
            };
            assert_eq!(report.launch.totals.rays, 1, "one 3-D {kind} ray");
            let err = index
                .try_range_query(Predicate::Intersects, &qs, &h)
                .unwrap_err();
            assert!(
                matches!(err, IndexError::DeadlineExceeded { .. }),
                "a 3-D {kind} batch must charge the scope"
            );
        });
    }
}

#[test]
fn injected_mutation_fault_is_typed_and_transient() {
    let _guard = serial();
    let index = ConcurrentIndex::<f32>::new(IndexOptions::default());
    chaos::with_faults(chaos::Schedule::new().fail("core.mutation", 1), || {
        index.insert(&grid(32)).unwrap();
        let v = index.version();
        let err = index.insert(&grid(8)).unwrap_err();
        assert_eq!(
            err,
            IndexError::Injected {
                point: "core.mutation"
            }
        );
        // Nothing published, nothing applied.
        assert_eq!(index.version(), v);
        assert_eq!(index.len(), 32);
        // Hit 2 has no rule: the retry succeeds — the fault was transient.
        index.insert(&grid(8)).unwrap();
        assert_eq!(index.len(), 40);
    });
}

#[test]
fn publish_retry_ladder_absorbs_transient_failures() {
    let _guard = serial();
    let retries = obs::counter("concurrent.publish_retries");
    let backoff = obs::counter("concurrent.backoff_virtual_ns");
    let (r0, b0) = (retries.value(), backoff.value());
    let index = ConcurrentIndex::<f32>::new(IndexOptions::default());
    chaos::with_faults(
        chaos::Schedule::new().fail_range("concurrent.publish", 0, 2),
        || {
            index.insert(&grid(16)).unwrap();
            assert_eq!(index.version(), 1, "the third attempt published");
            assert_eq!(chaos::hits("concurrent.publish"), 3);
        },
    );
    assert_eq!(retries.value() - r0, 2);
    // Exponential virtual ladder: base + 2*base, never slept.
    assert_eq!(backoff.value() - b0, (1 << 20) + (2 << 20));
    assert_eq!(index.len(), 16);
}

#[test]
fn publish_ladder_exhaustion_rolls_back() {
    let _guard = serial();
    let index = ConcurrentIndex::<f32>::new(IndexOptions::default());
    index.insert(&grid(32)).unwrap();
    let snap = index.snapshot();
    chaos::with_faults(
        chaos::Schedule::new().fail_range("concurrent.publish", 0, 4),
        || {
            let err = index.insert(&grid(8)).unwrap_err();
            assert_eq!(err, IndexError::PublishFailed { attempts: 4 });
        },
    );
    // Readers never saw an uncommitted version; the writer's successor
    // was rolled back, so the next batch applies to clean state.
    assert_eq!(index.version(), 1);
    assert_eq!(snap.version(), 1);
    assert_eq!(index.len(), 32);
    index.insert(&grid(8)).unwrap();
    assert_eq!(index.version(), 2);
    assert_eq!(index.len(), 40);
}

#[test]
fn panic_during_mutation_rolls_back_and_does_not_wedge_the_writer() {
    let _guard = serial();
    let index = ConcurrentIndex::<f32>::new(IndexOptions::default());
    index.insert(&grid(32)).unwrap();
    let panicked = chaos::with_faults(chaos::Schedule::new().panic("core.mutation", 0), || {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| index.insert(&grid(8))))
            .unwrap_err()
    });
    assert!(chaos::is_injected_panic(panicked.as_ref()));
    // The half-mutated successor was restored before the panic resumed:
    // the next writer starts from the published state.
    assert_eq!(index.version(), 1);
    assert_eq!(index.len(), 32);
    index.insert(&grid(8)).unwrap();
    assert_eq!(index.len(), 40);
    let q = queries(16);
    let h = CollectingHandler::new();
    assert!(index
        .snapshot()
        .try_range_query(Predicate::Intersects, &q, &h)
        .is_ok());
}

#[test]
fn serving_mode_ladder_sheds_reads_then_writes() {
    let _guard = serial();
    let _mode = NormalMode::install();
    let index = ConcurrentIndex::<f32>::new(IndexOptions::default());
    index.insert(&grid(64)).unwrap();

    // Normal: everything admitted.
    assert!(index.snapshot_with_priority(Priority::Low).is_ok());
    assert!(admission::admit_write().is_ok());

    // Degraded: lowest-priority reads shed *before* writers.
    obs::health::set_serving_mode(obs::ServingMode::Degraded);
    assert_eq!(
        index.snapshot_with_priority(Priority::Low).err(),
        Some(IndexError::Overloaded)
    );
    assert!(index.snapshot_with_priority(Priority::Normal).is_ok());
    index.insert(&grid(4)).unwrap();

    // ReadOnly: writers rejected, the last-good snapshot keeps serving.
    obs::health::set_serving_mode(obs::ServingMode::ReadOnly);
    assert_eq!(index.insert(&grid(4)).err(), Some(IndexError::ReadOnly));
    assert_eq!(index.compact().err(), Some(IndexError::ReadOnly));
    assert_eq!(index.rebuild().err(), Some(IndexError::ReadOnly));
    assert!(index.snapshot_with_priority(Priority::High).is_ok());
    assert_eq!(index.len(), 68, "reads serve the last published state");
}

#[test]
fn degraded_mode_clamps_maintenance_to_refits() {
    let _guard = serial();
    let _mode = NormalMode::install();
    // Heavy churn so an eager policy would repack: high dead fraction
    // and tight thresholds.
    let mut seed = RTSIndex::with_rects(&grid(256), IndexOptions::default()).unwrap();
    seed.delete(&(0..140).collect::<Vec<u32>>()).unwrap();
    let index = ConcurrentIndex::from_index(seed);
    let policy = MaintenancePolicy {
        max_dead_fraction: 0.2,
        ..MaintenancePolicy::eager()
    };

    obs::health::set_serving_mode(obs::ServingMode::Degraded);
    let degraded = index.maintain_with(&policy);
    assert!(!degraded.compacted, "Degraded must not repack");
    assert_eq!(degraded.rebuilds, 0, "Degraded must not rebuild");

    obs::health::set_serving_mode(obs::ServingMode::ReadOnly);
    let frozen = index.maintain_with(&policy);
    assert_eq!(frozen, Default::default(), "ReadOnly skips maintenance");

    obs::health::set_serving_mode(obs::ServingMode::Normal);
    let normal = index.maintain_with(&policy);
    assert!(normal.compacted, "Normal mode repacks the dead slots");
}

#[test]
fn chaos_counters_surface_in_the_metrics_registry() {
    let _guard = serial();
    let index = ConcurrentIndex::<f32>::new(IndexOptions::default());
    chaos::with_faults(chaos::Schedule::new().fail("core.mutation", 0), || {
        assert!(index.insert(&grid(8)).is_err());
    });
    let snap = obs::snapshot();
    let fails = snap
        .entries()
        .iter()
        .find(|m| m.name == "chaos.injected_fails")
        .expect("chaos family is registered");
    assert_eq!(fails.class, obs::Class::Stable);
    match fails.value {
        obs::Value::Counter(n) => assert!(n >= 1),
        ref other => panic!("expected a counter, got {other:?}"),
    }
}
