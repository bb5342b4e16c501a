//! # chaos — seeded, deterministic fault injection
//!
//! The fault-injection plane of the LibRTS reproduction. Layers above
//! (`rtcore`, `exec`, `librts`, `obs::server`) thread **named injection
//! points** through their hot paths by calling [`inject`] (or the
//! lower-level [`fire`]) at *logical* events — a GAS build, a snapshot
//! publish, a launch, a mutation batch. When no schedule is installed
//! the call is one relaxed atomic load; under [`with_faults`] each
//! point keeps a per-scope **hit counter** and a [`Schedule`] decides,
//! purely from `(point, hit index)`, whether that hit fails, panics,
//! or is slowed by *virtual* (modelled) nanoseconds.
//!
//! ## Determinism contract
//!
//! Schedules never consult wall clock, thread ids, or scheduling order:
//! a rule matches the *n-th logical occurrence* of a point, and every
//! instrumented point fires at an event whose count is identical at any
//! `LIBRTS_THREADS` (builds, launches, publishes, fan-outs — never
//! per-chunk or per-steal events). Injected-fault totals are therefore
//! byte-identical across thread counts; `obs` mirrors them as the
//! `chaos.*` [`Stable`](https://docs.rs/) metric family.
//!
//! Hit counters reset when a schedule is installed, so the same
//! `(schedule, workload)` pair replays identically — the property the
//! chaos conformance tier (`conformance/tests/chaos.rs`) pins against
//! the versioned oracle.
//!
//! ## Activation
//!
//! - Scoped: `chaos::with_faults(schedule, || { ... })` — installs for
//!   the closure (process-wide, all threads see it), uninstalls on exit
//!   even if the closure panics. Scopes are serialized by an internal
//!   lock so concurrent tests cannot interleave schedules.
//! - Ambient: the `LIBRTS_FAULTS` environment variable, parsed once on
//!   first use, e.g.
//!   `LIBRTS_FAULTS="concurrent.publish@0:fail;rtcore.launch@2:panic"`.
//!
//! ## Spec grammar (`LIBRTS_FAULTS` / [`Schedule::parse`])
//!
//! ```text
//! spec    := rule (';' rule)*
//! rule    := point '@' hits ':' action
//! hits    := N        -- exactly the N-th hit (0-based)
//!          | N '+'    -- every hit from N onward
//!          | N '..' M -- hits in [N, M)
//! action  := 'fail' | 'panic' | 'slow=' NANOS
//! ```
//!
//! ## Instrumented points
//!
//! | point                | layer    | fires per                  |
//! |----------------------|----------|----------------------------|
//! | `rtcore.gas_build`   | rtcore   | GAS build                  |
//! | `rtcore.ias_build`   | rtcore   | IAS (re)build              |
//! | `rtcore.launch`      | rtcore   | device launch              |
//! | `exec.worker`        | exec     | pool fan-out               |
//! | `core.mutation`      | librts   | mutation batch             |
//! | `concurrent.publish` | librts   | snapshot publish attempt   |
//! | `obs.server.conn`    | obs      | accepted HTTP connection   |

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, Once, PoisonError};

/// What an injection point does on a matched hit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// The operation reports a typed failure (layers map this to their
    /// own error type — `AccelError`, `IndexError`, a dropped socket).
    Fail,
    /// The operation panics with the payload
    /// `"chaos: injected panic at <point>"`.
    Panic,
    /// The operation is charged this many *virtual* nanoseconds of
    /// extra modelled time (no real sleep — determinism is preserved).
    Slow(u64),
}

/// One schedule rule: act on hits `from..from+count` of `point`.
#[derive(Clone, Debug)]
pub struct FaultRule {
    /// Injection-point name (see the crate docs for the table).
    pub point: String,
    /// First 0-based hit index the rule matches.
    pub from: u64,
    /// Number of consecutive hits matched (`u64::MAX` = open-ended).
    pub count: u64,
    /// What matched hits do.
    pub action: FaultAction,
}

impl FaultRule {
    fn matches(&self, point: &str, hit: u64) -> bool {
        self.point == point && hit >= self.from && hit - self.from < self.count
    }
}

/// An ordered set of [`FaultRule`]s; the first matching rule wins.
#[derive(Clone, Debug, Default)]
pub struct Schedule {
    rules: Vec<FaultRule>,
}

impl Schedule {
    /// An empty schedule (injects nothing, but still counts hits).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a rule acting on hits `from..from+count` of `point`.
    pub fn rule(mut self, point: &str, from: u64, count: u64, action: FaultAction) -> Self {
        self.rules.push(FaultRule {
            point: point.to_string(),
            from,
            count,
            action,
        });
        self
    }

    /// Shorthand: fail exactly the `hit`-th occurrence of `point`.
    pub fn fail(self, point: &str, hit: u64) -> Self {
        self.rule(point, hit, 1, FaultAction::Fail)
    }

    /// Shorthand: fail `count` occurrences of `point` starting at `from`.
    pub fn fail_range(self, point: &str, from: u64, count: u64) -> Self {
        self.rule(point, from, count, FaultAction::Fail)
    }

    /// Shorthand: panic on the `hit`-th occurrence of `point`.
    pub fn panic(self, point: &str, hit: u64) -> Self {
        self.rule(point, hit, 1, FaultAction::Panic)
    }

    /// Shorthand: slow the `hit`-th occurrence of `point` by `ns`
    /// virtual nanoseconds.
    pub fn slow(self, point: &str, hit: u64, ns: u64) -> Self {
        self.rule(point, hit, 1, FaultAction::Slow(ns))
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when the schedule carries no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Parses the `LIBRTS_FAULTS` grammar (see the crate docs).
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut sched = Schedule::new();
        for rule in spec.split(';').map(str::trim).filter(|r| !r.is_empty()) {
            let (point, rest) = rule
                .split_once('@')
                .ok_or_else(|| format!("rule {rule:?}: missing '@'"))?;
            let (hits, action) = rest
                .split_once(':')
                .ok_or_else(|| format!("rule {rule:?}: missing ':action'"))?;
            let (from, count) = if let Some(n) = hits.strip_suffix('+') {
                let from = n
                    .parse::<u64>()
                    .map_err(|_| format!("rule {rule:?}: bad hit index {n:?}"))?;
                (from, u64::MAX)
            } else if let Some((a, b)) = hits.split_once("..") {
                let from = a
                    .parse::<u64>()
                    .map_err(|_| format!("rule {rule:?}: bad range start {a:?}"))?;
                let to = b
                    .parse::<u64>()
                    .map_err(|_| format!("rule {rule:?}: bad range end {b:?}"))?;
                if to <= from {
                    return Err(format!("rule {rule:?}: empty range {from}..{to}"));
                }
                (from, to - from)
            } else {
                let from = hits
                    .parse::<u64>()
                    .map_err(|_| format!("rule {rule:?}: bad hit index {hits:?}"))?;
                (from, 1)
            };
            let action = if action == "fail" {
                FaultAction::Fail
            } else if action == "panic" {
                FaultAction::Panic
            } else if let Some(ns) = action.strip_prefix("slow=") {
                FaultAction::Slow(
                    ns.parse::<u64>()
                        .map_err(|_| format!("rule {rule:?}: bad slow nanos {ns:?}"))?,
                )
            } else {
                return Err(format!("rule {rule:?}: unknown action {action:?}"));
            };
            sched.rules.push(FaultRule {
                point: point.trim().to_string(),
                from,
                count,
                action,
            });
        }
        Ok(sched)
    }
}

/// A fault injected at `point` — layers convert this into their own
/// typed error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InjectedFault {
    /// The injection point that fired.
    pub point: &'static str,
}

impl std::fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected fault at {}", self.point)
    }
}

impl std::error::Error for InjectedFault {}

/// Cumulative, process-lifetime injection totals. Monotone (never
/// reset), so `obs` can diff-sync them into `chaos.*` counters the same
/// way it mirrors the exec pool stats.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Injection-point hits evaluated while a schedule was installed.
    pub checks: u64,
    /// Hits answered with [`FaultAction::Fail`].
    pub injected_fails: u64,
    /// Hits answered with [`FaultAction::Panic`].
    pub injected_panics: u64,
    /// Hits answered with [`FaultAction::Slow`].
    pub injected_slow: u64,
    /// Total virtual nanoseconds charged by `Slow` actions.
    pub slow_virtual_ns: u64,
}

struct State {
    schedule: Option<Schedule>,
    hits: BTreeMap<String, u64>,
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<State> = Mutex::new(State {
    schedule: None,
    hits: BTreeMap::new(),
});
// Stats are plain atomics (not inside STATE) so `stats()` never blocks
// on an in-flight fire().
static CHECKS: AtomicU64 = AtomicU64::new(0);
static FAILS: AtomicU64 = AtomicU64::new(0);
static PANICS: AtomicU64 = AtomicU64::new(0);
static SLOWS: AtomicU64 = AtomicU64::new(0);
static SLOW_NS: AtomicU64 = AtomicU64::new(0);

fn state() -> MutexGuard<'static, State> {
    // Poison-tolerant: an injected panic inside a scope must not wedge
    // the plane for every later test.
    STATE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Serializes [`with_faults`] scopes across threads/tests.
fn scope_lock() -> MutexGuard<'static, ()> {
    static SCOPES: Mutex<()> = Mutex::new(());
    SCOPES.lock().unwrap_or_else(PoisonError::into_inner)
}

fn install(schedule: Schedule) {
    let mut st = state();
    st.hits.clear(); // per-scope hit indices: replays are identical
    st.schedule = Some(schedule);
    ACTIVE.store(true, Ordering::SeqCst);
}

fn uninstall() {
    let mut st = state();
    st.schedule = None;
    st.hits.clear();
    ACTIVE.store(false, Ordering::SeqCst);
}

fn init_env_schedule() {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        if let Ok(spec) = std::env::var("LIBRTS_FAULTS") {
            if spec.trim().is_empty() {
                return;
            }
            match Schedule::parse(&spec) {
                Ok(s) if !s.is_empty() => install(s),
                Ok(_) => {}
                Err(e) => eprintln!("LIBRTS_FAULTS ignored: {e}"),
            }
        }
    });
}

/// True while a fault schedule (scoped or from `LIBRTS_FAULTS`) is
/// installed.
pub fn active() -> bool {
    init_env_schedule();
    ACTIVE.load(Ordering::Relaxed)
}

/// Runs `f` with `schedule` installed process-wide, uninstalling on the
/// way out even when `f` panics (so an injected panic cannot leak the
/// schedule into unrelated code). Scopes are serialized: a second
/// `with_faults` blocks until the first finishes. Hit counters reset at
/// installation, making every scope a deterministic replay.
pub fn with_faults<R>(schedule: Schedule, f: impl FnOnce() -> R) -> R {
    init_env_schedule();
    let _scope = scope_lock();
    struct Uninstall;
    impl Drop for Uninstall {
        fn drop(&mut self) {
            uninstall();
        }
    }
    install(schedule);
    let _guard = Uninstall;
    f()
}

/// Evaluates the injection point `point`: advances its hit counter and
/// returns the scheduled action for this hit, if any. One relaxed load
/// when no schedule is installed.
pub fn fire(point: &str) -> Option<FaultAction> {
    init_env_schedule();
    if !ACTIVE.load(Ordering::Relaxed) {
        return None;
    }
    let mut st = state();
    let schedule = st.schedule.clone()?;
    let hit = {
        let h = st.hits.entry(point.to_string()).or_insert(0);
        let n = *h;
        *h += 1;
        n
    };
    drop(st);
    CHECKS.fetch_add(1, Ordering::Relaxed);
    let action = schedule
        .rules
        .iter()
        .find(|r| r.matches(point, hit))
        .map(|r| r.action)?;
    match action {
        FaultAction::Fail => {
            FAILS.fetch_add(1, Ordering::Relaxed);
        }
        FaultAction::Panic => {
            PANICS.fetch_add(1, Ordering::Relaxed);
        }
        FaultAction::Slow(ns) => {
            SLOWS.fetch_add(1, Ordering::Relaxed);
            SLOW_NS.fetch_add(ns, Ordering::Relaxed);
        }
    }
    Some(action)
}

/// The standard call-site helper: fires `point`, then
///
/// - [`FaultAction::Panic`] → panics right here with the payload
///   `"chaos: injected panic at <point>"`;
/// - [`FaultAction::Fail`] → returns `Err(InjectedFault)`;
/// - [`FaultAction::Slow`] → the virtual nanoseconds are recorded in
///   the stats (callers wanting to *charge* the delay use
///   [`fire`] directly) and `Ok(())` is returned;
/// - no action → `Ok(())`.
pub fn inject(point: &'static str) -> Result<(), InjectedFault> {
    match fire(point) {
        Some(FaultAction::Panic) => panic!("chaos: injected panic at {point}"),
        Some(FaultAction::Fail) => Err(InjectedFault { point }),
        Some(FaultAction::Slow(_)) | None => Ok(()),
    }
}

/// Cumulative injection totals (monotone across scopes; never reset).
pub fn stats() -> ChaosStats {
    ChaosStats {
        checks: CHECKS.load(Ordering::Relaxed),
        injected_fails: FAILS.load(Ordering::Relaxed),
        injected_panics: PANICS.load(Ordering::Relaxed),
        injected_slow: SLOWS.load(Ordering::Relaxed),
        slow_virtual_ns: SLOW_NS.load(Ordering::Relaxed),
    }
}

/// Hit count of `point` inside the current scope (testing aid).
pub fn hits(point: &str) -> u64 {
    state().hits.get(point).copied().unwrap_or(0)
}

/// True when `payload` (a panic payload) is a chaos-injected panic.
/// Recovery layers use this to distinguish injected faults from real
/// bugs when deciding whether a resumed panic was expected.
pub fn is_injected_panic(payload: &(dyn std::any::Any + Send)) -> bool {
    payload
        .downcast_ref::<String>()
        .map(|s| s.starts_with("chaos: injected panic"))
        .or_else(|| {
            payload
                .downcast_ref::<&'static str>()
                .map(|s| s.starts_with("chaos: injected panic"))
        })
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_fire_is_none_and_uncounted() {
        // (Runs under the scope lock so a concurrent test's schedule
        // cannot leak in.)
        let _scope = scope_lock();
        assert_eq!(fire("test.never"), None);
        assert_eq!(hits("test.never"), 0);
    }

    #[test]
    fn schedule_matches_exact_hits_deterministically() {
        let seen = with_faults(Schedule::new().fail("t.a", 1).panic("t.b", 0), || {
            let a0 = fire("t.a");
            let a1 = fire("t.a");
            let a2 = fire("t.a");
            let b0 = fire("t.b");
            (a0, a1, a2, b0)
        });
        assert_eq!(
            seen,
            (
                None,
                Some(FaultAction::Fail),
                None,
                Some(FaultAction::Panic)
            )
        );
    }

    #[test]
    fn scopes_reset_hit_counters() {
        let sched = || Schedule::new().fail("t.reset", 0);
        let first = with_faults(sched(), || fire("t.reset"));
        let second = with_faults(sched(), || fire("t.reset"));
        assert_eq!(first, second, "replaying a scope must replay its faults");
        assert_eq!(first, Some(FaultAction::Fail));
    }

    #[test]
    fn inject_panics_with_recognizable_payload() {
        let err = with_faults(Schedule::new().panic("t.p", 0), || {
            std::panic::catch_unwind(|| inject("t.p")).unwrap_err()
        });
        assert!(is_injected_panic(err.as_ref()));
    }

    #[test]
    fn injected_panic_does_not_leak_schedule() {
        let _ = std::panic::catch_unwind(|| {
            with_faults(Schedule::new().panic("t.leak", 0), || {
                inject("t.leak").unwrap();
            })
        });
        // Under the scope lock, so a sibling test's scope cannot be the
        // one that is active.
        let _scope = scope_lock();
        assert!(!ACTIVE.load(Ordering::SeqCst) || std::env::var("LIBRTS_FAULTS").is_ok());
        assert_eq!(fire("t.leak"), None);
    }

    #[test]
    fn parse_grammar() {
        let s = Schedule::parse("a.b@3:fail; c.d@1+:panic ;e.f@2..5:slow=700").unwrap();
        assert_eq!(s.len(), 3);
        assert!(s.rules[0].matches("a.b", 3) && !s.rules[0].matches("a.b", 4));
        assert!(s.rules[1].matches("c.d", 1_000_000));
        assert!(!s.rules[1].matches("c.d", 0));
        assert!(s.rules[2].matches("e.f", 4) && !s.rules[2].matches("e.f", 5));
        assert_eq!(s.rules[2].action, FaultAction::Slow(700));
        assert!(Schedule::parse("nope").is_err());
        assert!(Schedule::parse("a@0:explode").is_err());
        assert!(Schedule::parse("a@5..2:fail").is_err());
    }

    #[test]
    fn stats_accumulate_monotonically() {
        // Both reads inside the scope: sibling tests' injections happen
        // in their own scopes, which this one excludes.
        let (before, after) =
            with_faults(Schedule::new().fail("t.s", 0).slow("t.s", 1, 250), || {
                let before = stats();
                let _ = fire("t.s");
                let _ = fire("t.s");
                let _ = fire("t.s");
                (before, stats())
            });
        assert_eq!(after.injected_fails - before.injected_fails, 1);
        assert_eq!(after.injected_slow - before.injected_slow, 1);
        assert_eq!(after.slow_virtual_ns - before.slow_virtual_ns, 250);
        assert_eq!(after.checks - before.checks, 3);
    }
}
