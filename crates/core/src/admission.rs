//! Admission control: load shedding driven by the `obs::health`
//! serving-mode ladder.
//!
//! The [`HealthEngine`](obs::HealthEngine) evaluates its rules and
//! [`apply_verdict`](obs::health::apply_verdict) maps the verdict onto
//! the process-wide [`ServingMode`]:
//!
//! | mode       | reads                       | writes                | maintenance  |
//! |------------|-----------------------------|-----------------------|--------------|
//! | `Normal`   | all admitted                | admitted              | full policy  |
//! | `Degraded` | [`Priority::Low`] **shed**  | admitted              | refit-only   |
//! | `ReadOnly` | `Low` shed, rest admitted   | **rejected**          | skipped      |
//!
//! No rung changes how an admitted query runs: every launch walks the
//! same wide BVH in every mode.
//!
//! The ordering implements the ISSUE's ladder — shed the
//! lowest-priority query batches *before* touching writers: `Degraded`
//! only sheds `Low` reads; writers are rejected one rung later, at
//! `ReadOnly`, where the last-good snapshot keeps serving reads.
//!
//! Decisions are a pure function of `(serving mode, priority)` — no
//! queues, no clocks — so a replayed chaos schedule produces the same
//! shed/admit sequence at any `LIBRTS_THREADS` value. Every shed and
//! rejection is counted in the [`Class::Stable`](obs::Class::Stable)
//! `admission.*` family.

use std::sync::{Arc, OnceLock};

use crate::error::IndexError;
use obs::health::ServingMode;

fn m_shed_reads() -> &'static Arc<obs::Counter> {
    static M: OnceLock<Arc<obs::Counter>> = OnceLock::new();
    M.get_or_init(|| obs::counter("admission.shed_reads"))
}

fn m_rejected_writes() -> &'static Arc<obs::Counter> {
    static M: OnceLock<Arc<obs::Counter>> = OnceLock::new();
    M.get_or_init(|| obs::counter("admission.rejected_writes"))
}

fn m_admitted() -> &'static Arc<obs::Counter> {
    static M: OnceLock<Arc<obs::Counter>> = OnceLock::new();
    M.get_or_init(|| obs::counter("admission.admitted"))
}

/// How important a query batch is to the caller. Under pressure the
/// index sheds `Low` first; `High` is only refused when the request is
/// a mutation and the index is read-only.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Best-effort work (prefetch, analytics): first to be shed.
    Low,
    /// Ordinary serving traffic.
    #[default]
    Normal,
    /// Latency-critical traffic: shed last.
    High,
}

impl Priority {
    /// Stable lowercase label for artifacts and logs.
    pub fn label(self) -> &'static str {
        match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        }
    }
}

/// Admits or sheds a read (query batch) of the given priority under the
/// current serving mode. `Err(Overloaded)` is the 429-equivalent: the
/// caller should retry later or resubmit at a higher priority.
pub fn admit_read(priority: Priority) -> Result<(), IndexError> {
    match obs::health::serving_mode() {
        ServingMode::Normal => {}
        // Degraded and ReadOnly both shed best-effort reads; paying
        // traffic keeps flowing off the (possibly stale) snapshot.
        ServingMode::Degraded | ServingMode::ReadOnly => {
            if priority == Priority::Low {
                m_shed_reads().inc();
                return Err(IndexError::Overloaded);
            }
        }
    }
    m_admitted().inc();
    Ok(())
}

/// Admits or rejects a mutation under the current serving mode.
/// `Err(ReadOnly)` is the 503-equivalent: the index is in fail-safe
/// mode, serving the last-good snapshot read-only.
pub fn admit_write() -> Result<(), IndexError> {
    match obs::health::serving_mode() {
        ServingMode::Normal | ServingMode::Degraded => {
            m_admitted().inc();
            Ok(())
        }
        ServingMode::ReadOnly => {
            m_rejected_writes().inc();
            Err(IndexError::ReadOnly)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_labels_are_ordered() {
        assert!(Priority::Low < Priority::Normal);
        assert!(Priority::Normal < Priority::High);
        assert_eq!(Priority::default(), Priority::Normal);
        assert_eq!(Priority::Low.label(), "low");
    }

    // Mode-dependent behavior is tested in `tests/chaos.rs`: the
    // serving mode is process-global, so flipping it here would race
    // with every other unit test in this binary.
}
