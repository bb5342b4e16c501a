//! Declarative SLO health rules with hysteresis.
//!
//! A [`HealthEngine`] holds an ordered list of [`HealthRule`]s, each a
//! threshold over a [`Signal`] — a counter total, a gauge level, a
//! time-series rate, or a windowed histogram p99 from
//! [`crate::timeseries`]. Evaluation folds the tripped rules into a
//! [`Verdict`]: `Healthy`, `Degraded{reasons}` (HTTP 429) or
//! `Unhealthy{reasons}` (HTTP 503).
//!
//! ## Hysteresis
//!
//! A rule trips when its signal exceeds `max`, and only clears once the
//! signal falls back to `clear` or below (default `0.8 × max`). The
//! tripped bits live in the engine, so a signal oscillating around the
//! threshold produces one Degraded episode, not a 200/429 flap on every
//! scrape.
//!
//! Signals referencing metrics that do not exist yet read as 0 and
//! cannot trip — rules can be declared before the first query runs.
//!
//! The `/health` endpoint serves the verdict of the **installed**
//! engine ([`install`]); without one it reports 200 with
//! `"status": "unconfigured"`.

use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use crate::trace::json_f64;

/// What a [`HealthRule`] measures.
#[derive(Clone, Debug)]
pub enum Signal {
    /// Current total of a counter (any class).
    CounterTotal(String),
    /// Current level of a gauge.
    Gauge(String),
    /// Per-second rate of a counter over the last `window` samples of
    /// the time-series recorder ([`crate::timeseries::rate`]).
    Rate {
        /// Counter name.
        name: String,
        /// Window in samples.
        window: usize,
    },
    /// Windowed p99 upper bound of a histogram over the last `window`
    /// samples ([`crate::timeseries::window_p99`]).
    WindowP99 {
        /// Histogram name.
        name: String,
        /// Window in samples.
        window: usize,
    },
}

impl Signal {
    /// Read the signal's current value. Missing metrics read as 0.
    pub fn read(&self) -> f64 {
        match self {
            Signal::CounterTotal(name) => crate::snapshot().counter(name).unwrap_or(0) as f64,
            Signal::Gauge(name) => crate::snapshot().gauge(name).unwrap_or(0) as f64,
            Signal::Rate { name, window } => crate::timeseries::rate(name, *window).unwrap_or(0.0),
            Signal::WindowP99 { name, window } => {
                crate::timeseries::window_p99(name, *window).unwrap_or(0) as f64
            }
        }
    }

    fn describe(&self) -> String {
        match self {
            Signal::CounterTotal(name) => format!("counter {name}"),
            Signal::Gauge(name) => format!("gauge {name}"),
            Signal::Rate { name, window } => format!("rate({name}, {window})"),
            Signal::WindowP99 { name, window } => format!("p99({name}, {window})"),
        }
    }
}

/// Severity a tripped rule contributes to the verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Tripped rules of this severity yield [`Verdict::Degraded`].
    Degrade,
    /// Tripped rules of this severity yield [`Verdict::Unhealthy`].
    Fail,
}

/// One declarative threshold rule.
#[derive(Clone, Debug)]
pub struct HealthRule {
    /// Rule name, surfaced in verdict reasons.
    pub name: String,
    /// The measured signal.
    pub signal: Signal,
    /// Trip when the signal exceeds this.
    pub max: f64,
    /// Clear only when the signal falls to this or below (hysteresis).
    pub clear: f64,
    /// Verdict contribution while tripped.
    pub severity: Severity,
}

impl HealthRule {
    /// A rule tripping above `max`, clearing at `0.8 × max`.
    pub fn new(name: &str, signal: Signal, max: f64, severity: Severity) -> Self {
        Self {
            name: name.to_string(),
            signal,
            max,
            clear: max * 0.8,
            severity,
        }
    }

    /// Override the clear threshold (values above `max` are clamped).
    pub fn clear_at(mut self, clear: f64) -> Self {
        self.clear = clear.min(self.max);
        self
    }
}

/// The folded health verdict.
#[derive(Clone, Debug, PartialEq)]
pub enum Verdict {
    /// No rule tripped.
    Healthy,
    /// At least one [`Severity::Degrade`] rule tripped (and no `Fail`).
    Degraded {
        /// Names of the tripped rules.
        reasons: Vec<String>,
    },
    /// At least one [`Severity::Fail`] rule tripped.
    Unhealthy {
        /// Names of the tripped rules.
        reasons: Vec<String>,
    },
}

impl Verdict {
    /// HTTP status the `/health` endpoint maps this verdict to.
    pub fn http_status(&self) -> u16 {
        match self {
            Verdict::Healthy => 200,
            Verdict::Degraded { .. } => 429,
            Verdict::Unhealthy { .. } => 503,
        }
    }

    /// Lower-case label (`healthy` / `degraded` / `unhealthy`).
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Healthy => "healthy",
            Verdict::Degraded { .. } => "degraded",
            Verdict::Unhealthy { .. } => "unhealthy",
        }
    }
}

/// A set of rules plus their hysteresis state.
pub struct HealthEngine {
    rules: Vec<HealthRule>,
    tripped: Mutex<Vec<bool>>,
}

impl HealthEngine {
    /// Build an engine; every rule starts cleared.
    pub fn new(rules: Vec<HealthRule>) -> Self {
        let tripped = Mutex::new(vec![false; rules.len()]);
        Self { rules, tripped }
    }

    /// The configured rules.
    pub fn rules(&self) -> &[HealthRule] {
        &self.rules
    }

    /// Read every signal, update hysteresis state, and fold the
    /// verdict.
    pub fn evaluate(&self) -> Verdict {
        let mut tripped = self.tripped.lock().unwrap_or_else(PoisonError::into_inner);
        let mut degraded = Vec::new();
        let mut failed = Vec::new();
        for (rule, state) in self.rules.iter().zip(tripped.iter_mut()) {
            let value = rule.signal.read();
            if *state {
                if value <= rule.clear {
                    *state = false;
                }
            } else if value > rule.max {
                *state = true;
            }
            if *state {
                match rule.severity {
                    Severity::Degrade => degraded.push(rule.name.clone()),
                    Severity::Fail => failed.push(rule.name.clone()),
                }
            }
        }
        let verdict = if !failed.is_empty() {
            Verdict::Unhealthy { reasons: failed }
        } else if !degraded.is_empty() {
            Verdict::Degraded { reasons: degraded }
        } else {
            Verdict::Healthy
        };
        m_evaluations().inc();
        m_status().set(match verdict {
            Verdict::Healthy => 0,
            Verdict::Degraded { .. } => 1,
            Verdict::Unhealthy { .. } => 2,
        });
        verdict
    }

    /// Evaluate and render the full verdict JSON: the folded status,
    /// the reasons, and one line per rule with its live value and
    /// tripped bit — so a scraper can re-derive the verdict and check
    /// consistency (`trace_check serve` does exactly that).
    pub fn verdict_json(&self) -> String {
        self.evaluate_json().1
    }

    /// [`Self::evaluate`] plus the JSON body, from one evaluation (so
    /// `/health`'s status code and body can never disagree).
    pub fn evaluate_json(&self) -> (Verdict, String) {
        let verdict = self.evaluate();
        let tripped = self
            .tripped
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        let mut out = format!("{{\"status\": \"{}\", \"reasons\": [", verdict.label());
        let reasons: &[String] = match &verdict {
            Verdict::Healthy => &[],
            Verdict::Degraded { reasons } | Verdict::Unhealthy { reasons } => reasons,
        };
        for (i, r) in reasons.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{r}\""));
        }
        out.push_str("], \"rules\": [");
        for (i, (rule, state)) in self.rules.iter().zip(tripped.iter()).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n{{\"name\": \"{}\", \"signal\": \"{}\", \"value\": {}, \
                 \"max\": {}, \"clear\": {}, \"severity\": \"{}\", \"tripped\": {}}}",
                rule.name,
                rule.signal.describe(),
                json_f64(rule.signal.read()),
                json_f64(rule.max),
                json_f64(rule.clear),
                match rule.severity {
                    Severity::Degrade => "degrade",
                    Severity::Fail => "fail",
                },
                state,
            ));
        }
        out.push_str("\n]}");
        (verdict, out)
    }
}

fn m_evaluations() -> &'static std::sync::Arc<crate::Counter> {
    static M: OnceLock<std::sync::Arc<crate::Counter>> = OnceLock::new();
    M.get_or_init(|| crate::host_counter("health.evaluations"))
}

fn m_status() -> &'static std::sync::Arc<crate::Gauge> {
    static M: OnceLock<std::sync::Arc<crate::Gauge>> = OnceLock::new();
    M.get_or_init(|| crate::gauge("health.status"))
}

fn installed() -> MutexGuard<'static, Option<HealthEngine>> {
    static INSTALLED: OnceLock<Mutex<Option<HealthEngine>>> = OnceLock::new();
    INSTALLED
        .get_or_init(|| Mutex::new(None))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Install `engine` as the process-wide engine behind `/health`
/// (replacing any previous one, hysteresis state included).
pub fn install(engine: HealthEngine) {
    *installed() = Some(engine);
}

/// Remove the installed engine; `/health` reports `unconfigured`.
pub fn uninstall() {
    *installed() = None;
}

/// Evaluate the installed engine. `None` when nothing is installed.
pub fn evaluate_installed() -> Option<Verdict> {
    installed().as_ref().map(|e| e.evaluate())
}

/// The `(status code, body)` pair served by `/health`.
pub fn http_response() -> (u16, String) {
    match installed().as_ref() {
        None => (
            200,
            "{\"status\": \"unconfigured\", \"reasons\": [], \"rules\": [\n]}".to_string(),
        ),
        Some(engine) => {
            let (verdict, body) = engine.evaluate_json();
            (verdict.http_status(), body)
        }
    }
}

// ---------------------------------------------------------------------
// The serving-mode ladder (ISSUE 10): one process-wide knob the layers
// below consult to degrade gracefully instead of merely reporting.
// ---------------------------------------------------------------------

/// The process-wide degraded-mode ladder.
///
/// The serving stack reacts to each rung by *policy*, not just
/// reporting:
///
/// - **Normal** — full service.
/// - **Degraded** (maps from [`Verdict::Degraded`]) — `librts`
///   maintenance clamps to refit-only (no rebuild/compact amplification
///   under load), and low-priority query batches are shed with a
///   429-equivalent typed error before any writer is touched. Admitted
///   queries run exactly as in Normal: the mode never changes traversal.
/// - **ReadOnly** (maps from [`Verdict::Unhealthy`]) — mutations are
///   rejected with a typed error; readers keep serving the last-good
///   published snapshot.
///
/// The mode is only ever changed explicitly ([`set_serving_mode`], or
/// [`apply_verdict`] wired to a health evaluation) so chaos/conformance
/// tests stay deterministic: nothing in the live plane flips it behind
/// the caller's back.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ServingMode {
    /// Full service.
    Normal,
    /// Shed low-priority reads, refit-only maintenance.
    Degraded,
    /// Reject mutations; serve the last-good snapshot read-only.
    ReadOnly,
}

impl ServingMode {
    /// Lower-case label (`normal` / `degraded` / `read_only`).
    pub fn label(self) -> &'static str {
        match self {
            ServingMode::Normal => "normal",
            ServingMode::Degraded => "degraded",
            ServingMode::ReadOnly => "read_only",
        }
    }

    /// The rung a health verdict maps to.
    pub fn from_verdict(verdict: &Verdict) -> Self {
        match verdict {
            Verdict::Healthy => ServingMode::Normal,
            Verdict::Degraded { .. } => ServingMode::Degraded,
            Verdict::Unhealthy { .. } => ServingMode::ReadOnly,
        }
    }
}

static SERVING_MODE: std::sync::atomic::AtomicU8 = std::sync::atomic::AtomicU8::new(0);

/// The current process-wide serving mode (default `Normal`).
pub fn serving_mode() -> ServingMode {
    match SERVING_MODE.load(std::sync::atomic::Ordering::Relaxed) {
        1 => ServingMode::Degraded,
        2 => ServingMode::ReadOnly,
        _ => ServingMode::Normal,
    }
}

/// Sets the process-wide serving mode, mirroring it into the
/// `serving.mode` gauge (0/1/2). Returns the previous mode.
pub fn set_serving_mode(mode: ServingMode) -> ServingMode {
    let raw = match mode {
        ServingMode::Normal => 0u8,
        ServingMode::Degraded => 1,
        ServingMode::ReadOnly => 2,
    };
    let prev = SERVING_MODE.swap(raw, std::sync::atomic::Ordering::SeqCst);
    m_serving_mode().set(raw as i64);
    match prev {
        1 => ServingMode::Degraded,
        2 => ServingMode::ReadOnly,
        _ => ServingMode::Normal,
    }
}

/// Folds a health verdict into the serving-mode ladder and installs the
/// resulting rung. This is the one sanctioned bridge from the *observed*
/// health state to the *enforced* degraded mode — callers invoke it
/// deliberately (e.g. a serving loop after each evaluation), it never
/// runs implicitly.
pub fn apply_verdict(verdict: &Verdict) -> ServingMode {
    let mode = ServingMode::from_verdict(verdict);
    set_serving_mode(mode);
    mode
}

fn m_serving_mode() -> &'static std::sync::Arc<crate::Gauge> {
    static M: OnceLock<std::sync::Arc<crate::Gauge>> = OnceLock::new();
    M.get_or_init(|| crate::gauge("serving.mode"))
}

/// A generous default rule set for a serving index: windowed query-p99
/// SLOs on the always-on `query.wall_ns` feed, a failed-publish rate
/// guard, and a Degrade on runaway SAH drift. `window` is in sampler
/// samples.
pub fn default_rules(window: usize) -> Vec<HealthRule> {
    vec![
        HealthRule::new(
            "query_p99_degraded",
            Signal::WindowP99 {
                name: "query.wall_ns".into(),
                window,
            },
            250e6, // 250 ms
            Severity::Degrade,
        ),
        HealthRule::new(
            "query_p99_unhealthy",
            Signal::WindowP99 {
                name: "query.wall_ns".into(),
                window,
            },
            2e9, // 2 s
            Severity::Fail,
        ),
        HealthRule::new(
            "failed_publish_rate",
            Signal::Rate {
                name: "concurrent.failed_publishes".into(),
                window,
            },
            10.0,
            Severity::Degrade,
        ),
        HealthRule::new(
            "sah_drift",
            Signal::Gauge("maintenance.worst_sah_drift_milli".into()),
            4000.0, // 4× the post-build SAH cost
            Severity::Degrade,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_folds_worst_severity() {
        let _guard = crate::test_lock();
        let g1 = crate::gauge("health.test.fold_a");
        let g2 = crate::gauge("health.test.fold_b");
        let engine = HealthEngine::new(vec![
            HealthRule::new(
                "a",
                Signal::Gauge("health.test.fold_a".into()),
                10.0,
                Severity::Degrade,
            ),
            HealthRule::new(
                "b",
                Signal::Gauge("health.test.fold_b".into()),
                10.0,
                Severity::Fail,
            ),
        ]);
        g1.set(0);
        g2.set(0);
        assert_eq!(engine.evaluate(), Verdict::Healthy);
        g1.set(11);
        assert_eq!(
            engine.evaluate(),
            Verdict::Degraded {
                reasons: vec!["a".into()]
            }
        );
        g2.set(11);
        let v = engine.evaluate();
        assert_eq!(v.http_status(), 503);
        assert_eq!(
            v,
            Verdict::Unhealthy {
                reasons: vec!["b".into()]
            }
        );
    }

    #[test]
    fn hysteresis_requires_falling_to_clear() {
        let _guard = crate::test_lock();
        let g = crate::gauge("health.test.hyst");
        let engine = HealthEngine::new(vec![HealthRule::new(
            "h",
            Signal::Gauge("health.test.hyst".into()),
            100.0,
            Severity::Degrade,
        )]);
        g.set(101);
        assert_eq!(engine.evaluate().http_status(), 429, "trips above max");
        g.set(90);
        assert_eq!(
            engine.evaluate().http_status(),
            429,
            "90 > clear(80): stays tripped"
        );
        g.set(80);
        assert_eq!(engine.evaluate().http_status(), 200, "clears at 80");
        g.set(90);
        assert_eq!(
            engine.evaluate().http_status(),
            200,
            "90 < max from below: no trip"
        );
    }

    #[test]
    fn missing_metrics_read_zero_and_cannot_trip() {
        let _guard = crate::test_lock();
        let engine = HealthEngine::new(vec![HealthRule::new(
            "missing",
            Signal::CounterTotal("health.test.never_registered".into()),
            0.5,
            Severity::Fail,
        )]);
        assert_eq!(engine.evaluate(), Verdict::Healthy);
    }

    #[test]
    fn verdict_json_is_self_consistent_and_line_scannable() {
        let _guard = crate::test_lock();
        let g = crate::gauge("health.test.json");
        g.set(11);
        let engine = HealthEngine::new(vec![HealthRule::new(
            "j",
            Signal::Gauge("health.test.json".into()),
            10.0,
            Severity::Degrade,
        )]);
        let json = engine.verdict_json();
        assert!(json.contains("\"status\": \"degraded\""));
        assert!(json.contains("\"j\""));
        // One rule object per line, scannable without a JSON parser.
        let rule_lines: Vec<&str> = json
            .lines()
            .filter(|l| l.contains("\"tripped\":"))
            .collect();
        assert_eq!(rule_lines.len(), 1);
        assert!(rule_lines[0].contains("\"tripped\": true"));
        g.set(0);
        let json = engine.verdict_json();
        assert!(json.contains("\"status\": \"healthy\""));
    }

    #[test]
    fn installed_engine_drives_http_response() {
        let _guard = crate::test_lock();
        uninstall();
        let (status, body) = http_response();
        assert_eq!(status, 200);
        assert!(body.contains("unconfigured"));
        let g = crate::gauge("health.test.installed");
        g.set(5);
        install(HealthEngine::new(vec![HealthRule::new(
            "i",
            Signal::Gauge("health.test.installed".into()),
            1.0,
            Severity::Fail,
        )]));
        let (status, body) = http_response();
        assert_eq!(status, 503);
        assert!(body.contains("\"status\": \"unhealthy\""));
        uninstall();
    }

    #[test]
    fn serving_mode_ladder_follows_verdicts() {
        let _guard = crate::test_lock();
        set_serving_mode(ServingMode::Normal);
        assert_eq!(serving_mode(), ServingMode::Normal);
        assert_eq!(
            apply_verdict(&Verdict::Degraded {
                reasons: vec!["x".into()]
            }),
            ServingMode::Degraded
        );
        assert_eq!(serving_mode(), ServingMode::Degraded);
        assert_eq!(
            apply_verdict(&Verdict::Unhealthy {
                reasons: vec!["y".into()]
            }),
            ServingMode::ReadOnly
        );
        assert_eq!(serving_mode(), ServingMode::ReadOnly);
        let prev = set_serving_mode(ServingMode::Normal);
        assert_eq!(prev, ServingMode::ReadOnly);
        assert_eq!(serving_mode(), ServingMode::Normal);
    }

    #[test]
    fn default_rules_cover_the_serving_slos() {
        let rules = default_rules(16);
        assert!(rules.len() >= 4);
        assert!(rules.iter().any(|r| r.name == "query_p99_degraded"));
        assert!(rules.iter().any(|r| matches!(r.severity, Severity::Fail)));
    }
}
