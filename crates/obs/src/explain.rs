//! EXPLAIN output for the Ray Multicast cost model.
//!
//! `RTSIndex::explain_intersects` (in the `librts` crate) runs a
//! Range-Intersects batch and returns a [`QueryPlan`]: the full decision
//! trace of the multicast cost model `C(k) = (1-w)·C_R + w·C_I` — every
//! candidate `k` it swept with its predicted `C_R = |R|·k·log N` and
//! `C_I = N·|R|·s/k`, the sampled selectivity, the winner, and the
//! *measured* counterparts (rays cast, IS invocations, max IS on a single
//! ray, result pairs) so prediction error is a first-class, queryable
//! number rather than a vibe.
//!
//! Every field of a [`QueryPlan`] but one is Stable-class: counts, the
//! sampled selectivity (deterministic strided sampling) and modelled
//! device time. The exception is the Host-class per-phase wall time,
//! which [`QueryPlan::to_json`] renders next to the device time and
//! [`QueryPlan::stable_json`] leaves out; `stable_json` is byte-identical
//! at any `LIBRTS_THREADS`, which the conformance suite pins.

use crate::trace::{json_f64, PhaseNanos};

/// One candidate `k` evaluated by the cost-model sweep.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KCandidate {
    /// Candidate multicast factor.
    pub k: u32,
    /// Predicted per-core ray cost `C_R = |R|·k·log N` at this `k`.
    pub c_r: f64,
    /// Predicted per-core intersection cost `C_I = N·|R|·s/k` at this
    /// `k`.
    pub c_i: f64,
    /// Blended cost `(1-w)·C_R + w·C_I`.
    pub cost: f64,
}

impl KCandidate {
    fn json(&self) -> String {
        format!(
            "{{\"k\": {}, \"c_r\": {}, \"c_i\": {}, \"cost\": {}}}",
            self.k,
            json_f64(self.c_r),
            json_f64(self.c_i),
            json_f64(self.cost)
        )
    }
}

/// The cost-model decision trace for one Range-Intersects batch,
/// predicted quantities side by side with what the run measured.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryPlan {
    /// Query kind (currently always `range_intersects`).
    pub kind: &'static str,
    /// Batch size as submitted.
    pub batch: u64,
    /// Queries surviving validity filtering.
    pub valid: u64,
    /// Live rectangles in the index (the cost model's `|R|`).
    pub live: u64,
    /// Live rectangles the backward pass cast: those touching the batch's
    /// box. Equals `live` when the box covers the data; less shows what
    /// the cull removed.
    pub cast: u64,
    /// Multicast mode: `auto`, `fixed` or `off`.
    pub mode: &'static str,
    /// Cost-model blend weight `w`.
    pub weight: f64,
    /// Selectivity sample size the model is configured with.
    pub sample_size: u64,
    /// Sampled selectivity `s` (None when the model did not run).
    pub selectivity: Option<f64>,
    /// Every candidate `k` the sweep evaluated (empty when not `auto`).
    pub candidates: Vec<KCandidate>,
    /// The `k` actually used.
    pub chosen_k: u32,
    /// Predicted `C_R` at the chosen `k` (0 when the model did not run).
    pub predicted_cr: f64,
    /// Predicted `C_I` at the chosen `k` (0 when the model did not run).
    pub predicted_ci: f64,
    /// Predicted result pairs `|R|·|S_valid|·s`, when sampled.
    pub predicted_pairs: Option<f64>,
    /// Result pairs actually produced (post-dedup).
    pub actual_pairs: u64,
    /// Rays cast across all phases.
    pub rays: u64,
    /// IS invocations across all phases.
    pub is_calls: u64,
    /// BVH nodes visited across all phases.
    pub nodes_visited: u64,
    /// Measured `C_I`: max IS invocations on any single ray.
    pub actual_ci: u64,
    /// Modelled device time per phase.
    pub device_ns: PhaseNanos,
    /// Host wall time per phase (Host-class).
    pub wall_phase_ns: PhaseNanos,
}

impl QueryPlan {
    /// Selectivity-prediction error: `|predicted_pairs − actual_pairs| /
    /// max(actual_pairs, 1)`, when the model sampled a selectivity.
    pub fn prediction_error(&self) -> Option<f64> {
        self.predicted_pairs
            .map(|p| (p - self.actual_pairs as f64).abs() / (self.actual_pairs.max(1) as f64))
    }

    /// `C_I` prediction error: `|predicted_ci − actual_ci| /
    /// max(actual_ci, 1)`, when the model ran.
    pub fn ci_error(&self) -> Option<f64> {
        self.selectivity.map(|_| {
            (self.predicted_ci - self.actual_ci as f64).abs() / (self.actual_ci.max(1) as f64)
        })
    }

    /// Full rendering: the stable payload with the Host-class
    /// `wall_phase_ns` right after `device_ns`.
    pub fn to_json(&self) -> String {
        let stable = self.stable_json();
        format!(
            "{}, \"wall_phase_ns\": {}}}",
            &stable[..stable.len() - 1],
            self.wall_phase_ns.json()
        )
    }

    /// Deterministic JSON rendering of the Stable-class fields, which is
    /// byte-identical at any `LIBRTS_THREADS`.
    pub fn stable_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"kind\": \"{}\", ", self.kind));
        out.push_str(&format!("\"batch\": {}, ", self.batch));
        out.push_str(&format!("\"valid\": {}, ", self.valid));
        out.push_str(&format!("\"live\": {}, ", self.live));
        out.push_str(&format!("\"cast\": {}, ", self.cast));
        out.push_str(&format!("\"mode\": \"{}\", ", self.mode));
        out.push_str(&format!("\"weight\": {}, ", json_f64(self.weight)));
        out.push_str(&format!("\"sample_size\": {}, ", self.sample_size));
        out.push_str(&format!(
            "\"selectivity\": {}, ",
            match self.selectivity {
                Some(s) => json_f64(s),
                None => "null".into(),
            }
        ));
        out.push_str("\"candidates\": [");
        for (i, c) in self.candidates.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&c.json());
        }
        out.push_str("], ");
        out.push_str(&format!("\"chosen_k\": {}, ", self.chosen_k));
        out.push_str(&format!(
            "\"predicted_cr\": {}, ",
            json_f64(self.predicted_cr)
        ));
        out.push_str(&format!(
            "\"predicted_ci\": {}, ",
            json_f64(self.predicted_ci)
        ));
        out.push_str(&format!(
            "\"predicted_pairs\": {}, ",
            match self.predicted_pairs {
                Some(p) => json_f64(p),
                None => "null".into(),
            }
        ));
        out.push_str(&format!("\"actual_pairs\": {}, ", self.actual_pairs));
        out.push_str(&format!("\"rays\": {}, ", self.rays));
        out.push_str(&format!("\"is_calls\": {}, ", self.is_calls));
        out.push_str(&format!("\"nodes_visited\": {}, ", self.nodes_visited));
        out.push_str(&format!("\"actual_ci\": {}, ", self.actual_ci));
        out.push_str(&format!(
            "\"prediction_error\": {}, ",
            match self.prediction_error() {
                Some(e) => json_f64(e),
                None => "null".into(),
            }
        ));
        out.push_str(&format!(
            "\"ci_error\": {}, ",
            match self.ci_error() {
                Some(e) => json_f64(e),
                None => "null".into(),
            }
        ));
        out.push_str(&format!("\"device_ns\": {}", self.device_ns.json()));
        out.push('}');
        out
    }
}

impl Default for QueryPlan {
    fn default() -> Self {
        Self {
            kind: "range_intersects",
            batch: 0,
            valid: 0,
            live: 0,
            cast: 0,
            mode: "off",
            weight: 0.0,
            sample_size: 0,
            selectivity: None,
            candidates: Vec::new(),
            chosen_k: 1,
            predicted_cr: 0.0,
            predicted_ci: 0.0,
            predicted_pairs: None,
            actual_pairs: 0,
            rays: 0,
            is_calls: 0,
            nodes_visited: 0,
            actual_ci: 0,
            device_ns: PhaseNanos::default(),
            wall_phase_ns: PhaseNanos::default(),
        }
    }
}

fn last_plan_cell() -> &'static std::sync::Mutex<Option<QueryPlan>> {
    static CELL: std::sync::OnceLock<std::sync::Mutex<Option<QueryPlan>>> =
        std::sync::OnceLock::new();
    CELL.get_or_init(|| std::sync::Mutex::new(None))
}

/// Remember `plan` as the most recent EXPLAIN output; the live plane's
/// `/explain` endpoint serves it. `RTSIndex::explain_intersects` calls
/// this on every run.
pub fn set_last_plan(plan: &QueryPlan) {
    *last_plan_cell()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(plan.clone());
}

/// The most recent recorded plan, if any EXPLAIN has run.
pub fn last_plan() -> Option<QueryPlan> {
    last_plan_cell()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone()
}

/// JSON of the most recent recorded plan.
pub fn last_plan_json() -> Option<String> {
    last_plan().map(|p| p.to_json())
}

/// Forget the recorded plan (test isolation).
pub fn clear_last_plan() {
    *last_plan_cell()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = None;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> QueryPlan {
        QueryPlan {
            mode: "auto",
            batch: 100,
            valid: 99,
            live: 1_000,
            cast: 600,
            weight: 0.98,
            sample_size: 192,
            selectivity: Some(0.01),
            candidates: vec![
                KCandidate {
                    k: 1,
                    c_r: 1000.0,
                    c_i: 990.0,
                    cost: 990.2,
                },
                KCandidate {
                    k: 2,
                    c_r: 2000.0,
                    c_i: 495.0,
                    cost: 525.1,
                },
            ],
            chosen_k: 2,
            predicted_cr: 2000.0,
            predicted_ci: 495.0,
            predicted_pairs: Some(990.0),
            actual_pairs: 900,
            actual_ci: 450,
            ..QueryPlan::default()
        }
    }

    #[test]
    fn errors_are_relative_to_measured() {
        let p = plan();
        let err = p.prediction_error().unwrap();
        assert!((err - 0.1).abs() < 1e-12, "got {err}");
        let ci = p.ci_error().unwrap();
        assert!((ci - 0.1).abs() < 1e-12, "got {ci}");
        let off = QueryPlan::default();
        assert_eq!(off.prediction_error(), None);
        assert_eq!(off.ci_error(), None);
    }

    #[test]
    fn json_carries_candidates_and_errors() {
        let json = plan().to_json();
        assert!(json.contains("\"mode\": \"auto\""));
        assert!(json.contains("\"live\": 1000, \"cast\": 600, "));
        assert!(json.contains("\"candidates\": [{\"k\": 1,"));
        assert!(json.contains("\"chosen_k\": 2"));
        assert!(json.contains("\"prediction_error\": 0.1"));
        assert!(json.contains("\"ci_error\": 0.1"));
        assert!(json.contains("\"device_ns\": {\"k_prediction\": 0"));
        // Deterministic: same plan renders the same bytes.
        assert_eq!(json, plan().to_json());
    }

    #[test]
    fn stable_json_excludes_wall_phase_time() {
        let p = QueryPlan {
            device_ns: PhaseNanos {
                k_prediction: 10,
                build: 20,
                forward: 30,
                backward: 40,
                dedup: 0,
            },
            wall_phase_ns: PhaseNanos {
                k_prediction: 100,
                build: 200,
                forward: 300,
                backward: 400,
                dedup: 0,
            },
            ..plan()
        };
        let stable = p.stable_json();
        assert!(!stable.contains("wall_phase_ns"));
        assert!(stable.ends_with(
            "\"device_ns\": {\"k_prediction\": 10, \"build\": 20, \"forward\": 30, \"backward\": 40, \"dedup\": 0}}"
        ));
        // The full rendering is the stable one with wall time right
        // after device time.
        assert_eq!(
            p.to_json(),
            format!(
                "{}, \"wall_phase_ns\": {{\"k_prediction\": 100, \"build\": 200, \"forward\": 300, \"backward\": 400, \"dedup\": 0}}}}",
                &stable[..stable.len() - 1]
            )
        );
    }

    #[test]
    fn last_plan_cell_round_trips() {
        let _guard = crate::test_lock();
        clear_last_plan();
        assert_eq!(last_plan(), None);
        assert_eq!(last_plan_json(), None);
        let p = plan();
        set_last_plan(&p);
        assert_eq!(last_plan(), Some(p.clone()));
        assert_eq!(last_plan_json(), Some(p.to_json()));
        clear_last_plan();
        assert_eq!(last_plan(), None);
    }
}
