//! The sweep record model: what one (scenario, protocol) measurement
//! looks like, the paper's bound for it, and the exact-solver budgets.
//!
//! The machinery that *produces* records lives in [`crate::session`]
//! (the solver-service API) and the machinery that *consumes* them in
//! [`crate::sink`]. This module owns the shared vocabulary:
//!
//! * [`SweepRecord`] — run cost (rounds, messages), solution size, the
//!   reference optimum or certified lower bound, the paper's bound as an
//!   exact fraction, bound compliance, and a feasibility witness;
//! * [`paper_bound`] — the approximation bound each theorem claims for a
//!   protocol on an instance class;
//! * [`SweepConfig`] — budgets for the default exact reference solvers
//!   (consumed by [`crate::session::ExactBounds`]).

use eds_core::bounded_degree::bounded_degree_ratio;
use eds_core::port_one::port_one_ratio;

use crate::protocol::Protocol;
use crate::scenario::Scenario;

/// Budgets for the exact reference solvers.
#[derive(Clone, Copy, Debug)]
pub struct SweepConfig {
    /// Run the exact branch-and-bound EDS solver only on instances with
    /// at most this many edges.
    pub exact_edge_limit: usize,
    /// Run the exact (2^n) vertex-cover solver only on instances with at
    /// most this many nodes.
    pub exact_vc_node_limit: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            exact_edge_limit: 30,
            exact_vc_node_limit: 16,
        }
    }
}

/// One (scenario, protocol) measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepRecord {
    /// Scenario display name (`family/policy/seed`).
    pub scenario: String,
    /// Family key for grouping.
    pub family: &'static str,
    /// Port policy name.
    pub policy: &'static str,
    /// Scenario seed.
    pub seed: u64,
    /// Node count.
    pub nodes: usize,
    /// Edge count.
    pub edges: usize,
    /// Protocol name.
    pub protocol: &'static str,
    /// Rounds until the last node halted.
    pub rounds: usize,
    /// Messages delivered.
    pub messages: usize,
    /// Solution size (edges or cover nodes).
    pub size: usize,
    /// Exact optimum of the protocol's objective, when within budget.
    pub optimum: Option<usize>,
    /// Certified lower bound on the optimum (equals the optimum when the
    /// exact solver ran).
    pub lower_bound: usize,
    /// Name of the [`crate::BoundProvider`] that supplied `optimum` and
    /// `lower_bound` (`"exact"`, `"lp"`, `"mm"`, ...), so every report
    /// is self-describing about its reference bounds.
    pub bounds: &'static str,
    /// The paper's approximation bound for this protocol on this
    /// instance, as a fraction `(num, den)`; `None` when the paper
    /// claims no bound for the instance class (e.g. Theorem 3 on
    /// irregular graphs).
    pub bound: Option<(u64, u64)>,
    /// Empirical ratio `size / optimum` when the optimum is known.
    pub ratio: Option<f64>,
    /// Whether the bound held: `Some(true)` when certified (against the
    /// optimum, or against the lower bound when that already suffices),
    /// `Some(false)` on a proven violation, `None` when inconclusive
    /// (no bound claimed, or lower bound too weak to decide).
    pub within_bound: Option<bool>,
    /// Feasibility violation witness from `eds-verify`; `None` means the
    /// solution is structurally sound.
    pub violation: Option<String>,
    /// Churn accounting for dynamic scenarios ([`crate::Family::Churn`]);
    /// `None` on static workloads, so legacy reports parse unchanged.
    pub churn: Option<ChurnStats>,
}

/// Fault-injection accounting for one churn run, emitted as flat extra
/// fields on the record's JSON line (after `violation`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChurnStats {
    /// Total events applied across all bursts.
    pub events_applied: usize,
    /// Worst-case recovery cost of a single burst: incremental-repair
    /// passes plus, when the burst escalated, the rounds of its full
    /// re-stabilisation epoch.
    pub recovery_rounds: usize,
    /// Largest number of violations observed at any quiescence point
    /// *before* repair (ghost/conflicting witness entries, uncovered
    /// edges), plus one when an escalated burst re-seeded a witness the
    /// re-stabilised graph found infeasible.
    pub max_transient_violation: usize,
    /// Total neighbourhood-scan messages spent on incremental repair.
    pub repair_messages: usize,
    /// Highest recovery rung any burst reached: 0 none, 1 repair-only,
    /// 3 full re-stabilisation ([`eds_core::repair::RecoveryTier`]
    /// indices).
    pub recovery_tier: usize,
    /// Largest damage frontier (event-adjacent plus corruption-scrambled
    /// nodes) any single burst produced.
    pub frontier_nodes: usize,
    /// Bursts escalated past the repair-only rung.
    pub escalations: usize,
}

impl SweepRecord {
    /// A record is clean when the solution is feasible and no bound
    /// violation was proven.
    pub fn is_clean(&self) -> bool {
        self.violation.is_none() && self.within_bound != Some(false)
    }

    /// Renders the record as one compact JSON object (no trailing
    /// newline) — the unit of the JSON-lines report format written by
    /// [`crate::sink::JsonLinesSink`].
    pub fn to_json_line(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(256);
        let _ = write!(
            s,
            "{{\"scenario\":\"{}\",\"family\":\"{}\",\"policy\":\"{}\",\"seed\":{},\
             \"nodes\":{},\"edges\":{},\"protocol\":\"{}\",\"rounds\":{},\"messages\":{},\
             \"size\":{}",
            escape_json(&self.scenario),
            self.family,
            self.policy,
            self.seed,
            self.nodes,
            self.edges,
            self.protocol,
            self.rounds,
            self.messages,
            self.size,
        );
        match self.optimum {
            Some(o) => {
                let _ = write!(s, ",\"optimum\":{o}");
            }
            None => s.push_str(",\"optimum\":null"),
        }
        let _ = write!(
            s,
            ",\"lower_bound\":{},\"bounds\":\"{}\"",
            self.lower_bound, self.bounds
        );
        match self.bound {
            Some((num, den)) => {
                // The float is for human eyes and plotting; `{:.4}` (and
                // f64 itself, above 2^53) loses exactness, so the exact
                // integer fraction rides alongside and is what
                // `bench_diff` compares.
                let _ = write!(
                    s,
                    ",\"bound\":{:.4},\"bound_num\":{num},\"bound_den\":{den}",
                    num as f64 / den as f64
                );
            }
            None => s.push_str(",\"bound\":null,\"bound_num\":null,\"bound_den\":null"),
        }
        match self.ratio {
            Some(r) => {
                let _ = write!(s, ",\"ratio\":{r:.4}");
            }
            None => s.push_str(",\"ratio\":null"),
        }
        match self.within_bound {
            Some(b) => {
                let _ = write!(s, ",\"within_bound\":{b}");
            }
            None => s.push_str(",\"within_bound\":null"),
        }
        match &self.violation {
            Some(w) => {
                let _ = write!(s, ",\"violation\":\"{}\"", escape_json(w));
            }
            None => s.push_str(",\"violation\":null"),
        }
        if let Some(c) = &self.churn {
            let _ = write!(
                s,
                ",\"events_applied\":{},\"recovery_rounds\":{},\
                 \"max_transient_violation\":{},\"repair_messages\":{},\
                 \"recovery_tier\":{},\"frontier_nodes\":{},\"escalations\":{}",
                c.events_applied,
                c.recovery_rounds,
                c.max_transient_violation,
                c.repair_messages,
                c.recovery_tier,
                c.frontier_nodes,
                c.escalations,
            );
        }
        s.push('}');
        s
    }
}

/// Escapes a string for embedding in a JSON string literal (backslash,
/// double quote, and control characters). Registry scenario names never
/// need it, but [`crate::Scenario::external`] names are arbitrary. Also
/// used by the serve layer's wire frames.
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The paper's approximation bound for `protocol` on `scenario`, as a
/// fraction, or `None` when no bound is claimed for the instance class.
pub fn paper_bound(protocol: Protocol, scenario: &Scenario) -> Option<(u64, u64)> {
    let delta = scenario.simple.max_degree();
    match protocol {
        Protocol::PortOne => scenario.simple.regular_degree().map(port_one_ratio),
        Protocol::RegularOdd => scenario
            .simple
            .regular_degree()
            .filter(|d| d % 2 == 1)
            .map(|d| (4 * d as u64 - 2, d as u64 + 1)),
        Protocol::BoundedDegree => (delta >= 1).then(|| bounded_degree_ratio(delta)),
        Protocol::VertexCover => Some((3, 1)),
        Protocol::IdMatching | Protocol::RandMatching => Some((2, 1)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Family, PortPolicy, ScenarioSpec};

    #[test]
    fn bound_is_fraction_of_the_right_theorem() {
        let cycle = ScenarioSpec::new(Family::Cycle(8), 0, PortPolicy::Canonical)
            .build()
            .unwrap();
        // 2-regular: Theorem 3 bound is 4 - 2/2 = 3.
        assert_eq!(paper_bound(Protocol::PortOne, &cycle), Some((6, 2)));
        assert_eq!(paper_bound(Protocol::RegularOdd, &cycle), None);
        let k4 = ScenarioSpec::new(Family::Complete(4), 0, PortPolicy::Canonical)
            .build()
            .unwrap();
        // 3-regular: Theorem 4 bound is (4*3-2)/(3+1) = 10/4.
        assert_eq!(paper_bound(Protocol::RegularOdd, &k4), Some((10, 4)));
        let path = ScenarioSpec::new(Family::Path(5), 0, PortPolicy::Canonical)
            .build()
            .unwrap();
        // Irregular: Theorem 3 makes no claim.
        assert_eq!(paper_bound(Protocol::PortOne, &path), None);
        assert_eq!(paper_bound(Protocol::IdMatching, &path), Some((2, 1)));
    }

    #[test]
    fn json_line_shape() {
        let record = SweepRecord {
            scenario: "petersen/shuffled/s1".to_owned(),
            family: "petersen",
            policy: "shuffled",
            seed: 1,
            nodes: 10,
            edges: 15,
            protocol: "port-one",
            rounds: 2,
            messages: 60,
            size: 6,
            optimum: Some(3),
            lower_bound: 3,
            bounds: "exact",
            bound: Some((10, 3)),
            ratio: Some(2.0),
            within_bound: Some(true),
            violation: None,
            churn: None,
        };
        let line = record.to_json_line();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(!line.contains('\n'));
        assert!(line.contains("\"scenario\":\"petersen/shuffled/s1\""));
        assert!(line.contains("\"optimum\":3"));
        assert!(line.contains("\"bounds\":\"exact\""));
        assert!(line.contains("\"bound\":3.3333"));
        assert!(line.contains("\"bound_num\":10"));
        assert!(line.contains("\"bound_den\":3"));
        assert!(line.contains("\"within_bound\":true"));
        assert!(line.contains("\"violation\":null"));
        let nulls = SweepRecord {
            optimum: None,
            bound: None,
            ratio: None,
            within_bound: None,
            violation: Some("edge 3 = {1, 2} not dominated".to_owned()),
            ..record
        };
        let line = nulls.to_json_line();
        assert!(line.contains("\"optimum\":null"));
        assert!(line.contains("\"bound\":null"));
        assert!(line.contains("\"bound_num\":null"));
        assert!(line.contains("\"bound_den\":null"));
        assert!(line.contains("\"ratio\":null"));
        assert!(line.contains("\"violation\":\"edge 3 = {1, 2} not dominated\""));
    }

    /// The float `bound` field rounds to 4 decimals; the exact fields
    /// must survive fractions the float cannot represent.
    #[test]
    fn exact_bound_fields_survive_float_truncation() {
        let record = SweepRecord {
            scenario: "big/canonical/s0".to_owned(),
            family: "big",
            policy: "canonical",
            seed: 0,
            nodes: 4,
            edges: 3,
            protocol: "vertex-cover",
            rounds: 1,
            messages: 6,
            size: 2,
            optimum: Some(1),
            lower_bound: 1,
            bounds: "exact",
            bound: Some((u64::MAX, u64::MAX - 2)),
            ratio: Some(2.0),
            within_bound: Some(true),
            violation: None,
            churn: None,
        };
        let line = record.to_json_line();
        // Both fractions collapse to 1.0000 in the float rendering...
        assert!(line.contains("\"bound\":1.0000"));
        // ...but the exact integers are preserved verbatim.
        assert!(line.contains(&format!("\"bound_num\":{}", u64::MAX)));
        assert!(line.contains(&format!("\"bound_den\":{}", u64::MAX - 2)));
    }

    #[test]
    fn churn_fields_are_flat_and_optional() {
        let mut record = SweepRecord {
            scenario: "churn(petersen)-b3e2c1/shuffled/s0".to_owned(),
            family: "churn",
            policy: "shuffled",
            seed: 0,
            nodes: 10,
            edges: 15,
            protocol: "id-matching",
            rounds: 40,
            messages: 900,
            size: 4,
            optimum: Some(3),
            lower_bound: 3,
            bounds: "exact",
            bound: Some((2, 1)),
            ratio: None,
            within_bound: Some(true),
            violation: None,
            churn: None,
        };
        // Static records carry no churn keys at all.
        assert!(!record.to_json_line().contains("events_applied"));
        record.churn = Some(ChurnStats {
            events_applied: 9,
            recovery_rounds: 2,
            max_transient_violation: 3,
            repair_messages: 27,
            recovery_tier: 1,
            frontier_nodes: 4,
            escalations: 0,
        });
        let line = record.to_json_line();
        // Flat fields, after `violation`, still one valid JSON line.
        assert!(line.ends_with(
            "\"violation\":null,\"events_applied\":9,\"recovery_rounds\":2,\
             \"max_transient_violation\":3,\"repair_messages\":27,\
             \"recovery_tier\":1,\"frontier_nodes\":4,\"escalations\":0}"
        ));
        assert!(!line.contains('\n'));
        assert!(record.is_clean());
    }

    #[test]
    fn json_strings_are_escaped() {
        // External scenario names are arbitrary — quotes, backslashes
        // and control characters must not break the JSON line.
        let record = SweepRecord {
            scenario: "my\"weird\\name\n/as-given/s0".to_owned(),
            family: "external",
            policy: "as-given",
            seed: 0,
            nodes: 2,
            edges: 1,
            protocol: "port-one",
            rounds: 1,
            messages: 2,
            size: 1,
            optimum: Some(1),
            lower_bound: 1,
            bounds: "exact",
            bound: None,
            ratio: Some(1.0),
            within_bound: None,
            violation: None,
            churn: None,
        };
        let line = record.to_json_line();
        assert!(!line.contains('\n'));
        assert!(line.contains("\"scenario\":\"my\\\"weird\\\\name\\n/as-given/s0\""));
        assert_eq!(escape_json("plain/name/s0"), "plain/name/s0");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }
}
