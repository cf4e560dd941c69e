//! The traced decomposition of one `Session` measurement: the same
//! public calls the session makes for a scenario, one at a time, each
//! inside a span, assembling the same `SweepRecord`s. The traced run
//! checks that these records equal the untraced session's byte for
//! byte, which is what makes the per-layer table a table of the same
//! program.

use std::hint::black_box;
use std::io::Write;

use eds_core::repair::RecoveryPolicy;
use eds_scenarios::churn::{materialize, materialize_streamed, run_churn_with};
use eds_scenarios::sweep::paper_bound;
use eds_scenarios::{
    BoundProvider, Bounds, ExactBounds, Family, LpBounds, Protocol, Scenario, Session, Solution,
    SweepError, SweepRecord,
};
use eds_verify::{check_edge_dominating_set, check_maximal_matching};
use pn_graph::{NodeId, SimpleGraph};
use pn_runtime::{edge_set_from_outputs, outputs_from_edge_set, Simulator};

use crate::trace::Tracer;

/// The reference-bound provider a sweep runs with.
#[derive(Clone)]
pub enum Provider {
    Lp(LpBounds),
    Exact(ExactBounds),
}

impl Provider {
    pub fn lp() -> Provider {
        Provider::Lp(LpBounds::default())
    }

    pub fn exact() -> Provider {
        Provider::Exact(ExactBounds::default())
    }

    pub fn get(&self) -> &dyn BoundProvider {
        match self {
            Provider::Lp(lp) => lp,
            Provider::Exact(exact) => exact,
        }
    }

    pub fn install(&self, session: Session) -> Session {
        match self {
            Provider::Lp(lp) => session.bounds(lp.clone()),
            Provider::Exact(exact) => session.bounds(*exact),
        }
    }

    /// LP certificates that failed their independent check so far.
    pub fn infeasible_certificates(&self) -> usize {
        match self {
            Provider::Lp(lp) => lp.infeasible_certificates(),
            Provider::Exact(_) => 0,
        }
    }
}

/// A writer that fingerprints (FNV-1a) and counts the bytes it passes on.
pub struct Hashing<W> {
    pub inner: W,
    pub digest: u64,
    pub bytes: u64,
}

impl<W> Hashing<W> {
    pub fn new(inner: W) -> Self {
        Hashing {
            inner,
            digest: 0xcbf2_9ce4_8422_2325,
            bytes: 0,
        }
    }
}

impl<W: Write> Write for Hashing<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        for &b in &buf[..n] {
            self.digest = (self.digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Counts the traced replay gathers besides its spans.
#[derive(Debug, Default)]
pub struct ReplayCounts {
    pub rounds: u64,
    pub messages: u64,
    /// Replays whose extraction or independent check disagreed with the
    /// protocol run (always 0 unless the decomposition is wrong).
    pub mismatches: u64,
}

/// One scenario's bounds, computed at most once per objective — the
/// session memoises them the same way.
struct BoundsMemo<'a> {
    provider: &'a dyn BoundProvider,
    eds: Option<Bounds>,
    vc: Option<Bounds>,
}

impl BoundsMemo<'_> {
    fn get(&mut self, t: &mut Tracer, parent: usize, s: &Scenario, nodes: bool) -> Bounds {
        let provider = self.provider;
        let slot = if nodes { &mut self.vc } else { &mut self.eds };
        *slot.get_or_insert_with(|| {
            t.time(
                "bounds.provider",
                if nodes { "vc" } else { "eds" },
                Some(parent),
                || {
                    if nodes {
                        provider.vc_bounds(s)
                    } else {
                        provider.eds_bounds(s)
                    }
                },
            )
        })
    }
}

/// The session's feasibility check for one witness, on `g`.
fn violation(g: &SimpleGraph, protocol: Protocol, solution: &Solution) -> Option<String> {
    match solution {
        Solution::Edges(edges) => match protocol {
            Protocol::IdMatching | Protocol::RandMatching => check_maximal_matching(g, edges)
                .err()
                .map(|v| v.to_string()),
            _ => check_edge_dominating_set(g, edges)
                .err()
                .map(|v| v.to_string()),
        },
        Solution::Nodes(cover) => {
            let mut in_cover = vec![false; g.node_count()];
            for &v in cover {
                in_cover[v.index()] = true;
            }
            g.edges()
                .find(|&(_, u, v)| !in_cover[u.index()] && !in_cover[v.index()])
                .map(|(e, u, v)| format!("edge {e} = {{{u}, {v}}} has no endpoint in the cover"))
        }
    }
}

/// Size ratio and bound verdict, exactly as the session scores them.
fn score(size: usize, bound: Option<(u64, u64)>, reference: Bounds) -> (Option<f64>, Option<bool>) {
    let ratio = reference
        .optimum
        .filter(|&opt| opt > 0)
        .map(|opt| size as f64 / opt as f64);
    let within = bound.and_then(|(num, den)| match reference.optimum {
        Some(opt) => Some(size as u64 * den <= num * opt as u64),
        None => (size as u64 * den <= num * reference.lower_bound as u64).then_some(true),
    });
    (ratio, within)
}

/// Replays one scenario's measurements under the span `parent`.
///
/// # Errors
///
/// Propagates the execution errors the session would.
pub fn replay_scenario(
    t: &mut Tracer,
    parent: usize,
    scenario: &Scenario,
    protocols: &[Protocol],
    provider: &Provider,
    policy: &RecoveryPolicy,
    counts: &mut ReplayCounts,
) -> Result<Vec<(SweepRecord, Solution)>, SweepError> {
    let mut memo = BoundsMemo {
        provider: provider.get(),
        eds: None,
        vc: None,
    };
    if matches!(scenario.spec.family, Family::Churn { .. }) {
        return replay_churn(
            t, parent, scenario, protocols, provider, policy, &mut memo, counts,
        );
    }
    let exec = scenario.spec.exec.unwrap_or_default();
    let g = &scenario.graph;
    let mut out = Vec::new();
    for &protocol in protocols.iter().filter(|p| p.applicable(scenario)) {
        let name = protocol.name();
        t.time("pn_runtime.setup", name, Some(parent), || {
            black_box(Simulator::new(black_box(g)));
        });
        let run = t.time("pn_runtime.execute", name, Some(parent), || {
            protocol.execute_with(scenario, &exec)
        })?;
        counts.rounds += run.rounds as u64;
        counts.messages += run.messages as u64;

        // Extraction, timed on outputs rebuilt from the solution.
        let extracted_matches = match &run.solution {
            Solution::Edges(edges) => {
                let outputs = outputs_from_edge_set(g, edges);
                let extracted = t.time("pn_runtime.extract", name, Some(parent), || {
                    edge_set_from_outputs(g, &outputs)
                })?;
                extracted == *edges
            }
            Solution::Nodes(cover) => {
                let mut flags = vec![false; g.node_count()];
                for v in cover {
                    flags[v.index()] = true;
                }
                let extracted: Vec<NodeId> =
                    t.time("pn_runtime.extract", name, Some(parent), || {
                        g.nodes().filter(|v| flags[v.index()]).collect()
                    });
                extracted == *cover
            }
        };
        if !extracted_matches {
            counts.mismatches += 1;
        }

        let bound = match (protocol, exec.delta) {
            (Protocol::BoundedDegree, Some(claimed)) => {
                let effective = claimed.max(scenario.simple.max_degree());
                (effective >= 1).then(|| eds_core::bounded_degree::bounded_degree_ratio(effective))
            }
            _ => paper_bound(protocol, scenario),
        };
        let violation = t.time("eds_verify.check", name, Some(parent), || {
            violation(&scenario.simple, protocol, &run.solution)
        });
        let nodes = matches!(run.solution, Solution::Nodes(_));
        let reference = memo.get(t, parent, scenario, nodes);
        let size = run.solution.len();
        let (ratio, within_bound) = score(size, bound, reference);
        out.push((
            SweepRecord {
                scenario: scenario.name(),
                family: scenario.spec.family.key(),
                policy: scenario.spec.policy.name(),
                seed: scenario.spec.seed,
                nodes: scenario.simple.node_count(),
                edges: scenario.simple.edge_count(),
                protocol: name,
                rounds: run.rounds,
                messages: run.messages,
                size,
                optimum: reference.optimum,
                lower_bound: reference.lower_bound,
                bounds: provider.get().name(),
                bound,
                ratio,
                within_bound,
                violation,
                churn: None,
            },
            run.solution,
        ));
    }
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn replay_churn(
    t: &mut Tracer,
    parent: usize,
    scenario: &Scenario,
    protocols: &[Protocol],
    provider: &Provider,
    policy: &RecoveryPolicy,
    memo: &mut BoundsMemo<'_>,
    counts: &mut ReplayCounts,
) -> Result<Vec<(SweepRecord, Solution)>, SweepError> {
    let Family::Churn { base, plan } = &scenario.spec.family else {
        unreachable!("replay_scenario routes only churn families here");
    };
    let exec = scenario.spec.exec.unwrap_or_default();
    let label = scenario.name();
    // The schedule alone; `run_churn_with` draws it again internally,
    // so `churn.run` includes this cost once more per protocol.
    t.time("churn.materialize", &label, Some(parent), || {
        if matches!(
            **base,
            Family::MillionCycle { .. } | Family::MillionRegular { .. }
        ) {
            materialize_streamed(&scenario.graph, plan, scenario.spec.seed).map(drop)
        } else {
            materialize(&scenario.graph, plan, scenario.spec.seed).map(drop)
        }
    })?;
    let mut final_scenario: Option<Scenario> = None;
    let mut out = Vec::new();
    for &protocol in protocols.iter().filter(|p| p.applicable(scenario)) {
        let name = protocol.name();
        let run = t.time("churn.run", name, Some(parent), || {
            run_churn_with(scenario, protocol, &exec, policy, None)
        })?;
        let fs = final_scenario.get_or_insert_with(|| Scenario {
            spec: scenario.spec.clone(),
            graph: run.final_graph.clone(),
            simple: run.final_simple.clone(),
        });
        // An independent check of the final witness: the churn runner
        // verified it on its own; eds_verify must agree.
        let independent = t.time("eds_verify.check", name, Some(parent), || {
            violation(&fs.simple, protocol, &run.solution)
        });
        if independent.is_some() != run.violation.is_some() {
            counts.mismatches += 1;
        }
        let bound = match protocol {
            Protocol::BoundedDegree => Some(eds_core::bounded_degree::bounded_degree_ratio(
                run.claimed_delta,
            )),
            _ => paper_bound(protocol, fs),
        };
        let nodes = matches!(run.solution, Solution::Nodes(_));
        let reference = memo.get(t, parent, fs, nodes);
        let size = run.solution.len();
        let (ratio, within_bound) = score(size, bound, reference);
        out.push((
            SweepRecord {
                scenario: scenario.name(),
                family: scenario.spec.family.key(),
                policy: scenario.spec.policy.name(),
                seed: scenario.spec.seed,
                nodes: fs.simple.node_count(),
                edges: fs.simple.edge_count(),
                protocol: name,
                rounds: run.rounds,
                messages: run.messages,
                size,
                optimum: reference.optimum,
                lower_bound: reference.lower_bound,
                bounds: provider.get().name(),
                bound,
                ratio,
                within_bound,
                violation: run.violation,
                churn: Some(run.stats),
            },
            run.solution,
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eds_scenarios::{ExecOptions, PortPolicy, ScenarioSpec};

    /// The decomposition reproduces `Protocol::execute_with` (solution,
    /// rounds, messages) and the session's record on a small instance of
    /// every family the workloads use.
    #[test]
    fn decomposition_reproduces_the_session_on_every_family() {
        let specs = vec![
            ScenarioSpec::new(Family::MillionCycle { n: 64 }, 3, PortPolicy::Shuffled),
            ScenarioSpec::new(Family::MillionRegular { n: 64 }, 4, PortPolicy::Shuffled),
            ScenarioSpec::new(
                Family::RandomRegular { n: 40, d: 5 },
                5,
                PortPolicy::Shuffled,
            ),
            ScenarioSpec::new(Family::PowerLaw { n: 60, m: 3 }, 6, PortPolicy::Shuffled).with_exec(
                ExecOptions {
                    delta: Some(40),
                    ..ExecOptions::default()
                },
            ),
            ScenarioSpec::new(Family::Petersen, 7, PortPolicy::Shuffled),
            ScenarioSpec::new(
                Family::Churn {
                    base: Box::new(Family::RandomRegular { n: 30, d: 3 }),
                    plan: eds_scenarios::ChurnPlan::new(2, 2, 1),
                },
                8,
                PortPolicy::Shuffled,
            ),
            ScenarioSpec::new(
                Family::Churn {
                    base: Box::new(Family::MillionRegular { n: 64 }),
                    plan: eds_scenarios::ChurnPlan::new(2, 2, 1),
                },
                9,
                PortPolicy::Canonical,
            ),
        ];
        for provider in [Provider::lp(), Provider::exact()] {
            let policy = RecoveryPolicy::default();
            let session = provider
                .install(Session::new().specs(specs.clone()))
                .sequential();
            let expected = session.collect().unwrap();
            let mut t = Tracer::new();
            let mut counts = ReplayCounts::default();
            let mut replayed = Vec::new();
            for spec in &specs {
                let s = spec.build().unwrap();
                let root = t.open("scenario", &s.name(), None);
                for (record, solution) in replay_scenario(
                    &mut t,
                    root,
                    &s,
                    &Protocol::ALL,
                    &provider,
                    &policy,
                    &mut counts,
                )
                .unwrap()
                {
                    if record.churn.is_none() {
                        let run = Protocol::ALL
                            .iter()
                            .find(|p| p.name() == record.protocol)
                            .unwrap()
                            .execute_with(&s, &s.spec.exec.unwrap_or_default())
                            .unwrap();
                        assert_eq!(run.solution, solution);
                        assert_eq!(run.rounds, record.rounds);
                        assert_eq!(run.messages, record.messages);
                    }
                    replayed.push(record);
                }
                t.close(root);
            }
            assert_eq!(counts.mismatches, 0);
            assert_eq!(replayed.len(), expected.len());
            for (a, b) in replayed.iter().zip(&expected) {
                assert_eq!(a.to_json_line(), b.to_json_line());
            }
            assert!(t.spans().iter().any(|s| s.name == "churn.run"));
            assert!(t.spans().iter().any(|s| s.name == "pn_runtime.extract"));
        }
    }
}
