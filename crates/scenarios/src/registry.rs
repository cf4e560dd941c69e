//! The scenario registry: curated, iterator-based workload sets.
//!
//! A [`Registry`] is an ordered list of [`ScenarioSpec`]s. The built-in
//! sets are:
//!
//! * [`Registry::full`] — the complete sweep matrix: every generator
//!   family in `pn-graph` (classic, random, geometric, covering lifts,
//!   multigraph covers) across canonical, shuffled and adversarial
//!   2-factor port policies;
//! * [`Registry::smoke`] — a fast subset still spanning ≥ 8 families,
//!   used by the `scenario_sweep --smoke` CI job;
//! * [`Registry::conformance`] — small instances on which the exact
//!   branch-and-bound optimum is cheap, used by the integration test
//!   suite (`tests/quality_matrix.rs`, `tests/cross_validation.rs`);
//! * [`Registry::churn`] — dynamic workloads: deterministic fault
//!   injection (edge churn, crashes, joins, witness corruption) with
//!   local repair and epoch re-stabilisation, used by the
//!   `scenario_sweep --churn` smoke gate.
//!
//! To add a family: add a [`Family`] variant (and its builder) in
//! [`crate::scenario`], then list specs for it here — every consumer
//! (sweep binary, perfbench, conformance tests) picks it up from the
//! registry without further changes.

use crate::churn::ChurnPlan;
use crate::scenario::{Family, PortPolicy, Scenario, ScenarioSpec};
use pn_graph::GraphError;

/// An ordered collection of scenario specs.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    specs: Vec<ScenarioSpec>,
}

impl Registry {
    /// Creates a registry from explicit specs.
    pub fn new(specs: Vec<ScenarioSpec>) -> Self {
        Registry { specs }
    }

    /// The full sweep matrix: every family, multiple seeds, all
    /// applicable port policies. Instance sizes are chosen so the whole
    /// matrix sweeps in seconds while still covering every generator.
    pub fn full() -> Self {
        let mut specs = Vec::new();
        let both = [PortPolicy::Canonical, PortPolicy::Shuffled];

        // Classic deterministic families under canonical and shuffled
        // (adversarial permutation) numberings.
        for family in [
            Family::Path(9),
            Family::Cycle(12),
            Family::Complete(6),
            Family::CompleteBipartite(3, 4),
            Family::Crown(4),
            Family::Star(8),
            Family::Hypercube(3),
            Family::Grid(3, 4),
            Family::Torus(3, 3),
            Family::Petersen,
            Family::Circulant {
                n: 10,
                strides: vec![1, 2],
            },
            Family::Wheel(6),
            Family::Ladder(5),
        ] {
            for policy in both {
                specs.push(ScenarioSpec::new(family.clone(), 0, policy));
            }
        }
        // Extra shuffle seeds on a few classics: distinct adversarial
        // permutations of the same topology.
        for seed in 1..3u64 {
            specs.push(ScenarioSpec::new(
                Family::Petersen,
                seed,
                PortPolicy::Shuffled,
            ));
            specs.push(ScenarioSpec::new(
                Family::Grid(3, 4),
                seed,
                PortPolicy::Shuffled,
            ));
        }
        // The paper's 2-factorised adversarial numbering on 2k-regular
        // instances.
        for family in [
            Family::Torus(3, 3),
            Family::Circulant {
                n: 10,
                strides: vec![1, 2],
            },
            Family::Complete(5),
        ] {
            specs.push(ScenarioSpec::new(family, 0, PortPolicy::TwoFactor));
        }

        // Random models, several seeds each.
        for seed in 0..3u64 {
            specs.push(ScenarioSpec::new(
                Family::Gnp { n: 12, p: 0.3 },
                seed,
                PortPolicy::Shuffled,
            ));
            specs.push(ScenarioSpec::new(
                Family::RandomRegular { n: 12, d: 3 },
                seed,
                PortPolicy::Shuffled,
            ));
            specs.push(ScenarioSpec::new(
                Family::RandomBoundedDegree {
                    n: 16,
                    delta: 4,
                    density: 0.8,
                },
                seed,
                PortPolicy::Shuffled,
            ));
            specs.push(ScenarioSpec::new(
                Family::RandomTree { n: 14 },
                seed,
                PortPolicy::Shuffled,
            ));
            specs.push(ScenarioSpec::new(
                Family::SensorNetwork { n: 30, delta: 4 },
                seed,
                PortPolicy::Shuffled,
            ));
            // Heavy-tailed degrees: hubs far above the typical degree
            // stress the Δ-parametrised protocols.
            specs.push(ScenarioSpec::new(
                Family::PowerLaw { n: 24, m: 2 },
                seed,
                PortPolicy::Shuffled,
            ));
        }
        specs.push(ScenarioSpec::new(
            Family::PowerLaw { n: 40, m: 3 },
            0,
            PortPolicy::Shuffled,
        ));
        // A 4-regular random instance under the 2-factor adversary.
        specs.push(ScenarioSpec::new(
            Family::RandomRegular { n: 10, d: 4 },
            0,
            PortPolicy::TwoFactor,
        ));

        // Covering-map workloads: cyclic lifts of classic bases and the
        // simple covers of the Figure 2 multigraph.
        specs.push(ScenarioSpec::new(
            Family::CyclicLift {
                base: Box::new(Family::Petersen),
                layers: 3,
            },
            0,
            PortPolicy::Shuffled,
        ));
        specs.push(ScenarioSpec::new(
            Family::CyclicLift {
                base: Box::new(Family::Cycle(5)),
                layers: 4,
            },
            0,
            PortPolicy::Canonical,
        ));
        for layers in [4usize, 6] {
            specs.push(ScenarioSpec::new(
                Family::Figure2Cover { layers },
                0,
                PortPolicy::Canonical,
            ));
        }

        // The million-node scale tier: streamed generation (flat
        // involution, no intermediate structures) — the workloads where
        // the paper's O(Δ)-round bounds meet a million nodes.
        for family in [
            Family::MillionCycle { n: 1_000_000 },
            Family::MillionRegular { n: 1_000_000 },
        ] {
            specs.push(ScenarioSpec::new(family, 0, PortPolicy::Shuffled));
        }

        // Dynamic workloads: the full matrix carries a taste of churn so
        // report diffs notice regressions in the fault-injection path;
        // the dedicated gate lives in `Registry::churn`.
        specs.push(ScenarioSpec::new(
            Family::Churn {
                base: Box::new(Family::Petersen),
                plan: ChurnPlan::new(3, 2, 1),
            },
            0,
            PortPolicy::Shuffled,
        ));
        specs.push(ScenarioSpec::new(
            Family::Churn {
                base: Box::new(Family::Grid(3, 4)),
                plan: ChurnPlan::new(3, 3, 2),
            },
            1,
            PortPolicy::Shuffled,
        ));
        Registry { specs }
    }

    /// The dynamic-scenario gate: every protocol survives edge churn,
    /// crashes, joins and corruptions that wipe witness entries,
    /// re-converging to a feasible solution at every quiescence point.
    /// Consumed by
    /// `scenario_sweep --churn` (the `churn-smoke` CI job) and the churn
    /// integration tests.
    pub fn churn() -> Self {
        Registry {
            specs: vec![
                ScenarioSpec::new(
                    Family::Churn {
                        base: Box::new(Family::Petersen),
                        plan: ChurnPlan::new(3, 2, 1),
                    },
                    0,
                    PortPolicy::Shuffled,
                ),
                ScenarioSpec::new(
                    Family::Churn {
                        base: Box::new(Family::Grid(3, 4)),
                        plan: ChurnPlan::new(3, 3, 2),
                    },
                    1,
                    PortPolicy::Shuffled,
                ),
                ScenarioSpec::new(
                    Family::Churn {
                        base: Box::new(Family::RandomBoundedDegree {
                            n: 16,
                            delta: 4,
                            density: 0.8,
                        }),
                        plan: ChurnPlan::new(4, 3, 2),
                    },
                    2,
                    PortPolicy::Shuffled,
                ),
                ScenarioSpec::new(
                    Family::Churn {
                        base: Box::new(Family::Cycle(12)),
                        plan: ChurnPlan::new(2, 2, 1),
                    },
                    0,
                    PortPolicy::Canonical,
                ),
            ],
        }
    }

    /// The streamed-tier churn gate: the same burst/event/corruption mix
    /// as [`Registry::churn`], but over the million-scale streamed bases
    /// — churn materialises as a delta overlay on the borrowed base
    /// graph, never a second full copy. Consumed by
    /// `scenario_sweep --churn-scale` (the `churn-scale-smoke` CI job at
    /// a reduced `n`) and the churn-scale integration tests. Repair-first
    /// recovery is the point: the driver is expected to run these with
    /// [`eds_core::repair::RecoveryPolicy::repair_first`] and fail on any
    /// escalation to full re-stabilisation.
    pub fn churn_scale(n: usize) -> Self {
        Registry {
            specs: vec![
                ScenarioSpec::new(
                    Family::Churn {
                        base: Box::new(Family::MillionCycle { n }),
                        plan: ChurnPlan::new(2, 2, 1),
                    },
                    0,
                    PortPolicy::Canonical,
                ),
                ScenarioSpec::new(
                    Family::Churn {
                        base: Box::new(Family::MillionRegular { n }),
                        plan: ChurnPlan::new(2, 2, 1),
                    },
                    1,
                    PortPolicy::Canonical,
                ),
            ],
        }
    }

    /// A fast subset spanning ≥ 8 distinct families — the CI smoke set.
    pub fn smoke() -> Self {
        Registry {
            specs: vec![
                ScenarioSpec::new(Family::Petersen, 0, PortPolicy::Shuffled),
                ScenarioSpec::new(Family::Cycle(9), 0, PortPolicy::Canonical),
                ScenarioSpec::new(Family::Complete(5), 0, PortPolicy::Shuffled),
                ScenarioSpec::new(Family::Grid(3, 3), 0, PortPolicy::Canonical),
                ScenarioSpec::new(Family::Star(6), 0, PortPolicy::Shuffled),
                ScenarioSpec::new(Family::Crown(4), 0, PortPolicy::Shuffled),
                ScenarioSpec::new(Family::Torus(3, 3), 0, PortPolicy::TwoFactor),
                ScenarioSpec::new(Family::Gnp { n: 10, p: 0.35 }, 1, PortPolicy::Shuffled),
                ScenarioSpec::new(
                    Family::RandomRegular { n: 10, d: 3 },
                    0,
                    PortPolicy::Shuffled,
                ),
                ScenarioSpec::new(Family::PowerLaw { n: 12, m: 2 }, 0, PortPolicy::Shuffled),
                ScenarioSpec::new(Family::Figure2Cover { layers: 4 }, 0, PortPolicy::Canonical),
            ],
        }
    }

    /// Small instances with cheap exact optima — the matrix consumed by
    /// the integration test suite. Every instance here stays within the
    /// default exact-solver budget of [`crate::sweep::SweepConfig`].
    pub fn conformance() -> Self {
        let mut specs = Vec::new();
        for family in [
            Family::Petersen,
            Family::Complete(4),
            Family::Complete(5),
            Family::Cycle(9),
            Family::Cycle(10),
            Family::Path(8),
            Family::Grid(3, 4),
            Family::Crown(4),
            Family::Hypercube(3),
            Family::Star(7),
            Family::Wheel(6),
            Family::Ladder(5),
            Family::Circulant {
                n: 10,
                strides: vec![1, 2],
            },
        ] {
            specs.push(ScenarioSpec::new(family, 0, PortPolicy::Shuffled));
        }
        for seed in 0..4u64 {
            specs.push(ScenarioSpec::new(
                Family::Gnp { n: 11, p: 0.35 },
                seed,
                PortPolicy::Shuffled,
            ));
            specs.push(ScenarioSpec::new(
                Family::RandomBoundedDegree {
                    n: 14,
                    delta: 4,
                    density: 0.8,
                },
                seed,
                PortPolicy::Shuffled,
            ));
        }
        for seed in 0..2u64 {
            specs.push(ScenarioSpec::new(
                Family::PowerLaw { n: 14, m: 2 },
                seed,
                PortPolicy::Shuffled,
            ));
        }
        Registry { specs }
    }

    /// The specs, in registry order.
    pub fn specs(&self) -> &[ScenarioSpec] {
        &self.specs
    }

    /// Iterates over the specs.
    pub fn iter(&self) -> impl Iterator<Item = &ScenarioSpec> {
        self.specs.iter()
    }

    /// Number of specs.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Returns `true` if the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The distinct family keys present, in first-appearance order.
    pub fn family_keys(&self) -> Vec<&'static str> {
        let mut keys = Vec::new();
        for spec in &self.specs {
            let k = spec.family.key();
            if !keys.contains(&k) {
                keys.push(k);
            }
        }
        keys
    }

    /// A registry containing only the specs satisfying `pred`.
    pub fn filter(&self, pred: impl Fn(&ScenarioSpec) -> bool) -> Registry {
        Registry {
            specs: self.specs.iter().filter(|s| pred(s)).cloned().collect(),
        }
    }

    /// Appends a spec.
    pub fn push(&mut self, spec: ScenarioSpec) {
        self.specs.push(spec);
    }

    /// Builds every scenario, propagating the first failure.
    ///
    /// # Errors
    ///
    /// Propagates generator and port-assignment errors — the built-in
    /// registries never fail.
    pub fn build_all(&self) -> Result<Vec<Scenario>, GraphError> {
        self.specs.iter().map(ScenarioSpec::build).collect()
    }
}

impl<'a> IntoIterator for &'a Registry {
    type Item = &'a ScenarioSpec;
    type IntoIter = std::slice::Iter<'a, ScenarioSpec>;

    fn into_iter(self) -> Self::IntoIter {
        self.specs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_registry_builds_and_spans_families() {
        let r = Registry::full();
        assert!(r.len() >= 40, "full registry has {} specs", r.len());
        let keys = r.family_keys();
        assert!(keys.len() >= 8, "only {} families: {keys:?}", keys.len());
        // Build everything below the million tier (building two
        // 1,000,000-node graphs in unoptimised test runs is the release
        // sweep's job; the streamed construction itself is covered at
        // small n by the scenario tests).
        let modest = r.filter(|s| {
            !matches!(
                s.family,
                Family::MillionCycle { .. } | Family::MillionRegular { .. }
            )
        });
        let scenarios = modest.build_all().unwrap();
        assert_eq!(scenarios.len(), modest.len());
        for s in &scenarios {
            assert_eq!(s.simple.edge_count(), s.graph.edge_count(), "{}", s.name());
        }
    }

    #[test]
    fn full_registry_carries_the_scaled_million_tier() {
        let r = Registry::full();
        let million: Vec<_> = r
            .iter()
            .filter(|s| {
                matches!(
                    s.family,
                    Family::MillionCycle { .. } | Family::MillionRegular { .. }
                )
            })
            .collect();
        assert_eq!(million.len(), 2, "one spec per streamed family");
        for spec in million {
            assert_eq!(spec.exec, None, "the million tier needs no knobs");
            // Small clones of the same families build; the registry
            // instances themselves are exercised by the release sweep.
            let small = match spec.family {
                Family::MillionCycle { .. } => Family::MillionCycle { n: 100 },
                _ => Family::MillionRegular { n: 100 },
            };
            ScenarioSpec::new(small, spec.seed, spec.policy)
                .build()
                .unwrap();
        }
    }

    #[test]
    fn smoke_registry_is_small_but_wide() {
        let r = Registry::smoke();
        assert!(r.len() <= 12);
        assert!(r.family_keys().len() >= 8);
        r.build_all().unwrap();
    }

    #[test]
    fn conformance_registry_is_exactly_solvable() {
        let r = Registry::conformance();
        for s in r.build_all().unwrap() {
            assert!(
                s.simple.edge_count() <= crate::sweep::SweepConfig::default().exact_edge_limit,
                "{} has {} edges",
                s.name(),
                s.simple.edge_count()
            );
        }
    }

    #[test]
    fn filter_and_iteration() {
        let r = Registry::full();
        let petersen_only = r.filter(|s| s.family.key() == "petersen");
        assert!(!petersen_only.is_empty());
        assert!(petersen_only.len() < r.len());
        let count = (&r).into_iter().count();
        assert_eq!(count, r.len());
    }
}
