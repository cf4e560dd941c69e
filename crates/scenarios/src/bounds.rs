//! Additional [`BoundProvider`]s: certified LP lower bounds and the
//! cheap matching-only fallback.
//!
//! The default provider ([`crate::ExactBounds`]) runs the exact solvers
//! within budget and falls back to the folklore maximal-matching bounds
//! (`⌈|MM|/2⌉` for EDS, `|MM|` for VC) beyond them — bounds that can be
//! off by a factor of two. This module adds:
//!
//! * [`LpBounds`] — the same exact solvers within budget, but beyond
//!   them the **exact LP relaxation duals** from [`eds_lp`]: a
//!   fractional closed-edge-neighbourhood packing for EDS and a
//!   fractional matching for VC, solved in exact rational arithmetic
//!   and seeded from a maximal matching, so the bound is never looser
//!   than the folklore one. Every LP bound's [`DualCertificate`] is
//!   re-verified by the independent checker before the bound is used;
//!   a certificate that fails (a solver bug) is counted in
//!   [`LpBounds::infeasible_certificates`] and the record falls back
//!   to the folklore bound — CI gates on the counter staying zero.
//! * [`MmBounds`] — matching bounds only, no exact solver at all: the
//!   constant-cost provider for huge sweeps where even the LP budget
//!   check is unwanted.
//!
//! All providers keep the [`Bounds`] invariant: when `optimum` is
//! known, `lower_bound` equals it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use eds_baselines::{exact, two_approx};
use eds_lp::{dual_certificate, DualObjective, LpBudget};

use crate::scenario::Scenario;
use crate::session::{exact_min_vertex_cover, BoundProvider, Bounds};
use crate::sweep::SweepConfig;

/// Exact optima within the [`SweepConfig`] budgets; certified LP dual
/// bounds (with verified certificates) within the [`LpBudget`];
/// folklore matching bounds beyond both. See the [module docs](self).
///
/// Cloning is cheap and clones share the infeasible-certificate
/// counter, so a caller can keep a handle while the session owns the
/// provider:
///
/// ```
/// use eds_scenarios::{LpBounds, Registry, Session, VecSink};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let lp = LpBounds::default();
/// let mut sink = VecSink::new();
/// Session::over(Registry::smoke()).bounds(lp.clone()).run(&mut sink)?;
/// assert_eq!(lp.infeasible_certificates(), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct LpBounds {
    /// Budgets for the exact solvers (zeroed by
    /// [`LpBounds::without_exact`]).
    config: SweepConfig,
    /// Size budget for the exact-rational simplex.
    budget: LpBudget,
    /// Certificates that failed independent verification (a solver bug;
    /// the affected records fell back to the folklore bound).
    infeasible: Arc<AtomicUsize>,
}

impl LpBounds {
    /// A provider with explicit exact-solver and LP budgets.
    pub fn new(config: SweepConfig, budget: LpBudget) -> Self {
        LpBounds {
            config,
            budget,
            infeasible: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// LP bounds with the exact solvers disabled: every record gets a
    /// certificate-backed lower bound and no optimum. This is the
    /// configuration the acceptance gate measures against the folklore
    /// fallback.
    pub fn without_exact() -> Self {
        LpBounds::new(
            SweepConfig {
                exact_edge_limit: 0,
                exact_vc_node_limit: 0,
            },
            LpBudget::default(),
        )
    }

    /// Certificates that failed the independent feasibility check so
    /// far, across all clones of this provider. Always zero unless the
    /// simplex mis-solved — the `lp-bounds-smoke` CI job fails when it
    /// is not.
    pub fn infeasible_certificates(&self) -> usize {
        self.infeasible.load(Ordering::Relaxed)
    }

    /// The certified lower bound for `objective`: the verified LP dual
    /// bound within budget, the folklore matching bound otherwise.
    fn certified_lower(&self, scenario: &Scenario, objective: DualObjective) -> usize {
        let g = &scenario.simple;
        let cert = dual_certificate(g, objective, &self.budget);
        if cert.verify(g).is_ok() {
            return cert.bound;
        }
        self.infeasible.fetch_add(1, Ordering::Relaxed);
        mm_lower(g, objective)
    }
}

impl BoundProvider for LpBounds {
    fn eds_bounds(&self, scenario: &Scenario) -> Bounds {
        let optimum = (scenario.simple.edge_count() <= self.config.exact_edge_limit)
            .then(|| exact::minimum_eds_size(&scenario.simple));
        let lower_bound = optimum
            .unwrap_or_else(|| self.certified_lower(scenario, DualObjective::EdgeDomination));
        Bounds {
            optimum,
            lower_bound,
        }
    }

    fn vc_bounds(&self, scenario: &Scenario) -> Bounds {
        let optimum = (scenario.simple.node_count() <= self.config.exact_vc_node_limit)
            .then(|| exact_min_vertex_cover(scenario));
        let lower_bound =
            optimum.unwrap_or_else(|| self.certified_lower(scenario, DualObjective::VertexCover));
        Bounds {
            optimum,
            lower_bound,
        }
    }

    fn name(&self) -> &'static str {
        "lp"
    }
}

/// Folklore maximal-matching bounds only — no exact solver, no LP: the
/// constant-cost provider for huge sweeps. `optimum` is always `None`.
#[derive(Clone, Copy, Debug, Default)]
pub struct MmBounds;

/// The folklore matching lower bound for one objective.
fn mm_lower(g: &pn_graph::SimpleGraph, objective: DualObjective) -> usize {
    let mm = two_approx::two_approximation(g).len();
    match objective {
        DualObjective::EdgeDomination => mm.div_ceil(2),
        DualObjective::VertexCover => mm,
    }
}

impl BoundProvider for MmBounds {
    fn eds_bounds(&self, scenario: &Scenario) -> Bounds {
        Bounds {
            optimum: None,
            lower_bound: mm_lower(&scenario.simple, DualObjective::EdgeDomination),
        }
    }

    fn vc_bounds(&self, scenario: &Scenario) -> Bounds {
        Bounds {
            optimum: None,
            lower_bound: mm_lower(&scenario.simple, DualObjective::VertexCover),
        }
    }

    fn name(&self) -> &'static str {
        "mm"
    }
}

/// The provider selection behind the CLIs' `--bounds` flag — one parse
/// and one install path shared by `scenario_sweep` and `eds`, so adding
/// a provider cannot leave the two binaries disagreeing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum BoundsMode {
    /// [`crate::ExactBounds`] (the session default).
    #[default]
    Exact,
    /// [`LpBounds`] with default budgets.
    Lp,
    /// [`MmBounds`].
    Mm,
}

impl BoundsMode {
    /// The accepted flag values, for usage strings.
    pub const NAMES: [&'static str; 3] = ["exact", "lp", "mm"];

    /// Parses a `--bounds` flag value.
    pub fn parse(mode: &str) -> Option<BoundsMode> {
        match mode {
            "exact" => Some(BoundsMode::Exact),
            "lp" => Some(BoundsMode::Lp),
            "mm" => Some(BoundsMode::Mm),
            _ => None,
        }
    }

    /// Installs the selected provider on a session. For [`BoundsMode::Lp`]
    /// the returned handle shares the provider's infeasible-certificate
    /// counter, so the caller can gate on it after the run.
    pub fn install(self, session: crate::Session) -> (crate::Session, Option<LpBounds>) {
        match self {
            BoundsMode::Exact => (session, None),
            BoundsMode::Lp => {
                let lp = LpBounds::default();
                (session.bounds(lp.clone()), Some(lp))
            }
            BoundsMode::Mm => (session.bounds(MmBounds), None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use crate::scenario::{Family, PortPolicy, ScenarioSpec};
    use crate::session::Session;

    /// The acceptance gate for the LP subsystem: with the exact solver
    /// disabled, the LP lower bound dominates the folklore fallback on
    /// **every** smoke-registry record and is strictly tighter on at
    /// least a quarter of them, with zero infeasible certificates.
    #[test]
    fn smoke_lp_bounds_dominate_the_matching_fallback() {
        let lp = LpBounds::without_exact();
        let lp_records = Session::over(Registry::smoke())
            .bounds(lp.clone())
            .sequential()
            .collect()
            .unwrap();
        let mm_records = Session::over(Registry::smoke())
            .bounds(MmBounds)
            .sequential()
            .collect()
            .unwrap();
        assert_eq!(lp_records.len(), mm_records.len());
        assert!(!lp_records.is_empty());

        let mut tighter = 0usize;
        for (l, m) in lp_records.iter().zip(&mm_records) {
            assert_eq!(
                (l.scenario.as_str(), l.protocol),
                (m.scenario.as_str(), m.protocol)
            );
            assert_eq!(l.bounds, "lp");
            assert_eq!(m.bounds, "mm");
            assert_eq!(l.optimum, None, "exact solver is disabled");
            assert!(
                l.lower_bound >= m.lower_bound,
                "{}/{}: lp {} < folklore {}",
                l.scenario,
                l.protocol,
                l.lower_bound,
                m.lower_bound
            );
            if l.lower_bound > m.lower_bound {
                tighter += 1;
            }
        }
        assert!(
            4 * tighter >= lp_records.len(),
            "lp strictly tighter on only {tighter}/{} records",
            lp_records.len()
        );
        assert_eq!(lp.infeasible_certificates(), 0);
    }

    /// The sandwich against the exact optimum: an LP lower bound may
    /// never exceed it (weak duality made executable).
    #[test]
    fn lp_lower_bound_never_exceeds_the_exact_optimum() {
        for spec in Registry::smoke().iter() {
            let scenario = spec.build().unwrap();
            let lp = LpBounds::without_exact();
            let exact = crate::session::ExactBounds::default();
            for (lp_b, exact_b) in [
                (lp.eds_bounds(&scenario), exact.eds_bounds(&scenario)),
                (lp.vc_bounds(&scenario), exact.vc_bounds(&scenario)),
            ] {
                if let Some(opt) = exact_b.optimum {
                    assert!(
                        lp_b.lower_bound <= opt,
                        "{}: lp bound {} exceeds optimum {opt}",
                        scenario.name(),
                        lp_b.lower_bound
                    );
                }
            }
        }
    }

    /// The registry's 111-edge power-law instance, the largest LP of a
    /// batch pass, pinned: its EDS dual optimum, the certified bound
    /// and the pivot count of the solve behind them.
    #[test]
    fn registry_power_law_lp_certificate_is_pinned() {
        use eds_lp::{maximise, CertificateSource, PackingLp, Rational};
        let s = ScenarioSpec::new(Family::PowerLaw { n: 40, m: 3 }, 0, PortPolicy::Shuffled)
            .build()
            .unwrap();
        let g = &s.simple;
        assert_eq!(g.edge_count(), 111);
        let cert = dual_certificate(g, DualObjective::EdgeDomination, &LpBudget::default());
        cert.verify(g).unwrap();
        assert_eq!(cert.source, CertificateSource::Simplex);
        assert_eq!(cert.value, Rational::new(934, 89));
        assert_eq!(cert.bound, 11);
        let rows = g
            .edges()
            .map(|(e, _, _)| {
                g.closed_edge_neighborhood(e)
                    .into_iter()
                    .map(|f| f.index())
                    .collect()
            })
            .collect();
        let seed: Vec<usize> = pn_graph::matching::greedy_maximal_matching(g)
            .iter()
            .map(|e| e.index())
            .collect();
        let lp = PackingLp {
            variables: g.edge_count(),
            rows,
        };
        let opt = maximise(&lp, &seed).unwrap();
        assert_eq!(opt.pivots, 429);
        assert_eq!(opt.values, cert.weights);
        assert_eq!(LpBounds::without_exact().eds_bounds(&s).lower_bound, 11);
    }

    #[test]
    fn lp_keeps_the_exact_optimum_within_budget() {
        let s = ScenarioSpec::new(Family::Petersen, 0, PortPolicy::Canonical)
            .build()
            .unwrap();
        let lp = LpBounds::default();
        let b = lp.eds_bounds(&s);
        assert_eq!(b.optimum, Some(3));
        assert_eq!(b.lower_bound, 3);
        let vc = lp.vc_bounds(&s);
        assert_eq!(vc.optimum, Some(6));
        assert_eq!(vc.lower_bound, 6);
    }

    #[test]
    fn clones_share_the_infeasible_counter() {
        let a = LpBounds::default();
        let b = a.clone();
        a.infeasible.fetch_add(2, Ordering::Relaxed);
        assert_eq!(b.infeasible_certificates(), 2);
    }

    #[test]
    fn mm_bounds_are_the_folklore_bounds() {
        let s = ScenarioSpec::new(Family::Cycle(9), 0, PortPolicy::Canonical)
            .build()
            .unwrap();
        let mm = two_approx::two_approximation(&s.simple).len();
        let b = MmBounds.eds_bounds(&s);
        assert_eq!(b.optimum, None);
        assert_eq!(b.lower_bound, mm.div_ceil(2));
        assert_eq!(MmBounds.vc_bounds(&s).lower_bound, mm);
    }
}
