//! Certified LP lower bounds for edge dominating sets and vertex
//! covers.
//!
//! The folklore certified lower bounds — `⌈|MM|/2⌉` for EDS, `|MM|` for
//! VC, from any maximal matching `MM` — can be off by a factor of two.
//! This crate replaces them with the exact optima of the corresponding
//! LP relaxation duals, computed in exact rational arithmetic and
//! packaged as independently checkable [`DualCertificate`]s:
//!
//! * **EDS**: the covering LP `min Σ x_e : Σ_{f ∈ N[e]} x_f ≥ 1` has as
//!   dual a fractional packing where every *closed edge neighbourhood*
//!   carries total weight ≤ 1. Any feasible packing's value lower-bounds
//!   the EDS optimum (weak duality), and the matching seed
//!   `y_e = 1/2 · [e ∈ MM]` is always feasible — so the LP bound never
//!   loses to the folklore bound.
//! * **VC**: the covering LP's dual is the *fractional matching*
//!   polytope (every node carries incident weight ≤ 1); the seed
//!   `y_e = [e ∈ MM]` is feasible with value `|MM|`.
//!
//! The pipeline ([`eds_dual_certificate`] / [`vc_dual_certificate`]):
//! seed from [`pn_graph::matching::greedy_maximal_matching`], improve
//! to the LP optimum with the exact-rational seeded simplex of
//! [`simplex`], and emit a [`DualCertificate`] whose integral `bound`
//! is `⌈value⌉`. Instances beyond the [`LpBudget`] (or the rare solve
//! abort) fall back to the seed certificate — the bound degrades
//! gracefully to exactly the folklore bound, never below it, and
//! **every** bound still carries a certificate.
//!
//! Certificates are verified by [`DualCertificate::verify`], a checker
//! that shares no constraint-construction code with the solver; a
//! consumer that re-checks each certificate needs to trust only the
//! checker (≈ 40 lines of rational comparisons), not the simplex.
//!
//! ```
//! use eds_lp::{eds_dual_certificate, LpBudget};
//! use pn_graph::generators;
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = generators::cycle(9)?;
//! let cert = eds_dual_certificate(&g, &LpBudget::default());
//! cert.verify(&g)?;              // independent feasibility check
//! assert_eq!(cert.bound, 3);     // = OPT; the folklore bound is 2
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod certificate;
mod metrics;
pub mod rational;
pub mod simplex;

pub use certificate::{CertificateError, CertificateSource, DualCertificate, DualObjective};
pub use rational::Rational;
pub use simplex::{maximise, PackingLp, PackingOptimum, SolveAbort};

use pn_graph::matching::greedy_maximal_matching;
use pn_graph::{EdgeId, SimpleGraph};

/// Size budget for the exact simplex solve. The tableau is dense
/// (`m × 2m` rationals for `m` edges) and the pivot count grows with
/// it, so the solve is gated on the edge count; instances beyond it get
/// the matching-seed certificate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LpBudget {
    /// Run the simplex only on graphs with at most this many edges.
    pub max_edges: usize,
}

impl Default for LpBudget {
    fn default() -> Self {
        // Covers every non-streamed registry instance (≤ ~120 edges);
        // million-edge instances fall back to the seed. Measured in
        // release on a 2-core Xeon, the EDS dual costs 0.14–0.23 s at
        // 111 edges (the pivot count depends on the edge order), 1.2 s
        // at 147 and about 2.8 s at 195 edges
        // (`preferential_attachment(68, 3, 3)`), near this ceiling.
        LpBudget { max_edges: 200 }
    }
}

impl LpBudget {
    /// A budget admitting graphs with at most `max_edges` edges.
    pub fn new(max_edges: usize) -> Self {
        LpBudget { max_edges }
    }

    /// A zero budget: every instance falls back to the matching seed.
    pub fn disabled() -> Self {
        LpBudget { max_edges: 0 }
    }
}

/// The matching-seed dual certificate for `objective` on `g`, built
/// from an explicit matching (weights `1/2` per matched edge for EDS,
/// `1` for VC). Feasible for **any** matching; its value equals the
/// folklore bound when `matching` is maximal. Exposed so callers can
/// reuse an already-computed matching.
pub fn matching_certificate(
    g: &SimpleGraph,
    objective: DualObjective,
    matching: &[EdgeId],
) -> DualCertificate {
    let per_edge = match objective {
        DualObjective::EdgeDomination => Rational::new(1, 2),
        DualObjective::VertexCover => Rational::ONE,
    };
    let mut weights = vec![Rational::ZERO; g.edge_count()];
    for &e in matching {
        weights[e.index()] = per_edge;
    }
    let value = rational::checked_sum(&weights).expect("matching weights cannot overflow");
    let bound = value.ceil_to_usize().expect("non-negative value");
    DualCertificate {
        objective,
        source: CertificateSource::MatchingSeed,
        weights,
        value,
        bound,
    }
}

/// The constraint rows of the dual LP for `objective` on `g`.
fn dual_rows(g: &SimpleGraph, objective: DualObjective) -> Vec<Vec<usize>> {
    match objective {
        // One row per edge: its closed neighbourhood.
        DualObjective::EdgeDomination => g
            .edges()
            .map(|(e, _, _)| {
                g.closed_edge_neighborhood(e)
                    .into_iter()
                    .map(|f| f.index())
                    .collect()
            })
            .collect(),
        // One row per non-isolated node: its incident edges.
        DualObjective::VertexCover => g
            .nodes()
            .filter(|&v| g.degree(v) > 0)
            .map(|v| g.incident_edges(v).map(|e| e.index()).collect())
            .collect(),
    }
}

/// The best dual certificate for `objective` on `g` within `budget`:
/// the exact LP optimum when the solve fits, the matching seed
/// otherwise. The result's `bound` is always ≥ the folklore
/// matching bound, and the certificate is feasible by construction —
/// but callers that must not trust this crate should still run
/// [`DualCertificate::verify`].
pub fn dual_certificate(
    g: &SimpleGraph,
    objective: DualObjective,
    budget: &LpBudget,
) -> DualCertificate {
    let matching = greedy_maximal_matching(g);
    let seed = matching_certificate(g, objective, &matching);
    if g.edge_count() == 0 || g.edge_count() > budget.max_edges {
        return seed;
    }
    let lp = PackingLp {
        variables: g.edge_count(),
        rows: dual_rows(g, objective),
    };
    let seed_vars: Vec<usize> = matching.iter().map(|e| e.index()).collect();
    match maximise(&lp, &seed_vars) {
        Ok(opt) if opt.value >= seed.value => {
            let bound = opt
                .value
                .ceil_to_usize()
                .expect("packing optimum is non-negative");
            DualCertificate {
                objective,
                source: CertificateSource::Simplex,
                weights: opt.values,
                value: opt.value,
                bound,
            }
        }
        // An aborted solve (overflow, budget) — or, impossibly, one
        // below the seed — degrades to the seed certificate.
        _ => seed,
    }
}

/// [`dual_certificate`] for the edge-domination objective: the bound is
/// a certified lower bound on the minimum EDS size.
pub fn eds_dual_certificate(g: &SimpleGraph, budget: &LpBudget) -> DualCertificate {
    dual_certificate(g, DualObjective::EdgeDomination, budget)
}

/// [`dual_certificate`] for the vertex-cover objective: the bound is a
/// certified lower bound on the minimum VC size.
pub fn vc_dual_certificate(g: &SimpleGraph, budget: &LpBudget) -> DualCertificate {
    dual_certificate(g, DualObjective::VertexCover, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pn_graph::generators;

    fn folklore(g: &SimpleGraph, objective: DualObjective) -> usize {
        let mm = greedy_maximal_matching(g).len();
        match objective {
            DualObjective::EdgeDomination => mm.div_ceil(2),
            DualObjective::VertexCover => mm,
        }
    }

    #[test]
    fn cycle_nine_beats_the_folklore_bound() {
        let g = generators::cycle(9).unwrap();
        let eds = eds_dual_certificate(&g, &LpBudget::default());
        eds.verify(&g).unwrap();
        assert_eq!(eds.source, CertificateSource::Simplex);
        assert_eq!(eds.value, Rational::integer(3)); // y ≡ 1/3
        assert_eq!(eds.bound, 3);
        assert!(eds.bound > folklore(&g, DualObjective::EdgeDomination));

        let vc = vc_dual_certificate(&g, &LpBudget::default());
        vc.verify(&g).unwrap();
        assert_eq!(vc.value, Rational::new(9, 2)); // odd cycle: n/2
        assert_eq!(vc.bound, 5); // = VC optimum of C9
    }

    #[test]
    fn star_matches_the_folklore_bound() {
        // All edges share the hub: both LPs cap at 1, exactly the seed.
        let g = generators::star(6).unwrap();
        for objective in [DualObjective::EdgeDomination, DualObjective::VertexCover] {
            let c = dual_certificate(&g, objective, &LpBudget::default());
            c.verify(&g).unwrap();
            assert_eq!(c.value, Rational::ONE);
            assert_eq!(c.bound, 1);
            assert_eq!(c.bound, folklore(&g, objective));
        }
    }

    #[test]
    fn budget_falls_back_to_the_seed_certificate() {
        let g = generators::petersen();
        let c = eds_dual_certificate(&g, &LpBudget::disabled());
        assert_eq!(c.source, CertificateSource::MatchingSeed);
        c.verify(&g).unwrap();
        assert_eq!(c.bound, folklore(&g, DualObjective::EdgeDomination));
        // The unbudgeted solve is at least as tight.
        let full = eds_dual_certificate(&g, &LpBudget::default());
        full.verify(&g).unwrap();
        assert!(full.bound >= c.bound);
    }

    #[test]
    fn seed_certificate_reuses_an_explicit_matching() {
        let g = generators::cycle(8).unwrap();
        let matching = greedy_maximal_matching(&g);
        let c = matching_certificate(&g, DualObjective::VertexCover, &matching);
        c.verify(&g).unwrap();
        assert_eq!(c.value, Rational::integer(matching.len() as i64));
    }

    #[test]
    fn edgeless_graphs_certify_zero() {
        let g = SimpleGraph::new(5);
        for objective in [DualObjective::EdgeDomination, DualObjective::VertexCover] {
            let c = dual_certificate(&g, objective, &LpBudget::default());
            c.verify(&g).unwrap();
            assert_eq!(c.bound, 0);
        }
    }

    #[test]
    fn power_law_forty_certificate_is_pinned() {
        // The 111-edge EDS dual, solved from the greedy matching seed in
        // the generator's edge order (the registry's shuffled instance
        // numbers the same edges differently and takes 429 pivots).
        let g = generators::preferential_attachment(40, 3, 0).unwrap();
        assert_eq!(g.edge_count(), 111);
        let c = eds_dual_certificate(&g, &LpBudget::default());
        c.verify(&g).unwrap();
        assert_eq!(c.source, CertificateSource::Simplex);
        assert_eq!(c.value, Rational::new(934, 89));
        assert_eq!(c.bound, 11);
        let seed: Vec<usize> = greedy_maximal_matching(&g)
            .iter()
            .map(|e| e.index())
            .collect();
        let lp = PackingLp {
            variables: g.edge_count(),
            rows: dual_rows(&g, DualObjective::EdgeDomination),
        };
        let opt = maximise(&lp, &seed).unwrap();
        assert_eq!(opt.pivots, 851);
        assert_eq!(opt.values, c.weights);
    }

    #[test]
    fn lp_bound_never_exceeds_the_optimum_on_classics() {
        // Spot-check the sandwich on a few families with known optima.
        for (g, opt) in [
            (generators::petersen(), 3usize),
            (generators::cycle(9).unwrap(), 3),
            (generators::complete(5).unwrap(), 2),
            (generators::star(6).unwrap(), 1),
        ] {
            let c = eds_dual_certificate(&g, &LpBudget::default());
            c.verify(&g).unwrap();
            assert!(
                c.bound >= folklore(&g, DualObjective::EdgeDomination) && c.bound <= opt,
                "bound {} vs folklore {} and opt {opt}",
                c.bound,
                folklore(&g, DualObjective::EdgeDomination)
            );
        }
    }
}
