//! Integration test: every algorithm against every oracle on the shared
//! scenario registry.
//!
//! * Feasibility (edge domination) always holds.
//! * Approximation ratios never exceed the paper's bounds (checked
//!   against the exact branch-and-bound optimum).
//! * Distributed protocols produce exactly the reference outputs.
//! * The two exact solvers agree (minimum EDS = minimum maximal
//!   matching).
//!
//! Instances come from [`eds_scenarios::Registry::conformance`]; the
//! per-test port shufflings are applied on top, so each topology is
//! exercised under several adversarial numberings.

use edge_dominating_sets::algorithms::bounded_degree::bounded_degree_reference;
use edge_dominating_sets::algorithms::distributed::{
    bounded_degree_distributed, regular_odd_distributed,
};
use edge_dominating_sets::algorithms::port_one::{port_one_distributed, port_one_reference};
use edge_dominating_sets::algorithms::regular_odd::regular_odd_reference;
use edge_dominating_sets::baselines::{exact, mmm};
use edge_dominating_sets::prelude::*;
use edge_dominating_sets::scenarios::{
    BoundProvider, Bounds, Family, PortPolicy, Registry, Scenario, ScenarioSpec, Session,
};

/// The conformance topologies as simple graphs (port numberings are
/// re-applied per test below).
fn instances() -> Vec<(String, SimpleGraph)> {
    Registry::conformance()
        .iter()
        .map(|spec| {
            (
                format!("{}/s{}", spec.family.label(), spec.seed),
                spec.family.simple(spec.seed).expect("registry builds"),
            )
        })
        .collect()
}

#[test]
fn bounded_degree_full_matrix() {
    for (name, g) in instances() {
        if g.is_edgeless() {
            continue;
        }
        let delta = g.max_degree();
        for seed in 0..3u64 {
            let pg = ports::shuffled_ports(&g, seed).unwrap();
            let simple = pg.to_simple().unwrap();
            let reference = bounded_degree_reference(&pg, delta).unwrap();
            let distributed = bounded_degree_distributed(&pg, delta).unwrap();
            assert_eq!(
                reference.dominating_set, distributed,
                "{name}: distributed != reference"
            );
            check_edge_dominating_set(&simple, &distributed)
                .unwrap_or_else(|e| panic!("{name}: infeasible: {e}"));
            // Ratio bound vs exact optimum.
            let opt = exact::minimum_eds_size(&simple);
            let (num, den) =
                edge_dominating_sets::algorithms::bounded_degree::bounded_degree_ratio(delta);
            assert!(
                distributed.len() as u64 * den <= num * opt as u64,
                "{name}: ratio bound violated ({} vs opt {opt}, Δ = {delta})",
                distributed.len()
            );
        }
    }
}

#[test]
fn regular_algorithms_on_regular_instances() {
    for (n, d, seed) in [
        (8usize, 3usize, 0u64),
        (10, 3, 1),
        (12, 5, 2),
        (10, 4, 3),
        (12, 6, 4),
        (14, 7, 5),
    ] {
        let case = ScenarioSpec::new(Family::RandomRegular { n, d }, seed, PortPolicy::Shuffled)
            .build()
            .unwrap();
        let pg = &case.graph;
        let simple = &case.simple;
        let opt = exact::minimum_eds_size(simple);
        if d % 2 == 0 {
            let reference = port_one_reference(pg);
            let distributed = port_one_distributed(pg).unwrap();
            assert_eq!(reference, distributed);
            check_edge_dominating_set(simple, &distributed).unwrap();
            // 4 - 2/d bound.
            assert!(distributed.len() * d <= (4 * d - 2) * opt);
        } else {
            let reference = regular_odd_reference(pg).unwrap().dominating_set;
            let distributed = regular_odd_distributed(pg).unwrap();
            assert_eq!(reference, distributed);
            check_edge_dominating_set(simple, &distributed).unwrap();
            // 4 - 6/(d+1) bound.
            assert!(distributed.len() * (d + 1) <= (4 * d - 2) * opt);
        }
    }
}

#[test]
fn exact_solvers_agree() {
    for (name, g) in instances() {
        let eds = exact::minimum_edge_dominating_set(&g);
        let matching = mmm::minimum_maximal_matching(&g);
        assert_eq!(
            eds.len(),
            matching.len(),
            "{name}: min EDS != min maximal matching"
        );
        assert!(exact::is_edge_dominating_set(&g, &eds));
        if !g.is_edgeless() {
            assert!(mmm::is_maximal_matching(&g, &matching));
        }
    }
}

/// The two exact solvers, cross-validated through the solver service:
/// a session with the default provider (branch-and-bound EDS) and one
/// with a minimum-maximal-matching provider must agree on every optimum
/// and every bound verdict — Yannakakis–Gavril through the plugin API.
#[test]
fn session_bound_providers_cross_validate() {
    struct MmmBounds;
    impl BoundProvider for MmmBounds {
        fn eds_bounds(&self, scenario: &Scenario) -> Bounds {
            let opt = mmm::minimum_maximal_matching(&scenario.simple).len();
            Bounds {
                optimum: Some(opt),
                lower_bound: opt,
            }
        }
        fn vc_bounds(&self, scenario: &Scenario) -> Bounds {
            // Same fallback as the default provider: a maximal matching
            // lower-bounds any vertex cover. No claimed optimum, so VC
            // records are compared on the lower bound only.
            Bounds {
                optimum: None,
                lower_bound: mmm::minimum_maximal_matching(&scenario.simple).len(),
            }
        }
    }

    // Restrict to the edge-objective protocols so both providers claim
    // exact optima for every record.
    let edge_protocols = [
        edge_dominating_sets::scenarios::Protocol::PortOne,
        edge_dominating_sets::scenarios::Protocol::RegularOdd,
        edge_dominating_sets::scenarios::Protocol::BoundedDegree,
        edge_dominating_sets::scenarios::Protocol::IdMatching,
        edge_dominating_sets::scenarios::Protocol::RandMatching,
    ];
    let default = Session::over(Registry::conformance())
        .protocols(&edge_protocols)
        .collect()
        .unwrap();
    let via_mmm = Session::over(Registry::conformance())
        .protocols(&edge_protocols)
        .bounds(MmmBounds)
        .collect()
        .unwrap();
    assert_eq!(default.len(), via_mmm.len());
    for (a, b) in default.iter().zip(&via_mmm) {
        assert_eq!(a.scenario, b.scenario);
        assert_eq!(a.protocol, b.protocol);
        assert_eq!(
            a.optimum, b.optimum,
            "{}/{}: min EDS != min maximal matching",
            a.scenario, a.protocol
        );
        assert_eq!(
            a.within_bound, b.within_bound,
            "{}/{}",
            a.scenario, a.protocol
        );
        assert!(
            a.is_clean() && b.is_clean(),
            "{}/{}",
            a.scenario,
            a.protocol
        );
    }
}

#[test]
fn outputs_are_internally_consistent_port_sets() {
    // The simulator-level consistency check (Section 2.2) passes for all
    // three protocols on a non-trivial instance.
    let case = ScenarioSpec::new(
        Family::RandomRegular { n: 12, d: 5 },
        9,
        PortPolicy::Shuffled,
    )
    .build()
    .unwrap();
    let pg = &case.graph;
    let run = Simulator::new(pg)
        .run(|_, d| edge_dominating_sets::algorithms::port_one::PortOneNode::new(d))
        .unwrap();
    edge_set_from_outputs(pg, &run.outputs).unwrap();
    let run = Simulator::new(pg)
        .run(|_, d| edge_dominating_sets::algorithms::distributed::RegularOddNode::new(d))
        .unwrap();
    edge_set_from_outputs(pg, &run.outputs).unwrap();
    let run = Simulator::new(pg)
        .run(|_, d| edge_dominating_sets::algorithms::distributed::BoundedDegreeNode::new(5, d))
        .unwrap();
    edge_set_from_outputs(pg, &run.outputs).unwrap();
}

#[test]
fn structural_claims_on_all_instances() {
    // Theorem 4 phase structure on odd-regular graphs; Theorem 5 M/P
    // structure everywhere.
    for (n, d, seed) in [(10usize, 3usize, 7u64), (12, 5, 8), (14, 3, 9)] {
        let case = ScenarioSpec::new(Family::RandomRegular { n, d }, seed, PortPolicy::Shuffled)
            .build()
            .unwrap();
        let result = regular_odd_reference(&case.graph).unwrap();
        check_edge_cover(&case.simple, &result.phase1).unwrap();
        edge_dominating_sets::verify::check_forest(&case.simple, &result.phase1).unwrap();
        check_edge_cover(&case.simple, &result.dominating_set).unwrap();
        check_star_forest(&case.simple, &result.dominating_set).unwrap();
    }
    for (name, g) in instances() {
        if g.is_edgeless() {
            continue;
        }
        let pg = ports::shuffled_ports(&g, 17).unwrap();
        let simple = pg.to_simple().unwrap();
        let delta = g.max_degree();
        let result = bounded_degree_reference(&pg, delta).unwrap();
        check_matching(&simple, &result.matching)
            .unwrap_or_else(|e| panic!("{name}: M not a matching: {e}"));
        edge_dominating_sets::verify::check_k_matching(&simple, &result.two_matching, 2)
            .unwrap_or_else(|e| panic!("{name}: P not a 2-matching: {e}"));
        edge_dominating_sets::verify::check_node_disjoint(
            &simple,
            &result.matching,
            &result.two_matching,
        )
        .unwrap_or_else(|e| panic!("{name}: M and P share a node: {e}"));
    }
}
