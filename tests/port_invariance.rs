//! Integration test: invariance of protocol quality under the
//! adversary's port-numbering moves.
//!
//! Two distinct claims are checked:
//!
//! * **Quality invariance** — for the anonymous protocols, the *output
//!   edge set* legitimately changes with the port numbering, but its
//!   quality does not: on every random permutation the output stays
//!   feasible and within the paper's bound of the same exact optimum.
//! * **Equivariance** — relabeling the *nodes* while preserving the
//!   port involution (an isomorphism of port-numbered graphs) must
//!   permute the outputs *bit-identically*: anonymous algorithms cannot
//!   see node identity. For the Theorem 3 protocol on 2-regular graphs
//!   with the paper's 2-factorised numbering, every rotation is such a
//!   relabeling, forcing the fully symmetric all-edges output.

use edge_dominating_sets::baselines::exact;
use edge_dominating_sets::prelude::*;
use edge_dominating_sets::scenarios::{
    relabel_nodes, Family, PortPolicy, Protocol, ScenarioSpec, Session,
};

/// Anonymous protocols: solution quality (feasibility + ratio vs the
/// fixed optimum), not solution identity, is preserved across random
/// port permutations.
#[test]
fn anonymous_quality_is_invariant_under_port_permutations() {
    let session = Session::new();
    for family in [
        Family::Petersen,
        Family::Grid(3, 4),
        Family::Cycle(9),
        Family::RandomRegular { n: 10, d: 3 },
        Family::Wheel(6),
    ] {
        // The topology is fixed (random families: generator seed 0);
        // only the port numbering varies below.
        let base = family.simple(0).unwrap();
        let mut optima_seen: Vec<Vec<usize>> = vec![Vec::new(); Protocol::ALL.len()];
        for seed in 0..8u64 {
            let spec = ScenarioSpec::new(family.clone(), 0, PortPolicy::Shuffled);
            let pg = ports::shuffled_ports(&base, seed).unwrap();
            let scenario = edge_dominating_sets::scenarios::Scenario {
                spec: spec.clone(),
                simple: pg.to_simple().unwrap(),
                graph: pg,
            };
            for (pi, protocol) in Protocol::ALL.into_iter().enumerate() {
                // Anonymous deterministic protocols only — the
                // identifier/randomised baselines take per-node inputs,
                // so port invariance is not the claim there.
                if matches!(protocol, Protocol::IdMatching | Protocol::RandMatching) {
                    continue;
                }
                if !protocol.applicable(&scenario) {
                    continue;
                }
                let r = session.measure(&scenario, protocol).unwrap();
                assert!(
                    r.violation.is_none(),
                    "{}/{} seed {seed}: {:?}",
                    family.label(),
                    protocol.name(),
                    r.violation
                );
                let opt = r.optimum.expect("small instances are exactly solvable");
                if let Some((num, den)) = r.bound {
                    assert!(
                        r.size as u64 * den <= num * opt as u64,
                        "{}/{} seed {seed}: size {} breaks the bound at opt {opt}",
                        family.label(),
                        protocol.name(),
                        r.size
                    );
                }
                optima_seen[pi].push(opt);
            }
        }
        // The optimum is a property of the topology: identical across
        // every port numbering.
        for (pi, optima) in optima_seen.iter().enumerate() {
            assert!(
                optima.windows(2).all(|w| w[0] == w[1]),
                "{}/{}: optimum varied across numberings: {optima:?}",
                family.label(),
                Protocol::ALL[pi].name()
            );
        }
        // Sanity: the loop exercised at least the two protocols that
        // apply everywhere.
        assert!(optima_seen.iter().filter(|s| !s.is_empty()).count() >= 2);
    }
}

/// Relabeling nodes while carrying the port involution along is
/// invisible to anonymous protocols: outputs follow the relabeling
/// bit-identically (node `v` of the relabeled graph outputs exactly
/// what node `perm[v]` outputs on the original).
#[test]
fn anonymous_outputs_are_equivariant_under_relabeling() {
    for (family, seed) in [
        (Family::Petersen, 3u64),
        (Family::Grid(3, 3), 5),
        (Family::RandomRegular { n: 12, d: 3 }, 7),
    ] {
        let g = family.simple(seed).unwrap();
        let pg = ports::shuffled_ports(&g, seed).unwrap();
        // A deterministic "random" permutation: multiply by a unit mod n.
        let n = pg.node_count();
        let step = (0..n).find(|s| gcd(*s + 2, n) == 1).unwrap() + 2;
        let perm: Vec<NodeId> = (0..n).map(|i| NodeId::new((i * step + 1) % n)).collect();
        let relabeled = relabel_nodes(&pg, &perm);

        let run_a = Simulator::new(&pg)
            .run(|_, d| edge_dominating_sets::algorithms::port_one::PortOneNode::new(d))
            .unwrap();
        let run_b = Simulator::new(&relabeled)
            .run(|_, d| edge_dominating_sets::algorithms::port_one::PortOneNode::new(d))
            .unwrap();
        for (v, p) in perm.iter().enumerate() {
            assert_eq!(
                run_b.outputs[v],
                run_a.outputs[p.index()],
                "{}: node {v} diverges from its preimage",
                family.label()
            );
        }

        let delta = pg.max_degree();
        let run_a = Simulator::new(&pg)
            .run(|_, d| {
                edge_dominating_sets::algorithms::distributed::BoundedDegreeNode::new(delta, d)
            })
            .unwrap();
        let run_b = Simulator::new(&relabeled)
            .run(|_, d| {
                edge_dominating_sets::algorithms::distributed::BoundedDegreeNode::new(delta, d)
            })
            .unwrap();
        for (v, p) in perm.iter().enumerate() {
            assert_eq!(
                run_b.outputs[v],
                run_a.outputs[p.index()],
                "{}: A(Δ) node {v} diverges from its preimage",
                family.label()
            );
        }
        assert_eq!(run_a.rounds, run_b.rounds);
        assert_eq!(run_a.messages, run_b.messages);
    }
}

/// Theorem 3 on 2-regular graphs under the paper's 2-factorised
/// numbering: every rotation of the cycle is an involution-preserving
/// relabeling, i.e. the relabeled graph is **equal** to the original,
/// so the output must be bit-identical at every node — the fully
/// symmetric worst case where the algorithm takes all `n` edges.
#[test]
fn theorem3_two_regular_output_is_bit_identical_under_rotations() {
    for n in [5usize, 6, 9] {
        let g = generators::cycle(n).unwrap();
        let pg = ports::two_factor_ports(&g).unwrap();
        for shift in 1..n {
            let perm: Vec<NodeId> = (0..n).map(|i| NodeId::new((i + shift) % n)).collect();
            let rotated = relabel_nodes(&pg, &perm);
            // The 2-factor numbering threads port 1 forward and port 2
            // backward along the oriented cycle, so a rotation preserves
            // the involution exactly.
            assert_eq!(rotated, pg, "n = {n}, shift = {shift}");
        }
        let run = Simulator::new(&pg)
            .run(|_, d| edge_dominating_sets::algorithms::port_one::PortOneNode::new(d))
            .unwrap();
        // Bit-identical outputs across all nodes...
        for v in 1..n {
            assert_eq!(run.outputs[v], run.outputs[0], "n = {n}");
        }
        // ... which forces the all-edges output: X(v) = {1, 2} everywhere.
        let edges = edge_set_from_outputs(&pg, &run.outputs).unwrap();
        assert_eq!(edges.len(), n, "n = {n}: every edge selected");
        // Exactly the Theorem 3 tight-instance behaviour: ratio 3 against
        // OPT = ceil(n / 3) on the cycle as n grows.
        let opt = exact::minimum_eds_size(&g);
        assert!(edges.len() * 2 <= (4 * 2 - 2) * opt, "ratio 4 - 2/2 = 3");
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}
