//! The distributed Theorem 4 protocol: `4 - 6/(d+1)` in `2 + 2d²` rounds
//! on `d`-regular graphs with odd `d`.
//!
//! Round schedule (known to every node from its own degree `d`):
//!
//! | rounds | content |
//! |---|---|
//! | `0` | announce own port numbers (learn label pairs) |
//! | `1` | announce distinguishable-neighbour claims |
//! | `2 .. 2 + d²` | Phase I, one round per pair `(i, j)` in lexicographic order: exchange covered bits, add `e ∈ M(i,j)` unless both endpoints covered |
//! | `2 + d² .. 2 + 2d²` | Phase II, one round per pair: exchange "`D`-degree ≥ 2" bits, remove `e ∈ D ∩ M(i,j)` if both hold |
//!
//! Every node halts after round `2 + 2d²` and outputs its selected ports.

use pn_graph::{EdgeId, Port, PortNumberedGraph};
use pn_runtime::{NodeAlgorithm, PortSet, RuntimeError, Simulator};

use super::common::dn_port_index;

/// Messages of the Theorem 4 protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegOddMsg {
    /// Round 0: "this message leaves through my port `i`".
    Port(u32),
    /// Round 1: "you are my distinguishable neighbour" (or not).
    Claim(bool),
    /// Phase I rounds: "I am covered by `D`".
    Cover(bool),
    /// Phase II rounds: "I have at least two incident `D`-edges".
    DegTwo(bool),
}

/// Number of rounds the protocol takes on a `d`-regular graph.
pub fn regular_odd_rounds(d: usize) -> usize {
    if d == 0 {
        1
    } else {
        2 + 2 * d * d
    }
}

/// Node state machine for the distributed Theorem 4 algorithm.
#[derive(Clone, Debug)]
pub struct RegularOddNode {
    degree: usize,
    /// Counterpart port (1-based) per own port, learned in round 0.
    their_port: Vec<u32>,
    /// Whether this node claims the far end of port `q` as its
    /// distinguishable neighbour.
    my_claim: Vec<bool>,
    /// Whether the far end of port `q` claimed this node.
    their_claim: Vec<bool>,
    /// Whether the edge through port `q` is currently in `D`.
    in_d: Vec<bool>,
    covered: bool,
}

impl RegularOddNode {
    /// Creates the state machine for a node of degree `degree`.
    pub fn new(degree: usize) -> Self {
        RegularOddNode {
            degree,
            their_port: vec![0; degree],
            my_claim: vec![false; degree],
            their_claim: vec![false; degree],
            in_d: vec![false; degree],
            covered: false,
        }
    }

    /// The (i, j) pair processed at step `t` of a phase, in lexicographic
    /// order; ports are 1-based.
    fn pair_at(&self, t: usize) -> (u32, u32) {
        ((t / self.degree) as u32 + 1, (t % self.degree) as u32 + 1)
    }

    /// Whether the edge through own port `q` (0-based) belongs to
    /// `M_G(i, j)`.
    fn edge_in_mij(&self, q: usize, i: u32, j: u32) -> bool {
        let own = (q + 1) as u32;
        let far = self.their_port[q];
        (self.my_claim[q] && own == i && far == j) || (self.their_claim[q] && far == i && own == j)
    }

    fn d_degree(&self) -> usize {
        self.in_d.iter().filter(|&&b| b).count()
    }

    fn output(&self) -> PortSet {
        (0..self.degree)
            .filter(|&q| self.in_d[q])
            .map(Port::from_index)
            .collect()
    }
}

impl NodeAlgorithm for RegularOddNode {
    type Message = RegOddMsg;
    type Output = PortSet;

    fn send_into(&mut self, round: usize, outbox: &mut [Option<RegOddMsg>]) {
        let d = self.degree;
        if round == 0 {
            for (q, slot) in outbox.iter_mut().enumerate() {
                *slot = Some(RegOddMsg::Port((q + 1) as u32));
            }
            return;
        }
        if round == 1 {
            for (q, slot) in outbox.iter_mut().enumerate() {
                *slot = Some(RegOddMsg::Claim(self.my_claim[q]));
            }
            return;
        }
        let msg = if round - 2 < d * d {
            RegOddMsg::Cover(self.covered)
        } else {
            RegOddMsg::DegTwo(self.d_degree() >= 2)
        };
        outbox.fill(Some(msg));
    }

    fn receive(&mut self, round: usize, inbox: &[Option<RegOddMsg>]) -> Option<PortSet> {
        let d = self.degree;
        if d == 0 {
            return Some(PortSet::new());
        }
        if round == 0 {
            for (q, m) in inbox.iter().enumerate() {
                match m {
                    Some(RegOddMsg::Port(p)) => self.their_port[q] = *p,
                    other => unreachable!("round 0 expects Port, got {other:?}"),
                }
            }
            if let Some(q) = dn_port_index(&self.their_port) {
                self.my_claim[q] = true;
            }
            return None;
        }
        if round == 1 {
            for (q, m) in inbox.iter().enumerate() {
                match m {
                    Some(RegOddMsg::Claim(c)) => self.their_claim[q] = *c,
                    other => unreachable!("round 1 expects Claim, got {other:?}"),
                }
            }
            return None;
        }
        let t = round - 2;
        if t < d * d {
            // Phase I step for pair (i, j).
            let (i, j) = self.pair_at(t);
            for (q, m) in inbox.iter().enumerate() {
                if !self.edge_in_mij(q, i, j) {
                    continue;
                }
                let far_covered = match m {
                    Some(RegOddMsg::Cover(c)) => *c,
                    other => unreachable!("phase I expects Cover, got {other:?}"),
                };
                if !(self.covered && far_covered) {
                    self.in_d[q] = true;
                }
            }
            // Coverage updates after the simultaneous decisions.
            if self.in_d.iter().any(|&b| b) {
                self.covered = true;
            }
            return None;
        }
        let t2 = t - d * d;
        // Phase II step for pair (i, j).
        let (i, j) = self.pair_at(t2);
        let my_deg2 = self.d_degree() >= 2;
        for (q, m) in inbox.iter().enumerate() {
            if !self.in_d[q] || !self.edge_in_mij(q, i, j) {
                continue;
            }
            let far_deg2 = match m {
                Some(RegOddMsg::DegTwo(c)) => *c,
                other => unreachable!("phase II expects DegTwo, got {other:?}"),
            };
            if my_deg2 && far_deg2 {
                self.in_d[q] = false;
            }
        }
        if t2 + 1 == d * d {
            return Some(self.output());
        }
        None
    }

    fn corrupt(&mut self, entropy: u64) {
        // All soft state is flippable: `their_port` values are only ever
        // compared in `edge_in_mij`, claims and `in_d` are plain bits,
        // and no receive path indexes by them. The schedule parameter
        // `degree` stays intact.
        let mut next = pn_runtime::entropy_stream(entropy);
        for p in &mut self.their_port {
            *p = (next() % (self.degree as u64 + 1)) as u32;
        }
        for q in 0..self.degree {
            self.my_claim[q] = next() & 1 == 0;
            self.their_claim[q] = next() & 1 == 0;
            self.in_d[q] = next() & 1 == 0;
        }
        self.covered = next() & 1 == 0;
    }
}

/// Runs the distributed Theorem 4 protocol on `g` and returns the edge
/// dominating set, after checking output consistency.
///
/// # Errors
///
/// Returns [`pn_graph::GraphError::NotRegular`] on an irregular graph:
/// the protocol's round schedule is a function of the (common) degree, so
/// nodes of different degrees would desynchronise. Simulator errors do
/// not occur on regular inputs.
pub fn regular_odd_distributed(g: &PortNumberedGraph) -> Result<Vec<EdgeId>, pn_graph::GraphError> {
    if g.regular_degree().is_none() {
        let dmax = g.max_degree();
        let bad = g
            .nodes()
            .find(|&v| g.degree(v) != dmax)
            .expect("irregular graph has a deviating node");
        return Err(pn_graph::GraphError::NotRegular {
            node: bad,
            found: g.degree(bad),
            expected: dmax,
        });
    }
    let run = Simulator::new(g)
        .run(|_, d| RegularOddNode::new(d))
        .map_err(wrap_runtime)?;
    pn_runtime::edge_set_from_outputs(g, &run.outputs).map_err(wrap_runtime)
}

fn wrap_runtime(e: RuntimeError) -> pn_graph::GraphError {
    pn_graph::GraphError::InvalidParameter {
        detail: format!("simulation failed: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regular_odd::regular_odd_reference;
    use pn_graph::{generators, ports};

    #[test]
    fn matches_reference_on_petersen() {
        for seed in 0..10 {
            let pg = ports::shuffled_ports(&generators::petersen(), seed).unwrap();
            let reference = regular_odd_reference(&pg).unwrap().dominating_set;
            let distributed = regular_odd_distributed(&pg).unwrap();
            assert_eq!(reference, distributed, "seed {seed}");
        }
    }

    #[test]
    fn matches_reference_on_random_regular() {
        for (n, d) in [(8usize, 3usize), (12, 5), (14, 7), (6, 1)] {
            for seed in 0..5 {
                let g = generators::random_regular(n, d, seed * 97 + d as u64).unwrap();
                let pg = ports::shuffled_ports(&g, seed).unwrap();
                let reference = regular_odd_reference(&pg).unwrap().dominating_set;
                let distributed = regular_odd_distributed(&pg).unwrap();
                assert_eq!(reference, distributed, "n {n} d {d} seed {seed}");
            }
        }
    }

    #[test]
    fn round_count_is_2_plus_2d_squared() {
        for d in [1usize, 3, 5] {
            let n = if d == 1 { 2 } else { 2 * d + 2 };
            let g = generators::random_regular(n, d, d as u64).unwrap();
            let pg = ports::shuffled_ports(&g, 1).unwrap();
            let run = Simulator::new(&pg)
                .run(|_, d| RegularOddNode::new(d))
                .unwrap();
            assert_eq!(run.rounds, regular_odd_rounds(d));
        }
    }

    #[test]
    fn also_works_on_even_regular_inputs() {
        // The guarantee needs odd d, but the protocol must stay safe on
        // even-regular inputs (it may produce a larger dominating set or
        // an empty one if no distinguishable edges exist; feasibility is
        // only promised for odd d). Here we merely check it terminates
        // with a consistent output.
        let g = generators::cycle(8).unwrap();
        let pg = ports::canonical_ports(&g).unwrap();
        let edges = regular_odd_distributed(&pg).unwrap();
        let _ = edges;
    }

    #[test]
    fn irregular_graphs_rejected() {
        // Degrees 1 and 2 desynchronise the schedule; the entry point
        // must reject rather than run into malformed message exchanges.
        let g = ports::canonical_ports(&generators::path(4).unwrap()).unwrap();
        assert!(matches!(
            regular_odd_distributed(&g),
            Err(pn_graph::GraphError::NotRegular { .. })
        ));
    }

    #[test]
    fn isolated_nodes_halt_immediately() {
        let g = pn_graph::SimpleGraph::new(3);
        let pg = ports::canonical_ports(&g).unwrap();
        let run = Simulator::new(&pg)
            .run(|_, d| RegularOddNode::new(d))
            .unwrap();
        assert_eq!(run.rounds, 1);
        assert!(run.outputs.iter().all(PortSet::is_empty));
    }

    #[test]
    fn corruption_changes_the_state() {
        let mut node = RegularOddNode::new(3);
        let fresh = format!("{node:?}");
        node.corrupt(0xabad_1dea);
        assert_ne!(format!("{node:?}"), fresh, "corruption must change state");
    }

    #[test]
    fn corrupted_epochs_stay_well_defined() {
        use pn_runtime::{ChurnEvent, ChurnSimulator};
        let g = ports::shuffled_ports(&generators::petersen(), 5).unwrap();
        let mut sim = ChurnSimulator::new(&g, |_, d| RegularOddNode::new(d)).unwrap();
        let burst: Vec<_> = (0..10)
            .map(|v| ChurnEvent::Corrupt {
                v: pn_graph::NodeId::new(v),
                entropy: v as u64 * 53 + 29,
            })
            .collect();
        sim.apply_burst(&burst).unwrap();
        let epoch = sim.stabilize().unwrap(); // must complete, never panic
        assert_eq!(epoch.corrupted, 10);
    }
}
