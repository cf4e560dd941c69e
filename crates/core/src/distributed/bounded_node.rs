//! The distributed Theorem 5 protocol `A(Δ)`: ratio `4 - 1/k` for
//! `Δ ∈ {2k, 2k+1}` in `O(Δ²)` rounds on graphs of maximum degree `Δ`.
//!
//! Round schedule, a function of `Δ` alone (`B = 2Δ + 1` rounds per
//! Phase II block):
//!
//! | rounds | content |
//! |---|---|
//! | `0` | hello: own port number + own degree |
//! | `1` | distinguishable-neighbour claims |
//! | `2 .. 2+Δ²` | Phase I: pair `(i,j)` per round; greedy matching on `M(i,j)` |
//! | `2+Δ² + (i-2)·B ..` | Phase II block for `i = 2..Δ`: one cover-exchange round, then `Δ` propose/respond pairs building the maximal matching `M_i` on `B_i` |
//! | final `2 + 2Δ` | Phase III: one cover-exchange round, then `Δ` propose/respond pairs building the 2-matching `P` on the remainder `H` |
//!
//! The protocol is differentially tested against
//! [`crate::bounded_degree::bounded_degree_reference`]: identical outputs
//! on every input.

use pn_graph::{EdgeId, GraphError, Port, PortNumberedGraph};
use pn_runtime::{NodeAlgorithm, PortSet, Simulator};

use super::common::dn_port_index;

/// Messages of the `A(Δ)` protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BoundedMsg {
    /// Round 0: own port number (1-based) and own degree.
    Hello {
        /// The sender's port this message leaves through.
        port: u32,
        /// The sender's degree.
        degree: u32,
    },
    /// Round 1: "you are my distinguishable neighbour".
    Claim(bool),
    /// Cover-exchange rounds: "I am covered by `M`".
    Cover(bool),
    /// A proposal (Phase II: black → white; Phase III: proposer role).
    Propose,
    /// Answer to a proposal received in the previous round.
    Response(bool),
    /// Filler for ports with nothing to say this round.
    Nothing,
}

/// What the schedule prescribes for a given round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Step {
    Hello,
    Claim,
    /// Phase I round `t` (pair `(t/Δ + 1, t%Δ + 1)`).
    Phase1(usize),
    /// First round of the Phase II block for degree `i`.
    Phase2Start(usize),
    /// Propose round of the Phase II block for degree `i`.
    Phase2Propose(usize),
    /// Respond round of the Phase II block for degree `i`.
    Phase2Respond(usize),
    /// The cover-exchange round opening Phase III.
    Phase3Start,
    /// Propose round of Phase III.
    Phase3Propose,
    /// Respond round `m` of Phase III (`m = Δ - 1` is the last).
    Phase3Respond(usize),
}

/// Total number of rounds of the `A(Δ)` protocol.
pub fn bounded_schedule_length(delta: usize) -> usize {
    let d = delta;
    let block = 1 + 2 * d;
    2 + d * d + d.saturating_sub(1) * block + 1 + 2 * d
}

fn step_at(delta: usize, round: usize) -> Step {
    let d = delta;
    if round == 0 {
        return Step::Hello;
    }
    if round == 1 {
        return Step::Claim;
    }
    let mut r = round - 2;
    if r < d * d {
        return Step::Phase1(r);
    }
    r -= d * d;
    let block = 1 + 2 * d;
    let blocks = d.saturating_sub(1);
    if r < blocks * block {
        let b = r / block;
        let within = r % block;
        let i = b + 2;
        if within == 0 {
            return Step::Phase2Start(i);
        }
        if (within - 1).is_multiple_of(2) {
            return Step::Phase2Propose(i);
        }
        return Step::Phase2Respond(i);
    }
    r -= blocks * block;
    if r == 0 {
        return Step::Phase3Start;
    }
    let m = (r - 1) / 2;
    if (r - 1).is_multiple_of(2) {
        Step::Phase3Propose
    } else {
        Step::Phase3Respond(m)
    }
}

/// Node state machine for the distributed `A(Δ)` protocol.
#[derive(Clone, Debug)]
pub struct BoundedDegreeNode {
    delta: usize,
    degree: usize,
    their_port: Vec<u32>,
    their_degree: Vec<u32>,
    my_claim: Vec<bool>,
    their_claim: Vec<bool>,
    /// Per port: edge selected into the matching `M`.
    in_m: Vec<bool>,
    /// Per port: edge selected into the 2-matching `P`.
    in_p: Vec<bool>,
    covered_m: bool,
    /// Eligible ports for the current proposal stage, ascending.
    eligible: Vec<usize>,
    cursor: usize,
    /// Port this node proposed through in the current propose round.
    pending: Option<usize>,
    /// Ports on which proposals arrived in the last propose round.
    incoming: Vec<usize>,
    /// Phase III: this node's offer has been accepted.
    proposer_done: bool,
    /// Phase III: this node has accepted an offer.
    acceptor_done: bool,
}

impl BoundedDegreeNode {
    /// Creates the state machine for the family parameter `delta` at a
    /// node of degree `degree`.
    ///
    /// # Panics
    ///
    /// Panics if `degree > delta` — the family `A(Δ)` is only defined on
    /// graphs of maximum degree `Δ`.
    pub fn new(delta: usize, degree: usize) -> Self {
        assert!(degree <= delta, "node degree exceeds Δ");
        BoundedDegreeNode {
            delta,
            degree,
            their_port: vec![0; degree],
            their_degree: vec![0; degree],
            my_claim: vec![false; degree],
            their_claim: vec![false; degree],
            in_m: vec![false; degree],
            in_p: vec![false; degree],
            covered_m: false,
            eligible: Vec::new(),
            cursor: 0,
            pending: None,
            incoming: Vec::new(),
            proposer_done: false,
            acceptor_done: false,
        }
    }

    fn edge_in_mij(&self, q: usize, i: u32, j: u32) -> bool {
        let own = (q + 1) as u32;
        let far = self.their_port[q];
        (self.my_claim[q] && own == i && far == j) || (self.their_claim[q] && far == i && own == j)
    }

    /// Writes the proposal messages for a propose round; the proposer is
    /// active while `active` holds and its cursor has not run off the
    /// eligible list.
    fn propose_into(&mut self, active: bool, out: &mut [Option<BoundedMsg>]) {
        out.fill(Some(BoundedMsg::Nothing));
        self.pending = None;
        if active && self.cursor < self.eligible.len() {
            let q = self.eligible[self.cursor];
            self.cursor += 1;
            self.pending = Some(q);
            out[q] = Some(BoundedMsg::Propose);
        }
    }

    /// Writes the response messages for a respond round. `may_accept`
    /// gates acceptance; on acceptance the chosen port is recorded via
    /// `mark(self, port)`.
    fn respond_into(
        &mut self,
        may_accept: bool,
        mark: impl FnOnce(&mut Self, usize),
        out: &mut [Option<BoundedMsg>],
    ) {
        out.fill(Some(BoundedMsg::Nothing));
        let incoming = std::mem::take(&mut self.incoming);
        if incoming.is_empty() {
            return;
        }
        for &q in &incoming {
            out[q] = Some(BoundedMsg::Response(false));
        }
        if may_accept {
            let best = *incoming.iter().min().expect("non-empty");
            out[best] = Some(BoundedMsg::Response(true));
            mark(self, best);
        }
    }

    fn record_incoming_proposals(&mut self, inbox: &[Option<BoundedMsg>]) {
        self.incoming.clear();
        for (q, m) in inbox.iter().enumerate() {
            if m == &Some(BoundedMsg::Propose) {
                self.incoming.push(q);
            }
        }
    }

    /// Checks whether this round's pending proposal got accepted; on
    /// acceptance records the edge via `mark`.
    fn collect_acceptance(
        &mut self,
        inbox: &[Option<BoundedMsg>],
        mark: impl FnOnce(&mut Self, usize),
    ) {
        if let Some(q) = self.pending.take() {
            if inbox[q] == Some(BoundedMsg::Response(true)) {
                mark(self, q);
            }
        }
    }

    /// The far ends' cover bits, port by port, read straight off the
    /// inbox (no per-round allocation).
    fn cover_bits(inbox: &[Option<BoundedMsg>]) -> impl Iterator<Item = bool> + '_ {
        inbox.iter().map(|m| match m {
            Some(BoundedMsg::Cover(c)) => *c,
            other => unreachable!("expected Cover, got {other:?}"),
        })
    }

    fn output(&self) -> PortSet {
        (0..self.degree)
            .filter(|&q| self.in_m[q] || self.in_p[q])
            .map(Port::from_index)
            .collect()
    }
}

impl NodeAlgorithm for BoundedDegreeNode {
    type Message = BoundedMsg;
    type Output = PortSet;

    fn send_into(&mut self, round: usize, outbox: &mut [Option<BoundedMsg>]) {
        let d = self.degree;
        match step_at(self.delta, round) {
            Step::Hello => {
                for (q, slot) in outbox.iter_mut().enumerate() {
                    *slot = Some(BoundedMsg::Hello {
                        port: (q + 1) as u32,
                        degree: d as u32,
                    });
                }
            }
            Step::Claim => {
                for (q, slot) in outbox.iter_mut().enumerate() {
                    *slot = Some(BoundedMsg::Claim(self.my_claim[q]));
                }
            }
            Step::Phase1(_) | Step::Phase2Start(_) | Step::Phase3Start => {
                outbox.fill(Some(BoundedMsg::Cover(self.covered_m)));
            }
            Step::Phase2Propose(_) => {
                let active = !self.covered_m;
                self.propose_into(active, outbox);
            }
            Step::Phase2Respond(_) => {
                let may_accept = !self.covered_m;
                self.respond_into(
                    may_accept,
                    |s, q| {
                        s.in_m[q] = true;
                        s.covered_m = true;
                    },
                    outbox,
                );
            }
            Step::Phase3Propose => {
                let active = !self.proposer_done;
                self.propose_into(active, outbox);
            }
            Step::Phase3Respond(_) => {
                let may_accept = !self.acceptor_done;
                self.respond_into(
                    may_accept,
                    |s, q| {
                        s.in_p[q] = true;
                        s.acceptor_done = true;
                    },
                    outbox,
                );
            }
        }
    }

    fn receive(&mut self, round: usize, inbox: &[Option<BoundedMsg>]) -> Option<PortSet> {
        if self.degree == 0 {
            return Some(PortSet::new());
        }
        let delta = self.delta;
        match step_at(delta, round) {
            Step::Hello => {
                for (q, m) in inbox.iter().enumerate() {
                    match m {
                        Some(BoundedMsg::Hello { port, degree }) => {
                            self.their_port[q] = *port;
                            self.their_degree[q] = *degree;
                        }
                        other => unreachable!("round 0 expects Hello, got {other:?}"),
                    }
                }
                if let Some(q) = dn_port_index(&self.their_port) {
                    self.my_claim[q] = true;
                }
                None
            }
            Step::Claim => {
                for (q, m) in inbox.iter().enumerate() {
                    match m {
                        Some(BoundedMsg::Claim(c)) => self.their_claim[q] = *c,
                        other => unreachable!("round 1 expects Claim, got {other:?}"),
                    }
                }
                None
            }
            Step::Phase1(t) => {
                let (i, j) = ((t / delta) as u32 + 1, (t % delta) as u32 + 1);
                // A covered node adds nothing this round.
                if !self.covered_m {
                    let mut added = false;
                    for (q, far) in Self::cover_bits(inbox).enumerate() {
                        if !far && self.edge_in_mij(q, i, j) {
                            self.in_m[q] = true;
                            added = true;
                        }
                    }
                    self.covered_m = added;
                }
                None
            }
            Step::Phase2Start(i) => {
                // Freeze the eligible port list for this block: edges
                // {u, v} with d(u) < d(v) = i and both ends uncovered.
                self.eligible.clear();
                self.cursor = 0;
                let black = self.degree == i && !self.covered_m;
                if black {
                    for (q, far) in Self::cover_bits(inbox).enumerate() {
                        let df = self.their_degree[q] as usize;
                        if df < i && !far {
                            self.eligible.push(q);
                        }
                    }
                }
                None
            }
            Step::Phase2Propose(_) | Step::Phase3Propose => {
                self.record_incoming_proposals(inbox);
                None
            }
            Step::Phase2Respond(_) => {
                self.collect_acceptance(inbox, |s, q| {
                    s.in_m[q] = true;
                    s.covered_m = true;
                });
                None
            }
            Step::Phase3Start => {
                // H: edges with both endpoints M-uncovered.
                self.eligible.clear();
                self.cursor = 0;
                if !self.covered_m {
                    for (q, far) in Self::cover_bits(inbox).enumerate() {
                        if !far {
                            self.eligible.push(q);
                        }
                    }
                }
                None
            }
            Step::Phase3Respond(m) => {
                self.collect_acceptance(inbox, |s, q| {
                    s.in_p[q] = true;
                    s.proposer_done = true;
                });
                if m + 1 == delta.max(1) {
                    Some(self.output())
                } else {
                    None
                }
            }
        }
    }

    fn corrupt(&mut self, entropy: u64) {
        // Garble every soft field within its safe range: learned labels
        // (`their_port`/`their_degree`) are only compared, claims and
        // membership bits are free flips, and every port reference
        // (`eligible`, `pending`, `incoming`) stays < degree so the
        // proposal machinery cannot index out of bounds. `delta` and
        // `degree` define the `A(Δ)` schedule and stay intact.
        if self.degree == 0 {
            return;
        }
        let mut next = pn_runtime::entropy_stream(entropy);
        for q in 0..self.degree {
            self.their_port[q] = (next() % (self.delta as u64 + 1)) as u32;
            self.their_degree[q] = (next() % (self.delta as u64 + 1)) as u32;
            self.my_claim[q] = next() & 1 == 0;
            self.their_claim[q] = next() & 1 == 0;
            self.in_m[q] = next() & 1 == 0;
            self.in_p[q] = next() & 1 == 0;
        }
        self.covered_m = next() & 1 == 0;
        self.eligible = (0..self.degree).filter(|_| next() & 1 == 0).collect();
        self.cursor = (next() % (self.degree as u64 + 1)) as usize;
        self.pending = (next() & 1 == 0).then(|| (next() % self.degree as u64) as usize);
        self.incoming = (0..self.degree).filter(|_| next() & 1 == 0).collect();
        self.proposer_done = next() & 1 == 0;
        self.acceptor_done = next() & 1 == 0;
    }
}

/// Runs the distributed `A(Δ)` protocol on `g` and returns the edge
/// dominating set, after checking output consistency.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if the graph's maximum degree
/// exceeds `delta`; simulator errors do not occur on valid inputs.
pub fn bounded_degree_distributed(
    g: &PortNumberedGraph,
    delta: usize,
) -> Result<Vec<EdgeId>, GraphError> {
    if g.max_degree() > delta {
        return Err(GraphError::InvalidParameter {
            detail: format!(
                "graph has maximum degree {} exceeding the bound Δ = {delta}",
                g.max_degree()
            ),
        });
    }
    let run = Simulator::new(g)
        .run(|_, d| BoundedDegreeNode::new(delta, d))
        .map_err(|e| GraphError::InvalidParameter {
            detail: format!("simulation failed: {e}"),
        })?;
    pn_runtime::edge_set_from_outputs(g, &run.outputs).map_err(|e| GraphError::InvalidParameter {
        detail: format!("inconsistent output: {e}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounded_degree::bounded_degree_reference;
    use pn_graph::{generators, ports};

    fn check_match(g: &PortNumberedGraph, delta: usize, context: &str) {
        let reference = bounded_degree_reference(g, delta).unwrap().dominating_set;
        let distributed = bounded_degree_distributed(g, delta).unwrap();
        assert_eq!(reference, distributed, "{context}");
    }

    #[test]
    fn matches_reference_on_grids() {
        for seed in 0..6 {
            let g = generators::grid(4, 4).unwrap();
            let pg = ports::shuffled_ports(&g, seed).unwrap();
            check_match(&pg, 4, &format!("grid seed {seed}"));
        }
    }

    #[test]
    fn matches_reference_on_random_bounded() {
        for delta in [2usize, 3, 4, 5, 6] {
            for seed in 0..5 {
                let g =
                    generators::random_bounded_degree(18, delta, 0.75, seed * 11 + delta as u64)
                        .unwrap();
                let pg = ports::shuffled_ports(&g, seed).unwrap();
                check_match(&pg, delta, &format!("delta {delta} seed {seed}"));
            }
        }
    }

    #[test]
    fn matches_reference_on_regular() {
        for (n, d) in [(10usize, 3usize), (12, 4), (12, 5)] {
            for seed in 0..4 {
                let g = generators::random_regular(n, d, seed + 500).unwrap();
                let pg = ports::shuffled_ports(&g, seed).unwrap();
                check_match(&pg, d, &format!("regular n {n} d {d} seed {seed}"));
            }
        }
    }

    #[test]
    fn matches_reference_with_slack_delta() {
        // Running A(Δ) with Δ larger than the true maximum degree.
        let g = generators::petersen();
        let pg = ports::shuffled_ports(&g, 3).unwrap();
        for delta in 3..=6 {
            check_match(&pg, delta, &format!("slack delta {delta}"));
        }
    }

    #[test]
    fn schedule_length_is_respected() {
        let g = generators::grid(3, 3).unwrap();
        let pg = ports::shuffled_ports(&g, 2).unwrap();
        let delta = 4;
        let run = Simulator::new(&pg)
            .run(|_, d| BoundedDegreeNode::new(delta, d))
            .unwrap();
        assert_eq!(run.rounds, bounded_schedule_length(delta));
    }

    #[test]
    fn rejects_degree_overflow() {
        let g = ports::canonical_ports(&generators::star(5).unwrap()).unwrap();
        assert!(bounded_degree_distributed(&g, 4).is_err());
    }

    #[test]
    fn paths_and_cycles() {
        for n in [2usize, 4, 7, 12] {
            let g = generators::path(n).unwrap();
            let pg = ports::canonical_ports(&g).unwrap();
            check_match(&pg, 2, &format!("path {n}"));
        }
        for n in [3usize, 5, 8] {
            let g = generators::cycle(n).unwrap();
            let pg = ports::shuffled_ports(&g, n as u64).unwrap();
            check_match(&pg, 2, &format!("cycle {n}"));
        }
    }

    #[test]
    fn step_schedule_covers_all_rounds() {
        for delta in 1..=6 {
            let len = bounded_schedule_length(delta);
            // Every round decodes to a step; the last is a Phase3Respond
            // with m = delta - 1.
            for r in 0..len {
                let _ = step_at(delta, r);
            }
            match step_at(delta, len - 1) {
                Step::Phase3Respond(m) => assert_eq!(m, delta - 1),
                other => panic!("last round is {other:?}"),
            }
        }
    }

    #[test]
    fn corruption_changes_the_state() {
        let mut node = BoundedDegreeNode::new(5, 4);
        let fresh = format!("{node:?}");
        node.corrupt(0x5eed_1e55);
        assert_ne!(format!("{node:?}"), fresh, "corruption must change state");
    }

    #[test]
    fn corrupted_epochs_stay_well_defined() {
        use pn_runtime::{ChurnEvent, ChurnSimulator};
        let g = ports::shuffled_ports(&generators::petersen(), 9).unwrap();
        let mut sim = ChurnSimulator::new(&g, |_, d| BoundedDegreeNode::new(3, d)).unwrap();
        let burst: Vec<_> = (0..10)
            .map(|v| ChurnEvent::Corrupt {
                v: pn_graph::NodeId::new(v),
                entropy: v as u64 * 31 + 7,
            })
            .collect();
        sim.apply_burst(&burst).unwrap();
        let epoch = sim.stabilize().unwrap(); // must complete, never panic
        assert_eq!(epoch.corrupted, 10);
        // Once the corruption drains, the next epoch dominates again.
        let clean = sim.stabilize().unwrap();
        let edges = pn_runtime::edge_set_from_outputs(&g, &clean.outputs).unwrap();
        assert!(crate::bounded_degree::dominates_all_edges(&g, &edges));
    }
}
