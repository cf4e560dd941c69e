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
//! # Halting
//!
//! The schedule's [`bounded_schedule_length`] rounds are a cap, the
//! paper's `O(Δ²)` bound. Every node runs the hello and claim rounds;
//! from round 2 on it halts, with the output it would give at the cap,
//! at the end of any round
//!
//! * **(a)** in which it is covered by `M`;
//! * **(b)** that exchanges cover bits (Phase I, the first round of a
//!   Phase II block, the first round of Phase III) and in which every
//!   port read "covered";
//! * **(c)** of Phase III after which it has no eligible port, or both
//!   its offer and its acceptance are spent.
//!
//! In every cover exchange a halted neighbour's `None` reads as
//! "covered". The edge sets are the ones the full schedule computes, on
//! every input:
//!
//! * a covered node never adds an `M` edge and is never black, and no
//!   one proposes to it, since an eligible port needs the far end's cover
//!   bit to be false; so it sends "covered", no proposal and no
//!   acceptance, which is how its `None` reads;
//! * nodes still running after round 2 are uncovered, so an uncovered
//!   node that reads "covered" on every port has no running neighbour
//!   and no edge left to gain;
//! * a Phase III node with no eligible port is proposed to by no one,
//!   and one whose offer and acceptance are spent neither proposes nor
//!   accepts, which is how its `None` reads in propose and respond
//!   rounds.
//!
//! The protocol is differentially tested against
//! [`crate::bounded_degree::bounded_degree_reference`]: identical outputs
//! on every input.

use std::fmt;
use std::num::NonZeroU64;

use pn_graph::{EdgeId, GraphError, Port, PortNumberedGraph};
use pn_runtime::{NodeAlgorithm, PortSet, Simulator};

use super::common::{dn_port_index, pack_word, word_flag, word_kind, word_payload};

const HELLO: u64 = 1;
const CLAIM: u64 = 2;
const COVER: u64 = 3;
const PROPOSE: u64 = 4;
const RESPONSE: u64 = 5;
const NOTHING: u64 = 6;

/// Bits of each of a hello's two fields.
const HELLO_FIELD_BITS: u32 = 30;

/// A message of the `A(Δ)` protocol, held in one word so that an
/// `Option<BoundedMsg>` slot is 8 bytes.
///
/// The kind sits in the low three bits and the payload above them. A
/// hello carries the sender's port number in the next 30 bits and its
/// degree in the 30 above those, so both must be below 2³⁰; that
/// excludes no runnable instance, since a `Δ` of 2³⁰ would take about
/// 2⁶⁰ rounds. A claim, cover or response carries one bit. `Debug`
/// prints `Hello { port, degree }`, `Claim(_)`, `Cover(_)`, `Propose`,
/// `Response(_)` or `Nothing`.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct BoundedMsg(NonZeroU64);

impl BoundedMsg {
    /// The largest port number or degree a hello carries: 2³⁰ − 1.
    pub const HELLO_FIELD_MAX: u32 = (1 << HELLO_FIELD_BITS) - 1;

    /// A proposal (Phase II: black → white; Phase III: proposer role).
    pub const PROPOSE: BoundedMsg = BoundedMsg(pack_word(PROPOSE, 0));

    /// Filler for ports with nothing to say this round.
    pub const NOTHING: BoundedMsg = BoundedMsg(pack_word(NOTHING, 0));

    /// Round 0: the sender's port this message leaves through (1-based)
    /// and the sender's degree.
    ///
    /// # Panics
    ///
    /// Panics if either exceeds [`BoundedMsg::HELLO_FIELD_MAX`].
    pub fn hello(port: u32, degree: u32) -> Self {
        assert!(
            port <= Self::HELLO_FIELD_MAX && degree <= Self::HELLO_FIELD_MAX,
            "hello fields must be below 2^30: port {port}, degree {degree}"
        );
        BoundedMsg(pack_word(
            HELLO,
            u64::from(port) | u64::from(degree) << HELLO_FIELD_BITS,
        ))
    }

    /// Round 1: "you are my distinguishable neighbour" (or not).
    pub const fn claim(claim: bool) -> Self {
        BoundedMsg(pack_word(CLAIM, claim as u64))
    }

    /// Cover-exchange rounds: "I am covered by `M`" (or not).
    pub const fn cover(covered: bool) -> Self {
        BoundedMsg(pack_word(COVER, covered as u64))
    }

    /// The answer to a proposal received in the previous round.
    pub const fn response(accept: bool) -> Self {
        BoundedMsg(pack_word(RESPONSE, accept as u64))
    }

    /// The port number and degree of a hello.
    pub fn as_hello(self) -> Option<(u32, u32)> {
        (word_kind(self.0) == HELLO).then(|| {
            let payload = word_payload(self.0);
            let port = payload & u64::from(Self::HELLO_FIELD_MAX);
            (port as u32, (payload >> HELLO_FIELD_BITS) as u32)
        })
    }

    /// The bit of a claim.
    pub fn as_claim(self) -> Option<bool> {
        word_flag(self.0, CLAIM)
    }

    /// The bit of a cover message.
    pub fn as_cover(self) -> Option<bool> {
        word_flag(self.0, COVER)
    }

    /// The bit of a response.
    pub fn as_response(self) -> Option<bool> {
        word_flag(self.0, RESPONSE)
    }
}

impl fmt::Debug for BoundedMsg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bit = word_payload(self.0) == 1;
        match word_kind(self.0) {
            HELLO => {
                let (port, degree) = self.as_hello().expect("a hello word");
                f.debug_struct("Hello")
                    .field("port", &port)
                    .field("degree", &degree)
                    .finish()
            }
            CLAIM => f.debug_tuple("Claim").field(&bit).finish(),
            COVER => f.debug_tuple("Cover").field(&bit).finish(),
            PROPOSE => f.write_str("Propose"),
            RESPONSE => f.debug_tuple("Response").field(&bit).finish(),
            _ => f.write_str("Nothing"),
        }
    }
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

/// Length of the `A(Δ)` schedule: the round by which every node has
/// halted, the paper's `O(Δ²)` bound. Nodes halt earlier once their
/// output is final (see the module docs), so a run may take fewer rounds.
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

/// What a node knows and has decided about one of its ports.
#[derive(Clone, Copy, Debug, Default)]
struct PortState {
    /// The far end's port number (1-based), learned in round 0.
    their_port: u32,
    /// The far end's degree, learned in round 0.
    their_degree: u32,
    /// This node claims the far end as its distinguishable neighbour.
    my_claim: bool,
    /// The far end claimed this node.
    their_claim: bool,
    /// The edge is in the matching `M`.
    in_m: bool,
    /// The edge is in the 2-matching `P`.
    in_p: bool,
    /// The edge is eligible in the current proposal stage.
    eligible: bool,
    /// A proposal arrived on this port in the last propose round.
    incoming: bool,
}

impl PortState {
    /// Whether the edge through own port `own` (1-based) belongs to
    /// `M(i, j)`.
    fn in_mij(&self, own: u32, i: u32, j: u32) -> bool {
        let far = self.their_port;
        (self.my_claim && own == i && far == j) || (self.their_claim && far == i && own == j)
    }
}

/// Node state machine for the distributed `A(Δ)` protocol.
#[derive(Clone, Debug)]
pub struct BoundedDegreeNode {
    delta: usize,
    /// One entry per port; the node's degree is its length.
    ports: Vec<PortState>,
    covered_m: bool,
    /// The lowest port the current proposal stage may still propose
    /// through; ports are tried in ascending order.
    cursor: usize,
    /// Port this node proposed through in the current propose round.
    pending: Option<usize>,
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
            ports: vec![PortState::default(); degree],
            covered_m: false,
            cursor: 0,
            pending: None,
            proposer_done: false,
            acceptor_done: false,
        }
    }

    /// Writes the proposal messages for a propose round; the proposer is
    /// active while `active` holds and an eligible port is left at or
    /// above its cursor.
    fn propose_into(&mut self, active: bool, out: &mut [Option<BoundedMsg>]) {
        out.fill(Some(BoundedMsg::NOTHING));
        self.pending = None;
        if active {
            let d = self.ports.len();
            match (self.cursor..d).find(|&q| self.ports[q].eligible) {
                Some(q) => {
                    self.cursor = q + 1;
                    self.pending = Some(q);
                    out[q] = Some(BoundedMsg::PROPOSE);
                }
                None => self.cursor = d,
            }
        }
    }

    /// Writes the response messages for a respond round: a refusal on
    /// every port a proposal arrived on, except that when `may_accept`
    /// holds the lowest such port is accepted and recorded via
    /// `mark(self, port)`.
    fn respond_into(
        &mut self,
        may_accept: bool,
        mark: impl FnOnce(&mut Self, usize),
        out: &mut [Option<BoundedMsg>],
    ) {
        let mut lowest = None;
        for (q, (p, slot)) in self.ports.iter_mut().zip(out.iter_mut()).enumerate() {
            *slot = Some(if p.incoming {
                lowest.get_or_insert(q);
                BoundedMsg::response(false)
            } else {
                BoundedMsg::NOTHING
            });
            p.incoming = false;
        }
        if let (true, Some(best)) = (may_accept, lowest) {
            out[best] = Some(BoundedMsg::response(true));
            mark(self, best);
        }
    }

    fn record_incoming_proposals(&mut self, inbox: &[Option<BoundedMsg>]) {
        for (p, m) in self.ports.iter_mut().zip(inbox) {
            p.incoming = *m == Some(BoundedMsg::PROPOSE);
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
            if inbox[q] == Some(BoundedMsg::response(true)) {
                mark(self, q);
            }
        }
    }

    /// Starts a proposal stage: rewinds the cursor and, when `take`
    /// holds, marks eligible the ports that `rule(port, far_covered)`
    /// accepts; otherwise no port is eligible. Returns whether every
    /// port read "covered".
    fn freeze_eligible(
        &mut self,
        inbox: &[Option<BoundedMsg>],
        take: bool,
        rule: impl Fn(&PortState, bool) -> bool,
    ) -> bool {
        self.cursor = 0;
        let mut all_covered = true;
        for (p, far) in self.ports.iter_mut().zip(Self::cover_bits(inbox)) {
            p.eligible = take && rule(p, far);
            all_covered &= far;
        }
        all_covered
    }

    /// Phase III rule (c): no eligible port, or both the offer and the
    /// acceptance are spent, so the node's `P` edges are final.
    fn phase3_done(&self) -> bool {
        (self.proposer_done && self.acceptor_done) || !self.ports.iter().any(|p| p.eligible)
    }

    /// The far ends' cover bits, port by port, read straight off the
    /// inbox (no per-round allocation). A halted neighbour's `None` reads
    /// as "covered" (see the module docs).
    fn cover_bits(inbox: &[Option<BoundedMsg>]) -> impl Iterator<Item = bool> + '_ {
        inbox.iter().map(|m| match m {
            None => true,
            Some(msg) => match msg.as_cover() {
                Some(c) => c,
                None => unreachable!("expected Cover, got {msg:?}"),
            },
        })
    }

    fn output(&self) -> PortSet {
        self.ports
            .iter()
            .enumerate()
            .filter(|(_, p)| p.in_m || p.in_p)
            .map(|(q, _)| Port::from_index(q))
            .collect()
    }
}

impl NodeAlgorithm for BoundedDegreeNode {
    type Message = BoundedMsg;
    type Output = PortSet;

    fn send_into(&mut self, round: usize, outbox: &mut [Option<BoundedMsg>]) {
        let d = self.ports.len();
        match step_at(self.delta, round) {
            Step::Hello => {
                for (q, slot) in outbox.iter_mut().enumerate() {
                    *slot = Some(BoundedMsg::hello((q + 1) as u32, d as u32));
                }
            }
            Step::Claim => {
                for (p, slot) in self.ports.iter().zip(outbox.iter_mut()) {
                    *slot = Some(BoundedMsg::claim(p.my_claim));
                }
            }
            Step::Phase1(_) | Step::Phase2Start(_) | Step::Phase3Start => {
                outbox.fill(Some(BoundedMsg::cover(self.covered_m)));
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
                        s.ports[q].in_m = true;
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
                        s.ports[q].in_p = true;
                        s.acceptor_done = true;
                    },
                    outbox,
                );
            }
        }
    }

    fn receive(&mut self, round: usize, inbox: &[Option<BoundedMsg>]) -> Option<PortSet> {
        if self.ports.is_empty() {
            return Some(PortSet::new());
        }
        let delta = self.delta;
        // Whether the output is final by rule (b), (c) or the cap; rule
        // (a) is checked below, after every round from round 2 on.
        let done = match step_at(delta, round) {
            Step::Hello => {
                for (p, m) in self.ports.iter_mut().zip(inbox) {
                    let Some((port, degree)) = m.and_then(BoundedMsg::as_hello) else {
                        unreachable!("round 0 expects Hello, got {m:?}")
                    };
                    p.their_port = port;
                    p.their_degree = degree;
                }
                if let Some(q) = dn_port_index(&self.ports, |p| p.their_port) {
                    self.ports[q].my_claim = true;
                }
                return None;
            }
            Step::Claim => {
                for (p, m) in self.ports.iter_mut().zip(inbox) {
                    let Some(c) = m.and_then(BoundedMsg::as_claim) else {
                        unreachable!("round 1 expects Claim, got {m:?}")
                    };
                    p.their_claim = c;
                }
                return None;
            }
            Step::Phase1(t) => {
                let (i, j) = ((t / delta) as u32 + 1, (t % delta) as u32 + 1);
                // A covered node adds nothing this round.
                let mut all_covered = true;
                if !self.covered_m {
                    let mut added = false;
                    for (q, (p, far)) in self
                        .ports
                        .iter_mut()
                        .zip(Self::cover_bits(inbox))
                        .enumerate()
                    {
                        all_covered &= far;
                        if !far && p.in_mij((q + 1) as u32, i, j) {
                            p.in_m = true;
                            added = true;
                        }
                    }
                    self.covered_m = added;
                }
                all_covered
            }
            Step::Phase2Start(i) => {
                // Freeze the eligible ports for this block: edges {u, v}
                // with d(u) < d(v) = i and both ends uncovered.
                let black = self.ports.len() == i && !self.covered_m;
                self.freeze_eligible(inbox, black, |p, far| (p.their_degree as usize) < i && !far)
            }
            Step::Phase2Propose(_) => {
                self.record_incoming_proposals(inbox);
                false
            }
            Step::Phase2Respond(_) => {
                self.collect_acceptance(inbox, |s, q| {
                    s.ports[q].in_m = true;
                    s.covered_m = true;
                });
                false
            }
            Step::Phase3Start => {
                // H: edges with both endpoints M-uncovered.
                let uncovered = !self.covered_m;
                self.freeze_eligible(inbox, uncovered, |_, far| !far) || self.phase3_done()
            }
            Step::Phase3Propose => {
                self.record_incoming_proposals(inbox);
                self.phase3_done()
            }
            Step::Phase3Respond(m) => {
                self.collect_acceptance(inbox, |s, q| {
                    s.ports[q].in_p = true;
                    s.proposer_done = true;
                });
                m + 1 == delta.max(1) || self.phase3_done()
            }
        };
        (done || self.covered_m).then(|| self.output())
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

    /// The fixed schedule, as an oracle: calls the node's `send_into` and
    /// `receive` in every round of `bounded_schedule_length(Δ)` and
    /// answers only at the last one. The halting rules only return early
    /// and never change state, so this is the protocol as it ran before
    /// its nodes halted early.
    struct FullSchedule {
        node: BoundedDegreeNode,
        len: usize,
        /// The rounds run when the node first answered, and its answer.
        first: Option<(usize, PortSet)>,
    }

    impl FullSchedule {
        fn new(delta: usize, degree: usize) -> Self {
            FullSchedule {
                node: BoundedDegreeNode::new(delta, degree),
                len: bounded_schedule_length(delta),
                first: None,
            }
        }
    }

    /// The oracle's answer at the cap.
    #[derive(Clone, Debug)]
    struct Answer {
        output: PortSet,
        first_halt: usize,
        output_at_first_halt: PortSet,
    }

    impl NodeAlgorithm for FullSchedule {
        type Message = BoundedMsg;
        type Output = Answer;

        fn send_into(&mut self, round: usize, outbox: &mut [Option<BoundedMsg>]) {
            self.node.send_into(round, outbox);
        }

        fn receive(&mut self, round: usize, inbox: &[Option<BoundedMsg>]) -> Option<Answer> {
            let out = self.node.receive(round, inbox);
            if self.first.is_none() {
                self.first = out.clone().map(|o| (round + 1, o));
            }
            (round + 1 == self.len).then(|| {
                let (first_halt, output_at_first_halt) =
                    self.first.take().expect("the node answers by the cap");
                Answer {
                    output: out.expect("every node answers at the cap"),
                    first_halt,
                    output_at_first_halt,
                }
            })
        }
    }

    /// Runs the halting node and the oracle from the same fresh states
    /// and checks: equal outputs; each node's output at its first answer
    /// in the oracle equal to its oracle output, and that answer within
    /// the schedule; every node halting in the round of that answer, so
    /// the halting side's rounds and messages are those of nodes that
    /// each ran until that answer, sending on every port; and the oracle
    /// taking the whole schedule. Returns the messages of the halting run
    /// and of the oracle's.
    fn check_against_oracle(g: &PortNumberedGraph, delta: usize, what: &str) -> (usize, usize) {
        let run = Simulator::new(g)
            .run(|_, d| BoundedDegreeNode::new(delta, d))
            .unwrap();
        let oracle = Simulator::new(g)
            .run(|_, d| FullSchedule::new(delta, d))
            .unwrap();
        let len = bounded_schedule_length(delta);
        let degree = |v: usize| g.degree(pn_graph::NodeId::new(v));
        let ports: usize = (0..g.node_count()).map(degree).sum();
        assert_eq!(
            (oracle.rounds, oracle.messages),
            (len, ports * len),
            "{what}"
        );
        let mut expected_messages = 0;
        for (v, answer) in oracle.outputs.iter().enumerate() {
            assert_eq!(run.outputs[v], answer.output, "{what}: node {v}");
            assert_eq!(
                answer.output_at_first_halt, answer.output,
                "{what}: node {v}"
            );
            assert!(answer.first_halt <= len, "{what}: node {v}");
            expected_messages += degree(v) * answer.first_halt;
        }
        let first_halts: Vec<usize> = oracle.outputs.iter().map(|a| a.first_halt).collect();
        let last = first_halts.iter().copied().max().unwrap_or(0);
        assert_eq!(
            (run.rounds, run.messages),
            (last, expected_messages),
            "{what}"
        );
        assert_eq!(run.halted_at, first_halts, "{what}");
        (run.messages, oracle.messages)
    }

    #[test]
    fn halting_run_matches_the_fixed_schedule() {
        let mut instances = 0;
        let (mut messages, mut oracle_messages) = (0, 0);
        let mut check = |g: &PortNumberedGraph, delta: usize, what: String| {
            let (m, o) = check_against_oracle(g, delta, &what);
            messages += m;
            oracle_messages += o;
            instances += 1;
        };
        for salt in 0..72u64 {
            for (w, h) in [(4, 4), (3, 5)] {
                let pg = ports::shuffled_ports(&generators::grid(w, h).unwrap(), salt).unwrap();
                check(&pg, 4, format!("grid {w}x{h} salt {salt}"));
            }
            for delta in 2..=6usize {
                let g =
                    generators::random_bounded_degree(18, delta, 0.75, salt * 11 + delta as u64)
                        .unwrap();
                let pg = ports::shuffled_ports(&g, salt).unwrap();
                check(&pg, delta, format!("bounded Δ={delta} salt {salt}"));
            }
            for (n, d) in [(10usize, 3usize), (12, 4), (12, 5)] {
                let g = generators::random_regular(n, d, salt + 500).unwrap();
                let pg = ports::shuffled_ports(&g, salt).unwrap();
                check(&pg, d, format!("regular n={n} d={d} salt {salt}"));
            }
            let pg = ports::shuffled_ports(&generators::petersen(), salt).unwrap();
            for delta in 3..=6 {
                check(&pg, delta, format!("petersen Δ={delta} salt {salt}"));
            }
        }
        assert_eq!(instances, 72 * 14);
        // Halting once the output is final saves most of the schedule.
        assert!(
            2 * messages < oracle_messages,
            "halting saved too little: {messages} of {oracle_messages}"
        );
    }

    #[test]
    fn schedule_length_is_respected() {
        let g = generators::grid(3, 3).unwrap();
        let pg = ports::shuffled_ports(&g, 2).unwrap();
        let delta = 4;
        let oracle = Simulator::new(&pg)
            .run(|_, d| FullSchedule::new(delta, d))
            .unwrap();
        assert_eq!(oracle.rounds, bounded_schedule_length(delta));
        // Every node's output is final long before the 54-round cap.
        let run = Simulator::new(&pg)
            .run(|_, d| BoundedDegreeNode::new(delta, d))
            .unwrap();
        assert_eq!(run.rounds, 5);
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
    fn messages_round_trip_at_their_field_limits() {
        let max = BoundedMsg::HELLO_FIELD_MAX;
        for (port, degree) in [(0, 0), (1, 1), (max, 1), (1, max), (max, max)] {
            let m = BoundedMsg::hello(port, degree);
            assert_eq!(m.as_hello(), Some((port, degree)));
            assert_eq!(
                (m.as_claim(), m.as_cover(), m.as_response()),
                (None, None, None)
            );
            assert_eq!(
                format!("{m:?}"),
                format!("Hello {{ port: {port}, degree: {degree} }}")
            );
        }
        for bit in [false, true] {
            let (claim, cover, response) = (
                BoundedMsg::claim(bit),
                BoundedMsg::cover(bit),
                BoundedMsg::response(bit),
            );
            assert_eq!(claim.as_claim(), Some(bit));
            assert_eq!(cover.as_cover(), Some(bit));
            assert_eq!(response.as_response(), Some(bit));
            for m in [claim, cover, response] {
                assert_eq!(m.as_hello(), None);
            }
            assert_eq!(
                (claim.as_cover(), cover.as_response(), response.as_claim()),
                (None, None, None)
            );
            assert_eq!(
                format!("{claim:?} {cover:?} {response:?}"),
                format!("Claim({bit}) Cover({bit}) Response({bit})")
            );
            assert_ne!(claim, BoundedMsg::claim(!bit));
        }
        for m in [BoundedMsg::PROPOSE, BoundedMsg::NOTHING] {
            assert_eq!(
                (m.as_hello(), m.as_claim(), m.as_cover(), m.as_response()),
                (None, None, None, None)
            );
        }
        assert_ne!(BoundedMsg::PROPOSE, BoundedMsg::NOTHING);
        assert_eq!(
            format!("{:?} {:?}", BoundedMsg::PROPOSE, BoundedMsg::NOTHING),
            "Propose Nothing"
        );
    }

    #[test]
    #[should_panic(expected = "hello fields must be below 2^30")]
    fn out_of_range_hello_is_rejected() {
        let _ = BoundedMsg::hello(1, BoundedMsg::HELLO_FIELD_MAX + 1);
    }
}
