//! A genuinely distributed maximal matching in the **identifier model**
//! — the Panconesi–Rizzi `O(Δ + log* n)` construction the paper cites in
//! Section 1.3 (reference \[19\]).
//!
//! With unique identifiers the symmetry barriers of the port-numbering
//! model disappear: a maximal matching (hence a 2-approximate edge
//! dominating set) is computable in rounds independent of the
//! approximation quality. The algorithm:
//!
//! 1. **Orient** every edge toward its lower-identifier endpoint (round
//!    0 exchanges the identifiers); the out-edges of a node, in port
//!    order, index up to `Δ` **forests** (following out-edges strictly
//!    decreases identifiers, so each class is acyclic, with out-degree
//!    at most 1 per node — parent pointers).
//! 2. **Colour** all forests in parallel with Cole–Vishkin iterated
//!    bit-reduction, starting from the identifiers: after `O(log* n)`
//!    iterations every forest is properly coloured with at most 6
//!    colours. A node keeps its colour in each forest where it has a
//!    parent, and one colour for all the forests where it is a root
//!    (those start from its identifier and fold alike), so its state is
//!    one slot per port whatever the claimed `Δ`. A child needs only
//!    its parent's colour *in the child's forest*. So the first
//!    colouring round is a **forest-index handshake**: each child sends
//!    its parent the forest index of their edge (the edge's rank among
//!    the child's out-edges) while each parent sends its colour, which
//!    is still its identifier. From then on a parent sends each child
//!    one colour, its own in that child's forest, and the port toward
//!    the parent carries a filler.
//! 3. **Match** forest by forest, colour class by colour class:
//!    unmatched nodes of the current colour propose to their forest
//!    parent; an unmatched parent accepts its smallest-port proposal.
//!    Each forest pass adds a maximal matching among still-unmatched
//!    nodes; every edge lives in exactly one forest, so the union is a
//!    maximal matching of the whole graph.
//!
//! A running node sends exactly one message on every port in every
//! round, and every message is one word: an identifier, a colour (an
//! identifier or a Cole–Vishkin reduct of one), a forest index below
//! `Δ`, or a constant-size proposal, answer or filler. With identifiers
//! from a range polynomial in `n`, every message has `O(log n)` bits,
//! the CONGEST bandwidth.
//!
//! Round complexity: `1 + O(log* n) + O(Δ)` — compare with the anonymous
//! `A(Δ)` protocol's `O(Δ²)` and its factor-4 barrier.
//!
//! # Halting
//!
//! The schedule's `1 + 12 + 12Δ` rounds ([`id_matching_rounds`]) are a
//! cap. Every node runs the identifier round and the 12 Cole–Vishkin
//! rounds, so every colour a child needs still arrives. In the matching
//! rounds a node halts as soon as its output is final:
//!
//! * a **matched** node at the end of any respond round in which it is
//!   matched: it accepted a proposal in that round or read an
//!   acceptance. It outputs its matched port;
//! * an **unmatched** node at the end of any matching round, propose or
//!   respond, in which no port delivered a message. Running nodes send
//!   on every port in these rounds, so every neighbour has halted and
//!   the node can never be matched. It outputs what it would output at
//!   the cap: the empty port set.
//!
//! Every node still running at the cap halts there. The matching is the
//! one the full schedule computes, on every input. A halted neighbour's
//! `None` reads as "no proposal" in a propose round and as "not
//! accepted" in a respond round, exactly as a matched node's
//! [`IdMmMsg::Nothing`] and `Response(false)` read; a matched node never
//! proposes, never accepts and never rewrites its matched port; and an
//! unmatched node halts only once all its neighbours have, so no running
//! node sees it go.

use pn_graph::{EdgeId, Port, PortNumberedGraph};
use pn_runtime::{NodeAlgorithm, PortSet, RuntimeError, Simulator};

/// Cole–Vishkin iterations hard-wired into the schedule. Identifiers are
/// `u64`, so colours shrink 64-bit → ≤13 → ≤9 → ≤7 → ≤6 values within
/// five iterations; 12 leaves a wide margin (extra iterations keep the
/// colouring proper and below 6).
const CV_ITERATIONS: usize = 12;

/// Messages of the identifier-model matching protocol: each fits in one
/// word, so `Option<IdMmMsg>` takes 16 bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IdMmMsg {
    /// Round 0: the sender's unique identifier.
    Ident(u64),
    /// First Cole–Vishkin round, child → parent: the forest index of the
    /// shared edge, i.e. its rank among the child's out-edges.
    Forest(u32),
    /// Cole–Vishkin rounds, parent → child: the parent's colour in the
    /// child's forest (in the first round, its identifier).
    Color(u64),
    /// Matching rounds: a proposal along a forest edge.
    Propose,
    /// Matching rounds: the answer to a proposal.
    Response(bool),
    /// Filler: ports toward a parent after the handshake, ports between
    /// equal identifiers (loops), and unused ports in matching rounds. A
    /// matching-round receiver reads it exactly as it reads the `None`
    /// of a halted neighbour.
    Nothing,
}

/// The round cap of the protocol for degree bound `delta`: the
/// identifier round, the Cole–Vishkin rounds, and a propose and a
/// respond round per colour class of every forest. Nodes halt earlier
/// once their output is final (see the module docs), so a run takes at
/// most this many rounds.
pub fn id_matching_rounds(delta: usize) -> usize {
    1 + CV_ITERATIONS + delta * 6 * 2
}

/// What a node knows about its port `i` and about forest `i`, for `i`
/// below its degree. The forest fields are meaningful below the node's
/// out-degree, in the forests where it has a parent.
#[derive(Clone, Copy, Debug, Default)]
struct Slot {
    /// Port field: the neighbour's identifier, learned in round 0.
    their_id: u64,
    /// Port field: the forest index of the edge if the neighbour is a
    /// child there, learned in the first Cole–Vishkin round.
    child_forest: Option<u32>,
    /// Port field: a proposal arrived on this port in the last propose
    /// round.
    incoming: bool,
    /// Forest field: this node's Cole–Vishkin colour *as a member of*
    /// the forest.
    color: u64,
    /// Forest field: the port of this node's out-edge of this rank, the
    /// port toward its parent in the forest.
    parent: u32,
}

/// Node state machine for the identifier-model maximal matching.
#[derive(Clone, Debug)]
pub struct IdMatchingNode {
    delta: usize,
    id: u64,
    /// One entry per port, so a node allocates once, whatever the
    /// claimed Δ; the degree is its length.
    slots: Vec<Slot>,
    /// Out-edges (ports toward lower identifiers): the forests in which
    /// this node has a parent are those below this count.
    out_degree: usize,
    /// This node's colour in every forest where it is a root (has no
    /// out-edge of that rank). Each such colour starts from the
    /// identifier and folds against a pseudo-parent that differs in the
    /// lowest bit, so one value serves them all.
    root_color: u64,
    matched_port: Option<usize>,
    pending: Option<usize>,
}

impl IdMatchingNode {
    /// Creates the state machine for degree bound `delta`, a node of
    /// degree `degree` with unique identifier `id`.
    ///
    /// # Panics
    ///
    /// Panics if `degree > delta`.
    pub fn new(delta: usize, degree: usize, id: u64) -> Self {
        assert!(degree <= delta, "node degree exceeds Δ");
        let slot = Slot {
            color: id,
            ..Slot::default()
        };
        IdMatchingNode {
            delta,
            id,
            slots: vec![slot; degree],
            out_degree: 0,
            root_color: id,
            matched_port: None,
            pending: None,
        }
    }

    /// This node's colour in forest `f`.
    fn color_in(&self, f: usize) -> u64 {
        match self.slots[..self.out_degree].get(f) {
            Some(forest) => forest.color,
            None => self.root_color,
        }
    }

    /// The output at halting: the matched port, if any.
    fn output(&self) -> PortSet {
        let mut x = PortSet::new();
        if let Some(q) = self.matched_port {
            x.insert(Port::from_index(q));
        }
        x
    }

    /// One Cole–Vishkin step for colour `c` against parent colour `p`
    /// (`c != p`): the index of the lowest differing bit, shifted left,
    /// plus that bit of `c`.
    fn cv_step(c: u64, p: u64) -> u64 {
        debug_assert_ne!(c, p, "proper colouring before a CV step");
        let i = (c ^ p).trailing_zeros() as u64;
        2 * i + ((c >> i) & 1)
    }
}

/// The protocol phase of round `round`.
fn schedule(round: usize) -> Phase {
    if round == 0 {
        return Phase::Ident;
    }
    let r = round - 1;
    if r < CV_ITERATIONS {
        return Phase::ColeVishkin { handshake: r == 0 };
    }
    let r = r - CV_ITERATIONS;
    let step = r / 2;
    let forest = step / 6;
    let color = (step % 6) as u64;
    if r.is_multiple_of(2) {
        Phase::Propose { forest, color }
    } else {
        Phase::Respond
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Ident,
    /// A Cole–Vishkin round; the first one is also the forest-index
    /// handshake.
    ColeVishkin {
        handshake: bool,
    },
    Propose {
        forest: usize,
        color: u64,
    },
    Respond,
}

impl NodeAlgorithm for IdMatchingNode {
    type Message = IdMmMsg;
    type Output = PortSet;

    fn send_into(&mut self, round: usize, outbox: &mut [Option<IdMmMsg>]) {
        match schedule(round) {
            Phase::Ident => outbox.fill(Some(IdMmMsg::Ident(self.id))),
            Phase::ColeVishkin { handshake: true } => {
                // Every colour is still the identifier.
                let id = self.id;
                for (slot, port) in outbox.iter_mut().zip(&self.slots) {
                    *slot = Some(if port.their_id > id {
                        IdMmMsg::Color(id)
                    } else {
                        IdMmMsg::Nothing
                    });
                }
                for (f, forest) in self.slots[..self.out_degree].iter().enumerate() {
                    let f = u32::try_from(f).expect("a forest index is below the degree, a u32");
                    outbox[forest.parent as usize] = Some(IdMmMsg::Forest(f));
                }
            }
            Phase::ColeVishkin { handshake: false } => {
                for (slot, port) in outbox.iter_mut().zip(&self.slots) {
                    *slot = Some(match port.child_forest {
                        Some(f) => IdMmMsg::Color(self.color_in(f as usize)),
                        None => IdMmMsg::Nothing,
                    });
                }
            }
            Phase::Propose { forest, color } => {
                outbox.fill(Some(IdMmMsg::Nothing));
                self.pending = None;
                // A node matches only in the respond round in which it
                // halts, so every running node is unmatched.
                if forest < self.out_degree && self.slots[forest].color == color {
                    let port = self.slots[forest].parent as usize;
                    self.pending = Some(port);
                    outbox[port] = Some(IdMmMsg::Propose);
                }
            }
            Phase::Respond => {
                let mut best = None;
                for (q, (slot, port)) in outbox.iter_mut().zip(&self.slots).enumerate() {
                    *slot = Some(if port.incoming {
                        best.get_or_insert(q);
                        IdMmMsg::Response(false)
                    } else {
                        IdMmMsg::Nothing
                    });
                }
                if let Some(best) = best {
                    outbox[best] = Some(IdMmMsg::Response(true));
                    self.matched_port = Some(best);
                }
            }
        }
    }

    fn receive(&mut self, round: usize, inbox: &[Option<IdMmMsg>]) -> Option<PortSet> {
        if self.slots.is_empty() {
            return Some(PortSet::new());
        }
        match schedule(round) {
            Phase::Ident => {
                let mut out_degree = 0;
                for (q, m) in inbox.iter().enumerate() {
                    let theirs = match m {
                        Some(IdMmMsg::Ident(x)) => *x,
                        other => unreachable!("round 0 expects Ident, got {other:?}"),
                    };
                    self.slots[q].their_id = theirs;
                    // Out-edges point to strictly lower identifiers; the
                    // rank among them is the forest index.
                    if theirs < self.id {
                        self.slots[out_degree].parent = q as u32;
                        out_degree += 1;
                    }
                }
                self.out_degree = out_degree;
                None
            }
            Phase::ColeVishkin { handshake } => {
                if handshake {
                    for (port, m) in self.slots.iter_mut().zip(inbox) {
                        port.child_forest = match m {
                            Some(IdMmMsg::Forest(f)) => Some(*f),
                            _ => None,
                        };
                    }
                }
                // The out-edge of rank f leads to the parent in forest f,
                // which sent its colour in that forest.
                for forest in &mut self.slots[..self.out_degree] {
                    let p = match inbox[forest.parent as usize] {
                        Some(IdMmMsg::Color(p)) => p,
                        other => unreachable!("CV round expects Color, got {other:?}"),
                    };
                    forest.color = Self::cv_step(forest.color, p);
                }
                // Forest roots (no out-edge of that index): fold against a
                // pseudo-parent that differs in the lowest bit.
                self.root_color = Self::cv_step(self.root_color, self.root_color ^ 1);
                None
            }
            Phase::Propose { .. } => {
                let mut delivered = false;
                for (port, m) in self.slots.iter_mut().zip(inbox) {
                    delivered |= m.is_some();
                    port.incoming = *m == Some(IdMmMsg::Propose);
                }
                // Silence on every port: every neighbour has halted.
                (!delivered).then(|| self.output())
            }
            Phase::Respond => {
                if let Some(q) = self.pending.take() {
                    if inbox[q] == Some(IdMmMsg::Response(true)) {
                        self.matched_port = Some(q);
                    }
                }
                let done = self.matched_port.is_some()
                    || inbox.iter().all(Option::is_none)
                    || round + 1 == id_matching_rounds(self.delta);
                done.then(|| self.output())
            }
        }
    }
}

/// Runs the identifier-model maximal matching on `g` with the given
/// unique identifiers.
///
/// # Errors
///
/// Propagates simulator errors (none occur for distinct identifiers and
/// `max_degree(g) <= delta`).
///
/// # Panics
///
/// Panics if `ids` has the wrong length or contains duplicates.
pub fn id_matching_distributed(
    g: &PortNumberedGraph,
    delta: usize,
    ids: &[u64],
) -> Result<Vec<EdgeId>, RuntimeError> {
    assert_eq!(ids.len(), g.node_count(), "one identifier per node");
    {
        let mut sorted = ids.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len(), "identifiers must be unique");
    }
    let run =
        Simulator::new(g).run(|v, degree| IdMatchingNode::new(delta, degree, ids[v.index()]))?;
    pn_runtime::edge_set_from_outputs(g, &run.outputs)
}

/// The node before the forest-index handshake and the halting rule —
/// every Cole–Vishkin round sends the whole colour vector on every port,
/// and every node runs the whole budget — kept verbatim as the oracle
/// whose outputs the word-sized, halting node must match run for run.
#[cfg(test)]
mod reference {
    use super::{id_matching_rounds, schedule, IdMatchingNode, Phase};
    use pn_runtime::{NodeAlgorithm, PortSet};

    /// The reference node's messages: [`super::IdMmMsg`] with a colour
    /// vector in place of the handshake and the single colour.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub(super) enum VectorMsg {
        Ident(u64),
        Colors(Vec<u64>),
        Propose,
        Response(bool),
        Nothing,
    }

    #[derive(Clone, Debug)]
    pub(super) struct VectorNode {
        delta: usize,
        degree: usize,
        id: u64,
        their_id: Vec<u64>,
        out_ports: Vec<usize>,
        colors: Vec<u64>,
        matched: bool,
        matched_port: Option<usize>,
        pending: Option<usize>,
        incoming: Vec<usize>,
    }

    impl VectorNode {
        pub(super) fn new(delta: usize, degree: usize, id: u64) -> Self {
            assert!(degree <= delta, "node degree exceeds Δ");
            VectorNode {
                delta,
                degree,
                id,
                their_id: vec![0; degree],
                out_ports: Vec::new(),
                colors: vec![id; delta.max(1)],
                matched: false,
                matched_port: None,
                pending: None,
                incoming: Vec::new(),
            }
        }
    }

    impl NodeAlgorithm for VectorNode {
        type Message = VectorMsg;
        type Output = PortSet;

        fn send_into(&mut self, round: usize, outbox: &mut [Option<VectorMsg>]) {
            match schedule(round) {
                Phase::Ident => outbox.fill(Some(VectorMsg::Ident(self.id))),
                Phase::ColeVishkin { .. } => {
                    outbox.fill(Some(VectorMsg::Colors(self.colors.clone())));
                }
                Phase::Propose { forest, color } => {
                    outbox.fill(Some(VectorMsg::Nothing));
                    self.pending = None;
                    if !self.matched && self.colors.get(forest) == Some(&color) {
                        if let Some(&port) = self.out_ports.get(forest) {
                            self.pending = Some(port);
                            outbox[port] = Some(VectorMsg::Propose);
                        }
                    }
                }
                Phase::Respond => {
                    outbox.fill(Some(VectorMsg::Nothing));
                    let incoming = std::mem::take(&mut self.incoming);
                    for &q in &incoming {
                        outbox[q] = Some(VectorMsg::Response(false));
                    }
                    if !self.matched {
                        if let Some(&best) = incoming.iter().min() {
                            outbox[best] = Some(VectorMsg::Response(true));
                            self.matched = true;
                            self.matched_port = Some(best);
                        }
                    }
                }
            }
        }

        fn receive(&mut self, round: usize, inbox: &[Option<VectorMsg>]) -> Option<PortSet> {
            if self.degree == 0 {
                return Some(PortSet::new());
            }
            match schedule(round) {
                Phase::Ident => {
                    for (q, m) in inbox.iter().enumerate() {
                        match m {
                            Some(VectorMsg::Ident(x)) => self.their_id[q] = *x,
                            other => unreachable!("round 0 expects Ident, got {other:?}"),
                        }
                    }
                    self.out_ports = (0..self.degree)
                        .filter(|&q| self.their_id[q] < self.id)
                        .collect();
                    None
                }
                Phase::ColeVishkin { .. } => {
                    let mut next = self.colors.clone();
                    for (f, &port) in self.out_ports.iter().enumerate() {
                        let parent_colors = match &inbox[port] {
                            Some(VectorMsg::Colors(v)) => v,
                            other => unreachable!("CV round expects Colors, got {other:?}"),
                        };
                        let p = parent_colors.get(f).copied().unwrap_or(0);
                        next[f] = IdMatchingNode::cv_step(self.colors[f], p);
                    }
                    for (f, slot) in next.iter_mut().enumerate().skip(self.out_ports.len()) {
                        let c = self.colors[f];
                        *slot = IdMatchingNode::cv_step(c, c ^ 1);
                    }
                    self.colors = next;
                    None
                }
                Phase::Propose { .. } => {
                    self.incoming.clear();
                    for (q, m) in inbox.iter().enumerate() {
                        if m == &Some(VectorMsg::Propose) {
                            self.incoming.push(q);
                        }
                    }
                    None
                }
                Phase::Respond => {
                    if let Some(q) = self.pending.take() {
                        if inbox[q] == Some(VectorMsg::Response(true)) {
                            self.matched = true;
                            self.matched_port = Some(q);
                        }
                    }
                    if round + 1 == id_matching_rounds(self.delta) {
                        let mut x = PortSet::new();
                        if let Some(q) = self.matched_port {
                            x.insert(pn_graph::Port::from_index(q));
                        }
                        Some(x)
                    } else {
                        None
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mmm::is_maximal_matching;
    use pn_graph::{generators, ports};

    fn check(g: &pn_graph::SimpleGraph, seed: u64) {
        let pg = ports::shuffled_ports(g, seed).unwrap();
        let delta = pg.max_degree();
        let ids: Vec<u64> = (0..g.node_count() as u64).map(|i| i * 7 + 3).collect();
        let edges = id_matching_distributed(&pg, delta, &ids).unwrap();
        let simple = pg.to_simple().unwrap();
        assert!(
            is_maximal_matching(&simple, &edges),
            "not a maximal matching"
        );
    }

    #[test]
    fn maximal_on_classic_graphs() {
        check(&generators::petersen(), 1);
        check(&generators::complete(6).unwrap(), 2);
        check(&generators::cycle(9).unwrap(), 3);
        check(&generators::grid(4, 4).unwrap(), 4);
        check(&generators::star(7).unwrap(), 5);
        check(&generators::hypercube(4).unwrap(), 6);
    }

    #[test]
    fn maximal_on_random_graphs() {
        for seed in 0..8 {
            let g = generators::gnp(16, 0.3, seed).unwrap();
            if g.is_edgeless() {
                continue;
            }
            check(&g, seed);
        }
    }

    #[test]
    fn round_count_formula() {
        // The cap: the identifier round, 12 Cole–Vishkin rounds, and a
        // propose and a respond round for each of 6 colours in each of
        // the Δ forests.
        assert_eq!(id_matching_rounds(4), 1 + 12 + 4 * 6 * 2);
        let g = generators::random_regular(12, 4, 9).unwrap();
        let pg = ports::shuffled_ports(&g, 9).unwrap();
        let ids: Vec<u64> = (0..12u64).collect();
        let run = Simulator::new(&pg)
            .run(|v, d| IdMatchingNode::new(4, d, ids[v.index()]))
            .unwrap();
        // Every node halts once its output is final, 20 rounds short of
        // the cap on this instance.
        assert!(run.rounds <= id_matching_rounds(4));
        assert_eq!(run.rounds, 41);
    }

    /// Adversarial identifiers for an 8-cycle: huge, consecutive,
    /// bit-patterned.
    fn adversarial_cycle_ids() -> [Vec<u64>; 3] {
        [
            (0..8u64).map(|i| u64::MAX - i).collect(),
            (0..8u64).map(|i| i << 60 | i).collect(),
            vec![5, 2, 9, 1, 7, 3, 8, 4],
        ]
    }

    #[test]
    fn identifier_values_do_not_break_it() {
        let g = generators::cycle(8).unwrap();
        let pg = ports::canonical_ports(&g).unwrap();
        for ids in adversarial_cycle_ids() {
            let edges = id_matching_distributed(&pg, 2, &ids).unwrap();
            assert!(is_maximal_matching(&pg.to_simple().unwrap(), &edges));
        }
    }

    #[test]
    fn cv_step_properties() {
        // Proper colourings stay proper: if c != p then step(c, x) for
        // the same parent chain differs from the parent's own step.
        let pairs = [(0b1010u64, 0b1000u64), (7, 1), (u64::MAX, 0), (13, 12)];
        for (c, p) in pairs {
            let s = IdMatchingNode::cv_step(c, p);
            assert!(s <= 2 * 63 + 1);
            // Re-stepping with the parent's own next colour keeps them
            // distinct (the CV invariant) for a concrete grandparent.
            let gp = p ^ 0b100;
            let sp = IdMatchingNode::cv_step(p, gp);
            if s == sp {
                panic!("CV step collided: c={c}, p={p}");
            }
        }
    }

    #[test]
    fn a_claimed_delta_far_above_the_degree_is_cheap() {
        // A caller may claim any Δ. A node allocates one slot per port,
        // and nodes halt once their outputs are final, so a claimed Δ of
        // 2^20 on the Petersen graph costs neither memory nor rounds.
        let delta = 1 << 20;
        assert_eq!(IdMatchingNode::new(delta, 3, 7).slots.len(), 3);
        let pg = ports::shuffled_ports(&generators::petersen(), 3).unwrap();
        let run_with = |delta| {
            Simulator::new(&pg)
                .run(|v, d| IdMatchingNode::new(delta, d, v.index() as u64 * 7 + 3))
                .unwrap()
        };
        let (claimed, tight) = (run_with(delta), run_with(3));
        assert_eq!(claimed.outputs, tight.outputs);
        assert_eq!(claimed.halted_at, tight.halted_at);
        assert_eq!(
            (claimed.rounds, claimed.messages),
            (tight.rounds, tight.messages)
        );
    }

    #[test]
    #[should_panic(expected = "unique")]
    fn duplicate_ids_rejected() {
        let g = ports::canonical_ports(&generators::path(3).unwrap()).unwrap();
        let _ = id_matching_distributed(&g, 2, &[1, 1, 2]);
    }

    /// A port-numbered multigraph with parallel edges, self-loops and
    /// half-loops: 1–4 port stubs per node, paired at random, a fifth of
    /// them fixed as half-loops.
    fn loopy_multigraph(n: usize, seed: u64) -> PortNumberedGraph {
        use pn_graph::{Endpoint, PnGraphBuilder, Port};
        use rand::seq::SliceRandom;
        use rand::{rngs::StdRng, Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = PnGraphBuilder::new();
        let mut stubs: Vec<Endpoint> = Vec::new();
        for _ in 0..n {
            let d = rng.gen_range(1usize..=4);
            let node = b.add_node(d);
            for p in 0..d {
                stubs.push(Endpoint::new(node, Port::from_index(p)));
            }
        }
        stubs.shuffle(&mut rng);
        while stubs.len() >= 2 {
            let a = stubs.pop().unwrap();
            if rng.gen_bool(0.2) {
                b.fix_point(a).unwrap();
                continue;
            }
            let c = stubs.pop().unwrap();
            b.connect(a, c).unwrap();
        }
        if let Some(last) = stubs.pop() {
            b.fix_point(last).unwrap();
        }
        b.finish().unwrap()
    }

    /// Unique identifiers for `n` nodes: the scenarios' affine map
    /// (which may wrap past `u64::MAX`), and scaled-up versions of the
    /// adversarial sets of `identifier_values_do_not_break_it` —
    /// descending from `u64::MAX`, high-bit patterned, and scrambled.
    fn identifier_sets(n: usize, salt: u64) -> Vec<Vec<u64>> {
        let n = n as u64;
        let offset = salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        vec![
            (0..n).map(|i| i.wrapping_add(offset)).collect(),
            (0..n).map(|i| u64::MAX - i).collect(),
            (0..n).map(|i| i << 60 | i).collect(),
            (0..n)
                .map(|i| i.wrapping_mul(0xbf58_476d_1ce4_e5b9) ^ salt)
                .collect(),
        ]
    }

    /// Message and round counts summed over a suite of runs, for the
    /// halting node and for the full-budget reference.
    #[derive(Debug, Default)]
    struct Totals {
        messages: usize,
        reference_messages: usize,
        rounds: usize,
        reference_rounds: usize,
    }

    /// The word-sized, halting node against the colour-vector reference,
    /// which runs every node for the whole budget, from the same fresh
    /// states: equal outputs, and no node halting later, no more rounds
    /// and no more messages than in the reference. Both sides' counts are
    /// added to `totals`.
    fn assert_matches_reference(
        pg: &PortNumberedGraph,
        delta: usize,
        ids: &[u64],
        what: &str,
        totals: &mut Totals,
    ) {
        use super::reference::VectorNode;
        let run = Simulator::new(pg)
            .run(|v, d| IdMatchingNode::new(delta, d, ids[v.index()]))
            .unwrap();
        let reference = Simulator::new(pg)
            .run(|v, d| VectorNode::new(delta, d, ids[v.index()]))
            .unwrap();
        let what = format!("{what} Δ={delta}");
        assert_eq!(run.outputs, reference.outputs, "{what}");
        for (v, (at, cap)) in run.halted_at.iter().zip(&reference.halted_at).enumerate() {
            assert!(at <= cap, "{what}: node {v} halted at {at}, after {cap}");
        }
        assert!(run.rounds <= reference.rounds, "{what}");
        assert!(run.messages <= reference.messages, "{what}");
        totals.messages += run.messages;
        totals.reference_messages += reference.messages;
        totals.rounds += run.rounds;
        totals.reference_rounds += reference.rounds;
    }

    #[test]
    fn word_sized_node_matches_the_colour_vector_reference() {
        let mut instances = 0;
        let mut totals = Totals::default();
        for salt in 0..8u64 {
            let families = [
                (
                    "bounded-degree-40-D4",
                    generators::random_bounded_degree(40, 4, 0.8, salt).unwrap(),
                ),
                ("gnp-30", generators::gnp(30, 0.15, salt).unwrap()),
                ("cubic-24", generators::random_regular(24, 3, salt).unwrap()),
                (
                    "5-regular-30",
                    generators::random_regular(30, 5, salt).unwrap(),
                ),
                (
                    "pa-40",
                    generators::preferential_attachment(40, 2, salt).unwrap(),
                ),
                ("cycle-8", generators::cycle(8).unwrap()),
            ];
            for (name, g) in families {
                for shuffled in [false, true] {
                    let pg = if shuffled {
                        ports::shuffled_ports(&g, salt).unwrap()
                    } else {
                        ports::canonical_ports(&g).unwrap()
                    };
                    // The true maximum degree, and a claimed Δ above it.
                    let max = pg.max_degree();
                    for delta in [max, max + 1 + salt as usize % 3] {
                        for (i, ids) in identifier_sets(pg.node_count(), salt).iter().enumerate() {
                            let what = format!("{name} shuffled={shuffled} salt={salt} ids#{i}");
                            assert_matches_reference(&pg, delta, ids, &what, &mut totals);
                            instances += 1;
                        }
                    }
                }
            }
            for n in [1, 2, 7, 23] {
                let pg = loopy_multigraph(n, salt * 31 + n as u64);
                let max = pg.max_degree();
                for delta in [max, max + 2] {
                    for (i, ids) in identifier_sets(n, salt).iter().enumerate() {
                        let what = format!("loopy-multigraph-{n} salt={salt} ids#{i}");
                        assert_matches_reference(&pg, delta, ids, &what, &mut totals);
                        instances += 1;
                    }
                }
            }
        }
        // The literal adversarial sets, on the cycle they were written for.
        let pg = ports::canonical_ports(&generators::cycle(8).unwrap()).unwrap();
        for (i, ids) in adversarial_cycle_ids().iter().enumerate() {
            let what = format!("cycle-8 adversarial #{i}");
            assert_matches_reference(&pg, 2, ids, &what, &mut totals);
            instances += 1;
        }
        assert_eq!(instances, 8 * (6 * 2 * 2 * 4 + 4 * 2 * 4) + 3);
        // Halting once the output is final saves most of the matching
        // rounds' fillers.
        assert!(
            3 * totals.messages < totals.reference_messages,
            "halting saved too little: {totals:?}"
        );
    }
}
