//! A randomised distributed maximal matching — the "what if we allow
//! randomness?" counterpoint to the paper's deterministic model.
//!
//! The paper studies *deterministic* algorithms, where anonymous
//! symmetry is unbreakable (Theorems 1–2). Randomness breaks it cheaply:
//! in the style of Israeli–Itai, each phase every unmatched node flips a
//! coin to act as a **proposer** or an **acceptor**; proposers offer to
//! a uniformly random free neighbour, acceptors take a random incoming
//! offer, and matched pairs retire. The role split keeps every node on
//! at most one new edge per phase; a constant fraction of the remaining
//! edges disappears per phase in expectation, so `O(log n)` phases
//! suffice with high probability.
//!
//! # Halting
//!
//! The phase count ([`randomized_matching_phases`]) is a cap, not a
//! schedule. A node halts with its current output as soon as it is done:
//!
//! * once it is matched, at the end of the respond round where it
//!   matches;
//! * once a status round shows it no free neighbour.
//!
//! A halted node sends nothing, and its neighbours read the `None` it
//! leaves on a status round as "not free". This cannot change the
//! matching. A matched node stays matched. A node that halts unmatched
//! has only matched neighbours: a free neighbour would still be running
//! and would have announced itself on that status round. So no running
//! node would ever propose to a halted node or accept it, and every node
//! outputs exactly what the full budget would give it. Only the run's
//! `rounds` (the round in which the last node halts) and `messages`
//! fall.
//!
//! The protocol is implemented as a [`NodeAlgorithm`] whose nodes are
//! seeded by the [`Simulator::run`] factory, which looks each node's
//! seed up by its id — the seeds are the *only* symmetry break: no
//! identifiers, no port-numbering tricks. For a fixed seed assignment
//! the execution is fully deterministic and reproducible.

use pn_graph::{EdgeId, Port, PortNumberedGraph};
use pn_runtime::{NodeAlgorithm, PortSet, RuntimeError, Simulator};

/// Messages of the randomised matching protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RandMmMsg {
    /// Whether the sender is still unmatched: sent on every port at each
    /// status round by every running node. A halted node sends nothing,
    /// which its neighbours read as `Free(false)`.
    Free(bool),
    /// A proposal (propose rounds).
    Propose,
    /// Answer to a proposal (respond rounds).
    Response(bool),
    /// Filler.
    Nothing,
}

/// Node state machine for the randomised matching.
#[derive(Clone, Debug)]
pub struct RandMatchingNode {
    degree: usize,
    rng: u64,
    phases: usize,
    matched_port: Option<usize>,
    /// This phase's coin flip: `true` = proposer, `false` = acceptor.
    proposer_role: bool,
    neighbor_free: Vec<bool>,
    pending: Option<usize>,
    incoming: Vec<usize>,
}

impl RandMatchingNode {
    /// Creates the state machine: `degree` ports, a per-node random
    /// `seed`, and the cap on proposal `phases` (callers use `O(log n)`;
    /// see [`randomized_matching_phases`]). The node halts before the
    /// cap once it is matched or has no free neighbour left.
    pub fn new(degree: usize, seed: u64, phases: usize) -> Self {
        RandMatchingNode {
            degree,
            rng: seed ^ 0x9e37_79b9_7f4a_7c15,
            phases,
            matched_port: None,
            proposer_role: false,
            neighbor_free: vec![true; degree],
            pending: None,
            incoming: Vec::new(),
        }
    }

    /// xorshift64* step.
    fn next_rand(&mut self) -> u64 {
        let mut x = self.rng.max(1);
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// The cap on phases (status + propose + respond triples): enough for
/// maximality with overwhelming probability on `n`-node graphs. Nodes
/// halt as soon as they are done, so a run usually ends well before it.
pub fn randomized_matching_phases(n: usize) -> usize {
    8 * (usize::BITS - n.max(2).leading_zeros()) as usize + 16
}

/// The round cap for a given phase count: no node runs past it.
pub fn randomized_matching_rounds(phases: usize) -> usize {
    3 * phases
}

impl NodeAlgorithm for RandMatchingNode {
    type Message = RandMmMsg;
    type Output = PortSet;

    fn send_into(&mut self, round: usize, outbox: &mut [Option<RandMmMsg>]) {
        let d = self.degree;
        match round % 3 {
            0 => {
                // New phase: flip the proposer/acceptor coin.
                self.proposer_role = self.next_rand() & 1 == 1;
                // A node matches only in the respond round in which it
                // halts, so every running node is free.
                outbox.fill(Some(RandMmMsg::Free(true)));
            }
            1 => {
                // Proposers offer to a uniformly random free neighbour.
                outbox.fill(Some(RandMmMsg::Nothing));
                self.pending = None;
                if self.proposer_role {
                    let free_count = self.neighbor_free.iter().filter(|&&f| f).count();
                    if free_count > 0 {
                        let pick = (self.next_rand() % free_count as u64) as usize;
                        let q = (0..d)
                            .filter(|&q| self.neighbor_free[q])
                            .nth(pick)
                            .expect("pick < free_count");
                        self.pending = Some(q);
                        outbox[q] = Some(RandMmMsg::Propose);
                    }
                }
            }
            _ => {
                outbox.fill(Some(RandMmMsg::Nothing));
                let incoming = std::mem::take(&mut self.incoming);
                for &q in &incoming {
                    outbox[q] = Some(RandMmMsg::Response(false));
                }
                // Only acceptors take an offer; proposers reject all, so
                // no node can end the phase on two new edges.
                if !self.proposer_role && !incoming.is_empty() {
                    let q = incoming[(self.next_rand() % incoming.len() as u64) as usize];
                    outbox[q] = Some(RandMmMsg::Response(true));
                    self.matched_port = Some(q);
                }
            }
        }
    }

    fn receive(&mut self, round: usize, inbox: &[Option<RandMmMsg>]) -> Option<PortSet> {
        if self.degree == 0 {
            return Some(PortSet::new());
        }
        let done = match round % 3 {
            0 => {
                // A halted neighbour's `None` reads as "not free": it is
                // matched, or all its neighbours are.
                for (free, m) in self.neighbor_free.iter_mut().zip(inbox) {
                    *free = *m == Some(RandMmMsg::Free(true));
                }
                !self.neighbor_free.contains(&true)
            }
            1 => {
                self.incoming.clear();
                for (q, m) in inbox.iter().enumerate() {
                    if m == &Some(RandMmMsg::Propose) {
                        self.incoming.push(q);
                    }
                }
                false
            }
            _ => {
                if let Some(q) = self.pending.take() {
                    if inbox[q] == Some(RandMmMsg::Response(true)) {
                        self.matched_port = Some(q);
                    }
                }
                self.matched_port.is_some() || round + 1 >= randomized_matching_rounds(self.phases)
            }
        };
        done.then(|| {
            let mut x = PortSet::new();
            if let Some(q) = self.matched_port {
                x.insert(Port::from_index(q));
            }
            x
        })
    }
}

/// Runs the randomised matching on `g` with per-node `seeds`, capped at
/// [`randomized_matching_phases`]`(n)` phases, and returns the matched
/// edges. Nodes halt as soon as they are matched or have no free
/// neighbour, so the run usually ends well before the cap.
///
/// The result is a matching by construction; it is maximal with
/// overwhelming probability (the property tests check maximality on
/// every sampled execution, with fixed seeds for reproducibility).
///
/// # Errors
///
/// Propagates simulator errors (none occur on valid inputs).
///
/// # Panics
///
/// Panics if `seeds.len()` differs from the node count.
pub fn randomized_matching_distributed(
    g: &PortNumberedGraph,
    seeds: &[u64],
) -> Result<Vec<EdgeId>, RuntimeError> {
    assert_eq!(seeds.len(), g.node_count(), "one seed per node");
    let phases = randomized_matching_phases(g.node_count());
    let run = Simulator::new(g)
        .run(|v, degree| RandMatchingNode::new(degree, seeds[v.index()], phases))?;
    pn_runtime::edge_set_from_outputs(g, &run.outputs)
}

/// The node before the halting rule — every node runs the whole phase
/// budget, and a `None` on a status round leaves the old flag standing —
/// kept verbatim as the oracle the halting node must match output for
/// output.
#[cfg(test)]
mod reference {
    use super::{randomized_matching_rounds, RandMmMsg};
    use pn_graph::Port;
    use pn_runtime::{NodeAlgorithm, PortSet};

    #[derive(Clone, Debug)]
    pub(super) struct FixedBudgetNode {
        degree: usize,
        rng: u64,
        phases: usize,
        matched: bool,
        matched_port: Option<usize>,
        proposer_role: bool,
        neighbor_free: Vec<bool>,
        pending: Option<usize>,
        incoming: Vec<usize>,
    }

    impl FixedBudgetNode {
        pub(super) fn new(degree: usize, seed: u64, phases: usize) -> Self {
            FixedBudgetNode {
                degree,
                rng: seed ^ 0x9e37_79b9_7f4a_7c15,
                phases,
                matched: false,
                matched_port: None,
                proposer_role: false,
                neighbor_free: vec![true; degree],
                pending: None,
                incoming: Vec::new(),
            }
        }

        fn next_rand(&mut self) -> u64 {
            let mut x = self.rng.max(1);
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.rng = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
    }

    impl NodeAlgorithm for FixedBudgetNode {
        type Message = RandMmMsg;
        type Output = PortSet;

        fn send_into(&mut self, round: usize, outbox: &mut [Option<RandMmMsg>]) {
            let d = self.degree;
            match round % 3 {
                0 => {
                    self.proposer_role = self.next_rand() & 1 == 1;
                    outbox.fill(Some(RandMmMsg::Free(!self.matched)));
                }
                1 => {
                    outbox.fill(Some(RandMmMsg::Nothing));
                    self.pending = None;
                    if !self.matched && self.proposer_role {
                        let free_count = self.neighbor_free.iter().filter(|&&f| f).count();
                        if free_count > 0 {
                            let pick = (self.next_rand() % free_count as u64) as usize;
                            let q = (0..d)
                                .filter(|&q| self.neighbor_free[q])
                                .nth(pick)
                                .expect("pick < free_count");
                            self.pending = Some(q);
                            outbox[q] = Some(RandMmMsg::Propose);
                        }
                    }
                }
                _ => {
                    outbox.fill(Some(RandMmMsg::Nothing));
                    let incoming = std::mem::take(&mut self.incoming);
                    for &q in &incoming {
                        outbox[q] = Some(RandMmMsg::Response(false));
                    }
                    if !self.matched && !self.proposer_role && !incoming.is_empty() {
                        let q = incoming[(self.next_rand() % incoming.len() as u64) as usize];
                        outbox[q] = Some(RandMmMsg::Response(true));
                        self.matched = true;
                        self.matched_port = Some(q);
                    }
                }
            }
        }

        fn receive(&mut self, round: usize, inbox: &[Option<RandMmMsg>]) -> Option<PortSet> {
            if self.degree == 0 {
                return Some(PortSet::new());
            }
            match round % 3 {
                0 => {
                    for (q, m) in inbox.iter().enumerate() {
                        if let Some(RandMmMsg::Free(f)) = m {
                            self.neighbor_free[q] = *f;
                        }
                    }
                    None
                }
                1 => {
                    self.incoming.clear();
                    for (q, m) in inbox.iter().enumerate() {
                        if m == &Some(RandMmMsg::Propose) {
                            self.incoming.push(q);
                        }
                    }
                    None
                }
                _ => {
                    if let Some(q) = self.pending.take() {
                        if inbox[q] == Some(RandMmMsg::Response(true)) {
                            self.matched = true;
                            self.matched_port = Some(q);
                        }
                    }
                    if round + 1 >= randomized_matching_rounds(self.phases) {
                        let mut x = PortSet::new();
                        if let Some(q) = self.matched_port {
                            x.insert(Port::from_index(q));
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

    fn seeds(n: usize, salt: u64) -> Vec<u64> {
        (0..n as u64)
            .map(|i| i.wrapping_mul(0x517c_c1b7_2722_0a95) ^ salt)
            .collect()
    }

    #[test]
    fn maximal_on_classic_graphs() {
        for (name, g) in [
            ("petersen", generators::petersen()),
            ("k6", generators::complete(6).unwrap()),
            ("cycle11", generators::cycle(11).unwrap()),
            ("grid5x5", generators::grid(5, 5).unwrap()),
            ("star8", generators::star(8).unwrap()),
        ] {
            let pg = ports::shuffled_ports(&g, 5).unwrap();
            let edges = randomized_matching_distributed(&pg, &seeds(g.node_count(), 42)).unwrap();
            assert!(
                is_maximal_matching(&pg.to_simple().unwrap(), &edges),
                "{name}"
            );
        }
    }

    #[test]
    fn maximal_on_random_graphs_many_seeds() {
        for salt in 0..10u64 {
            let g = generators::gnp(20, 0.25, salt).unwrap();
            if g.is_edgeless() {
                continue;
            }
            let pg = ports::shuffled_ports(&g, salt).unwrap();
            let edges = randomized_matching_distributed(&pg, &seeds(20, salt * 97 + 1)).unwrap();
            assert!(
                is_maximal_matching(&pg.to_simple().unwrap(), &edges),
                "salt {salt}"
            );
        }
    }

    #[test]
    fn breaks_symmetry_where_determinism_cannot() {
        // The symmetric cycle defeats every deterministic anonymous
        // algorithm (the paper's Theorem 1 machinery); random seeds break
        // it immediately.
        let mut b = pn_graph::PnGraphBuilder::new();
        let n = 8;
        for _ in 0..n {
            b.add_node(2);
        }
        for v in 0..n {
            b.connect(
                pn_graph::Endpoint::new(pn_graph::NodeId::new(v), Port::new(1)),
                pn_graph::Endpoint::new(pn_graph::NodeId::new((v + 1) % n), Port::new(2)),
            )
            .unwrap();
        }
        let pg = b.finish().unwrap();
        let edges = randomized_matching_distributed(&pg, &seeds(n, 7)).unwrap();
        let simple = pg.to_simple().unwrap();
        assert!(is_maximal_matching(&simple, &edges));
        // A *proper* nonempty subset: impossible deterministically.
        assert!(!edges.is_empty());
        assert!(edges.len() < pg.edge_count());
    }

    #[test]
    fn deterministic_for_fixed_seeds() {
        let g = generators::petersen();
        let pg = ports::shuffled_ports(&g, 1).unwrap();
        let s = seeds(10, 3);
        let a = randomized_matching_distributed(&pg, &s).unwrap();
        let b = randomized_matching_distributed(&pg, &s).unwrap();
        assert_eq!(a, b);
    }

    /// The halting node against the fixed-budget reference: the same
    /// output at every node, within the round cap and never more
    /// messages.
    #[test]
    fn halting_matches_the_fixed_budget_reference() {
        use super::reference::FixedBudgetNode;
        use pn_graph::SimpleGraph;

        let families = |salt: u64| -> Vec<(&'static str, SimpleGraph)> {
            vec![
                ("gnp-30", generators::gnp(30, 0.15, salt).unwrap()),
                ("gnp-60", generators::gnp(60, 0.06, salt).unwrap()),
                ("cubic-24", generators::random_regular(24, 3, salt).unwrap()),
                ("cubic-50", generators::random_regular(50, 3, salt).unwrap()),
                (
                    "5-regular-30",
                    generators::random_regular(30, 5, salt).unwrap(),
                ),
                (
                    "pa-40",
                    generators::preferential_attachment(40, 2, salt).unwrap(),
                ),
                ("tree-40", generators::random_tree(40, salt).unwrap()),
                (
                    "cycle",
                    generators::cycle(3 + (salt as usize % 17)).unwrap(),
                ),
                ("cycle-64", generators::cycle(64).unwrap()),
                ("petersen", generators::petersen()),
                ("grid-5x6", generators::grid(5, 6).unwrap()),
                ("grid-8x8", generators::grid(8, 8).unwrap()),
            ]
        };
        let (mut instances, mut halting_messages, mut budget_messages) = (0, 0, 0);
        for salt in 0..30u64 {
            for (name, g) in families(salt) {
                for shuffled in [false, true] {
                    let pg = if shuffled {
                        ports::shuffled_ports(&g, salt).unwrap()
                    } else {
                        ports::canonical_ports(&g).unwrap()
                    };
                    let n = pg.node_count();
                    let phases = randomized_matching_phases(n);
                    let s = seeds(n, salt * 1_000_003 + n as u64);
                    let what = format!("{name} shuffled={shuffled} salt={salt}");

                    let sim = Simulator::new(&pg);
                    let run = sim
                        .run(|v, d| RandMatchingNode::new(d, s[v.index()], phases))
                        .unwrap();
                    let reference = sim
                        .run(|v, d| FixedBudgetNode::new(d, s[v.index()], phases))
                        .unwrap();
                    assert_eq!(run.outputs, reference.outputs, "{what}");
                    assert!(run.rounds <= randomized_matching_rounds(phases), "{what}");
                    assert!(run.messages <= reference.messages, "{what}");
                    halting_messages += run.messages;
                    budget_messages += reference.messages;
                    instances += 1;
                }
            }
        }
        assert_eq!(instances, 720);
        // Halting pays: the instances above settle in a fraction of the
        // budget.
        assert!(
            halting_messages * 4 < budget_messages,
            "{halting_messages} vs {budget_messages} messages"
        );
    }

    #[test]
    fn phases_grow_logarithmically() {
        assert!(randomized_matching_phases(2) < randomized_matching_phases(1 << 20));
        let small = randomized_matching_phases(16);
        let large = randomized_matching_phases(16 * 1024);
        // 10 extra doublings -> 80 extra phases.
        assert_eq!(large - small, 8 * 10);
    }
}
