//! The node-algorithm abstraction for the port-numbering model.
//!
//! A deterministic distributed algorithm (paper Section 2.2) is a state
//! machine replicated at every node. Initially a node knows **only its own
//! degree** (and any parameters of the algorithm family, such as `Δ`). In
//! each synchronous round every running node
//!
//! 1. performs local computation and writes one message per port into a
//!    simulator-owned outbox ([`NodeAlgorithm::send_into`]), then
//! 2. receives one message per port and updates its state
//!    ([`NodeAlgorithm::receive`]), optionally halting with an output.
//!
//! The outbox has exactly one slot per port, so a node cannot send the
//! wrong number of messages, and the round loop allocates nothing. A
//! slot left `None` delivers nothing on that port. Messages from
//! already-halted neighbours arrive as `None` too, so a protocol whose
//! nodes halt at different rounds must give `None` a meaning, the one a
//! halted node's message would have had:
//!
//! * the randomised matching baseline reads it as "not free";
//! * the identifier-model matching reads it as "no proposal" in a
//!   propose round and as "not accepted" in a respond round;
//! * `A(Δ)` reads it as "covered" in a cover exchange, as "no proposal"
//!   in a propose round and as "refused" in a respond round;
//! * Theorem 4 reads it as "`D`-degree below 2" in Phase II, the only
//!   phase in which a neighbour can have halted before a round that
//!   involves it;
//! * the vertex cover reads it as "no proposal" in a propose round and
//!   as "not accepted" in a respond round.
//!
//! The port-one protocol halts every node in its one round, so it never
//! receives a halted neighbour's `None`.

/// The state machine run by every node.
///
/// Implementations must be deterministic: all the information a node may
/// use is its degree, the algorithm parameters captured at construction
/// time, and the messages received so far. This is what makes the
/// covering-map indistinguishability argument (paper Section 2.3) hold
/// exactly in this runtime.
pub trait NodeAlgorithm {
    /// The message type exchanged over links.
    type Message: Clone + std::fmt::Debug;
    /// The local output announced when the node halts.
    type Output: Clone + std::fmt::Debug;

    /// Writes the outgoing messages for this round into `outbox`, one
    /// slot per port in port order (index 0 = port 1; `outbox.len()`
    /// equals the node's degree). All slots are `None` on entry; a slot
    /// left `None` delivers nothing on that port (the neighbour receives
    /// `None`, exactly as from a halted node).
    fn send_into(&mut self, round: usize, outbox: &mut [Option<Self::Message>]);

    /// Consumes the incoming messages for this round (index 0 = port 1;
    /// `None` marks a halted neighbour). Returns `Some(output)` to halt.
    fn receive(&mut self, round: usize, inbox: &[Option<Self::Message>]) -> Option<Self::Output>;
}

/// A deterministic stream of 64-bit words: a SplitMix64 sequence seeded
/// with `entropy`. The churn runner draws its event schedules and audit
/// decisions from it, so the same seed always yields the same schedule
/// and churn runs stay bit-reproducible.
pub fn entropy_stream(entropy: u64) -> impl FnMut() -> u64 {
    let mut x = entropy;
    move || {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pn_graph::{generators, ports, NodeId};

    /// A one-round algorithm: every node outputs what its factory saw.
    struct Announce {
        id: usize,
        degree: usize,
    }

    impl NodeAlgorithm for Announce {
        type Message = ();
        type Output = (usize, usize);

        fn send_into(&mut self, _round: usize, outbox: &mut [Option<()>]) {
            outbox.fill(Some(()));
        }

        fn receive(&mut self, _round: usize, _inbox: &[Option<()>]) -> Option<(usize, usize)> {
            Some((self.id, self.degree))
        }
    }

    #[test]
    fn closures_are_factories() {
        // Any `Fn(NodeId, usize) -> A` builds the node states: it is
        // handed every node's id and degree.
        let g = ports::canonical_ports(&generators::star(3).unwrap()).unwrap();
        let run = crate::Simulator::new(&g)
            .run(|v: NodeId, d| Announce {
                id: v.index(),
                degree: d,
            })
            .unwrap();
        assert_eq!(run.outputs, vec![(0, 3), (1, 1), (2, 1), (3, 1)]);
    }
}
