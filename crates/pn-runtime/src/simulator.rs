//! The synchronous executor: a zero-allocation two-pass round engine.
//!
//! Per-round work is two passes over an **active-node frontier**. The
//! first fuses send and route: each node writes its messages into a
//! degree-sized scratch window, and each one is moved straight to the
//! flat per-port inbox slot it is routed to. The second delivers every
//! node's inbox window. All routing arithmetic is precomputed at
//! [`Simulator`] construction into a flat slot permutation, so the
//! steady-state round loop performs no allocation, no hashing, and no
//! `Endpoint` arithmetic.

use pn_graph::{Endpoint, NodeId, Port, PortNumberedGraph};

use crate::algorithm::NodeAlgorithm;
use crate::metrics::RunFlush;
use crate::{CancelToken, RuntimeError};

/// Configuration for a simulation run.
#[derive(Clone, Copy, Debug)]
pub struct RunOptions {
    /// Abort with [`RuntimeError::RoundLimitExceeded`] if any node is
    /// still running after this many rounds. Defaults to 1,000,000.
    pub max_rounds: usize,
    /// Record a full [`crate::Trace`] of message deliveries and halts
    /// (costly; off by default).
    pub record_trace: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            max_rounds: 1_000_000,
            record_trace: false,
        }
    }
}

/// The result of a completed run: every node has halted.
#[derive(Clone, Debug)]
pub struct Run<O> {
    /// The output of each node, indexed by node.
    pub outputs: Vec<O>,
    /// The round in which each node halted (1-based count of executed
    /// rounds).
    pub halted_at: Vec<usize>,
    /// The running time: maximum of `halted_at` (0 for an empty graph).
    pub rounds: usize,
    /// Total number of messages delivered from running nodes.
    pub messages: usize,
    /// The execution transcript, if requested via
    /// [`RunOptions::record_trace`].
    pub trace: Option<crate::Trace>,
}

/// Deterministic synchronous simulator for one port-numbered graph.
///
/// Construction precomputes the **routing table**: a permutation of the
/// flat port-slot arena mapping each source slot to the slot of the port
/// it is wired to (`route[slot(e)] = slot(p(e))`). Because the port map
/// `p` is an involution, the table is its own inverse; routing a message
/// is one table lookup.
///
/// # Examples
///
/// Run a toy two-round "ping" algorithm on a cycle:
///
/// ```
/// use pn_graph::{generators, ports};
/// use pn_runtime::{NodeAlgorithm, Simulator};
///
/// struct Ping { got: usize }
/// impl NodeAlgorithm for Ping {
///     type Message = u64;
///     type Output = usize;
///     fn send_into(&mut self, _round: usize, outbox: &mut [Option<u64>]) {
///         outbox.fill(Some(7));
///     }
///     fn receive(&mut self, _round: usize, inbox: &[Option<u64>]) -> Option<usize> {
///         self.got = inbox.iter().flatten().count();
///         Some(self.got)
///     }
/// }
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = ports::canonical_ports(&generators::cycle(5)?)?;
/// let run = Simulator::new(&g).run(|_, _| Ping { got: 0 })?;
/// assert_eq!(run.rounds, 1);
/// assert!(run.outputs.iter().all(|&o| o == 2));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Simulator<'g> {
    graph: &'g PortNumberedGraph,
    options: RunOptions,
    /// `route[s]` is the flat slot receiving what source slot `s` sends:
    /// the precomputed image of the port involution over the slot arena.
    route: Vec<u32>,
    /// Polled between rounds when set; see [`Simulator::cancel_token`].
    cancel: Option<CancelToken>,
}

impl<'g> Simulator<'g> {
    /// Creates a simulator for `graph` with default options.
    pub fn new(graph: &'g PortNumberedGraph) -> Self {
        Self::with_options(graph, RunOptions::default())
    }

    /// Creates a simulator with explicit options.
    pub fn with_options(graph: &'g PortNumberedGraph, options: RunOptions) -> Self {
        let offsets = graph.slot_offsets();
        let route = graph
            .involution()
            .iter()
            .map(|to| {
                u32::try_from(offsets[to.node.index()] + to.port.index())
                    .expect("port count exceeds u32 range")
            })
            .collect();
        Simulator {
            graph,
            options,
            route,
            cancel: None,
        }
    }

    /// Installs a cooperative [`CancelToken`]: the round loop polls it
    /// between rounds and aborts with
    /// [`RuntimeError::Cancelled`] once it fires, so a caller-side
    /// timeout stops a run mid-solve instead of merely gating entry.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The graph this simulator executes on.
    pub fn graph(&self) -> &PortNumberedGraph {
        self.graph
    }

    /// The run options in effect.
    pub fn options(&self) -> &RunOptions {
        &self.options
    }

    /// The precomputed slot-routing permutation: `routing_table()[s]` is
    /// the destination slot of messages sent from source slot `s` (see
    /// [`pn_graph::PortNumberedGraph::slot_of`]). The table equals its own
    /// inverse because the port map is an involution.
    pub fn routing_table(&self) -> &[u32] {
        &self.route
    }

    /// Runs the algorithm built by `factory` at every node until all
    /// nodes halt.
    ///
    /// The factory receives each node's id and degree. Anonymous
    /// protocols, the port-numbering model proper, ignore the id;
    /// identifier-model baselines use it to look up their per-node
    /// inputs, which deliberately breaks the symmetry the model is about.
    ///
    /// The run executes on the calling thread. Parallelism belongs one
    /// level up, across independent runs: a sweep shards its (scenario,
    /// protocol) cells over worker threads, each running its own
    /// simulator.
    ///
    /// # Errors
    ///
    /// * [`RuntimeError::RoundLimitExceeded`] if the round limit is hit;
    /// * [`RuntimeError::Cancelled`] once an installed [`CancelToken`]
    ///   fires.
    pub fn run<A, F>(&self, factory: F) -> Result<Run<A::Output>, RuntimeError>
    where
        A: NodeAlgorithm,
        F: Fn(NodeId, usize) -> A,
    {
        let g = self.graph;
        let n = g.node_count();
        let offsets = g.slot_offsets();
        let route = &self.route;
        let mut states: Vec<Option<A>> = g.nodes().map(|v| Some(factory(v, g.degree(v)))).collect();
        let mut outputs: Vec<Option<A::Output>> = (0..n).map(|_| None).collect();
        let mut halted_at = vec![0usize; n];
        let mut messages = 0usize;
        let mut rounds = 0usize;
        let mut trace = self.options.record_trace.then(crate::Trace::new);
        // Per-run telemetry aggregate: plain locals in the loop, folded
        // into the global registry once on drop (any exit path).
        let mut stats = RunFlush::new();

        // Buffers allocated once: a scratch window as long as the largest
        // degree, drained after every send so it is all-`None` whenever a
        // node writes into it, and one flat per-port inbox. Invariant at
        // the top of every round: the inbox windows of all *running*
        // nodes are all-`None` (cleared in the receive phase). Halted
        // nodes' windows may hold stale values; nothing reads them.
        let mut window: Vec<Option<A::Message>> = (0..g.max_degree()).map(|_| None).collect();
        let mut inbox: Vec<Option<A::Message>> = (0..g.port_count()).map(|_| None).collect();

        // Active-node frontier, ascending; compacted in place as nodes
        // halt so a halted node costs nothing in later rounds.
        let mut frontier: Vec<u32> = (0..n as u32).collect();

        while !frontier.is_empty() {
            if rounds >= self.options.max_rounds {
                return Err(RuntimeError::RoundLimitExceeded {
                    limit: self.options.max_rounds,
                    still_running: frontier.len(),
                });
            }
            if let Some(cancel) = &self.cancel {
                if cancel.check() {
                    return Err(RuntimeError::Cancelled {
                        after_rounds: rounds,
                        still_running: frontier.len(),
                    });
                }
            }
            stats.frontier.observe(frontier.len() as u64);

            // ---- Send + route (fused): every active node writes the
            // scratch window, and each message is moved through the
            // routing table while the window is hot. No node reads its
            // inbox before the receive phase, so routing early changes
            // nothing. ----
            for &vu in &frontier {
                let v = vu as usize;
                let base = offsets[v];
                let out = &mut window[..g.degree(NodeId::new(v))];
                let state = states[v].as_mut().expect("frontier nodes are running");
                state.send_into(rounds, out);
                // Untraced runs test the trace flag once per node, not
                // once per message.
                let Some(t) = trace.as_mut() else {
                    for (slot, &to) in out.iter_mut().zip(&route[base..]) {
                        if let Some(m) = slot.take() {
                            inbox[to as usize] = Some(m);
                            messages += 1;
                        }
                    }
                    continue;
                };
                for (i, slot) in out.iter_mut().enumerate() {
                    if let Some(m) = slot.take() {
                        let s = base + i;
                        t.messages.push(crate::MessageEvent {
                            round: rounds,
                            from: Endpoint::new(NodeId::new(v), Port::from_index(i)),
                            to: g.involution()[s],
                            message: format!("{m:?}"),
                        });
                        inbox[route[s] as usize] = Some(m);
                        messages += 1;
                    }
                }
            }

            // ---- Receive phase: deliver windows, compact the frontier. ----
            let mut write = 0usize;
            for read in 0..frontier.len() {
                let vu = frontier[read];
                let v = vu as usize;
                let base = offsets[v];
                let d = g.degree(NodeId::new(v));
                let state = states[v].as_mut().expect("frontier nodes are running");
                let window = &mut inbox[base..base + d];
                let decision = state.receive(rounds, window);
                for slot in window.iter_mut() {
                    *slot = None;
                }
                match decision {
                    Some(out) => {
                        if let Some(t) = trace.as_mut() {
                            t.halts.push(crate::HaltEvent {
                                round: rounds,
                                node: NodeId::new(v),
                                output: format!("{out:?}"),
                            });
                        }
                        outputs[v] = Some(out);
                        halted_at[v] = rounds + 1;
                        states[v] = None;
                    }
                    None => {
                        frontier[write] = vu;
                        write += 1;
                    }
                }
            }
            frontier.truncate(write);
            rounds += 1;
            stats.rounds = rounds as u64;
            stats.messages = messages as u64;
        }

        Ok(Run {
            outputs: outputs
                .into_iter()
                .map(|o| o.expect("all nodes halted"))
                .collect(),
            rounds: halted_at.iter().copied().max().unwrap_or(0),
            halted_at,
            messages,
            trace,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeAlgorithm;
    use pn_graph::{generators, ports, PnGraphBuilder, Port};

    /// Flood the minimum of an initial per-degree token for `t` rounds.
    struct MinFlood {
        value: u64,
        rounds_left: usize,
    }

    impl NodeAlgorithm for MinFlood {
        type Message = u64;
        type Output = u64;

        fn send_into(&mut self, _round: usize, outbox: &mut [Option<u64>]) {
            outbox.fill(Some(self.value));
        }

        fn receive(&mut self, _round: usize, inbox: &[Option<u64>]) -> Option<u64> {
            for m in inbox.iter().flatten() {
                self.value = self.value.min(*m);
            }
            self.rounds_left -= 1;
            if self.rounds_left == 0 {
                Some(self.value)
            } else {
                None
            }
        }
    }

    #[test]
    fn min_flood_converges_on_path() {
        // Degrees on a path: endpoints 1, middle 2. Min value = 1.
        let g = ports::canonical_ports(&generators::path(6).unwrap()).unwrap();
        let run = Simulator::new(&g)
            .run(|_, d| MinFlood {
                value: d as u64,
                rounds_left: 6,
            })
            .unwrap();
        assert_eq!(run.rounds, 6);
        assert!(run.outputs.iter().all(|&v| v == 1));
        // 2 * |E| messages per round while everyone runs.
        assert_eq!(run.messages, 6 * 2 * 5);
    }

    #[test]
    fn frontier_drops_halted_nodes() {
        // A star: the hub (degree 12) outlives every leaf by many rounds;
        // the frontier shrinks to a single node for most of the execution.
        let g = ports::canonical_ports(&generators::star(12).unwrap()).unwrap();
        let run = Simulator::new(&g)
            .run(|_, d| MinFlood {
                value: d as u64,
                rounds_left: d + 2,
            })
            .unwrap();
        // Leaves (degree 1) halt after round 3; the hub needs 14 rounds.
        assert_eq!(run.rounds, 14);
        assert_eq!(run.halted_at.iter().filter(|&&r| r == 3).count(), 12);
        // Three rounds of 24 messages, then the hub alone sends 12 a
        // round into its halted leaves for 11 more.
        assert_eq!(run.messages, 3 * 24 + 11 * 12);
    }

    #[test]
    fn isolated_nodes_keep_their_schedule() {
        // A degree-0 node has an empty port window: it still runs its
        // receive schedule, observing an empty inbox, and halts on time.
        // Nodes 0-2 form a triangle, 4-5 an edge; 3 and 6 are isolated.
        let mut g = pn_graph::SimpleGraph::new(7);
        for (u, v) in [(0, 1), (1, 2), (2, 0), (4, 5)] {
            g.add_edge_ids(u, v).unwrap();
        }
        let g = ports::canonical_ports(&g).unwrap();
        let run = Simulator::new(&g)
            .run(|_, d| MinFlood {
                value: d as u64,
                rounds_left: d + 2,
            })
            .unwrap();
        assert_eq!(run.halted_at, vec![4, 4, 4, 2, 3, 3, 2]);
    }

    #[test]
    fn round_limit_enforced() {
        struct Forever;
        impl NodeAlgorithm for Forever {
            type Message = ();
            type Output = ();
            fn send_into(&mut self, _round: usize, outbox: &mut [Option<()>]) {
                outbox.fill(Some(()));
            }
            fn receive(&mut self, _round: usize, _inbox: &[Option<()>]) -> Option<()> {
                None
            }
        }
        let g = ports::canonical_ports(&generators::cycle(3).unwrap()).unwrap();
        let sim = Simulator::with_options(
            &g,
            RunOptions {
                max_rounds: 5,
                ..RunOptions::default()
            },
        );
        let err = sim.run(|_, _| Forever).unwrap_err();
        assert!(matches!(
            err,
            RuntimeError::RoundLimitExceeded { limit: 5, .. }
        ));
    }

    #[test]
    fn half_loop_reflects_message() {
        // One node, one port, fixed point: the node receives its own
        // message back on the same port.
        struct Echo;
        impl NodeAlgorithm for Echo {
            type Message = u32;
            type Output = u32;
            fn send_into(&mut self, _round: usize, outbox: &mut [Option<u32>]) {
                outbox.fill(Some(41));
            }
            fn receive(&mut self, _round: usize, inbox: &[Option<u32>]) -> Option<u32> {
                Some(inbox[0].unwrap() + 1)
            }
        }
        let mut b = PnGraphBuilder::new();
        let x = b.add_node(1);
        b.fix_point(pn_graph::Endpoint::new(x, Port::new(1)))
            .unwrap();
        let g = b.finish().unwrap();
        let run = Simulator::new(&g).run(|_, _| Echo).unwrap();
        assert_eq!(run.outputs, vec![42]);
    }

    #[test]
    fn staggered_halting_delivers_none() {
        // Nodes halt after `degree` rounds; a degree-2 node sees None from
        // a degree-1 neighbour that halted earlier.
        struct Staggered {
            degree: usize,
            seen_none: bool,
            round_count: usize,
        }
        impl NodeAlgorithm for Staggered {
            type Message = u8;
            type Output = bool;
            fn send_into(&mut self, _round: usize, outbox: &mut [Option<u8>]) {
                outbox.fill(Some(0));
            }
            fn receive(&mut self, _round: usize, inbox: &[Option<u8>]) -> Option<bool> {
                if inbox.iter().any(Option::is_none) {
                    self.seen_none = true;
                }
                self.round_count += 1;
                if self.round_count >= self.degree {
                    Some(self.seen_none)
                } else {
                    None
                }
            }
        }
        let g = ports::canonical_ports(&generators::path(3).unwrap()).unwrap();
        let run = Simulator::new(&g)
            .run(|_, d| Staggered {
                degree: d,
                seen_none: false,
                round_count: 0,
            })
            .unwrap();
        // Endpoints (degree 1) halt in round 1 without seeing None; the
        // middle node (degree 2) runs a second round and sees None twice.
        assert_eq!(run.outputs, vec![false, true, false]);
        assert_eq!(run.halted_at, vec![1, 2, 1]);
        assert_eq!(run.rounds, 2);
    }

    #[test]
    fn trace_records_messages_and_halts() {
        let g = ports::canonical_ports(&generators::path(3).unwrap()).unwrap();
        let sim = Simulator::with_options(
            &g,
            RunOptions {
                record_trace: true,
                ..RunOptions::default()
            },
        );
        let run = sim
            .run(|_, d| MinFlood {
                value: d as u64,
                rounds_left: 2,
            })
            .unwrap();
        let trace = run.trace.expect("trace requested");
        // 2 rounds x 2|E| messages.
        assert_eq!(trace.message_count(), 2 * 2 * 2);
        assert_eq!(trace.halts.len(), 3);
        assert_eq!(trace.round_messages(0).count(), 4);
        let rendered = trace.render();
        assert!(rendered.contains("round 0:"));
        assert!(rendered.contains("halt"));
        // No trace without the flag.
        let run = Simulator::new(&g)
            .run(|_, d| MinFlood {
                value: d as u64,
                rounds_left: 2,
            })
            .unwrap();
        assert!(run.trace.is_none());
    }

    #[test]
    fn runs_are_deterministic() {
        let g = ports::shuffled_ports(&generators::petersen(), 3).unwrap();
        let factory = |_, d: usize| MinFlood {
            value: d as u64 * 17 % 5,
            rounds_left: 6,
        };
        let a = Simulator::new(&g).run(factory).unwrap();
        let b = Simulator::new(&g).run(factory).unwrap();
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.messages, b.messages);
    }

    #[test]
    fn empty_graph_runs_trivially() {
        let g = pn_graph::PortNumberedGraph::from_involution(vec![], vec![]).unwrap();
        struct Never;
        impl NodeAlgorithm for Never {
            type Message = ();
            type Output = ();
            fn send_into(&mut self, _r: usize, _outbox: &mut [Option<()>]) {
                unreachable!()
            }
            fn receive(&mut self, _r: usize, _i: &[Option<()>]) -> Option<()> {
                unreachable!()
            }
        }
        let run = Simulator::new(&g).run(|_, _| Never).unwrap();
        assert_eq!(run.rounds, 0);
        assert!(run.outputs.is_empty());
    }

    #[test]
    fn routing_table_is_an_involution() {
        let g = ports::shuffled_ports(&generators::petersen(), 9).unwrap();
        let sim = Simulator::new(&g);
        let route = sim.routing_table();
        assert_eq!(route.len(), g.port_count());
        for (s, &t) in route.iter().enumerate() {
            assert_eq!(route[t as usize] as usize, s, "route is its own inverse");
        }
        // Spot-check against the graph's involution.
        for v in g.nodes() {
            for p in g.ports(v) {
                let e = pn_graph::Endpoint::new(v, p);
                assert_eq!(
                    route[g.slot_of(e)] as usize,
                    g.slot_of(g.connection(e)),
                    "route agrees with connection() at {e}"
                );
            }
        }
    }

    #[test]
    fn native_send_into_may_leave_slots_empty() {
        // A node that only ever talks on its first port; the second port
        // delivers nothing, which the receiver observes as `None`.
        struct FirstPortOnly {
            got: Vec<bool>,
        }
        impl NodeAlgorithm for FirstPortOnly {
            type Message = u8;
            type Output = Vec<bool>;
            fn send_into(&mut self, _round: usize, outbox: &mut [Option<u8>]) {
                if let Some(first) = outbox.first_mut() {
                    *first = Some(1);
                }
            }
            fn receive(&mut self, _round: usize, inbox: &[Option<u8>]) -> Option<Vec<bool>> {
                self.got = inbox.iter().map(Option::is_some).collect();
                Some(self.got.clone())
            }
        }
        // Path a - b - c: the middle node hears only from the neighbour
        // whose port 1 points at it.
        let g = ports::canonical_ports(&generators::path(3).unwrap()).unwrap();
        let run = Simulator::new(&g)
            .run(|_, _| FirstPortOnly { got: Vec::new() })
            .unwrap();
        // Every delivered message was counted; silent ports were not.
        assert_eq!(
            run.messages,
            run.outputs.iter().flatten().filter(|&&b| b).count()
        );
    }
}
