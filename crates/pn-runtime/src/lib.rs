//! Deterministic synchronous simulator for distributed algorithms in
//! anonymous port-numbered networks.
//!
//! This crate implements the model of computation of Suomela, *Distributed
//! Algorithms for Edge Dominating Sets* (PODC 2010), Section 2.2:
//! synchronous rounds, one message per port per round, no node
//! identifiers, nodes initially knowing only their own degree.
//!
//! * [`NodeAlgorithm`] — the per-node deterministic state machine;
//! * [`Simulator`] — executes an algorithm on a
//!   [`pn_graph::PortNumberedGraph`], routing messages through the port
//!   involution and counting rounds and messages;
//! * [`PortSet`], [`edge_set_from_outputs`] — the paper's output
//!   convention for edge subsets, with the internal-consistency check;
//! * [`fiber_agreement`] — executable covering-map indistinguishability.
//!
//! # The two-pass round engine
//!
//! [`Simulator::run`] is the one entry point. It builds every node's
//! state with a factory `Fn(NodeId, usize) -> A` (node id and degree;
//! anonymous protocols ignore the id) and executes a zero-allocation
//! round loop on the calling thread over one flat per-port inbox, laid
//! out in the graph's slot arena: node `v`'s ports occupy
//! the contiguous window starting at
//! [`pn_graph::PortNumberedGraph::slot_offsets`]`()[v]`. Each round is
//! two passes:
//!
//! 1. **Send + route** — every *active* node writes one message per port
//!    into a scratch window as long as the largest degree
//!    ([`NodeAlgorithm::send_into`]), and each message is moved at once
//!    to `inbox[route[s]]`, where `s` is its source slot and `route` is
//!    the **routing table** precomputed at [`Simulator`] construction
//!    (`route[slot(e)] = slot(p(e))`; it equals its own inverse because
//!    the port map `p` is an involution — see
//!    [`Simulator::routing_table`]). No `connection()` lookups or
//!    `Endpoint` arithmetic happen per round, and draining the window
//!    with `take` leaves it all-`None` for the next node. No node reads
//!    its inbox before the second pass, so routing while others are
//!    still sending changes nothing;
//! 2. **Receive** — every active node consumes its inbox window through
//!    [`NodeAlgorithm::receive`] and optionally halts with an output.
//!
//! Active nodes live on a **frontier** (a compact vector of still-running
//! node ids) that the receive phase compacts in place as nodes halt, so
//! a halted node costs *nothing* in later rounds — long-tail executions
//! where a few high-degree nodes outlive everyone else run at the cost
//! of the survivors, not of the graph.
//!
//! There is one engine and one parallelism axis: a run is sequential,
//! and callers parallelise across independent runs. A sweep shards its
//! (scenario, protocol) cells over threads, and a solver daemon hands
//! whole requests to a [`WorkerPool`].
//!
//! Execution transcripts ([`RunOptions::record_trace`]) are captured as
//! the engine routes; with tracing off (the default) the hot loop
//! formats nothing and tests one flag per node.
//!
//! A node sends by writing into its scratch window
//! ([`NodeAlgorithm::send_into`]), one slot per port, so the engine never
//! allocates per node per round and a node cannot send the wrong number
//! of messages. A slot left `None` delivers nothing on that port (the
//! peer receives `None`, as from a halted neighbour).
//!
//! # Example
//!
//! The "port-1" algorithm of Theorem 3 in 20 lines: every node selects
//! port 1 and any port whose counterpart announced itself as a port 1.
//!
//! ```
//! use pn_graph::{generators, ports, Port};
//! use pn_runtime::{edge_set_from_outputs, NodeAlgorithm, PortSet, Simulator};
//!
//! struct PortOne;
//! impl NodeAlgorithm for PortOne {
//!     type Message = bool; // "my end of this link is port 1"
//!     type Output = PortSet;
//!     fn send_into(&mut self, _r: usize, outbox: &mut [Option<bool>]) {
//!         for (i, slot) in outbox.iter_mut().enumerate() {
//!             *slot = Some(i == 0);
//!         }
//!     }
//!     fn receive(&mut self, _r: usize, inbox: &[Option<bool>]) -> Option<PortSet> {
//!         let mut x = PortSet::new();
//!         x.insert(Port::new(1));
//!         for (i, m) in inbox.iter().enumerate() {
//!             if m == &Some(true) {
//!                 x.insert(Port::from_index(i));
//!             }
//!         }
//!         Some(x)
//!     }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = ports::canonical_ports(&generators::cycle(6)?)?;
//! let run = Simulator::new(&g).run(|_, _| PortOne)?;
//! let edges = edge_set_from_outputs(&g, &run.outputs)?; // consistent!
//! assert!(!edges.is_empty());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod algorithm;
mod cancel;
mod churn;
mod error;
mod metrics;
mod output;
mod pool;
mod simulator;
mod trace;

pub use algorithm::{entropy_stream, NodeAlgorithm};
pub use cancel::CancelToken;
pub use churn::{ChurnError, ChurnEvent, ChurnSimulator, Epoch, EventSchedule};
pub use error::RuntimeError;
pub use output::{edge_set_from_outputs, fiber_agreement, outputs_from_edge_set, PortSet};
pub use pool::{SubmitError, WorkerPool};
pub use simulator::{Run, RunOptions, Simulator};
pub use trace::{HaltEvent, MessageEvent, Trace};
