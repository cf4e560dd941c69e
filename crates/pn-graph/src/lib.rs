//! Port-numbered graphs and the combinatorial substrate for anonymous
//! distributed computing.
//!
//! This crate implements the graph model of Suomela, *Distributed
//! Algorithms for Edge Dominating Sets* (PODC 2010), Section 2:
//!
//! * [`SimpleGraph`] and [`MultiGraph`] — plain undirected graphs with
//!   stable edge identifiers;
//! * [`PortNumberedGraph`] — nodes with degrees and an **involution** over
//!   ports, the input representation for algorithms in the port-numbering
//!   model;
//! * [`EdgeView`] — the edge list both graph types share, so checkers
//!   read a port-numbered graph without projecting it;
//! * [`ports`] — strategies for assigning port numbers to a simple graph,
//!   including the adversarial 2-factorised numbering of the paper's lower
//!   bounds;
//! * [`euler`] and [`factorization`] — Euler circuits and Petersen's
//!   2-factorisation theorem (every `2k`-regular multigraph splits into
//!   `k` 2-factors);
//! * [`covering`] — covering maps and lifts (Section 2.3), the engine of
//!   the lower-bound proofs;
//! * [`matching`] — centralised bipartite and greedy matchings;
//! * [`transform`] — line graphs, bipartite double covers, edge subgraphs;
//! * [`generators`] — classic and random graph families;
//! * [`analysis`] — connectivity, bipartiteness and degree statistics.
//!
//! # Example
//!
//! Build a 4-regular graph, give it the adversarial 2-factorised port
//! numbering, and inspect the wiring:
//!
//! ```
//! use pn_graph::{generators, ports, Endpoint, Port};
//! # fn main() -> Result<(), pn_graph::GraphError> {
//! let g = generators::torus(4, 4)?; // 4-regular
//! let pg = ports::two_factor_ports(&g)?;
//! // Every port 1 is wired to a port 2, every port 3 to a port 4.
//! for v in pg.nodes() {
//!     assert_eq!(pg.connection(Endpoint::new(v, Port::new(1))).port, Port::new(2));
//!     assert_eq!(pg.connection(Endpoint::new(v, Port::new(3))).port, Port::new(4));
//! }
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod covering;
pub mod dot;
pub mod dynamic;
mod error;
pub mod euler;
pub mod factorization;
pub mod generators;
mod ids;
pub mod io;
pub mod matching;
mod multi;
mod pn;
pub mod ports;
mod simple;
pub mod transform;
mod view;

pub use covering::CoveringMap;
pub use dynamic::DynamicTopology;
pub use error::GraphError;
pub use ids::{EdgeId, Endpoint, NodeId, Port};
pub use multi::MultiGraph;
pub use pn::{EdgeShape, PnGraphBuilder, PortNumberedGraph};
pub use simple::SimpleGraph;
pub use view::EdgeView;
