//! Property checkers for edge dominating set algorithms.
//!
//! Every structural claim the paper makes about an edge set — "is an edge
//! dominating set", "is an edge cover", "is a (maximal) matching", "is a
//! `k`-matching", "is a star forest" — has an executable checker here
//! returning either `Ok(())` or a [`Violation`] with a concrete witness.
//! The checkers take any [`pn_graph::EdgeView`]: a `SimpleGraph`, or a
//! simple `PortNumberedGraph` read in place with the verdicts its
//! `to_simple()` projection would get.
//!
//! # Example
//!
//! ```
//! use pn_graph::generators;
//! use eds_verify::{check_edge_dominating_set, check_matching};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = generators::cycle(6)?;
//! let middle: Vec<_> = g.edges().map(|(e, _, _)| e).step_by(2).collect();
//! check_edge_dominating_set(&g, &middle)?;
//! check_matching(&g, &middle)?;
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod properties;

pub use properties::{
    check_edge_cover, check_edge_dominating_set, check_forest, check_k_matching, check_matching,
    check_maximal_matching, check_node_disjoint, check_paths_and_cycles, check_star_forest,
    Violation,
};
