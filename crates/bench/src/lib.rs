//! Benchmark harness and experiment drivers for the PODC 2010
//! reproduction.
//!
//! The binaries in `src/bin/` regenerate the paper's results: `table1`
//! (Table 1; exits non-zero on any ratio deviation), `lower_bounds`
//! (Figures 4–7), `figure8`, `figure9`, and `render_figures` (the
//! figures as Graphviz DOT). The extension experiments are
//! `ablation_ports`, `adversary_search`, `model_comparison`,
//! `random_ratio` and `round_complexity`. This library
//! holds the shared pieces: running a distributed protocol to an edge
//! set, and plain-text table rendering.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod report;

pub use report::Table;

use pn_graph::{EdgeId, PortNumberedGraph};

/// Runs a distributed `NodeAlgorithm` producing port sets and returns the
/// selected edges plus run statistics.
///
/// # Panics
///
/// Panics on simulator errors or inconsistent outputs — these indicate
/// bugs, not data-dependent failures.
pub fn run_distributed<A, F>(g: &PortNumberedGraph, factory: F) -> (Vec<EdgeId>, usize, usize)
where
    A: pn_runtime::NodeAlgorithm<Output = pn_runtime::PortSet>,
    F: Fn(pn_graph::NodeId, usize) -> A,
{
    let run = pn_runtime::Simulator::new(g)
        .run(factory)
        .expect("simulation succeeds on valid inputs");
    let edges = pn_runtime::edge_set_from_outputs(g, &run.outputs)
        .expect("algorithm outputs are internally consistent");
    (edges, run.rounds, run.messages)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_distributed_port_one() {
        let g = pn_graph::ports::canonical_ports(&pn_graph::generators::cycle(6).unwrap()).unwrap();
        let (edges, rounds, messages) =
            run_distributed(&g, |_, d| eds_core::port_one::PortOneNode::new(d));
        assert!(!edges.is_empty());
        assert_eq!(rounds, 1);
        assert_eq!(messages, 12);
    }
}
