//! Error types for simulator runs.

use std::error::Error;
use std::fmt;

use pn_graph::{NodeId, Port};

/// Errors produced while executing a distributed algorithm.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum RuntimeError {
    /// The round limit was reached before every node halted.
    RoundLimitExceeded {
        /// The configured limit.
        limit: usize,
        /// Number of nodes still running.
        still_running: usize,
    },
    /// A port-set output is not internally consistent: `i ∈ X(v)` with
    /// `p(v, i) = (u, j)` requires `j ∈ X(u)` (paper Section 2.2).
    InconsistentOutput {
        /// The selecting endpoint's node.
        node: NodeId,
        /// The selecting endpoint's port.
        port: Port,
        /// The counterpart node that did not select the edge.
        counterpart: NodeId,
        /// The counterpart port missing from the output.
        counterpart_port: Port,
    },
    /// The run was aborted between rounds by a
    /// [`CancelToken`](crate::CancelToken) — a caller-requested
    /// cancellation or an expired deadline.
    Cancelled {
        /// Rounds fully executed before cancellation was observed.
        after_rounds: usize,
        /// Number of nodes still running at the abort point.
        still_running: usize,
    },
    /// An output referenced a port beyond the node's degree.
    OutputPortOutOfRange {
        /// The offending node.
        node: NodeId,
        /// The out-of-range port.
        port: Port,
        /// The node's degree.
        degree: usize,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::RoundLimitExceeded {
                limit,
                still_running,
            } => write!(
                f,
                "round limit {limit} exceeded with {still_running} nodes still running"
            ),
            RuntimeError::InconsistentOutput {
                node,
                port,
                counterpart,
                counterpart_port,
            } => write!(
                f,
                "output is inconsistent: node {node} selected port {port} but \
                 node {counterpart} did not select port {counterpart_port}"
            ),
            RuntimeError::Cancelled {
                after_rounds,
                still_running,
            } => write!(
                f,
                "run cancelled after {after_rounds} rounds with {still_running} nodes still running"
            ),
            RuntimeError::OutputPortOutOfRange { node, port, degree } => write!(
                f,
                "output of node {node} names port {port} beyond degree {degree}"
            ),
        }
    }
}

impl Error for RuntimeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = RuntimeError::RoundLimitExceeded {
            limit: 10,
            still_running: 3,
        };
        assert!(e.to_string().contains("10"));
        let e = RuntimeError::OutputPortOutOfRange {
            node: NodeId::new(2),
            port: Port::new(4),
            degree: 3,
        };
        assert!(e.to_string().contains("degree 3"));
    }
}
