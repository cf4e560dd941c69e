//! Message-passing implementations of the paper's algorithms on the
//! [`pn_runtime`] simulator.
//!
//! Every algorithm here is a genuine port-numbering-model protocol: node
//! state is initialised from the degree (plus the family parameter `Δ`
//! where applicable), all information travels through messages, and the
//! round schedule, a cap for Theorem 4 and `A(Δ)`, is a function of
//! `d`/`Δ` only — never of `n`. The implementations are *differentially tested* against
//! the centralised references in [`crate::port_one`],
//! [`crate::regular_odd`] and [`crate::bounded_degree`]: they must
//! produce identical edge sets on every input.
//!
//! | Protocol | Paper | Rounds |
//! |---|---|---|
//! | [`crate::port_one::PortOneNode`] | Theorem 3 | `1` |
//! | [`RegularOddNode`] | Theorem 4 | at most `2 + 2d²`: nodes halt once their `D`-edges are final, within [`regular_odd_rounds`] |
//! | [`BoundedDegreeNode`] | Theorem 5 | at most `O(Δ²)`: nodes halt once their output is final, within [`bounded_schedule_length`] |

mod bounded_node;
mod common;
mod regular_odd_node;

pub use bounded_node::{
    bounded_degree_distributed, bounded_schedule_length, BoundedDegreeNode, BoundedMsg,
};
pub use common::dn_port_index;
pub use regular_odd_node::{
    regular_odd_distributed, regular_odd_rounds, RegOddMsg, RegularOddNode,
};
