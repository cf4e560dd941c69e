//! Centralised exact solvers and classical baselines for minimum edge
//! dominating sets.
//!
//! * [`exact`] — branch-and-bound exact minimum edge dominating set (the
//!   test oracle for all approximation-ratio experiments);
//! * [`mmm`] — branch-and-bound exact minimum maximal matching; by
//!   Yannakakis–Gavril it equals the minimum EDS, giving an independent
//!   cross-check of the exact solver;
//! * [`two_approx`] — the classical maximal-matching 2-approximation and
//!   the EDS → maximal-matching conversion;
//! * [`id_based`] — identifier-model baselines (the quality achievable by
//!   Hańćkowiak et al. / Panconesi–Rizzi style algorithms);
//! * [`weighted`] — the weighted variant (Section 1.2): exact
//!   minimum-weight EDS and a weight-aware greedy heuristic;
//! * [`distributed_mm`] — a genuinely distributed identifier-model
//!   maximal matching (Panconesi–Rizzi style: forest decomposition +
//!   Cole–Vishkin colouring, `O(Δ + log* n)` rounds). Its
//!   `1 + 12 + 12Δ`-round schedule is a cap: each node halts once it is
//!   matched or all its neighbours have halted;
//! * [`randomized_mm`] — a randomised distributed maximal matching
//!   (Israeli–Itai style, `O(log n)` rounds w.h.p.): what the paper's
//!   deterministic impossibilities cost relative to coin flips. Its
//!   `O(log n)` phase count is a cap: each node halts as soon as it is
//!   matched or has no free neighbour.
//!
//! # Example
//!
//! ```
//! use pn_graph::generators;
//! use eds_baselines::{exact, two_approx};
//! # fn main() -> Result<(), pn_graph::GraphError> {
//! let g = generators::petersen();
//! let opt = exact::minimum_edge_dominating_set(&g);
//! let approx = two_approx::two_approximation(&g);
//! assert!(approx.len() <= 2 * opt.len());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod distributed_mm;
pub mod exact;
pub mod id_based;
pub mod mmm;
pub mod randomized_mm;
pub mod two_approx;
pub mod weighted;
