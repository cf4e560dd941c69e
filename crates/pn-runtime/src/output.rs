//! Port-set outputs and the paper's internal-consistency requirement.
//!
//! When a distributed algorithm computes an edge dominating set (paper
//! Section 2.2), each node `v` outputs a set `X(v)` of its own port
//! numbers; the selected edge set is `{ {v, u} : i ∈ X(v), p(v,i) = (u,j) }`.
//! The output must be *internally consistent*: if `i ∈ X(v)` and
//! `p(v, i) = (u, j)`, then `j ∈ X(u)` — both endpoints agree on every
//! selected edge.

use std::collections::BTreeSet;
use std::fmt;

use pn_graph::{EdgeId, Endpoint, NodeId, Port, PortNumberedGraph};

use crate::RuntimeError;

/// The output of one node: the set `X(v)` of selected port numbers.
///
/// Ports 1 to 64 live in one inline word, so a set of them never
/// allocates; only a port above 64 spills into a heap-allocated ordered
/// set. `Debug` prints `PortSet { ports: {p1, p3} }`, ascending.
///
/// # Examples
///
/// ```
/// use pn_runtime::PortSet;
/// use pn_graph::Port;
/// let mut x = PortSet::new();
/// x.insert(Port::new(2));
/// assert!(x.contains(Port::new(2)));
/// assert!(!x.contains(Port::new(1)));
/// ```
#[derive(Clone, Default, PartialEq, Eq)]
pub struct PortSet {
    /// Bit `p - 1` is set when port `p ≤ 64` is selected.
    low: u64,
    /// The selected ports above 64; it allocates on the first insert.
    high: BTreeSet<Port>,
}

/// The ports the inline word holds.
const LOW_PORTS: u32 = u64::BITS;

impl PortSet {
    /// Creates an empty port set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a port; returns `true` if it was not already present.
    pub fn insert(&mut self, p: Port) -> bool {
        if p.get() <= LOW_PORTS {
            let bit = 1u64 << p.index();
            let fresh = self.low & bit == 0;
            self.low |= bit;
            fresh
        } else {
            self.high.insert(p)
        }
    }

    /// Returns `true` if the port is selected.
    pub fn contains(&self, p: Port) -> bool {
        if p.get() <= LOW_PORTS {
            self.low & 1u64 << p.index() != 0
        } else {
            self.high.contains(&p)
        }
    }

    /// Number of selected ports.
    pub fn len(&self) -> usize {
        self.low.count_ones() as usize + self.high.len()
    }

    /// Returns `true` if no port is selected.
    pub fn is_empty(&self) -> bool {
        self.low == 0 && self.high.is_empty()
    }

    /// Iterates over the selected ports in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = Port> + '_ {
        let mut low = self.low;
        std::iter::from_fn(move || {
            (low != 0).then(|| {
                let index = low.trailing_zeros() as usize;
                low &= low - 1;
                Port::from_index(index)
            })
        })
        .chain(self.high.iter().copied())
    }
}

impl fmt::Debug for PortSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Ports<'a>(&'a PortSet);
        impl fmt::Debug for Ports<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_set().entries(self.0.iter()).finish()
            }
        }
        f.debug_struct("PortSet")
            .field("ports", &Ports(self))
            .finish()
    }
}

impl FromIterator<Port> for PortSet {
    fn from_iter<T: IntoIterator<Item = Port>>(iter: T) -> Self {
        let mut set = PortSet::new();
        set.extend(iter);
        set
    }
}

impl Extend<Port> for PortSet {
    fn extend<T: IntoIterator<Item = Port>>(&mut self, iter: T) {
        for p in iter {
            self.insert(p);
        }
    }
}

/// Validates internal consistency of per-node port outputs and extracts
/// the selected edge set.
///
/// # Errors
///
/// * [`RuntimeError::OutputPortOutOfRange`] if an output names a port
///   beyond the node's degree;
/// * [`RuntimeError::InconsistentOutput`] if the two endpoints of some
///   edge disagree.
///
/// # Panics
///
/// Panics if `outputs.len()` differs from the node count of `g`.
pub fn edge_set_from_outputs(
    g: &PortNumberedGraph,
    outputs: &[PortSet],
) -> Result<Vec<EdgeId>, RuntimeError> {
    assert_eq!(
        outputs.len(),
        g.node_count(),
        "one output per node required"
    );
    let mut selected = vec![false; g.edge_count()];
    for v in g.nodes() {
        for i in outputs[v.index()].iter() {
            if i.get() as usize > g.degree(v) {
                return Err(RuntimeError::OutputPortOutOfRange {
                    node: v,
                    port: i,
                    degree: g.degree(v),
                });
            }
            let there = g.connection(Endpoint::new(v, i));
            if !outputs[there.node.index()].contains(there.port) {
                return Err(RuntimeError::InconsistentOutput {
                    node: v,
                    port: i,
                    counterpart: there.node,
                    counterpart_port: there.port,
                });
            }
            selected[g.edge_at(Endpoint::new(v, i)).index()] = true;
        }
    }
    Ok((0..g.edge_count())
        .map(EdgeId::new)
        .filter(|e| selected[e.index()])
        .collect())
}

/// Builds per-node port outputs from an edge set (the inverse of
/// [`edge_set_from_outputs`]); useful for comparing centralised reference
/// solutions with distributed ones.
pub fn outputs_from_edge_set(g: &PortNumberedGraph, edges: &[EdgeId]) -> Vec<PortSet> {
    let mut outputs = vec![PortSet::new(); g.node_count()];
    for &e in edges {
        let (a, b) = g.edge_endpoints(e);
        outputs[a.node.index()].insert(a.port);
        outputs[b.node.index()].insert(b.port);
    }
    outputs
}

/// Checks that all nodes in the same fibre of a covering map produced the
/// same output; returns the first violating pair otherwise.
///
/// This is the executable form of the paper's Section 2.3 lemma: a
/// deterministic algorithm cannot distinguish covering-equivalent nodes.
pub fn fiber_agreement<O: PartialEq>(
    fibers: &[Vec<NodeId>],
    outputs: &[O],
) -> Result<(), (NodeId, NodeId)> {
    for fiber in fibers {
        if let Some((&first, rest)) = fiber.split_first() {
            for &v in rest {
                if outputs[v.index()] != outputs[first.index()] {
                    return Err((first, v));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pn_graph::{generators, ports};

    #[test]
    fn round_trip_edges_outputs() {
        let g = ports::canonical_ports(&generators::complete(4).unwrap()).unwrap();
        let edges: Vec<EdgeId> = vec![EdgeId::new(0), EdgeId::new(4)];
        let outputs = outputs_from_edge_set(&g, &edges);
        let back = edge_set_from_outputs(&g, &outputs).unwrap();
        assert_eq!(back, edges);
    }

    #[test]
    fn inconsistency_detected() {
        let g = ports::canonical_ports(&generators::path(2).unwrap()).unwrap();
        let mut outputs = vec![PortSet::new(), PortSet::new()];
        outputs[0].insert(Port::new(1)); // node 1 does not select its side
        let err = edge_set_from_outputs(&g, &outputs).unwrap_err();
        assert!(matches!(err, RuntimeError::InconsistentOutput { .. }));
    }

    #[test]
    fn out_of_range_port_detected() {
        let g = ports::canonical_ports(&generators::path(2).unwrap()).unwrap();
        let mut outputs = vec![PortSet::new(), PortSet::new()];
        outputs[0].insert(Port::new(9));
        let err = edge_set_from_outputs(&g, &outputs).unwrap_err();
        assert!(matches!(err, RuntimeError::OutputPortOutOfRange { .. }));
    }

    #[test]
    fn fiber_agreement_checks() {
        let fibers = vec![vec![NodeId::new(0), NodeId::new(1)], vec![NodeId::new(2)]];
        let ok = vec![5, 5, 7];
        assert!(fiber_agreement(&fibers, &ok).is_ok());
        let bad = vec![5, 6, 7];
        assert_eq!(
            fiber_agreement(&fibers, &bad),
            Err((NodeId::new(0), NodeId::new(1)))
        );
    }

    #[test]
    fn port_set_basics() {
        let mut s: PortSet = [Port::new(3), Port::new(1)].into_iter().collect();
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        let listed: Vec<Port> = s.iter().collect();
        assert_eq!(listed, vec![Port::new(1), Port::new(3)]); // sorted
        s.extend([Port::new(2)]);
        assert_eq!(s.len(), 3);
        assert!(!s.insert(Port::new(2)));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(400))]

        /// The same inserts applied to a `PortSet` and to a
        /// `BTreeSet<Port>`, over ports 1 to 200 so that both the inline
        /// word and the spill set are exercised, give the same answers.
        #[test]
        fn port_set_matches_a_btree_set(
            numbers in proptest::collection::vec(1u32..=200, 0..48),
            rotate in 0usize..48,
        ) {
            let mut set = PortSet::new();
            let mut oracle = BTreeSet::new();
            for &n in &numbers {
                let p = Port::new(n);
                proptest::prop_assert_eq!(set.insert(p), oracle.insert(p));
                proptest::prop_assert_eq!(set.len(), oracle.len());
            }
            for n in 1..=201 {
                let p = Port::new(n);
                proptest::prop_assert_eq!(set.contains(p), oracle.contains(&p));
            }
            proptest::prop_assert_eq!(set.is_empty(), oracle.is_empty());
            let listed: Vec<Port> = set.iter().collect();
            let expected: Vec<Port> = oracle.iter().copied().collect();
            proptest::prop_assert_eq!(&listed, &expected);
            proptest::prop_assert_eq!(
                format!("{set:?}"),
                format!("PortSet {{ ports: {oracle:?} }}")
            );
            // Built in other orders, the set is equal, and so is a clone.
            let mut reordered = numbers.clone();
            reordered.reverse();
            if !reordered.is_empty() {
                let k = rotate % reordered.len();
                reordered.rotate_left(k);
            }
            let rebuilt: PortSet = reordered.iter().map(|&n| Port::new(n)).collect();
            proptest::prop_assert_eq!(&rebuilt, &set);
            proptest::prop_assert_eq!(&set.clone(), &set);
            if let Some(&extra) = (1..=200).find(|n| !oracle.contains(&Port::new(*n))).as_ref() {
                let mut bigger = set.clone();
                bigger.insert(Port::new(extra));
                proptest::prop_assert_ne!(&bigger, &set);
            }
        }
    }
}
