//! A read-only edge view shared by [`SimpleGraph`] and
//! [`PortNumberedGraph`].
//!
//! Checkers that read only the edge list — which edges exist and which
//! two nodes each one joins — take any [`EdgeView`], so a port-numbered
//! graph can be checked in place instead of through its
//! [`PortNumberedGraph::to_simple`] projection.

use crate::{EdgeId, NodeId, PortNumberedGraph, SimpleGraph};

/// Node count, edge count and the two endpoints of every edge.
///
/// Edge ids run over `0..edge_count()`. A [`PortNumberedGraph`] reports
/// `edge(e).nodes()`, and [`PortNumberedGraph::to_simple`] adds its links
/// in edge order with those endpoints, so on a simple port-numbered graph
/// every id and every endpoint pair equals the projection's. A loop of a
/// multigraph reads as `(v, v)`.
///
/// # Examples
///
/// ```
/// use pn_graph::{generators, ports, EdgeId, EdgeView};
/// # fn main() -> Result<(), pn_graph::GraphError> {
/// let g = generators::petersen();
/// let pg = ports::shuffled_ports(&g, 7)?;
/// let simple = pg.to_simple()?;
/// for e in (0..pg.edge_count()).map(EdgeId::new) {
///     assert_eq!(EdgeView::endpoints(&pg, e), simple.endpoints(e));
/// }
/// # Ok(())
/// # }
/// ```
pub trait EdgeView {
    /// Number of nodes, isolated ones included.
    fn node_count(&self) -> usize;

    /// Number of edges.
    fn edge_count(&self) -> usize;

    /// The two endpoint nodes of edge `e`.
    fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId);

    /// Every edge with its endpoints, in id order.
    fn endpoint_pairs(&self) -> impl Iterator<Item = (EdgeId, NodeId, NodeId)> + '_ {
        (0..self.edge_count()).map(move |i| {
            let e = EdgeId::new(i);
            let (u, v) = self.endpoints(e);
            (e, u, v)
        })
    }
}

impl EdgeView for SimpleGraph {
    fn node_count(&self) -> usize {
        SimpleGraph::node_count(self)
    }

    fn edge_count(&self) -> usize {
        SimpleGraph::edge_count(self)
    }

    fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        SimpleGraph::endpoints(self, e)
    }
}

impl EdgeView for PortNumberedGraph {
    fn node_count(&self) -> usize {
        PortNumberedGraph::node_count(self)
    }

    fn edge_count(&self) -> usize {
        PortNumberedGraph::edge_count(self)
    }

    fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        self.edge(e).nodes()
    }
}
