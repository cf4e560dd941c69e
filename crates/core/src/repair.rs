//! Incremental repair of solution witnesses under churn.
//!
//! When the topology changes (edge insert/delete, crash, join) or a node's
//! stored output is corrupted, re-running a protocol from scratch costs its
//! full round schedule. The paper's structures are *local*, though: a
//! maximal matching, an edge dominating set, or a vertex cover damaged at a
//! few nodes can be repaired by rules that only inspect the neighbourhoods
//! of the damaged region. This module implements those rules on
//! *witnesses* — topology-independent descriptions of a solution — so the
//! churn harness can measure recovery cost separately from protocol cost.
//!
//! Witnesses use node identities rather than [`pn_graph::EdgeId`]s because
//! edge identifiers are not stable across mutations: an edge set is a
//! `BTreeSet<(usize, usize)>` of normalised endpoint pairs, a node set a
//! `BTreeSet<usize>`. All rules are deterministic (processing in ascending
//! node order), so repaired witnesses are reproducible bit-for-bit.
//!
//! The rules are generic over [`AdjacencyView`] — any structure that can
//! enumerate a node's neighbours. That is what makes repair *streaming*:
//! under churn the view is the [`DynamicTopology`] overlay on the
//! immutable starting graph, and a repair pass never copies the graph.
//! It scans the neighbourhoods of the damaged frontier, tests every
//! witness entry for being a ghost, and marks nodes in one flag per node
//! of the view, so it costs `O(n + |witness|)` plus the frontier's
//! degrees. The `is_*_witness` checkers are whole-graph passes: they are
//! the verdict that decides between repair and a full re-stabilisation.
//!
//! Accounting mirrors the message-passing model: each *round* is one
//! synchronous pass of a local rule over the damaged frontier, and each
//! scan of a node's neighbourhood costs `deg(v)` *messages*. For a single
//! edge event the frontier has constant size, so repair takes `O(1)` rounds
//! — the bound the `churn_sweep` smoke gate asserts.
//!
//! Each rule restores feasibility whenever its `touched` frontier holds
//! every event endpoint and every partner freed by an external removal
//! (`tests/repair_property.rs` checks this), so a repair pass handed such
//! a frontier leaves no residual damage. [`RecoveryPolicy`] decides when
//! repair alone is trusted and when a full re-stabilisation runs instead;
//! the churn runner in `eds-scenarios` consumes it.

use std::collections::BTreeSet;

use pn_graph::{DynamicTopology, NodeId, SimpleGraph};

/// An edge witness: normalised `(min, max)` endpoint pairs.
pub type EdgeWitness = BTreeSet<(usize, usize)>;

/// A node witness (e.g. a vertex cover).
pub type NodeWitness = BTreeSet<usize>;

/// Normalises an endpoint pair for storage in an [`EdgeWitness`].
#[must_use]
pub fn edge_key(u: usize, v: usize) -> (usize, usize) {
    if u <= v {
        (u, v)
    } else {
        (v, u)
    }
}

/// Read-only adjacency access, the only capability the repair rules and
/// witness checkers need. Implemented for [`SimpleGraph`] (the static
/// path) and [`DynamicTopology`] (the churn overlay), so a repair pass
/// never forces a full graph materialisation.
pub trait AdjacencyView {
    /// Number of nodes (including isolated ones).
    fn node_count(&self) -> usize;

    /// Current degree of `v`.
    fn degree_of(&self, v: usize) -> usize;

    /// Calls `f` once per neighbour of `v`, in the view's storage order.
    fn for_each_neighbor(&self, v: usize, f: &mut dyn FnMut(usize));

    /// Whether `{u, v}` is currently an edge. Out-of-range endpoints are
    /// simply not edges.
    fn has_edge_between(&self, u: usize, v: usize) -> bool {
        if u >= self.node_count() || v >= self.node_count() {
            return false;
        }
        let mut found = false;
        self.for_each_neighbor(u, &mut |w| {
            if w == v {
                found = true;
            }
        });
        found
    }
}

impl AdjacencyView for SimpleGraph {
    fn node_count(&self) -> usize {
        SimpleGraph::node_count(self)
    }

    fn degree_of(&self, v: usize) -> usize {
        self.neighbors(NodeId::new(v)).len()
    }

    fn for_each_neighbor(&self, v: usize, f: &mut dyn FnMut(usize)) {
        for &(u, _) in self.neighbors(NodeId::new(v)) {
            f(u.index());
        }
    }

    fn has_edge_between(&self, u: usize, v: usize) -> bool {
        u < SimpleGraph::node_count(self)
            && v < SimpleGraph::node_count(self)
            && self.has_edge(NodeId::new(u), NodeId::new(v))
    }
}

impl AdjacencyView for DynamicTopology<'_> {
    fn node_count(&self) -> usize {
        DynamicTopology::node_count(self)
    }

    fn degree_of(&self, v: usize) -> usize {
        self.degree(NodeId::new(v))
    }

    fn for_each_neighbor(&self, v: usize, f: &mut dyn FnMut(usize)) {
        for u in self.neighbors(NodeId::new(v)) {
            f(u.index());
        }
    }

    fn has_edge_between(&self, u: usize, v: usize) -> bool {
        self.has_edge(NodeId::new(u), NodeId::new(v))
    }
}

/// Runs `pred` over every edge `{v, u}` (`v < u`) of the view; returns
/// whether every edge satisfied it.
fn all_edges<V: AdjacencyView + ?Sized>(g: &V, mut pred: impl FnMut(usize, usize) -> bool) -> bool {
    for v in 0..g.node_count() {
        let mut ok = true;
        g.for_each_neighbor(v, &mut |u| {
            if v < u && !pred(v, u) {
                ok = false;
            }
        });
        if !ok {
            return false;
        }
    }
    true
}

/// One flag per node of an `n`-node view, set for every node of `nodes`
/// below `n`: the dense membership array the checkers and rules read.
fn marked(n: usize, nodes: impl IntoIterator<Item = usize>) -> Vec<bool> {
    let mut flags = vec![false; n];
    for v in nodes {
        if v < n {
            flags[v] = true;
        }
    }
    flags
}

/// Cost and damage accounting for one repair invocation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairOutcome {
    /// Synchronous local-rule passes until the witness was feasible again.
    pub rounds: usize,
    /// Neighbourhood scans, charged `deg(v)` per scanned node per pass.
    pub messages: usize,
    /// Violations present at the quiescence point *before* repair:
    /// ghost/conflicting witness entries plus uncovered edges discovered
    /// while patching.
    pub transient_violations: usize,
}

/// The rungs of the churn-recovery ladder, cheapest first. Ordered: a
/// later rung strictly dominates an earlier one in cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum RecoveryTier {
    /// No recovery ran (an empty schedule).
    #[default]
    None,
    /// Local witness repair only — no protocol epoch.
    Repair,
    /// Full re-stabilisation on the whole topology (the last resort).
    Full,
}

impl RecoveryTier {
    /// The rung as a small integer for records: `0` none, `1` repair,
    /// `3` full. Full keeps the `3` it had when a ball re-run rung sat
    /// at `2`, so new records compare with existing reports and
    /// baselines.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            RecoveryTier::None => 0,
            RecoveryTier::Repair => 1,
            RecoveryTier::Full => 3,
        }
    }
}

/// Knobs of the repair-first recovery ladder.
///
/// Repair alone is trusted while the damage frontier stays below
/// `repair_frontier_fraction` of the node count; a larger frontier goes
/// straight to a full re-stabilisation. A seeded fraction
/// `audit_fraction` of epochs additionally runs the full
/// re-stabilisation as a trust-but-verify audit of the repaired witness.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RecoveryPolicy {
    /// Largest damage frontier (as a fraction of the node count) that
    /// rung 1 — repair without any protocol epoch — is trusted with.
    pub repair_frontier_fraction: f64,
    /// Fraction of epochs audited against a full re-stabilisation
    /// (seeded, deterministic). `0.0` disables audits; `1.0` audits
    /// every epoch.
    pub audit_fraction: f64,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            repair_frontier_fraction: 0.25,
            audit_fraction: 0.25,
        }
    }
}

impl RecoveryPolicy {
    /// The policy of the scale gate: repair handles every frontier and
    /// every epoch is audited against a full re-stabilisation.
    #[must_use]
    pub fn repair_first() -> Self {
        RecoveryPolicy {
            repair_frontier_fraction: 1.0,
            audit_fraction: 1.0,
        }
    }

    /// Whether rung 1 is trusted with a frontier of `frontier_nodes` on a
    /// topology of `total_nodes`.
    #[must_use]
    pub fn repair_applies(&self, frontier_nodes: usize, total_nodes: usize) -> bool {
        total_nodes > 0
            && frontier_nodes as f64 <= self.repair_frontier_fraction * total_nodes as f64
    }

    /// Whether an epoch whose audit stream drew `draw` is audited. The
    /// top 53 bits are a uniform fraction in `[0, 1)`, so a fraction of
    /// `f` audits (in expectation) an `f`-share of epochs.
    #[must_use]
    pub fn audits_epoch(&self, draw: u64) -> bool {
        ((draw >> 11) as f64) < self.audit_fraction * (1u64 << 53) as f64
    }
}

/// Repairs `witness` into a maximal matching of `g`.
///
/// Drops entries that are no longer edges of `g` (ghosts) or that share an
/// endpoint with an earlier entry (conflicts, e.g. after corruption), then
/// greedily re-matches the freed and `touched` nodes against their
/// lowest-indexed free neighbours. If the witness was a maximal matching
/// before the damage and `touched` contains every endpoint of inserted or
/// deleted edges plus *both* endpoints of any pair removed externally
/// (e.g. both ends of a pair wiped by corruption — the freed partner must
/// be rescanned too), the result is again a maximal matching of `g`.
pub fn repair_maximal_matching<V: AdjacencyView + ?Sized>(
    g: &V,
    witness: &mut EdgeWitness,
    touched: &NodeWitness,
) -> RepairOutcome {
    let n = g.node_count();
    let mut outcome = RepairOutcome::default();
    let mut matched = vec![false; n];
    let mut drops: Vec<(usize, usize)> = Vec::new();
    for &(u, v) in witness.iter() {
        let ghost = u >= n || v >= n || !g.has_edge_between(u, v);
        if ghost || matched[u] || matched[v] {
            drops.push((u, v));
        } else {
            matched[u] = true;
            matched[v] = true;
        }
    }
    let mut frontier: BTreeSet<usize> = touched.iter().copied().filter(|&v| v < n).collect();
    outcome.transient_violations += drops.len();
    for (u, v) in drops {
        witness.remove(&(u, v));
        if u < n {
            frontier.insert(u);
        }
        if v < n {
            frontier.insert(v);
        }
    }
    if frontier.is_empty() {
        return outcome;
    }
    // One synchronous pass over the frontier restores maximality: matchings
    // only grow, so a node left free after its scan has no free neighbour.
    outcome.rounds = 1;
    let mut matched_any = false;
    for &u in &frontier {
        if matched[u] {
            continue;
        }
        outcome.messages += g.degree_of(u);
        let mut candidate: Option<usize> = None;
        g.for_each_neighbor(u, &mut |v| {
            if !matched[v] && candidate.is_none_or(|c| v < c) {
                candidate = Some(v);
            }
        });
        if let Some(v) = candidate {
            matched[u] = true;
            matched[v] = true;
            witness.insert(edge_key(u, v));
            outcome.transient_violations += 1; // the edge {u, v} was uncovered
            matched_any = true;
        }
    }
    if matched_any {
        // A verification pass that observes quiescence.
        outcome.rounds += 1;
    }
    outcome
}

/// Repairs `witness` into an edge dominating set of `g`.
///
/// Drops ghost entries, then scans the `touched` nodes and the endpoints of
/// dropped entries: every incident edge with neither endpoint covered by a
/// witness edge is added to the witness. Locality is sound because an edge
/// can only lose domination when a witness edge at one of its endpoints is
/// dropped, or when the edge itself is newly inserted — both put an
/// endpoint on the scanned frontier.
pub fn repair_edge_dominating<V: AdjacencyView + ?Sized>(
    g: &V,
    witness: &mut EdgeWitness,
    touched: &NodeWitness,
) -> RepairOutcome {
    let n = g.node_count();
    let mut outcome = RepairOutcome::default();
    let mut drops: Vec<(usize, usize)> = Vec::new();
    for &(u, v) in witness.iter() {
        if u >= n || v >= n || !g.has_edge_between(u, v) {
            drops.push((u, v));
        }
    }
    let mut frontier: BTreeSet<usize> = touched.iter().copied().filter(|&v| v < n).collect();
    outcome.transient_violations += drops.len();
    for (u, v) in drops {
        witness.remove(&(u, v));
        if u < n {
            frontier.insert(u);
        }
        if v < n {
            frontier.insert(v);
        }
    }
    if frontier.is_empty() {
        return outcome;
    }
    let mut covered = marked(n, witness.iter().flat_map(|&(u, v)| [u, v]));
    outcome.rounds = 1;
    let mut added_any = false;
    for &u in &frontier {
        outcome.messages += g.degree_of(u);
        let mut additions: Vec<usize> = Vec::new();
        g.for_each_neighbor(u, &mut |v| {
            if !covered[u] && !covered[v] {
                covered[u] = true;
                covered[v] = true;
                additions.push(v);
            }
        });
        for v in additions {
            witness.insert(edge_key(u, v));
            outcome.transient_violations += 1; // {u, v} was undominated
            added_any = true;
        }
    }
    if added_any {
        outcome.rounds += 1;
    }
    outcome
}

/// Repairs `cover` into a vertex cover of `g`.
///
/// Drops out-of-range entries, then scans the `touched` nodes: for every
/// incident edge with neither endpoint in the cover, *both* endpoints are
/// added (the classic 2-approximate patching rule, which keeps the
/// maintained cover within a constant factor).
pub fn repair_vertex_cover<V: AdjacencyView + ?Sized>(
    g: &V,
    cover: &mut NodeWitness,
    touched: &NodeWitness,
) -> RepairOutcome {
    let n = g.node_count();
    let mut outcome = RepairOutcome::default();
    let ghosts: Vec<usize> = cover.iter().copied().filter(|&v| v >= n).collect();
    outcome.transient_violations += ghosts.len();
    for v in ghosts {
        cover.remove(&v);
    }
    let frontier: BTreeSet<usize> = touched.iter().copied().filter(|&v| v < n).collect();
    if frontier.is_empty() {
        return outcome;
    }
    outcome.rounds = 1;
    let mut added_any = false;
    for &u in &frontier {
        if g.degree_of(u) == 0 {
            // An isolated (e.g. crashed) node covers nothing: pruning it
            // keeps the maintained cover from bloating past the paper
            // bound under long crash-heavy schedules. Not a violation —
            // feasibility is unaffected.
            cover.remove(&u);
            continue;
        }
        outcome.messages += g.degree_of(u);
        let mut additions: Vec<usize> = Vec::new();
        g.for_each_neighbor(u, &mut |v| {
            if !cover.contains(&u) && !cover.contains(&v) && !additions.contains(&v) {
                additions.push(v);
            }
        });
        for v in additions {
            if !cover.contains(&u) && !cover.contains(&v) {
                cover.insert(u);
                cover.insert(v);
                outcome.transient_violations += 1; // {u, v} was uncovered
                added_any = true;
            }
        }
    }
    if added_any {
        outcome.rounds += 1;
    }
    outcome
}

/// Checks that `witness` is a matching of `g` (pairwise disjoint edges).
#[must_use]
pub fn is_matching_witness<V: AdjacencyView + ?Sized>(g: &V, witness: &EdgeWitness) -> bool {
    let n = g.node_count();
    let mut used = vec![false; n];
    for &(u, v) in witness.iter() {
        if u >= n || v >= n || !g.has_edge_between(u, v) || used[u] || used[v] {
            return false;
        }
        used[u] = true;
        used[v] = true;
    }
    true
}

/// Checks that `witness` is maximal: no edge of `g` has both endpoints free.
#[must_use]
pub fn is_maximal_witness<V: AdjacencyView + ?Sized>(g: &V, witness: &EdgeWitness) -> bool {
    let used = marked(g.node_count(), witness.iter().flat_map(|&(u, v)| [u, v]));
    all_edges(g, |u, v| used[u] || used[v])
}

/// Checks that `witness` dominates every edge of `g` and consists of edges
/// of `g`.
#[must_use]
pub fn is_dominating_witness<V: AdjacencyView + ?Sized>(g: &V, witness: &EdgeWitness) -> bool {
    let n = g.node_count();
    let mut covered = vec![false; n];
    for &(u, v) in witness.iter() {
        if u >= n || v >= n || !g.has_edge_between(u, v) {
            return false;
        }
        covered[u] = true;
        covered[v] = true;
    }
    all_edges(g, |u, v| covered[u] || covered[v])
}

/// Checks that `cover` is a vertex cover of `g`.
#[must_use]
pub fn is_cover_witness<V: AdjacencyView + ?Sized>(g: &V, cover: &NodeWitness) -> bool {
    let inside = marked(g.node_count(), cover.iter().copied());
    all_edges(g, |u, v| inside[u] || inside[v])
}

/// Tree-set versions of the checkers and of the two edge repair rules:
/// the oracle the dense versions are tested against.
#[cfg(test)]
mod tree_oracle {
    use std::collections::{BTreeMap, BTreeSet};

    use super::{all_edges, edge_key, AdjacencyView, EdgeWitness, NodeWitness, RepairOutcome};

    pub fn repair_maximal_matching<V: AdjacencyView + ?Sized>(
        g: &V,
        witness: &mut EdgeWitness,
        touched: &NodeWitness,
    ) -> RepairOutcome {
        let n = g.node_count();
        let mut outcome = RepairOutcome::default();
        let mut mate: BTreeMap<usize, usize> = BTreeMap::new();
        let mut drops: Vec<(usize, usize)> = Vec::new();
        for &(u, v) in witness.iter() {
            let ghost = u >= n || v >= n || !g.has_edge_between(u, v);
            if ghost || mate.contains_key(&u) || mate.contains_key(&v) {
                drops.push((u, v));
            } else {
                mate.insert(u, v);
                mate.insert(v, u);
            }
        }
        let mut frontier: BTreeSet<usize> = touched.iter().copied().filter(|&v| v < n).collect();
        outcome.transient_violations += drops.len();
        for (u, v) in drops {
            witness.remove(&(u, v));
            if u < n {
                frontier.insert(u);
            }
            if v < n {
                frontier.insert(v);
            }
        }
        if frontier.is_empty() {
            return outcome;
        }
        outcome.rounds = 1;
        let mut matched_any = false;
        for &u in &frontier {
            if mate.contains_key(&u) {
                continue;
            }
            outcome.messages += g.degree_of(u);
            let mut candidate: Option<usize> = None;
            g.for_each_neighbor(u, &mut |v| {
                if !mate.contains_key(&v) && candidate.is_none_or(|c| v < c) {
                    candidate = Some(v);
                }
            });
            if let Some(v) = candidate {
                mate.insert(u, v);
                mate.insert(v, u);
                witness.insert(edge_key(u, v));
                outcome.transient_violations += 1;
                matched_any = true;
            }
        }
        if matched_any {
            outcome.rounds += 1;
        }
        outcome
    }

    pub fn repair_edge_dominating<V: AdjacencyView + ?Sized>(
        g: &V,
        witness: &mut EdgeWitness,
        touched: &NodeWitness,
    ) -> RepairOutcome {
        let n = g.node_count();
        let mut outcome = RepairOutcome::default();
        let mut drops: Vec<(usize, usize)> = Vec::new();
        for &(u, v) in witness.iter() {
            if u >= n || v >= n || !g.has_edge_between(u, v) {
                drops.push((u, v));
            }
        }
        let mut frontier: BTreeSet<usize> = touched.iter().copied().filter(|&v| v < n).collect();
        outcome.transient_violations += drops.len();
        for (u, v) in drops {
            witness.remove(&(u, v));
            if u < n {
                frontier.insert(u);
            }
            if v < n {
                frontier.insert(v);
            }
        }
        if frontier.is_empty() {
            return outcome;
        }
        let mut covered: BTreeSet<usize> = BTreeSet::new();
        for &(u, v) in witness.iter() {
            covered.insert(u);
            covered.insert(v);
        }
        outcome.rounds = 1;
        let mut added_any = false;
        for &u in &frontier {
            outcome.messages += g.degree_of(u);
            let mut additions: Vec<usize> = Vec::new();
            g.for_each_neighbor(u, &mut |v| {
                if !covered.contains(&u) && !covered.contains(&v) {
                    covered.insert(u);
                    covered.insert(v);
                    additions.push(v);
                }
            });
            for v in additions {
                witness.insert(edge_key(u, v));
                outcome.transient_violations += 1;
                added_any = true;
            }
        }
        if added_any {
            outcome.rounds += 1;
        }
        outcome
    }

    pub fn is_matching_witness<V: AdjacencyView + ?Sized>(g: &V, witness: &EdgeWitness) -> bool {
        let n = g.node_count();
        let mut used: BTreeSet<usize> = BTreeSet::new();
        for &(u, v) in witness.iter() {
            if u >= n || v >= n || !g.has_edge_between(u, v) {
                return false;
            }
            if used.contains(&u) || used.contains(&v) {
                return false;
            }
            used.insert(u);
            used.insert(v);
        }
        true
    }

    pub fn is_maximal_witness<V: AdjacencyView + ?Sized>(g: &V, witness: &EdgeWitness) -> bool {
        let n = g.node_count();
        let mut used: BTreeSet<usize> = BTreeSet::new();
        for &(u, v) in witness.iter() {
            if u < n {
                used.insert(u);
            }
            if v < n {
                used.insert(v);
            }
        }
        all_edges(g, |u, v| used.contains(&u) || used.contains(&v))
    }

    pub fn is_dominating_witness<V: AdjacencyView + ?Sized>(g: &V, witness: &EdgeWitness) -> bool {
        let n = g.node_count();
        let mut covered: BTreeSet<usize> = BTreeSet::new();
        for &(u, v) in witness.iter() {
            if u >= n || v >= n || !g.has_edge_between(u, v) {
                return false;
            }
            covered.insert(u);
            covered.insert(v);
        }
        all_edges(g, |u, v| covered.contains(&u) || covered.contains(&v))
    }

    pub fn is_cover_witness<V: AdjacencyView + ?Sized>(g: &V, cover: &NodeWitness) -> bool {
        all_edges(g, |u, v| cover.contains(&u) || cover.contains(&v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pn_graph::generators;

    fn matching_witness(g: &SimpleGraph) -> EdgeWitness {
        // Greedy maximal matching, ascending edge order.
        let mut used = vec![false; SimpleGraph::node_count(g)];
        let mut w = EdgeWitness::new();
        for (_, u, v) in g.edges() {
            if !used[u.index()] && !used[v.index()] {
                used[u.index()] = true;
                used[v.index()] = true;
                w.insert(edge_key(u.index(), v.index()));
            }
        }
        w
    }

    #[test]
    fn static_graph_needs_no_repair() {
        let g = generators::petersen();
        let mut w = matching_witness(&g);
        let before = w.clone();
        let outcome = repair_maximal_matching(&g, &mut w, &NodeWitness::new());
        assert_eq!(outcome, RepairOutcome::default());
        assert_eq!(w, before);
    }

    #[test]
    fn edge_insertion_is_repaired_locally() {
        let mut g = generators::cycle(8).unwrap();
        let mut w = matching_witness(&g);
        assert!(is_maximal_witness(&g, &w));
        // A chord between two matched nodes needs no new matching edge; a
        // chord between the two free nodes does.
        let free: Vec<usize> = (0..8)
            .filter(|&v| !w.iter().any(|&(a, b)| a == v || b == v))
            .collect();
        if free.len() >= 2 {
            g.add_edge_ids(free[0], free[1]).unwrap();
            let touched: NodeWitness = [free[0], free[1]].into_iter().collect();
            let outcome = repair_maximal_matching(&g, &mut w, &touched);
            assert!(outcome.rounds <= 2);
            assert!(outcome.transient_violations >= 1);
        }
        assert!(is_matching_witness(&g, &w));
        assert!(is_maximal_witness(&g, &w));
    }

    #[test]
    fn ghost_entries_are_dropped_and_endpoints_rematched() {
        let g = generators::cycle(6).unwrap();
        let mut w = matching_witness(&g);
        // Simulate a deleted edge by injecting a pair that is not in g.
        w.insert(edge_key(0, 3));
        let outcome = repair_maximal_matching(&g, &mut w, &NodeWitness::new());
        assert!(outcome.transient_violations >= 1);
        assert!(is_matching_witness(&g, &w));
        assert!(is_maximal_witness(&g, &w));
    }

    #[test]
    fn corruption_scramble_recovers_matching() {
        let g = generators::random_bounded_degree(20, 4, 0.7, 11).unwrap();
        let mut w = matching_witness(&g);
        // Corruption at node 0..5: their stored pairs vanish. The contract
        // requires `touched` to include every endpoint of an externally
        // dropped pair — the freed partners, not just the corrupted nodes.
        let corrupted: NodeWitness = (0..5).collect();
        let mut touched = corrupted.clone();
        w.retain(|&(u, v)| {
            let keep = !corrupted.contains(&u) && !corrupted.contains(&v);
            if !keep {
                touched.insert(u);
                touched.insert(v);
            }
            keep
        });
        let outcome = repair_maximal_matching(&g, &mut w, &touched);
        assert!(outcome.rounds <= 2, "local repair is O(1) rounds");
        assert!(is_matching_witness(&g, &w));
        assert!(is_maximal_witness(&g, &w));
        assert!(outcome.messages > 0);
    }

    #[test]
    fn dominating_witness_repair_covers_new_edges() {
        let mut g = generators::grid(4, 4).unwrap();
        let mut w = matching_witness(&g); // maximal matching dominates
        assert!(is_dominating_witness(&g, &w));
        let a = g.add_node();
        let b = g.add_node();
        g.add_edge(a, b).unwrap();
        g.add_edge(NodeId::new(0), a).unwrap();
        let touched: NodeWitness = [0, a.index(), b.index()].into_iter().collect();
        let outcome = repair_edge_dominating(&g, &mut w, &touched);
        assert!(outcome.transient_violations >= 1);
        assert!(outcome.rounds <= 2);
        assert!(is_dominating_witness(&g, &w));
    }

    #[test]
    fn dominating_witness_repair_after_deletion() {
        let g = generators::cycle(9).unwrap();
        let mut w = EdgeWitness::new();
        w.insert(edge_key(0, 1));
        w.insert(edge_key(3, 4));
        w.insert(edge_key(6, 7));
        assert!(is_dominating_witness(&g, &w));
        // Pretend {3,4} was deleted from an earlier graph: ghost entry.
        w.remove(&edge_key(3, 4));
        w.insert(edge_key(3, 5)); // not an edge of the cycle → ghost
        let touched: NodeWitness = [3, 5].into_iter().collect();
        let outcome = repair_edge_dominating(&g, &mut w, &touched);
        assert!(outcome.transient_violations >= 1);
        assert!(is_dominating_witness(&g, &w));
    }

    #[test]
    fn vertex_cover_repair_patches_uncovered_edges() {
        let mut g = generators::star(5).unwrap();
        let mut c: NodeWitness = [0].into_iter().collect(); // hub covers all
        assert!(is_cover_witness(&g, &c));
        let v = g.add_node();
        g.add_edge_ids(1, v.index()).unwrap();
        let touched: NodeWitness = [1, v.index()].into_iter().collect();
        let outcome = repair_vertex_cover(&g, &mut c, &touched);
        assert_eq!(outcome.transient_violations, 1);
        assert!(is_cover_witness(&g, &c));
        // The patch adds both endpoints (2-approximate rule).
        assert!(c.contains(&1) && c.contains(&v.index()));
    }

    #[test]
    fn vertex_cover_repair_after_corruption() {
        let g = generators::random_bounded_degree(16, 4, 0.8, 3).unwrap();
        let mut c: NodeWitness = (0..16).collect(); // trivially a cover
                                                    // Corruption wipes membership at half the nodes.
        for v in 0..8 {
            c.remove(&v);
        }
        let touched: NodeWitness = (0..8).collect();
        let outcome = repair_vertex_cover(&g, &mut c, &touched);
        assert!(outcome.rounds <= 2);
        assert!(is_cover_witness(&g, &c));
    }

    #[test]
    fn repair_is_deterministic() {
        let g = generators::random_bounded_degree(24, 5, 0.6, 7).unwrap();
        let make = || {
            let mut w = matching_witness(&g);
            let corrupted: NodeWitness = [2, 9, 17].into_iter().collect();
            let mut touched = corrupted.clone();
            w.retain(|&(u, v)| {
                let keep = !corrupted.contains(&u) && !corrupted.contains(&v);
                if !keep {
                    touched.insert(u);
                    touched.insert(v);
                }
                keep
            });
            let outcome = repair_maximal_matching(&g, &mut w, &touched);
            (w, outcome)
        };
        assert_eq!(make(), make());
    }

    #[test]
    fn dense_checks_and_rules_agree_with_the_tree_oracle() {
        // Random graphs with witnesses built from a greedy maximal
        // matching and a full cover, then damaged: entries dropped, real
        // edges added (conflicts), in-range non-edges (ghosts) and
        // out-of-range pairs added, cover nodes removed, and random
        // frontiers that may also leave the graph.
        let mut next = pn_runtime::entropy_stream(0x0dd5_eed5);
        let mut verdicts = [[0usize; 2]; 4];
        for trial in 0..3000u64 {
            let n = 1 + (next() % 24) as usize;
            let delta = 1 + (next() % 5) as usize;
            let density = [0.3, 0.6, 0.9][(next() % 3) as usize];
            let g = generators::random_bounded_degree(n, delta, density, trial).unwrap();
            let edges: Vec<(usize, usize)> = g
                .edges()
                .map(|(_, u, v)| edge_key(u.index(), v.index()))
                .collect();
            let mut w = if next().is_multiple_of(2) {
                matching_witness(&g)
            } else {
                EdgeWitness::new()
            };
            let mut cover: NodeWitness = (0..n).collect();
            let damage = next() % 3;
            for _ in 0..damage {
                let wide = n as u64 + 3;
                match next() % 5 {
                    0 => {
                        if let Some(&e) = w.iter().nth((next() % (w.len() as u64 + 1)) as usize) {
                            w.remove(&e);
                        }
                    }
                    1 if !edges.is_empty() => {
                        w.insert(edges[(next() % edges.len() as u64) as usize]);
                    }
                    2 => {
                        w.insert(edge_key(
                            (next() % n as u64) as usize,
                            (next() % n as u64) as usize,
                        ));
                    }
                    3 => {
                        w.insert(edge_key((next() % wide) as usize, (next() % wide) as usize));
                    }
                    _ => {
                        cover.remove(&((next() % n as u64) as usize));
                        cover.insert((next() % wide) as usize);
                    }
                }
            }
            let touched: NodeWitness = (0..n + 3).filter(|_| next().is_multiple_of(4)).collect();
            let checks = [
                (
                    is_matching_witness(&g, &w),
                    tree_oracle::is_matching_witness(&g, &w),
                ),
                (
                    is_maximal_witness(&g, &w),
                    tree_oracle::is_maximal_witness(&g, &w),
                ),
                (
                    is_dominating_witness(&g, &w),
                    tree_oracle::is_dominating_witness(&g, &w),
                ),
                (
                    is_cover_witness(&g, &cover),
                    tree_oracle::is_cover_witness(&g, &cover),
                ),
            ];
            for (k, (dense, tree)) in checks.into_iter().enumerate() {
                assert_eq!(
                    dense, tree,
                    "trial {trial}: check {k} disagrees on {w:?} / {cover:?}"
                );
                verdicts[k][usize::from(dense)] += 1;
            }
            let (mut dense, mut tree) = (w.clone(), w.clone());
            assert_eq!(
                repair_maximal_matching(&g, &mut dense, &touched),
                tree_oracle::repair_maximal_matching(&g, &mut tree, &touched),
                "trial {trial}: matching outcome"
            );
            assert_eq!(dense, tree, "trial {trial}: repaired matching");
            let (mut dense, mut tree) = (w.clone(), w);
            assert_eq!(
                repair_edge_dominating(&g, &mut dense, &touched),
                tree_oracle::repair_edge_dominating(&g, &mut tree, &touched),
                "trial {trial}: dominating outcome"
            );
            assert_eq!(dense, tree, "trial {trial}: repaired dominating set");
        }
        // Every check returned both verdicts, so the agreement has teeth.
        for (k, [no, yes]) in verdicts.into_iter().enumerate() {
            assert!(no > 0 && yes > 0, "check {k}: {no} false, {yes} true");
        }
    }

    #[test]
    fn recovery_policy_gates_are_deterministic() {
        let policy = RecoveryPolicy::default();
        assert!(policy.repair_applies(2, 10));
        assert!(!policy.repair_applies(5, 10));
        assert!(RecoveryPolicy::repair_first().repair_applies(10, 10));
        // Fraction 1.0 audits every draw, 0.0 none.
        let always = RecoveryPolicy::repair_first();
        let never = RecoveryPolicy {
            audit_fraction: 0.0,
            ..RecoveryPolicy::default()
        };
        for draw in [0u64, 1, u64::MAX / 2, u64::MAX] {
            assert!(always.audits_epoch(draw));
            assert!(!never.audits_epoch(draw));
        }
        assert!(RecoveryTier::Repair < RecoveryTier::Full);
        assert_eq!(RecoveryTier::Full.index(), 3);
    }
}
