//! The unified scenario model: graph family × size × seed × port policy.
//!
//! A [`ScenarioSpec`] is a cheap, cloneable description of one workload
//! instance; [`ScenarioSpec::build`] materialises it into a [`Scenario`]
//! holding the port-numbered graph and its simple projection. Specs are
//! what the [`crate::Registry`] enumerates; scenarios are what the
//! [`crate::sweep`] driver and the conformance tests execute on.

use pn_graph::{
    covering, generators, ports, Endpoint, GraphError, NodeId, PnGraphBuilder, Port,
    PortNumberedGraph, SimpleGraph,
};

use crate::protocol::ExecOptions;

/// A graph family from the `pn-graph` generator catalogue, with its size
/// parameters. Every generator in `pn_graph::generators` is reachable,
/// plus the covering-map constructions of `pn_graph::covering` (cyclic
/// lifts of any base family and simple covers of the paper's Figure 2
/// multigraph).
#[derive(Clone, Debug, PartialEq)]
pub enum Family {
    /// Path `P_n`.
    Path(usize),
    /// Cycle `C_n`.
    Cycle(usize),
    /// Complete graph `K_n`.
    Complete(usize),
    /// Complete bipartite `K_{a,b}`.
    CompleteBipartite(usize, usize),
    /// Crown graph (`K_{n,n}` minus a perfect matching).
    Crown(usize),
    /// Star `K_{1,n}`.
    Star(usize),
    /// Hypercube `Q_dim`.
    Hypercube(usize),
    /// `w × h` grid.
    Grid(usize, usize),
    /// `w × h` torus (4-regular).
    Torus(usize, usize),
    /// The Petersen graph.
    Petersen,
    /// Circulant `C_n(strides)`.
    Circulant {
        /// Number of nodes.
        n: usize,
        /// Strides (see [`generators::circulant`]).
        strides: Vec<usize>,
    },
    /// Wheel `W_n` (rim plus hub).
    Wheel(usize),
    /// Ladder `L_n`.
    Ladder(usize),
    /// Erdős–Rényi `G(n, p)` (seeded by the scenario seed).
    Gnp {
        /// Number of nodes.
        n: usize,
        /// Edge probability.
        p: f64,
    },
    /// Random `d`-regular graph (pairing model, seeded).
    RandomRegular {
        /// Number of nodes.
        n: usize,
        /// Degree.
        d: usize,
    },
    /// Random graph with maximum degree `delta` (seeded).
    RandomBoundedDegree {
        /// Number of nodes.
        n: usize,
        /// Degree cap.
        delta: usize,
        /// Density in `[0, 1]`.
        density: f64,
    },
    /// Uniform random labelled tree (Prüfer, seeded).
    RandomTree {
        /// Number of nodes.
        n: usize,
    },
    /// Barabási–Albert preferential attachment (seeded): heavy-tailed
    /// degrees, the workload that stresses the `Δ`-parametrised
    /// protocols with hubs far above the typical degree.
    PowerLaw {
        /// Number of nodes.
        n: usize,
        /// Edges added per new node.
        m: usize,
    },
    /// Random geometric graph in the unit square (seeded), truncated to a
    /// maximum degree so the bounded-degree protocols stay applicable —
    /// the "sensor network" workload.
    SensorNetwork {
        /// Number of points.
        n: usize,
        /// Degree cap applied after sampling.
        delta: usize,
    },
    /// The `layers`-fold cyclic lift of a base family (a covering graph;
    /// see [`covering::cyclic_lift`]). The port policy applies to the
    /// base; the lift inherits its numbering layer by layer.
    CyclicLift {
        /// The family being lifted.
        base: Box<Family>,
        /// Number of layers.
        layers: usize,
    },
    /// The `layers`-fold **simple** cover of the paper's Figure 2
    /// multigraph (parallel links, a directed loop, a link loop; see
    /// [`covering::simple_lift`]). The port numbering is forced by the
    /// lift construction — this is the adversarial covering-map workload.
    Figure2Cover {
        /// Number of layers (must be even and at least 4).
        layers: usize,
    },
    /// The million-node scale tier: an `n`-node cycle emitted straight
    /// into the flat port-numbered representation
    /// ([`generators::streamed_cycle`] — no adjacency lists, no builder,
    /// one `O(n)` pass), the workload that needs the parallel simulator
    /// engine to measure. The port numbering is part of the streamed
    /// construction: [`PortPolicy::Canonical`] fixes the role order,
    /// [`PortPolicy::Shuffled`] applies a seeded per-node permutation.
    MillionCycle {
        /// Number of nodes (any `n ≥ 3`; the registry instance uses
        /// `1_000_000`).
        n: usize,
    },
    /// The 3-regular sibling of [`Family::MillionCycle`]: a Hamiltonian
    /// cycle plus a seeded perfect matching
    /// ([`generators::streamed_cubic`]), odd-regular so the Theorem 4
    /// protocol joins the portfolio at scale.
    MillionRegular {
        /// Number of nodes (even, `n ≥ 4`; the registry instance uses
        /// `1_000_000`).
        n: usize,
    },
    /// The `index`-th connected graph on `n ≤ 6` nodes in the exhaustive
    /// enumeration of [`crate::small::connected`] — the substrate of the
    /// n ≤ 6 conformance suite.
    SmallConnected {
        /// Number of nodes (at most 6).
        n: usize,
        /// Index into the canonical enumeration.
        index: usize,
    },
    /// An externally supplied instance (a CLI input file, a hand-built
    /// numbering). External scenarios cannot be rebuilt from their spec —
    /// they enter a session through [`Scenario::external`], which wraps a
    /// ready-made port-numbered graph.
    External {
        /// Display name for reports.
        name: String,
    },
    /// A dynamic workload: the `base` family under a deterministic,
    /// seeded fault-injection schedule ([`crate::churn::ChurnPlan`] —
    /// edge inserts/deletes, crashes, joins, witness corruption). The spec
    /// builds the *initial* graph; the [`crate::churn`] runner evolves
    /// it burst by burst, re-stabilising and incrementally repairing the
    /// solution witness at every quiescence point.
    Churn {
        /// The family supplying the initial topology.
        base: Box<Family>,
        /// The fault-injection plan (bursts × events per burst).
        plan: crate::churn::ChurnPlan,
    },
}

impl Family {
    /// The family key used for grouping records in sweep reports (no size
    /// parameters, stable across instances).
    pub fn key(&self) -> &'static str {
        match self {
            Family::Path(_) => "path",
            Family::Cycle(_) => "cycle",
            Family::Complete(_) => "complete",
            Family::CompleteBipartite(..) => "complete-bipartite",
            Family::Crown(_) => "crown",
            Family::Star(_) => "star",
            Family::Hypercube(_) => "hypercube",
            Family::Grid(..) => "grid",
            Family::Torus(..) => "torus",
            Family::Petersen => "petersen",
            Family::Circulant { .. } => "circulant",
            Family::Wheel(_) => "wheel",
            Family::Ladder(_) => "ladder",
            Family::Gnp { .. } => "gnp",
            Family::RandomRegular { .. } => "random-regular",
            Family::RandomBoundedDegree { .. } => "random-bounded",
            Family::RandomTree { .. } => "random-tree",
            Family::PowerLaw { .. } => "power-law",
            Family::SensorNetwork { .. } => "sensor-network",
            Family::CyclicLift { .. } => "cyclic-lift",
            Family::Figure2Cover { .. } => "figure2-cover",
            Family::MillionCycle { .. } => "million-cycle",
            Family::MillionRegular { .. } => "million-regular",
            Family::SmallConnected { .. } => "small-connected",
            Family::External { .. } => "external",
            Family::Churn { .. } => "churn",
        }
    }

    /// A human-readable label including the size parameters.
    pub fn label(&self) -> String {
        match self {
            Family::Path(n) => format!("path-{n}"),
            Family::Cycle(n) => format!("cycle-{n}"),
            Family::Complete(n) => format!("k{n}"),
            Family::CompleteBipartite(a, b) => format!("k{a},{b}"),
            Family::Crown(n) => format!("crown-{n}"),
            Family::Star(n) => format!("star-{n}"),
            Family::Hypercube(d) => format!("hypercube-{d}"),
            Family::Grid(w, h) => format!("grid-{w}x{h}"),
            Family::Torus(w, h) => format!("torus-{w}x{h}"),
            Family::Petersen => "petersen".to_owned(),
            Family::Circulant { n, strides } => {
                let s: Vec<String> = strides.iter().map(ToString::to_string).collect();
                format!("circulant-{n}({})", s.join(","))
            }
            Family::Wheel(n) => format!("wheel-{n}"),
            Family::Ladder(n) => format!("ladder-{n}"),
            Family::Gnp { n, p } => format!("gnp-{n}-p{p}"),
            Family::RandomRegular { n, d } => format!("random-regular-{n}-d{d}"),
            Family::RandomBoundedDegree { n, delta, density } => {
                format!("random-bounded-{n}-D{delta}-q{density}")
            }
            Family::RandomTree { n } => format!("random-tree-{n}"),
            Family::PowerLaw { n, m } => format!("power-law-{n}-m{m}"),
            Family::SensorNetwork { n, delta } => format!("sensor-{n}-D{delta}"),
            Family::CyclicLift { base, layers } => format!("{}-lift{layers}", base.label()),
            Family::Figure2Cover { layers } => format!("figure2-cover-{layers}"),
            Family::MillionCycle { n } => format!("million-cycle-{n}"),
            Family::MillionRegular { n } => format!("million-regular-{n}"),
            Family::SmallConnected { n, index } => format!("small{n}-{index}"),
            Family::External { name } => name.clone(),
            Family::Churn { base, plan } => format!("churn({})-{}", base.label(), plan.tag()),
        }
    }

    /// Builds the underlying simple graph for non-covering families
    /// (covering families assemble their port-numbered graph directly in
    /// [`ScenarioSpec::build`]).
    ///
    /// # Errors
    ///
    /// Propagates generator parameter errors.
    pub fn simple(&self, seed: u64) -> Result<SimpleGraph, GraphError> {
        match self {
            Family::Path(n) => generators::path(*n),
            Family::Cycle(n) => generators::cycle(*n),
            Family::Complete(n) => generators::complete(*n),
            Family::CompleteBipartite(a, b) => generators::complete_bipartite(*a, *b),
            Family::Crown(n) => generators::crown(*n),
            Family::Star(n) => generators::star(*n),
            Family::Hypercube(d) => generators::hypercube(*d),
            Family::Grid(w, h) => generators::grid(*w, *h),
            Family::Torus(w, h) => generators::torus(*w, *h),
            Family::Petersen => Ok(generators::petersen()),
            Family::Circulant { n, strides } => generators::circulant(*n, strides),
            Family::Wheel(n) => generators::wheel(*n),
            Family::Ladder(n) => generators::ladder(*n),
            Family::Gnp { n, p } => generators::gnp(*n, *p, seed),
            Family::RandomRegular { n, d } => generators::random_regular(*n, *d, seed),
            Family::RandomBoundedDegree { n, delta, density } => {
                generators::random_bounded_degree(*n, *delta, *density, seed)
            }
            Family::RandomTree { n } => generators::random_tree(*n, seed),
            Family::PowerLaw { n, m } => generators::preferential_attachment(*n, *m, seed),
            Family::SensorNetwork { n, delta } => {
                let radius = (2.0 / (*n as f64)).sqrt();
                let full = generators::random_geometric(*n, radius, seed)?;
                let mut g = SimpleGraph::new(*n);
                for (_, u, v) in full.edges() {
                    if g.degree(u) < *delta && g.degree(v) < *delta {
                        g.add_edge(u, v)?;
                    }
                }
                Ok(g)
            }
            Family::CyclicLift { base, layers } => {
                // The lift of a simple graph is assembled via the port
                // structure; project it back for callers that want the
                // simple view.
                let pg =
                    covering::cyclic_lift(&ports::canonical_ports(&base.simple(seed)?)?, *layers).0;
                pg.to_simple()
            }
            Family::Figure2Cover { layers } => {
                covering::simple_lift(&figure2_multigraph(), *layers)?
                    .0
                    .to_simple()
            }
            Family::MillionCycle { n } => generators::streamed_cycle(*n, None)?.to_simple(),
            Family::MillionRegular { n } => {
                generators::streamed_cubic(*n, seed, false)?.to_simple()
            }
            Family::SmallConnected { n, index } => {
                let graphs = crate::small::connected(*n);
                graphs
                    .get(*index)
                    .cloned()
                    .ok_or_else(|| GraphError::InvalidParameter {
                        detail: format!(
                            "small-connected index {index} out of range for n = {n} \
                             ({} graphs)",
                            graphs.len()
                        ),
                    })
            }
            Family::External { name } => Err(GraphError::InvalidParameter {
                detail: format!(
                    "external scenario {name:?} cannot be rebuilt from its spec; \
                     construct it with Scenario::external"
                ),
            }),
            // The spec describes the *initial* topology; the churn runner
            // owns the evolution.
            Family::Churn { base, .. } => base.simple(seed),
        }
    }
}

/// How port numbers are assigned to the instance — the adversary's move
/// in the port-numbering model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PortPolicy {
    /// Adjacency-list insertion order ([`ports::canonical_ports`]).
    Canonical,
    /// A seeded random permutation per node ([`ports::shuffled_ports`],
    /// keyed by the scenario seed) — the generic adversarial permutation.
    Shuffled,
    /// The paper's 2-factorised adversarial numbering
    /// ([`ports::two_factor_ports`]); requires a `2k`-regular graph.
    TwoFactor,
    /// The numbering arrived with the graph ([`Scenario::external`]);
    /// there is no policy to apply.
    AsGiven,
}

impl PortPolicy {
    /// A short stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            PortPolicy::Canonical => "canonical",
            PortPolicy::Shuffled => "shuffled",
            PortPolicy::TwoFactor => "two-factor",
            PortPolicy::AsGiven => "as-given",
        }
    }

    /// Applies the policy to a simple graph.
    ///
    /// # Errors
    ///
    /// [`PortPolicy::TwoFactor`] fails on graphs that are not
    /// `2k`-regular and [`PortPolicy::AsGiven`] always fails (the
    /// numbering of an external scenario cannot be reconstructed); the
    /// other policies cannot fail on well-formed input.
    pub fn apply(self, g: &SimpleGraph, seed: u64) -> Result<PortNumberedGraph, GraphError> {
        match self {
            PortPolicy::Canonical => ports::canonical_ports(g),
            PortPolicy::Shuffled => ports::shuffled_ports(g, seed ^ 0x5cea_a110),
            PortPolicy::TwoFactor => ports::two_factor_ports(g),
            PortPolicy::AsGiven => Err(GraphError::InvalidParameter {
                detail: "as-given numberings arrive with the graph; nothing to apply".to_owned(),
            }),
        }
    }
}

/// A cheap description of one workload: family × seed × port policy,
/// optionally carrying execution defaults for the runs it hosts.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// The graph family and its size parameters.
    pub family: Family,
    /// Seed for random families and the shuffled port policy.
    pub seed: u64,
    /// The port-numbering policy.
    pub policy: PortPolicy,
    /// Execution defaults for this workload (the claimed `Δ`). `None`
    /// inherits the session's settings; a session-level
    /// [`crate::Session::delta_hint`] wins over spec defaults.
    pub exec: Option<ExecOptions>,
}

impl ScenarioSpec {
    /// Creates a spec.
    pub fn new(family: Family, seed: u64, policy: PortPolicy) -> Self {
        ScenarioSpec {
            family,
            seed,
            policy,
            exec: None,
        }
    }

    /// Attaches execution defaults (the claimed `Δ`) to the spec; see
    /// [`ScenarioSpec::exec`].
    pub fn with_exec(mut self, exec: ExecOptions) -> Self {
        self.exec = Some(exec);
        self
    }

    /// A unique display name: `label/policy/seed`.
    pub fn name(&self) -> String {
        format!(
            "{}/{}/s{}",
            self.family.label(),
            self.policy.name(),
            self.seed
        )
    }

    /// Materialises the scenario: builds the graph, applies the port
    /// policy (to the base graph for [`Family::CyclicLift`]; the forced
    /// lift numbering for [`Family::Figure2Cover`]) and computes the
    /// simple projection.
    ///
    /// # Errors
    ///
    /// Propagates generator and port-assignment errors.
    pub fn build(&self) -> Result<Scenario, GraphError> {
        let graph = self.build_graph()?;
        let simple = graph.to_simple()?;
        Ok(Scenario {
            spec: self.clone(),
            graph,
            simple,
        })
    }

    /// The port-numbered graph of [`ScenarioSpec::build`], without the
    /// simple projection.
    fn build_graph(&self) -> Result<PortNumberedGraph, GraphError> {
        Ok(match &self.family {
            Family::CyclicLift { base, layers } => {
                let g = base.simple(self.seed)?;
                let base_pg = self.policy.apply(&g, self.seed)?;
                covering::cyclic_lift(&base_pg, *layers).0
            }
            Family::Figure2Cover { layers } => {
                covering::simple_lift(&figure2_multigraph(), *layers)?.0
            }
            // The streamed scale tier assembles its flat involution
            // directly; the port policy selects the construction's own
            // numbering (canonical role order or a seeded per-node
            // permutation) instead of re-numbering a simple graph.
            Family::MillionCycle { n } => {
                let shuffle = self.streamed_shuffle()?;
                generators::streamed_cycle(*n, shuffle.then_some(self.seed))?
            }
            Family::MillionRegular { n } => {
                let shuffle = self.streamed_shuffle()?;
                generators::streamed_cubic(*n, self.seed, shuffle)?
            }
            // A churn scenario builds exactly like its base; the spec's
            // Churn wrapper is what routes the session to the dynamic
            // runner. The base's graph is projected once, in `build`.
            Family::Churn { base, .. } => {
                let inner = ScenarioSpec {
                    family: (**base).clone(),
                    seed: self.seed,
                    policy: self.policy,
                    exec: self.exec,
                };
                inner.build_graph()?
            }
            f => {
                let g = f.simple(self.seed)?;
                self.policy.apply(&g, self.seed)?
            }
        })
    }

    /// Whether the streamed families should apply their seeded per-node
    /// numbering; only the canonical and shuffled policies are
    /// meaningful for a construction that emits its numbering directly.
    fn streamed_shuffle(&self) -> Result<bool, GraphError> {
        match self.policy {
            PortPolicy::Canonical => Ok(false),
            PortPolicy::Shuffled => Ok(true),
            PortPolicy::TwoFactor | PortPolicy::AsGiven => Err(GraphError::InvalidParameter {
                detail: format!(
                    "the streamed {} family numbers its ports during generation; \
                     only the canonical and shuffled policies apply",
                    self.family.key()
                ),
            }),
        }
    }
}

/// A materialised workload: the spec plus its port-numbered graph and
/// simple projection.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// The spec this was built from.
    pub spec: ScenarioSpec,
    /// The port-numbered instance handed to protocols.
    pub graph: PortNumberedGraph,
    /// The simple projection used by checkers and exact solvers.
    pub simple: SimpleGraph,
}

impl Scenario {
    /// The spec's display name.
    pub fn name(&self) -> String {
        self.spec.name()
    }

    /// Wraps an externally constructed port-numbered graph as a scenario,
    /// so ad-hoc instances (CLI input files, hand-built numberings) flow
    /// through the same [`crate::Session`] machinery as registry
    /// workloads. The `seed` feeds the identifier/randomised baselines'
    /// per-node inputs.
    ///
    /// External instances are untrusted: the port tables are structurally
    /// validated first (consistent offsets, in-range endpoints, an
    /// involutive connection map), so a malformed hand-built numbering
    /// surfaces as a structured [`GraphError`] here instead of corrupting
    /// a simulation downstream.
    ///
    /// # Errors
    ///
    /// Returns the [`PortNumberedGraph::validate`] error for malformed
    /// or non-involutive port maps, and propagates projection errors for
    /// graphs that are not simple.
    pub fn external(
        name: impl Into<String>,
        graph: PortNumberedGraph,
        seed: u64,
    ) -> Result<Scenario, GraphError> {
        graph.validate()?;
        let simple = graph.to_simple()?;
        Ok(Scenario {
            spec: ScenarioSpec::new(
                Family::External { name: name.into() },
                seed,
                PortPolicy::AsGiven,
            ),
            graph,
            simple,
        })
    }
}

/// The paper's Figure 2 multigraph: two nodes joined by parallel links,
/// with a directed (fixed-point) loop and a link loop — the smallest
/// input exercising every edge shape the port-numbering model allows.
pub fn figure2_multigraph() -> PortNumberedGraph {
    let mut b = PnGraphBuilder::new();
    let s = b.add_node(3);
    let t = b.add_node(4);
    b.connect(
        Endpoint::new(s, Port::new(1)),
        Endpoint::new(t, Port::new(2)),
    )
    .expect("fresh ports");
    b.connect(
        Endpoint::new(s, Port::new(2)),
        Endpoint::new(t, Port::new(1)),
    )
    .expect("fresh ports");
    b.fix_point(Endpoint::new(s, Port::new(3)))
        .expect("fresh port");
    b.connect(
        Endpoint::new(t, Port::new(3)),
        Endpoint::new(t, Port::new(4)),
    )
    .expect("fresh ports");
    b.finish().expect("all ports wired")
}

/// Relabels the nodes of a port-numbered graph by a permutation:
/// node `v` of the result is node `perm[v]` of the input, with its port
/// order carried over unchanged. The result is PN-isomorphic to the
/// input; running a deterministic anonymous algorithm on both must give
/// outputs related by the same permutation (equivariance), which the
/// port-invariance tests assert.
///
/// # Panics
///
/// Panics if `perm` is not a permutation of `0..node_count`.
pub fn relabel_nodes(g: &PortNumberedGraph, perm: &[NodeId]) -> PortNumberedGraph {
    assert_eq!(perm.len(), g.node_count(), "permutation length mismatch");
    // inverse[old] = new
    let mut inverse = vec![usize::MAX; g.node_count()];
    for (new, old) in perm.iter().enumerate() {
        assert!(
            inverse[old.index()] == usize::MAX,
            "perm repeats node {old}"
        );
        inverse[old.index()] = new;
    }
    let mut b = PnGraphBuilder::new();
    for &old in perm {
        b.add_node(g.degree(old));
    }
    let mut wired = vec![false; g.port_count()];
    for old in g.nodes() {
        for p in g.ports(old) {
            let here = Endpoint::new(old, p);
            if wired[g.slot_of(here)] {
                continue;
            }
            let there = g.connection(here);
            wired[g.slot_of(here)] = true;
            wired[g.slot_of(there)] = true;
            let a = Endpoint::new(NodeId::new(inverse[old.index()]), p);
            if there == here {
                b.fix_point(a).expect("relabel preserves wiring");
            } else {
                let bb = Endpoint::new(NodeId::new(inverse[there.node.index()]), there.port);
                b.connect(a, bb).expect("relabel preserves wiring");
            }
        }
    }
    b.finish().expect("relabel wires every port")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_keys_are_stable() {
        let f = Family::Circulant {
            n: 10,
            strides: vec![1, 2],
        };
        assert_eq!(f.key(), "circulant");
        assert_eq!(f.label(), "circulant-10(1,2)");
        let spec = ScenarioSpec::new(f, 7, PortPolicy::Shuffled);
        assert_eq!(spec.name(), "circulant-10(1,2)/shuffled/s7");
    }

    #[test]
    fn build_is_deterministic() {
        let spec = ScenarioSpec::new(Family::Gnp { n: 12, p: 0.3 }, 9, PortPolicy::Shuffled);
        let a = spec.build().unwrap();
        let b = spec.build().unwrap();
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.simple, b.simple);
    }

    #[test]
    fn two_factor_policy_requires_even_regular() {
        let bad = ScenarioSpec::new(Family::Petersen, 0, PortPolicy::TwoFactor);
        assert!(bad.build().is_err());
        let good = ScenarioSpec::new(Family::Torus(4, 4), 0, PortPolicy::TwoFactor);
        let s = good.build().unwrap();
        assert_eq!(s.graph.regular_degree(), Some(4));
    }

    #[test]
    fn cyclic_lift_scenario_covers_base() {
        let spec = ScenarioSpec::new(
            Family::CyclicLift {
                base: Box::new(Family::Petersen),
                layers: 3,
            },
            1,
            PortPolicy::Shuffled,
        );
        let s = spec.build().unwrap();
        assert_eq!(s.graph.node_count(), 30);
        assert_eq!(s.graph.regular_degree(), Some(3));
        // The lift of a shuffled Petersen covers the shuffled base.
        let base = PortPolicy::Shuffled
            .apply(&Family::Petersen.simple(1).unwrap(), 1)
            .unwrap();
        let map = pn_graph::CoveringMap::new((0..30).map(|i| NodeId::new(i % 10)).collect());
        map.verify(&s.graph, &base).unwrap();
    }

    #[test]
    fn figure2_cover_is_simple() {
        let spec = ScenarioSpec::new(Family::Figure2Cover { layers: 4 }, 0, PortPolicy::Canonical);
        let s = spec.build().unwrap();
        assert!(s.graph.is_simple());
        assert_eq!(s.graph.node_count(), 8);
        assert_eq!(s.simple.edge_count(), s.graph.edge_count());
    }

    #[test]
    fn sensor_network_respects_cap() {
        let spec = ScenarioSpec::new(
            Family::SensorNetwork { n: 40, delta: 4 },
            3,
            PortPolicy::Shuffled,
        );
        let s = spec.build().unwrap();
        assert!(s.simple.max_degree() <= 4);
    }

    #[test]
    fn power_law_family_is_heavy_tailed_and_seeded() {
        let spec = ScenarioSpec::new(Family::PowerLaw { n: 40, m: 2 }, 3, PortPolicy::Shuffled);
        assert_eq!(spec.family.key(), "power-law");
        assert_eq!(spec.name(), "power-law-40-m2/shuffled/s3");
        let s = spec.build().unwrap();
        assert_eq!(s.simple.edge_count(), 2 + 2 * 37);
        assert!(s.simple.max_degree() > 2, "hubs expected");
        assert_eq!(s.graph, spec.build().unwrap().graph);
    }

    #[test]
    fn streamed_families_build_under_both_policies() {
        // Small instances of the million-scale families: the streamed
        // construction must produce valid, simple, correctly-sized
        // graphs under both supported numberings and reject the rest.
        for policy in [PortPolicy::Canonical, PortPolicy::Shuffled] {
            let cycle = ScenarioSpec::new(Family::MillionCycle { n: 60 }, 3, policy)
                .build()
                .unwrap();
            assert_eq!(cycle.graph.regular_degree(), Some(2));
            assert_eq!(cycle.simple.edge_count(), 60);
            let cubic = ScenarioSpec::new(Family::MillionRegular { n: 60 }, 3, policy)
                .build()
                .unwrap();
            assert_eq!(cubic.graph.regular_degree(), Some(3));
            assert!(cubic.graph.is_simple());
            assert_eq!(cubic.simple.edge_count(), 90);
        }
        let spec = ScenarioSpec::new(Family::MillionCycle { n: 12 }, 0, PortPolicy::TwoFactor);
        assert!(spec.build().is_err(), "streamed numbering is built in");
        assert_eq!(
            ScenarioSpec::new(Family::MillionRegular { n: 20 }, 1, PortPolicy::Shuffled).name(),
            "million-regular-20/shuffled/s1"
        );
    }

    #[test]
    fn streamed_family_simple_matches_the_built_graph() {
        for family in [
            Family::MillionCycle { n: 24 },
            Family::MillionRegular { n: 24 },
        ] {
            let spec = ScenarioSpec::new(family, 5, PortPolicy::Shuffled);
            let scenario = spec.build().unwrap();
            // Family::simple and the built scenario agree on the edge
            // set (the numbering is not part of the simple projection).
            let simple = spec.family.simple(5).unwrap();
            assert_eq!(simple.edge_count(), scenario.simple.edge_count());
            for (_, u, v) in simple.edges() {
                assert!(scenario.simple.has_edge(u, v), "{}: {u}-{v}", spec.name());
            }
        }
    }

    #[test]
    fn spec_exec_defaults_are_attached_and_compared() {
        let plain = ScenarioSpec::new(Family::MillionCycle { n: 12 }, 0, PortPolicy::Shuffled);
        assert_eq!(plain.exec, None);
        let hinted = plain.clone().with_exec(ExecOptions { delta: Some(4) });
        assert_eq!(hinted.exec.unwrap().delta, Some(4));
        assert_ne!(plain, hinted);
        // The exec knobs are metadata: the built graphs are identical.
        assert_eq!(plain.build().unwrap().graph, hinted.build().unwrap().graph);
    }

    #[test]
    fn external_scenarios_wrap_ready_made_graphs() {
        let pg = ports::shuffled_ports(&generators::petersen(), 5).unwrap();
        let s = Scenario::external("my-input", pg.clone(), 7).unwrap();
        assert_eq!(s.name(), "my-input/as-given/s7");
        assert_eq!(s.graph, pg);
        assert_eq!(s.simple.edge_count(), 15);
        // The spec is metadata only: external scenarios cannot rebuild.
        assert!(s.spec.build().is_err());
        // The untrusted input was structurally validated on the way in.
        assert!(s.graph.validate().is_ok());
    }

    #[test]
    fn external_rejects_non_simple_instances() {
        // The Figure 2 multigraph has valid port tables but parallel
        // links and loops: it fails the simple projection with a
        // structured error instead of entering a session.
        let err = Scenario::external("fig2", figure2_multigraph(), 0).unwrap_err();
        assert!(matches!(err, GraphError::NotSimple { .. }), "{err:?}");
    }

    #[test]
    fn relabel_preserves_structure() {
        let g = ports::shuffled_ports(&generators::petersen(), 11).unwrap();
        let perm: Vec<NodeId> = (0..10).rev().map(NodeId::new).collect();
        let h = relabel_nodes(&g, &perm);
        assert_eq!(h.node_count(), g.node_count());
        assert_eq!(h.edge_count(), g.edge_count());
        for new in h.nodes() {
            let old = perm[new.index()];
            assert_eq!(h.degree(new), g.degree(old));
            for p in h.ports(new) {
                let t_new = h.connection(Endpoint::new(new, p));
                let t_old = g.connection(Endpoint::new(old, p));
                assert_eq!(perm[t_new.node.index()], t_old.node);
                assert_eq!(t_new.port, t_old.port);
            }
        }
    }

    #[test]
    #[should_panic(expected = "perm repeats")]
    fn relabel_rejects_non_permutation() {
        let g = ports::canonical_ports(&generators::path(3).unwrap()).unwrap();
        let perm = vec![NodeId::new(0), NodeId::new(0), NodeId::new(2)];
        let _ = relabel_nodes(&g, &perm);
    }
}
