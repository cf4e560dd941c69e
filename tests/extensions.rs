//! Integration tests for the extension modules: weighted EDS, the vertex
//! cover sibling algorithm, execution traces, DOT rendering, and the
//! workload suites.

use edge_dominating_sets::algorithms::vertex_cover::{
    is_vertex_cover, vertex_cover_distributed, vertex_cover_reference,
};
use edge_dominating_sets::baselines::weighted::{
    greedy_weighted_eds, minimum_weight_eds, EdgeWeights,
};
use edge_dominating_sets::baselines::{exact, two_approx};
use edge_dominating_sets::graph::dot::{pn_to_dot, to_dot, EdgeClassStyle};
use edge_dominating_sets::prelude::*;
use edge_dominating_sets::runtime::RunOptions;

#[test]
fn weighted_eds_respects_structure() {
    // Weighted optimum <= uniform optimum weight when weights <= 1 scale,
    // and uniform weights recover the unweighted optimum.
    for seed in 0..5u64 {
        let g = generators::gnp(9, 0.4, seed).unwrap();
        let uniform = EdgeWeights::uniform(&g);
        let (eds, w) = minimum_weight_eds(&g, &uniform);
        assert_eq!(w as usize, exact::minimum_eds_size(&g), "seed {seed}");
        assert!(exact::is_edge_dominating_set(&g, &eds));

        let random = EdgeWeights::random(&g, 6, seed);
        let (weds, ww) = minimum_weight_eds(&g, &random);
        assert!(exact::is_edge_dominating_set(&g, &weds));
        // Any feasible solution weighs at least the optimum.
        let greedy = greedy_weighted_eds(&g, &random);
        assert!(random.total(&greedy) >= ww);
        let matching = two_approx::two_approximation(&g);
        assert!(random.total(&matching) >= ww);
    }
}

#[test]
fn vertex_cover_within_factor_three_of_matching_bound() {
    // |VC| >= |any matching|; our cover is at most 3x the minimum, and
    // the minimum is at least any matching size.
    for seed in 0..5u64 {
        let g = generators::random_bounded_degree(18, 4, 0.8, seed).unwrap();
        if g.is_edgeless() {
            continue;
        }
        let pg = ports::shuffled_ports(&g, seed).unwrap();
        let cover = vertex_cover_reference(&pg);
        assert!(is_vertex_cover(&pg, &cover));
        let mm = two_approx::two_approximation(&g);
        // minimum VC >= |mm| is false in general... |mm| <= 2 min VC... use:
        // |cover| <= 3 min VC <= 3 * (2 |mm|)... the usable sandwich:
        // min VC >= |maximum matching| >= |mm| / 2... keep it simple:
        // cover is at most 3x min VC and min VC <= 2|mm| always.
        assert!(cover.len() <= 6 * mm.len().max(1));
        let distributed = vertex_cover_distributed(&pg, 4).unwrap();
        assert_eq!(cover, distributed);
    }
}

#[test]
fn traces_replay_message_counts() {
    let g = ports::shuffled_ports(&generators::petersen(), 5).unwrap();
    let sim = edge_dominating_sets::runtime::Simulator::with_options(
        &g,
        RunOptions {
            record_trace: true,
            ..RunOptions::default()
        },
    );
    let run = sim
        .run(|_, d| edge_dominating_sets::algorithms::distributed::RegularOddNode::new(d))
        .unwrap();
    let trace = run.trace.expect("requested");
    assert_eq!(trace.message_count(), run.messages);
    assert_eq!(trace.halts.len(), g.node_count());
    // Rounds 0 and 1 carry a message on every port; later rounds only
    // the exchanges of nodes still deciding, never more than 2|E|.
    for r in 0..run.rounds {
        let count = trace.round_messages(r).count();
        if r < 2 {
            assert_eq!(count, 2 * g.edge_count(), "round {r}");
        } else {
            assert!(count <= 2 * g.edge_count(), "round {r}: {count}");
        }
    }
}

/// The rendered transcripts of two runs, pinned as text: port-one on a
/// triangle and A(2) on a five-node path, both with canonical ports.
/// They fix the order of message and halt events within a round (nodes
/// ascending, then ports ascending) and the `Debug` text of messages and
/// of `PortSet` outputs.
#[test]
fn transcripts_render_as_recorded() {
    use edge_dominating_sets::algorithms::distributed::BoundedDegreeNode;
    use edge_dominating_sets::algorithms::port_one::PortOneNode;
    use edge_dominating_sets::runtime::{NodeAlgorithm, Simulator};

    fn render<A: NodeAlgorithm>(
        g: &PortNumberedGraph,
        factory: impl Fn(NodeId, usize) -> A,
    ) -> String {
        let options = RunOptions {
            record_trace: true,
            ..RunOptions::default()
        };
        let run = Simulator::with_options(g, options).run(factory).unwrap();
        run.trace.expect("requested").render()
    }

    let triangle = ports::canonical_ports(&generators::cycle(3).unwrap()).unwrap();
    assert_eq!(
        render(&triangle, |_, d| PortOneNode::new(d)),
        "\
round 0:
  (0, 1) -> (1, 1): true
  (0, 2) -> (2, 2): false
  (1, 1) -> (0, 1): true
  (1, 2) -> (2, 1): false
  (2, 1) -> (1, 2): true
  (2, 2) -> (0, 2): false
  halt n0: PortSet { ports: {p1} }
  halt n1: PortSet { ports: {p1, p2} }
  halt n2: PortSet { ports: {p1} }
"
    );

    let path = ports::canonical_ports(&generators::path(5).unwrap()).unwrap();
    assert_eq!(
        render(&path, |_, d| BoundedDegreeNode::new(2, d)),
        "\
round 0:
  (0, 1) -> (1, 1): Hello { port: 1, degree: 1 }
  (1, 1) -> (0, 1): Hello { port: 1, degree: 2 }
  (1, 2) -> (2, 1): Hello { port: 2, degree: 2 }
  (2, 1) -> (1, 2): Hello { port: 1, degree: 2 }
  (2, 2) -> (3, 1): Hello { port: 2, degree: 2 }
  (3, 1) -> (2, 2): Hello { port: 1, degree: 2 }
  (3, 2) -> (4, 1): Hello { port: 2, degree: 2 }
  (4, 1) -> (3, 2): Hello { port: 1, degree: 1 }
round 1:
  (0, 1) -> (1, 1): Claim(true)
  (1, 1) -> (0, 1): Claim(true)
  (1, 2) -> (2, 1): Claim(false)
  (2, 1) -> (1, 2): Claim(false)
  (2, 2) -> (3, 1): Claim(false)
  (3, 1) -> (2, 2): Claim(false)
  (3, 2) -> (4, 1): Claim(false)
  (4, 1) -> (3, 2): Claim(true)
round 2:
  (0, 1) -> (1, 1): Cover(false)
  (1, 1) -> (0, 1): Cover(false)
  (1, 2) -> (2, 1): Cover(false)
  (2, 1) -> (1, 2): Cover(false)
  (2, 2) -> (3, 1): Cover(false)
  (3, 1) -> (2, 2): Cover(false)
  (3, 2) -> (4, 1): Cover(false)
  (4, 1) -> (3, 2): Cover(false)
  halt n0: PortSet { ports: {p1} }
  halt n1: PortSet { ports: {p1} }
round 3:
  (2, 1) -> (1, 2): Cover(false)
  (2, 2) -> (3, 1): Cover(false)
  (3, 1) -> (2, 2): Cover(false)
  (3, 2) -> (4, 1): Cover(false)
  (4, 1) -> (3, 2): Cover(false)
  halt n3: PortSet { ports: {p2} }
  halt n4: PortSet { ports: {p1} }
round 4:
  (2, 1) -> (1, 2): Cover(false)
  (2, 2) -> (3, 1): Cover(false)
  halt n2: PortSet { ports: {} }
"
    );
}

#[test]
fn dot_outputs_contain_all_edges() {
    let g = generators::petersen();
    let dot = to_dot(&g, "p", &[]);
    assert_eq!(dot.matches(" -- ").count(), g.edge_count());

    let pg = ports::canonical_ports(&g).unwrap();
    let highlighted: Vec<EdgeId> = pg.edges().map(|(e, _)| e).take(3).collect();
    let pdot = pn_to_dot(&pg, "pp", &[EdgeClassStyle::new("x", "red", highlighted)]);
    assert_eq!(pdot.matches(" -- ").count(), pg.edge_count());
    assert_eq!(pdot.matches("color=\"red\"").count(), 3);
    assert_eq!(pdot.matches("taillabel").count(), pg.edge_count());
}

#[test]
fn classic_workloads_run_everything() {
    use edge_dominating_sets::algorithms::bounded_degree::bounded_degree_reference;
    for w in eds_bench_workloads() {
        let delta = w.graph.max_degree();
        if delta == 0 {
            continue;
        }
        let result = bounded_degree_reference(&w.graph, delta).unwrap();
        let simple = w.graph.to_simple().unwrap();
        check_edge_dominating_set(&simple, &result.dominating_set)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
    }
}

// Local copy of the bench workloads (the bench crate is not a dependency
// of the umbrella crate; reconstruct the same suite here).
struct Workload {
    name: String,
    graph: PortNumberedGraph,
}

fn eds_bench_workloads() -> Vec<Workload> {
    let named: Vec<(&str, SimpleGraph)> = vec![
        ("petersen", generators::petersen()),
        ("hypercube-4", generators::hypercube(4).unwrap()),
        ("torus-5x5", generators::torus(5, 5).unwrap()),
        ("grid-6x6", generators::grid(6, 6).unwrap()),
        ("cycle-30", generators::cycle(30).unwrap()),
        ("crown-5", generators::crown(5).unwrap()),
        ("complete-7", generators::complete(7).unwrap()),
        ("star-9", generators::star(9).unwrap()),
    ];
    named
        .into_iter()
        .map(|(name, g)| Workload {
            name: name.to_owned(),
            graph: ports::canonical_ports(&g).unwrap(),
        })
        .collect()
}

#[test]
fn distributed_protocols_on_classic_workloads() {
    use edge_dominating_sets::algorithms::bounded_degree::bounded_degree_reference;
    use edge_dominating_sets::algorithms::distributed::bounded_degree_distributed;
    for w in eds_bench_workloads() {
        let delta = w.graph.max_degree();
        if delta == 0 {
            continue;
        }
        let reference = bounded_degree_reference(&w.graph, delta).unwrap();
        let distributed = bounded_degree_distributed(&w.graph, delta).unwrap();
        assert_eq!(
            reference.dominating_set, distributed,
            "{}: distributed != reference",
            w.name
        );
    }
}

#[test]
fn message_complexity_is_linear_in_edges_per_round() {
    // The simulator counts messages: every running node sends exactly one
    // message per port per round. Port-one runs one round everywhere, so
    // messages = 2|E|; A(Δ) nodes halt at different rounds, so messages
    // = Σ_v deg(v)·halted_at[v], within the schedule's cap.
    use edge_dominating_sets::algorithms::distributed::{
        bounded_schedule_length, BoundedDegreeNode,
    };
    let g = ports::canonical_ports(&generators::torus(4, 4).unwrap()).unwrap();
    let run = edge_dominating_sets::runtime::Simulator::new(&g)
        .run(|_, d| edge_dominating_sets::algorithms::port_one::PortOneNode::new(d))
        .unwrap();
    assert_eq!(run.messages, 2 * g.edge_count());
    let delta = 4;
    let run = edge_dominating_sets::runtime::Simulator::new(&g)
        .run(|_, d| BoundedDegreeNode::new(delta, d))
        .unwrap();
    let sent: usize = g
        .nodes()
        .map(|v| g.degree(v) * run.halted_at[v.index()])
        .sum();
    assert_eq!(run.messages, sent);
    assert!(run.rounds <= bounded_schedule_length(delta));
}
