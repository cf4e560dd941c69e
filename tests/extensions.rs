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
    // Every round up to the end has the full 2|E| messages (everyone runs
    // the whole schedule in a regular graph).
    for r in 0..run.rounds {
        assert_eq!(
            trace.round_messages(r).count(),
            2 * g.edge_count(),
            "round {r}"
        );
    }
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
