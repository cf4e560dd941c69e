//! Property tests: the sequential engine and the worker pool produce
//! **bit-identical** [`pn_runtime::Run`]s, for anonymous node states and
//! for states that depend on the node id the factory receives.
//!
//! The inputs deliberately cover the awkward corners of the model:
//! shuffled port numberings, half-loops (fixed points of the involution),
//! link-loops (a node wired to itself through two ports), parallel
//! edges, and staggered halting (low-degree nodes fall silent while
//! high-degree neighbours keep running and observe `None`s).

use pn_graph::{generators, ports, Endpoint, NodeId, PnGraphBuilder, Port, PortNumberedGraph};
use pn_runtime::{NodeAlgorithm, Run, RunOptions, Simulator};
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// The workhorse protocol: gossips a mixing hash of everything heard,
/// treats `None`s as distinct observations, and halts after `degree + 2`
/// rounds — so halting is staggered by degree and late rounds exercise
/// the frontier with silent neighbours.
#[derive(Clone)]
struct Churn {
    degree: usize,
    acc: u64,
    round_count: usize,
}

impl Churn {
    /// The anonymous variant: the initial state depends on the degree only.
    fn new(_v: NodeId, degree: usize) -> Self {
        Churn {
            degree,
            acc: degree as u64 ^ 0x9e37_79b9,
            round_count: 0,
        }
    }

    /// The identifier-model variant: the initial state also mixes in the
    /// node id, so every node starts from a different state.
    fn identified(v: NodeId, degree: usize) -> Self {
        let mut churn = Churn::new(v, degree);
        churn.acc ^= (v.index() as u64 + 1).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        churn
    }
}

impl NodeAlgorithm for Churn {
    type Message = u64;
    type Output = u64;

    fn send_into(&mut self, round: usize, outbox: &mut [Option<u64>]) {
        for (q, slot) in outbox.iter_mut().enumerate() {
            *slot = Some(self.acc.wrapping_add((round * 31 + q) as u64));
        }
    }

    fn receive(&mut self, _round: usize, inbox: &[Option<u64>]) -> Option<u64> {
        for (q, m) in inbox.iter().enumerate() {
            match m {
                Some(x) => self.acc = self.acc.rotate_left(9) ^ x,
                None => self.acc = self.acc.wrapping_mul(37).wrapping_add(q as u64),
            }
        }
        self.round_count += 1;
        (self.round_count > self.degree + 1).then_some(self.acc)
    }
}

/// A simulator for `pg` on `threads` workers.
fn on_threads(pg: &PortNumberedGraph, threads: usize) -> Simulator<'_> {
    Simulator::with_options(
        pg,
        RunOptions {
            threads,
            ..RunOptions::default()
        },
    )
}

fn assert_identical<O: PartialEq + std::fmt::Debug>(a: &Run<O>, b: &Run<O>, what: &str) {
    assert_eq!(a.outputs, b.outputs, "{what}: outputs differ");
    assert_eq!(a.halted_at, b.halted_at, "{what}: halted_at differs");
    assert_eq!(a.rounds, b.rounds, "{what}: rounds differ");
    assert_eq!(a.messages, b.messages, "{what}: messages differ");
}

fn check_all_paths(pg: &PortNumberedGraph) {
    let sim = Simulator::new(pg);
    let anonymous = sim.run(Churn::new).unwrap();
    let identified = sim.run(Churn::identified).unwrap();
    for threads in [1usize, 3, 7] {
        let pool = on_threads(pg, threads);
        let par = pool.run(Churn::new).unwrap();
        assert_identical(&anonymous, &par, &format!("sequential vs pool({threads})"));
        let par = pool.run(Churn::identified).unwrap();
        assert_identical(
            &identified,
            &par,
            &format!("node-dependent states: sequential vs pool({threads})"),
        );
    }
}

/// A seeded multigraph with half-loops: random stubs paired up, with
/// leftovers and a seed-dependent share of pairs turned into fixed
/// points of the involution.
fn loopy_multigraph(n: usize, seed: u64) -> PortNumberedGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = PnGraphBuilder::new();
    let mut stubs: Vec<Endpoint> = Vec::new();
    for _ in 0..n {
        let d = rng.gen_range(1usize..=4);
        let node = b.add_node(d);
        for p in 0..d {
            stubs.push(Endpoint::new(node, Port::from_index(p)));
        }
    }
    stubs.shuffle(&mut rng);
    while stubs.len() >= 2 {
        let a = stubs.pop().unwrap();
        if rng.gen_bool(0.2) {
            // A half-loop: the message comes straight back.
            b.fix_point(a).unwrap();
            continue;
        }
        let c = stubs.pop().unwrap();
        b.connect(a, c).unwrap();
    }
    if let Some(last) = stubs.pop() {
        b.fix_point(last).unwrap();
    }
    b.finish().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random simple graphs under shuffled port numberings.
    #[test]
    fn engines_agree_on_gnp(n in 2usize..32, p in 0.05f64..0.7, gseed in 0u64..500, pseed in 0u64..500) {
        let g = generators::gnp(n, p, gseed).unwrap();
        let pg = ports::shuffled_ports(&g, pseed).unwrap();
        check_all_paths(&pg);
    }

    /// Random regular graphs under shuffled port numberings.
    #[test]
    fn engines_agree_on_regular(n0 in 4usize..24, d in 1usize..6, gseed in 0u64..500, pseed in 0u64..500) {
        let d = d.min(n0 - 1);
        let n = if (n0 * d) % 2 == 1 { n0 + 1 } else { n0 };
        let g = generators::random_regular(n, d, gseed).unwrap();
        let pg = ports::shuffled_ports(&g, pseed).unwrap();
        check_all_paths(&pg);
    }

    /// Multigraphs with half-loops, link-loops and parallel edges.
    #[test]
    fn engines_agree_on_loopy_multigraphs(n in 1usize..24, seed in 0u64..10_000) {
        let pg = loopy_multigraph(n, seed);
        check_all_paths(&pg);
    }
}

#[test]
fn engines_agree_on_petersen_covering() {
    // The Petersen graph and a cyclic 3-lift of it (a covering graph):
    // staple workloads of the paper's lower-bound machinery.
    let pg = ports::shuffled_ports(&generators::petersen(), 11).unwrap();
    check_all_paths(&pg);
    let (lift, _) = pn_graph::covering::cyclic_lift(&pg, 3);
    check_all_paths(&lift);
}

#[test]
fn frontier_skips_halted_nodes_without_changing_results() {
    // A star: the hub (degree 12) outlives every leaf by many rounds; the
    // frontier shrinks to a single node for most of the execution.
    let g = ports::canonical_ports(&generators::star(12).unwrap()).unwrap();
    check_all_paths(&g);
    let run = Simulator::new(&g).run(Churn::new).unwrap();
    // Leaves (degree 1) halt after round 3; the hub needs 14 rounds.
    assert_eq!(run.rounds, 14);
    assert_eq!(run.halted_at.iter().filter(|&&r| r == 3).count(), 12);
}

#[test]
fn engines_agree_on_edgeless_graphs() {
    let g = ports::canonical_ports(&pn_graph::SimpleGraph::new(5)).unwrap();
    check_all_paths(&g);
}

// ---- Pool-engine edge cases: each asserted against the sequential
// `Run`, covering the corners of the chunk layout and the round loop. ----

#[test]
fn pool_with_more_threads_than_nodes() {
    // The pool clamps to one worker per node; the surplus spawns nothing
    // and empty tail chunks must neither panic nor change results.
    for n in [1usize, 2, 3, 5] {
        let g = ports::canonical_ports(&generators::path(n).unwrap()).unwrap();
        let seq = Simulator::new(&g).run(Churn::new).unwrap();
        for threads in [n + 1, 2 * n + 3, 64] {
            let par = on_threads(&g, threads).run(Churn::new).unwrap();
            assert_identical(&seq, &par, &format!("n = {n}, threads = {threads}"));
        }
    }
}

#[test]
fn pool_with_one_thread_is_bit_identical_to_run() {
    // threads == 1 takes the sequential engine verbatim, including the
    // trace.
    let g = ports::shuffled_ports(&generators::gnp(24, 0.2, 3).unwrap(), 4).unwrap();
    let seq = Simulator::new(&g).run(Churn::new).unwrap();
    let par = on_threads(&g, 1).run(Churn::new).unwrap();
    assert_identical(&seq, &par, "threads = 1");
    assert!(par.trace.is_none(), "no trace was requested");
    let sim = Simulator::with_options(
        &g,
        RunOptions {
            record_trace: true,
            threads: 1,
            ..RunOptions::default()
        },
    );
    let traced = sim.run(Churn::new).unwrap();
    assert!(
        traced.trace.is_some(),
        "the single-worker run honours record_trace"
    );
}

#[test]
fn traced_run_on_many_threads_keeps_its_trace() {
    // The pool records no transcript, so a traced run takes the
    // sequential engine whatever `threads` says — and loses nothing.
    let g = ports::shuffled_ports(&generators::gnp(24, 0.2, 3).unwrap(), 4).unwrap();
    let traced = |threads| {
        Simulator::with_options(
            &g,
            RunOptions {
                record_trace: true,
                threads,
                ..RunOptions::default()
            },
        )
        .run(Churn::new)
        .unwrap()
    };
    let seq = traced(1);
    let par = traced(4);
    assert_identical(&seq, &par, "traced, threads = 4");
    let trace = par
        .trace
        .expect("record_trace with threads = 4 keeps the trace");
    assert_eq!(trace.render(), seq.trace.expect("traced").render());
}

#[test]
fn pool_when_every_node_halts_in_round_zero() {
    // One round, then global quiescence: the termination agreement must
    // fire on the very first barrier epoch.
    struct OneShot;
    impl NodeAlgorithm for OneShot {
        type Message = u8;
        type Output = usize;
        fn send_into(&mut self, _r: usize, outbox: &mut [Option<u8>]) {
            outbox.fill(Some(7));
        }
        fn receive(&mut self, _r: usize, inbox: &[Option<u8>]) -> Option<usize> {
            Some(inbox.iter().flatten().count())
        }
    }
    let g = ports::shuffled_ports(&generators::torus(5, 5).unwrap(), 9).unwrap();
    let seq = Simulator::new(&g).run(|_, _| OneShot).unwrap();
    assert_eq!(seq.rounds, 1);
    for threads in [2usize, 3, 8] {
        let par = on_threads(&g, threads).run(|_, _| OneShot).unwrap();
        assert_eq!(par.outputs, seq.outputs, "threads = {threads}");
        assert_eq!(par.halted_at, seq.halted_at, "threads = {threads}");
        assert_eq!(par.rounds, 1, "threads = {threads}");
        assert_eq!(par.messages, seq.messages, "threads = {threads}");
    }
}

#[test]
fn pool_with_isolated_nodes() {
    // A degree-0 node has an empty port window: it must still run its
    // receive schedule (observing an empty inbox) and halt on time.
    let mut g = pn_graph::SimpleGraph::new(7);
    // Nodes 0-2 a triangle, node 3 isolated, nodes 4-5 an edge, node 6
    // isolated — isolated nodes in the middle and at the chunk tail.
    g.add_edge_ids(0, 1).unwrap();
    g.add_edge_ids(1, 2).unwrap();
    g.add_edge_ids(2, 0).unwrap();
    g.add_edge_ids(4, 5).unwrap();
    let pg = ports::canonical_ports(&g).unwrap();
    let seq = Simulator::new(&pg).run(Churn::new).unwrap();
    // Churn halts after degree + 2 rounds: isolated nodes after 2.
    assert_eq!(seq.halted_at[3], 2);
    assert_eq!(seq.halted_at[6], 2);
    for threads in [2usize, 3, 7, 20] {
        let par = on_threads(&pg, threads).run(Churn::new).unwrap();
        assert_identical(&seq, &par, &format!("threads = {threads}"));
    }
}
