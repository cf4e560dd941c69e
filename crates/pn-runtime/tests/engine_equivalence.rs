//! Property tests: the three executions of one algorithm — native
//! `send_into`, the legacy allocating `send` path, and the parallel
//! driver — produce **bit-identical** [`pn_runtime::Run`]s.
//!
//! The inputs deliberately cover the awkward corners of the model:
//! shuffled port numberings, half-loops (fixed points of the involution),
//! link-loops (a node wired to itself through two ports), parallel
//! edges, and staggered halting (low-degree nodes fall silent while
//! high-degree neighbours keep running and observe `None`s).

use pn_graph::{generators, ports, Endpoint, PnGraphBuilder, Port, PortNumberedGraph};
use pn_runtime::{collect_send, NodeAlgorithm, Run, Simulator, WrongCount};
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
    fn new(degree: usize) -> Self {
        Churn {
            degree,
            acc: degree as u64 ^ 0x9e37_79b9,
            round_count: 0,
        }
    }
}

impl NodeAlgorithm for Churn {
    type Message = u64;
    type Output = u64;

    fn send(&mut self, round: usize) -> Vec<u64> {
        collect_send(self, round, self.degree)
    }

    fn send_into(&mut self, round: usize, outbox: &mut [Option<u64>]) -> Result<(), WrongCount> {
        for (q, slot) in outbox.iter_mut().enumerate() {
            *slot = Some(self.acc.wrapping_add((round * 31 + q) as u64));
        }
        Ok(())
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

/// Forces the legacy `send` path: delegates `send` to the inner
/// algorithm and does **not** override `send_into`, so the simulator
/// takes the default Vec-allocating delegation with its count check.
#[derive(Clone)]
struct LegacyPath<A>(A);

impl<A: NodeAlgorithm> NodeAlgorithm for LegacyPath<A> {
    type Message = A::Message;
    type Output = A::Output;

    fn send(&mut self, round: usize) -> Vec<A::Message> {
        self.0.send(round)
    }

    fn receive(&mut self, round: usize, inbox: &[Option<A::Message>]) -> Option<A::Output> {
        self.0.receive(round, inbox)
    }
}

fn assert_identical<O: PartialEq + std::fmt::Debug>(a: &Run<O>, b: &Run<O>, what: &str) {
    assert_eq!(a.outputs, b.outputs, "{what}: outputs differ");
    assert_eq!(a.halted_at, b.halted_at, "{what}: halted_at differs");
    assert_eq!(a.rounds, b.rounds, "{what}: rounds differ");
    assert_eq!(a.messages, b.messages, "{what}: messages differ");
}

fn check_all_paths(pg: &PortNumberedGraph) {
    let sim = Simulator::new(pg);
    let native = sim.run(Churn::new).unwrap();
    let legacy = sim.run(|d| LegacyPath(Churn::new(d))).unwrap();
    assert_identical(&native, &legacy, "send_into vs legacy send");
    for threads in [1usize, 3, 7] {
        let par = sim.run_parallel(Churn::new, threads).unwrap();
        assert_identical(&native, &par, &format!("sequential vs parallel({threads})"));
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
        let sim = Simulator::new(&g);
        let seq = sim.run(Churn::new).unwrap();
        for threads in [n + 1, 2 * n + 3, 64] {
            let par = sim.run_parallel(Churn::new, threads).unwrap();
            assert_identical(&seq, &par, &format!("n = {n}, threads = {threads}"));
        }
    }
}

#[test]
fn pool_with_one_thread_is_bit_identical_to_run() {
    // threads == 1 takes the sequential engine verbatim — including the
    // trace, which the multi-worker pool does not produce.
    let g = ports::shuffled_ports(&generators::gnp(24, 0.2, 3).unwrap(), 4).unwrap();
    let sim = Simulator::new(&g);
    let seq = sim.run(Churn::new).unwrap();
    let par = sim.run_parallel(Churn::new, 1).unwrap();
    assert_identical(&seq, &par, "threads = 1");
    assert!(par.trace.is_none(), "no trace was requested");
    let sim = Simulator::with_options(
        &g,
        pn_runtime::RunOptions {
            record_trace: true,
            ..pn_runtime::RunOptions::default()
        },
    );
    let traced = sim.run_parallel(Churn::new, 1).unwrap();
    assert!(
        traced.trace.is_some(),
        "the single-worker pool honours record_trace like run()"
    );
}

#[test]
fn pool_when_every_node_halts_in_round_zero() {
    // One round, then global quiescence: the termination agreement must
    // fire on the very first barrier epoch.
    struct OneShot {
        degree: usize,
    }
    impl NodeAlgorithm for OneShot {
        type Message = u8;
        type Output = usize;
        fn send(&mut self, _r: usize) -> Vec<u8> {
            vec![7; self.degree]
        }
        fn receive(&mut self, _r: usize, inbox: &[Option<u8>]) -> Option<usize> {
            Some(inbox.iter().flatten().count())
        }
    }
    let g = ports::shuffled_ports(&generators::torus(5, 5).unwrap(), 9).unwrap();
    let sim = Simulator::new(&g);
    let seq = sim.run(|d: usize| OneShot { degree: d }).unwrap();
    assert_eq!(seq.rounds, 1);
    for threads in [2usize, 3, 8] {
        let par = sim
            .run_parallel(|d: usize| OneShot { degree: d }, threads)
            .unwrap();
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
    let sim = Simulator::new(&pg);
    let seq = sim.run(Churn::new).unwrap();
    // Churn halts after degree + 2 rounds: isolated nodes after 2.
    assert_eq!(seq.halted_at[3], 2);
    assert_eq!(seq.halted_at[6], 2);
    for threads in [2usize, 3, 7, 20] {
        let par = sim.run_parallel(Churn::new, threads).unwrap();
        assert_identical(&seq, &par, &format!("threads = {threads}"));
    }
}
