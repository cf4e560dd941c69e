//! Extension experiment **X-scale**: how large a network the simulator
//! handles, and what the parallel driver buys.
//!
//! Runs the distributed `A(Δ)` protocol on random geometric
//! "sensor networks" from 10⁴ to 2·10⁵ nodes, sequentially and with the
//! multi-threaded driver, reporting wall-clock times, message totals and
//! (identical) solution sizes. Locality makes the round count constant,
//! so total work grows linearly in the number of links — the simulation
//! scales the same way.
//!
//! Run with: `cargo run --release -p eds-bench --bin scalability [max_n]`

use eds_bench::Table;
use eds_core::distributed::BoundedDegreeNode;
use pn_graph::{generators, ports, NodeId, SimpleGraph};
use pn_runtime::{RunOptions, Simulator};
use std::time::Instant;

fn main() {
    let max_n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(160_000);
    let delta = 6;
    let threads = std::thread::available_parallelism()
        .map(|x| x.get())
        .unwrap_or(4);

    println!(
        "Scalability of the distributed A({delta}) protocol (parallel driver: {threads} threads)"
    );
    println!();
    let mut table = Table::new(vec![
        "nodes", "links", "rounds", "messages", "|D|", "seq (ms)", "par (ms)", "speedup",
    ]);

    let mut n = 10_000usize;
    while n <= max_n {
        // Degree-capped random geometric network.
        let radius = (2.0 / n as f64).sqrt();
        let full = generators::random_geometric(n, radius, n as u64).expect("generator");
        let mut g = SimpleGraph::new(n);
        for (_, u, v) in full.edges() {
            if g.degree(u) < delta && g.degree(v) < delta {
                g.add_edge(u, v).expect("valid edge");
            }
        }
        let _ = NodeId::new(0);
        let pg = ports::shuffled_ports(&g, n as u64).expect("ports");

        let t0 = Instant::now();
        let seq = Simulator::new(&pg)
            .run(|_, d| BoundedDegreeNode::new(delta, d))
            .expect("sequential run");
        let t_seq = t0.elapsed();

        let t0 = Instant::now();
        let par = Simulator::with_options(
            &pg,
            RunOptions {
                threads,
                ..RunOptions::default()
            },
        )
        .run(|_, d| BoundedDegreeNode::new(delta, d))
        .expect("parallel run");
        let t_par = t0.elapsed();

        assert_eq!(seq.outputs, par.outputs, "parallel must be bit-identical");
        let edges = pn_runtime::edge_set_from_outputs(&pg, &seq.outputs).expect("consistent");

        table.row(vec![
            n.to_string(),
            pg.edge_count().to_string(),
            seq.rounds.to_string(),
            seq.messages.to_string(),
            edges.len().to_string(),
            format!("{:.0}", t_seq.as_secs_f64() * 1e3),
            format!("{:.0}", t_par.as_secs_f64() * 1e3),
            format!("{:.2}x", t_seq.as_secs_f64() / t_par.as_secs_f64()),
        ]);
        n *= 2;
    }
    print!("{table}");
    println!();
    if threads <= 1 {
        println!(
            "round count is flat (locality); time scales with links; only one \
             core is available here, so the parallel driver is exercised for \
             bit-identical correctness rather than speedup"
        );
    } else {
        println!(
            "round count is flat (locality); time scales with links; the \
             parallel driver gives bit-identical outputs"
        );
    }
}
