//! Extension experiment **X-rounds**: measured round complexity.
//!
//! The paper claims `O(1)` rounds for Theorem 3, `O(d²)` for Theorem 4
//! and `O(Δ²)` for Theorem 5 — independent of `n` (these are *local*
//! algorithms). This binary measures actual round counts across `d`, `Δ`
//! and `n`, confirming both the quadratic growth in the degree bound and
//! that no round count grows with the network size. Theorem 3 runs its
//! one round; Theorem 4 and `A(Δ)` nodes halt once their output is
//! final, so their measured rounds sit at or below the caps
//! [`regular_odd_rounds`] (`2 + 2d²`) and [`bounded_schedule_length`]
//! (`O(Δ²)`).
//!
//! Run with: `cargo run --release -p eds-bench --bin round_complexity`

use eds_bench::Table;
use eds_core::distributed::{
    bounded_schedule_length, regular_odd_rounds, BoundedDegreeNode, RegularOddNode,
};
use eds_core::port_one::PortOneNode;
use pn_graph::{generators, ports};
use pn_runtime::Simulator;

fn main() {
    println!("Measured round complexity (local algorithms: no n-dependence)");
    println!();

    // Rounds vs degree at fixed n.
    let mut table = Table::new(vec!["algorithm", "param", "n", "rounds", "formula"]);
    for d in [2usize, 4, 6, 8] {
        let g = generators::random_regular(2 * d + 4, d, d as u64).expect("graph");
        let pg = ports::shuffled_ports(&g, 1).expect("ports");
        let run = Simulator::new(&pg)
            .run(|_, d| PortOneNode::new(d))
            .expect("runs");
        table.row(vec![
            "port-1 (Thm 3)".to_owned(),
            format!("d={d}"),
            pg.node_count().to_string(),
            run.rounds.to_string(),
            "1".to_owned(),
        ]);
    }
    for d in [1usize, 3, 5, 7] {
        let g = generators::random_regular(2 * d + 4, d, d as u64).expect("graph");
        let pg = ports::shuffled_ports(&g, 2).expect("ports");
        let run = Simulator::new(&pg)
            .run(|_, d| RegularOddNode::new(d))
            .expect("runs");
        assert!(run.rounds <= regular_odd_rounds(d));
        table.row(vec![
            "Thm 4".to_owned(),
            format!("d={d}"),
            pg.node_count().to_string(),
            run.rounds.to_string(),
            format!("≤ 2+2d² cap = {}", regular_odd_rounds(d)),
        ]);
    }
    for delta in [2usize, 3, 4, 5, 6] {
        let g = generators::random_bounded_degree(24, delta, 0.8, delta as u64).expect("graph");
        let pg = ports::shuffled_ports(&g, 3).expect("ports");
        let run = Simulator::new(&pg)
            .run(|_, deg| BoundedDegreeNode::new(delta, deg))
            .expect("runs");
        assert!(run.rounds <= bounded_schedule_length(delta));
        table.row(vec![
            "A(Δ) (Thm 5)".to_owned(),
            format!("Δ={delta}"),
            pg.node_count().to_string(),
            run.rounds.to_string(),
            format!("≤ O(Δ²) cap = {}", bounded_schedule_length(delta)),
        ]);
    }
    print!("{table}");

    // Independence from n.
    println!();
    println!("Round counts as n grows (d = 4 regular, A(5)): locality in action");
    let cap = bounded_schedule_length(5);
    let mut table2 = Table::new(vec!["n", "Thm 3 rounds", "A(5) rounds", "A(5) cap"]);
    for n in [16usize, 64, 256, 1024] {
        let g = generators::random_regular(n, 4, n as u64).expect("graph");
        let pg = ports::shuffled_ports(&g, 4).expect("ports");
        let r1 = Simulator::new(&pg)
            .run(|_, d| PortOneNode::new(d))
            .expect("runs")
            .rounds;
        let r2 = Simulator::new(&pg)
            .run(|_, deg| BoundedDegreeNode::new(5, deg))
            .expect("runs")
            .rounds;
        assert!(r2 <= cap);
        table2.row(vec![
            n.to_string(),
            r1.to_string(),
            r2.to_string(),
            cap.to_string(),
        ]);
    }
    print!("{table2}");
    println!();
    println!(
        "no algorithm's rounds grow with n, as the paper proves: Thm 3 runs \
         its fixed round, and A(5) nodes halt once their output is final, \
         within a cap that depends on Δ alone"
    );
}
