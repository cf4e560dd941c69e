//! Extension experiment **X-models**: identifier model vs port-numbering
//! model, measured on identical instances.
//!
//! The paper's Section 1.3–1.4 positions the two models:
//!
//! * **with identifiers**, a maximal matching — hence a 2-approximate
//!   EDS — is computable in `O(Δ + log* n)` rounds (Panconesi–Rizzi;
//!   implemented as a real message-passing protocol in
//!   `eds_baselines::distributed_mm`, whose nodes halt once their output
//!   is final, within the `1 + 12 + 12Δ`-round cap);
//! * **anonymously**, nothing better than `4 - 2/d` (even `d`) is
//!   possible at any speed, and the tight `A(Δ)` protocol needs `O(Δ²)`
//!   rounds.
//!
//! This binary runs the identifier-model, randomised and anonymous
//! protocols on the same graphs and reports their measured rounds and
//! solution sizes side by side. It asserts that each stays within its
//! round cap: all three protocols' nodes halt once their output is final,
//! the matchings within `1 + 12 + 12Δ` and the phase cap, and `A(Δ)`
//! within its `O(Δ²)` schedule.
//!
//! Run with: `cargo run --release -p eds-bench --bin model_comparison`

use eds_baselines::distributed_mm::{id_matching_distributed, id_matching_rounds, IdMatchingNode};
use eds_baselines::randomized_mm::{
    randomized_matching_phases, randomized_matching_rounds, RandMatchingNode,
};
use eds_bench::Table;
use eds_core::distributed::{bounded_schedule_length, BoundedDegreeNode};
use pn_graph::{generators, ports};
use pn_runtime::Simulator;

fn main() {
    println!(
        "Deterministic-ID vs randomized-anonymous vs deterministic-anonymous, identical instances"
    );
    println!();
    let mut table = Table::new(vec![
        "instance",
        "n",
        "ID rounds",
        "rand rounds",
        "anon rounds",
        "anon cap",
        "ID |D|",
        "rand |D|",
        "anon |D|",
    ]);

    for (name, n, d) in [
        ("random 4-regular", 32usize, 4usize),
        ("random 4-regular", 128, 4),
        ("random 4-regular", 512, 4),
        ("random 6-regular", 128, 6),
        ("torus 12x12", 144, 4),
    ] {
        let g = if name.starts_with("torus") {
            generators::torus(12, 12).expect("torus")
        } else {
            generators::random_regular(n, d, n as u64).expect("regular")
        };
        let pg = ports::shuffled_ports(&g, n as u64).expect("ports");
        let delta = pg.max_degree();
        let ids: Vec<u64> = (0..g.node_count() as u64)
            .map(|i| i * 1_000_003 % 65_537)
            .collect();
        // The modular scramble may collide for large n; fall back to
        // identity-based unique ids.
        let ids = if has_duplicates(&ids) {
            (0..g.node_count() as u64).collect()
        } else {
            ids
        };

        let id_run = Simulator::new(&pg)
            .run(|v, deg| IdMatchingNode::new(delta, deg, ids[v.index()]))
            .expect("id protocol");
        let id_edges = id_matching_distributed(&pg, delta, &ids).expect("id protocol");

        let anon_run = Simulator::new(&pg)
            .run(|_, deg| BoundedDegreeNode::new(delta, deg))
            .expect("anonymous protocol");
        let anon_edges =
            pn_runtime::edge_set_from_outputs(&pg, &anon_run.outputs).expect("consistent");

        let seeds: Vec<u64> = (0..pg.node_count() as u64)
            .map(|i| i.wrapping_mul(0x517c_c1b7_2722_0a95) ^ 0xabcd)
            .collect();
        let phases = randomized_matching_phases(pg.node_count());
        let rand_run = Simulator::new(&pg)
            .run(|v, deg| RandMatchingNode::new(deg, seeds[v.index()], phases))
            .expect("rand protocol");
        let rand_edges =
            pn_runtime::edge_set_from_outputs(&pg, &rand_run.outputs).expect("consistent");

        assert!(id_run.rounds <= id_matching_rounds(delta));
        assert!(anon_run.rounds <= bounded_schedule_length(delta));
        assert!(rand_run.rounds <= randomized_matching_rounds(phases));
        table.row(vec![
            name.to_owned(),
            pg.node_count().to_string(),
            id_run.rounds.to_string(),
            rand_run.rounds.to_string(),
            anon_run.rounds.to_string(),
            bounded_schedule_length(delta).to_string(),
            id_edges.len().to_string(),
            rand_edges.len().to_string(),
            anon_edges.len().to_string(),
        ]);
    }
    print!("{table}");
    println!();
    println!(
        "three regimes, exactly as the theory places them: deterministic \
         IDs give a maximal matching in O(Δ + log* n) rounds (measured: \
         nodes halt once matched or once every neighbour has, within the \
         1 + 12 + 12Δ cap); random seeds give one in O(log n) rounds \
         w.h.p. (measured: nodes halt well before the phase cap); \
         deterministic anonymity runs in O(Δ²) rounds (measured: nodes halt \
         once their output is final, within the schedule's cap) but is \
         capped at the factor ~4 worst case the paper proves — on these \
         benign inputs all three qualities happen to be close"
    );
}

fn has_duplicates(ids: &[u64]) -> bool {
    let mut sorted = ids.to_vec();
    sorted.sort_unstable();
    sorted.windows(2).any(|w| w[0] == w[1])
}
