//! Regenerates **Table 1** of the paper: the tight approximability of
//! edge dominating sets in the port-numbering model.
//!
//! For every row we *measure* the approximation ratio by running the
//! matching upper-bound algorithm on the matching lower-bound instance:
//!
//! * even `d`: the port-1 algorithm (Theorem 3) on the Theorem 1 graph —
//!   measured ratio must equal `4 - 2/d` **exactly**;
//! * odd `d`: the Theorem 4 protocol on the Theorem 2 graph — measured
//!   ratio must equal `4 - 6/(d+1)` exactly;
//! * maximum degree `Δ`: the `A(Δ)` protocol (Theorem 5) on the Theorem 1
//!   graph of degree `2⌊Δ/2⌋` — measured ratio must equal `4 - 1/k`
//!   exactly.
//!
//! The theory pins both sides: the lower bound forbids a smaller ratio on
//! these instances, the upper bound forbids a larger one. Any deviation
//! is a bug, and the binary exits non-zero.
//!
//! Run with: `cargo run -p eds-bench --bin table1 [max_d]`

use eds_bench::{run_distributed, Table};
use eds_core::distributed::{BoundedDegreeNode, RegularOddNode};
use eds_core::port_one::PortOneNode;
use eds_lower_bounds::bound::Ratio;
use eds_lower_bounds::{even, odd};

fn main() {
    let max_d: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);

    let mut ok = true;
    let mut table = Table::new(vec![
        "family", "param", "theory", "measured", "|D|", "|OPT|", "rounds", "status",
    ]);

    // --- d-regular, even d: Theorem 3 vs Theorem 1. ---
    for d in (2..=max_d).step_by(2) {
        let inst = even::build(d).expect("even construction");
        let (edges, rounds, _) = run_distributed(&inst.graph, |_, d| PortOneNode::new(d));
        let measured = Ratio::of_sizes(edges.len(), inst.optimal_size());
        let theory = Ratio::from(inst.ratio());
        let status = if measured.eq_exact(theory) {
            "exact"
        } else {
            "MISMATCH"
        };
        ok &= measured.eq_exact(theory);
        table.row(vec![
            format!("d-regular (even)"),
            format!("d={d}"),
            format!("4-2/d = {:.4}", theory.as_f64()),
            format!("{:.4}", measured.as_f64()),
            edges.len().to_string(),
            inst.optimal_size().to_string(),
            rounds.to_string(),
            status.to_owned(),
        ]);
    }

    // --- d-regular, odd d: Theorem 4 vs Theorem 2. ---
    for d in (1..=max_d).step_by(2) {
        let inst = odd::build(d).expect("odd construction");
        let (edges, rounds, _) = run_distributed(&inst.graph, |_, d| RegularOddNode::new(d));
        let measured = Ratio::of_sizes(edges.len(), inst.optimal_size());
        let theory = Ratio::from(inst.ratio());
        let status = if measured.eq_exact(theory) {
            "exact"
        } else {
            "MISMATCH"
        };
        ok &= measured.eq_exact(theory);
        table.row(vec![
            format!("d-regular (odd)"),
            format!("d={d}"),
            format!("4-6/(d+1) = {:.4}", theory.as_f64()),
            format!("{:.4}", measured.as_f64()),
            edges.len().to_string(),
            inst.optimal_size().to_string(),
            rounds.to_string(),
            status.to_owned(),
        ]);
    }

    // --- Bounded degree Δ: Theorem 5 vs Corollary 1 (via Theorem 1 with
    //     d = 2⌊Δ/2⌋). Δ = 1 is trivial (ratio 1).
    table.row(vec![
        "max degree".to_owned(),
        "Δ=1".to_owned(),
        "1 = 1.0000".to_owned(),
        "1.0000".to_owned(),
        "-".to_owned(),
        "-".to_owned(),
        "0".to_owned(),
        "trivial".to_owned(),
    ]);
    for delta in 2..=max_d {
        let k = delta / 2;
        let d = 2 * k;
        let inst = even::build(d).expect("even construction");
        let (edges, rounds, _) =
            run_distributed(&inst.graph, |_, deg| BoundedDegreeNode::new(delta, deg));
        let measured = Ratio::of_sizes(edges.len(), inst.optimal_size());
        let theory = eds_lower_bounds::bound::corollary1_bound(delta);
        let label = if delta % 2 == 1 {
            format!("4-2/(Δ-1) = {:.4}", theory.as_f64())
        } else {
            format!("4-2/Δ = {:.4}", theory.as_f64())
        };
        let status = if measured.eq_exact(theory) {
            "exact"
        } else {
            "MISMATCH"
        };
        ok &= measured.eq_exact(theory);
        table.row(vec![
            format!(
                "max degree ({})",
                if delta % 2 == 1 { "odd" } else { "even" }
            ),
            format!("Δ={delta}"),
            label,
            format!("{:.4}", measured.as_f64()),
            edges.len().to_string(),
            inst.optimal_size().to_string(),
            rounds.to_string(),
            status.to_owned(),
        ]);
    }

    println!("Table 1 — approximability of edge dominating sets in the port-numbering model");
    println!("(measured by running each tight algorithm on its matching lower-bound instance)");
    println!();
    print!("{table}");
    println!();
    if ok {
        println!("all rows match the paper exactly");
    } else {
        println!("MISMATCH DETECTED — reproduction failure");
        std::process::exit(1);
    }
}
