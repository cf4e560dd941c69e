//! Emits `BENCH_sim.json`: the tracked round-engine throughput numbers.
//!
//! For each workload the binary runs the same gossip protocol through
//! [`pn_runtime::Simulator::run`] on the sequential engine and at
//! [`pn_runtime::RunOptions::threads`] 1/2/4/8 (2 and up run the
//! persistent worker pool), asserts all [`pn_runtime::Run`]s are
//! bit-identical, and records rounds/sec and messages/sec plus the best
//! parallel configuration over sequential (the thread-scaling curve).
//! `host_threads` records the measuring host's available parallelism —
//! on a single-core host the parallel curve measures pure pool overhead
//! (`parallel_fields_overhead_only` is emitted `true` and the best ratio
//! is expected to sit just below 1).
//!
//! Usage:
//!
//! ```text
//! sim_benchmark [--reduced] [--check-parallel] [--rounds N] [--out PATH]
//! ```
//!
//! * `--reduced` measures only the ≥100k-node workload (the CI
//!   perf-smoke set);
//! * `--check-parallel` exits non-zero if the 4-thread pool falls below
//!   90% of sequential throughput on any ≥100k-node workload — the
//!   break-even regression gate, with one fresh remeasurement before a
//!   failure is declared (shared CI runners are noisy). The check is
//!   skipped (with a notice) when the host has fewer than four cores,
//!   where a 4-thread pool competes with itself for timeslices (and on
//!   one core beating sequential is physically impossible);
//! * `--rounds N` sets the protocol's fixed halting round (default 16;
//!   recorded as `protocol_rounds` — reports with different values are
//!   not comparable, which the perf gate checks);
//! * `--out PATH` overrides the report path (default `BENCH_sim.json`
//!   in the current directory).

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use pn_graph::{covering, generators, ports, PortNumberedGraph};
use pn_runtime::{NodeAlgorithm, Run, RunOptions, Simulator};

/// Default number of rounds every node runs before halting
/// (`--rounds` overrides).
const DEFAULT_ROUNDS: usize = 16;

/// The parallel thread counts of the scaling curve.
const THREAD_CURVE: [usize; 4] = [1, 2, 4, 8];

/// The perf-smoke gate: parallel(4) must reach this fraction of
/// sequential throughput on ≥100k-node workloads (multi-core hosts).
const BREAK_EVEN_TOLERANCE: f64 = 0.9;

#[derive(Clone)]
struct Gossip {
    acc: u64,
    left: usize,
}

impl Gossip {
    fn new(degree: usize, rounds: usize) -> Self {
        Gossip {
            acc: degree as u64,
            left: rounds,
        }
    }
}

impl NodeAlgorithm for Gossip {
    type Message = u64;
    type Output = u64;

    fn send_into(&mut self, _round: usize, outbox: &mut [Option<u64>]) {
        for (q, slot) in outbox.iter_mut().enumerate() {
            *slot = Some(self.acc.wrapping_add(q as u64));
        }
    }

    fn receive(&mut self, _round: usize, inbox: &[Option<u64>]) -> Option<u64> {
        for m in inbox.iter().flatten() {
            self.acc = self.acc.rotate_left(5).wrapping_add(*m);
        }
        self.left -= 1;
        (self.left == 0).then_some(self.acc)
    }
}

/// Times `f` adaptively: repeats until ~0.5 s of measurement, reports
/// the best (lowest) seconds per call.
fn time_best<R>(mut f: impl FnMut() -> R) -> f64 {
    // Warm-up and calibration.
    let start = Instant::now();
    let _ = f();
    let once = start.elapsed().as_secs_f64().max(1e-9);
    let reps = ((0.25 / once).ceil() as usize).clamp(1, 1000);
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        for _ in 0..reps {
            let _ = f();
        }
        best = best.min(start.elapsed().as_secs_f64() / reps as f64);
    }
    best
}

fn assert_identical<O: PartialEq>(a: &Run<O>, b: &Run<O>, what: &str) {
    assert!(
        a.outputs == b.outputs
            && a.halted_at == b.halted_at
            && a.rounds == b.rounds
            && a.messages == b.messages,
        "engines diverged: {what}"
    );
}

struct Row {
    name: &'static str,
    nodes: usize,
    ports: usize,
    rounds: usize,
    sequential_rps: f64,
    /// One rate per [`THREAD_CURVE`] entry.
    parallel_rps: [f64; THREAD_CURVE.len()],
    sequential_mps: f64,
    speedup_parallel_best_vs_sequential: f64,
}

impl Row {
    fn parallel_at(&self, threads: usize) -> f64 {
        THREAD_CURVE
            .iter()
            .position(|&t| t == threads)
            .map(|i| self.parallel_rps[i])
            .expect("threads on the curve")
    }
}

fn measure(name: &'static str, pg: &PortNumberedGraph, rounds: usize) -> Row {
    let on_threads = |threads| {
        Simulator::with_options(
            pg,
            RunOptions {
                threads,
                ..RunOptions::default()
            },
        )
    };
    let sim = Simulator::new(pg);
    let gossip = |_, d: usize| Gossip::new(d, rounds);
    let seq = sim.run(gossip).expect("sequential run");
    for threads in THREAD_CURVE {
        let par = on_threads(threads).run(gossip).expect("parallel run");
        assert_identical(&seq, &par, &format!("sequential vs parallel({threads})"));
    }

    let t_seq = time_best(|| sim.run(gossip).unwrap());
    let mut parallel_rps = [0.0; THREAD_CURVE.len()];
    for (slot, threads) in parallel_rps.iter_mut().zip(THREAD_CURVE) {
        let pool = on_threads(threads);
        let t = time_best(|| pool.run(gossip).unwrap());
        *slot = seq.rounds as f64 / t;
    }

    let rounds = seq.rounds;
    let sequential_rps = rounds as f64 / t_seq;
    let best_parallel = parallel_rps[1..] // threads >= 2: the pool proper
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    Row {
        name,
        nodes: pg.node_count(),
        ports: pg.port_count(),
        rounds,
        sequential_rps,
        parallel_rps,
        sequential_mps: seq.messages as f64 / t_seq,
        speedup_parallel_best_vs_sequential: best_parallel / sequential_rps,
    }
}

fn render_json(rows: &[Row], host_threads: usize, rounds: usize) -> String {
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"benchmark\": \"sim_throughput\",");
    let _ = writeln!(json, "  \"protocol_rounds\": {rounds},");
    let _ = writeln!(json, "  \"host_threads\": {host_threads},");
    // On one core the parallel engine cannot beat sequential; its
    // fields then measure pool overhead, not concurrency.
    let _ = writeln!(
        json,
        "  \"parallel_fields_overhead_only\": {},",
        host_threads == 1
    );
    let _ = writeln!(json, "  \"engines_bit_identical\": true,");
    let _ = writeln!(json, "  \"workloads\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"name\": \"{}\",", r.name);
        let _ = writeln!(json, "      \"nodes\": {},", r.nodes);
        let _ = writeln!(json, "      \"ports\": {},", r.ports);
        let _ = writeln!(json, "      \"rounds\": {},", r.rounds);
        let _ = writeln!(
            json,
            "      \"sequential_rounds_per_sec\": {:.1},",
            r.sequential_rps
        );
        for (rate, threads) in r.parallel_rps.iter().zip(THREAD_CURVE) {
            let _ = writeln!(
                json,
                "      \"parallel{threads}_rounds_per_sec\": {rate:.1},"
            );
        }
        let _ = writeln!(
            json,
            "      \"sequential_messages_per_sec\": {:.1},",
            r.sequential_mps
        );
        let _ = writeln!(
            json,
            "      \"speedup_parallel_best_vs_sequential\": {:.2}",
            r.speedup_parallel_best_vs_sequential
        );
        let _ = writeln!(json, "    }}{comma}");
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    json
}

fn main() -> ExitCode {
    let mut reduced = false;
    let mut check_parallel = false;
    let mut rounds = DEFAULT_ROUNDS;
    let mut out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--reduced" => reduced = true,
            "--check-parallel" => check_parallel = true,
            "--rounds" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => rounds = n,
                _ => {
                    eprintln!("--rounds requires a number >= 1");
                    return ExitCode::from(2);
                }
            },
            "--out" => match args.next() {
                Some(path) => out = Some(path),
                None => {
                    eprintln!("--out requires a path");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: sim_benchmark [--reduced] [--check-parallel] [--rounds N] [--out PATH]"
                );
                return ExitCode::from(2);
            }
        }
    }

    let host_threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let out = out.unwrap_or_else(|| "BENCH_sim.json".to_owned());
    let mut graphs: Vec<(&'static str, PortNumberedGraph)> = Vec::new();

    let cycle = ports::canonical_ports(&generators::cycle(100_000).unwrap()).unwrap();
    graphs.push(("cycle_100k", cycle));

    if !reduced {
        let reg = ports::shuffled_ports(&generators::random_regular(10_000, 3, 10_000).unwrap(), 7)
            .unwrap();
        graphs.push(("random_3_regular_10k", reg));

        let base = ports::shuffled_ports(&generators::petersen(), 3).unwrap();
        let (lift, _) = covering::cyclic_lift(&base, 1_000);
        graphs.push(("petersen_cover_10k", lift));
    }

    let rows: Vec<Row> = graphs
        .iter()
        .map(|(name, pg)| measure(name, pg, rounds))
        .collect();

    let json = render_json(&rows, host_threads, rounds);
    std::fs::write(&out, &json).expect("write benchmark report");
    print!("{json}");
    // The summary leads with the host's parallelism: it decides how to
    // read every parallel number below.
    if host_threads == 1 {
        eprintln!(
            "host_threads = 1: parallel fields measure worker-pool overhead only \
             (best-parallel/seq < 1 is expected, not a regression)"
        );
    } else {
        eprintln!("host_threads = {host_threads}");
    }
    for r in &rows {
        eprintln!(
            "[host_threads={host_threads}] {:<22} sequential {:>10.0} r/s   parallel 1/2/4/8 {:>8.0}/{:>8.0}/{:>8.0}/{:>8.0} r/s   best-parallel/seq {:.2}x",
            r.name,
            r.sequential_rps,
            r.parallel_rps[0],
            r.parallel_rps[1],
            r.parallel_rps[2],
            r.parallel_rps[3],
            r.speedup_parallel_best_vs_sequential,
        );
    }

    if check_parallel {
        if host_threads < 4 {
            // Below four cores the 4-thread pool competes with itself
            // for timeslices and break-even is not a meaningful floor —
            // on one core it is physically unreachable.
            eprintln!(
                "check-parallel: host has {host_threads} core(s); the 4-thread pool needs \
                 four cores for break-even to be a meaningful floor — check skipped"
            );
            return ExitCode::SUCCESS;
        }
        let mut ok = true;
        for (r, (name, pg)) in rows.iter().zip(&graphs).filter(|(r, _)| r.nodes >= 100_000) {
            let mut ratio = r.parallel_at(4) / r.sequential_rps;
            if ratio < BREAK_EVEN_TOLERANCE {
                // Shared CI runners are noisy; give a transient stall
                // one fresh measurement before declaring a regression.
                eprintln!(
                    "check-parallel: {name} at {ratio:.2}x on the first pass — remeasuring once"
                );
                let retry = measure(name, pg, rounds);
                ratio = ratio.max(retry.parallel_at(4) / retry.sequential_rps);
            }
            if ratio < BREAK_EVEN_TOLERANCE {
                eprintln!(
                    "check-parallel FAILED on {name}: parallel4 at {ratio:.2}x of sequential \
                     (floor {BREAK_EVEN_TOLERANCE:.2}x)"
                );
                ok = false;
            } else {
                eprintln!(
                    "check-parallel ok on {name}: parallel4 at {ratio:.2}x of sequential \
                     (floor {BREAK_EVEN_TOLERANCE:.2}x)"
                );
            }
        }
        if !ok {
            return ExitCode::from(1);
        }
    }
    ExitCode::SUCCESS
}
