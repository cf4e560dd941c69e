//! `eds` — command-line edge dominating sets.
//!
//! Reads a graph as an edge list (one `u v` pair per line, `#` comments,
//! optional `nodes <n>` header) from a file or stdin, runs the chosen
//! algorithm, and prints the selected edges plus statistics.
//!
//! The six distributed protocols run through the
//! [`edge_dominating_sets::scenarios::Session`] solver service — the
//! same machinery as the `scenario_sweep` quality harness — so the CLI
//! reports honest round/message counts and the paper's bound check on
//! every invocation. The two centralised baselines (`greedy`, `exact`)
//! run directly.
//!
//! ```text
//! usage: eds [options] [FILE]
//!
//!   --algorithm <name>   port1 | thm4 | adelta | vc3 | idmm | randmm
//!                        | greedy | exact   (default: adelta)
//!   --delta <k>          claimed degree bound for adelta/vc3/idmm
//!   --ports <spec>       canonical | random:<seed> | factorized
//!   --bounds <provider>  exact | lp | mm — the reference-bound
//!                        provider scoring the run (default: exact;
//!                        lp = certified LP dual bounds on instances
//!                        beyond the exact budget)
//!   --quiet              print only the edge list
//!   --help               this text
//! ```
//!
//! Example:
//!
//! ```text
//! $ printf '0 1\n1 2\n2 0\n2 3\n' | cargo run --bin eds -- --algorithm thm4
//! ```

use std::io::{ErrorKind, Read as _, Write as _};
use std::process::ExitCode;

use edge_dominating_sets::baselines::{exact, two_approx};
use edge_dominating_sets::graph::{io, ports, EdgeId, PortNumberedGraph, SimpleGraph};
use edge_dominating_sets::scenarios::{
    BoundsMode, Protocol, RecordSink, Scenario, Session, Solution, SweepRecord,
};

const USAGE: &str = "usage: eds [options] [FILE]

  --algorithm <name>   port1 | thm4 | adelta | vc3 | idmm | randmm
                       | greedy | exact   (default: adelta)
  --delta <k>          claimed degree bound for adelta/vc3/idmm
                       (default: max degree)
  --ports <spec>       canonical | random:<seed> | factorized
                       (default: canonical; factorized = the adversarial
                       2-factorised numbering, 2k-regular graphs only)
  --bounds <provider>  exact | lp | mm (default: exact). Selects the
                       reference-bound provider scoring the run: lp
                       certifies tighter LP-relaxation dual bounds on
                       instances beyond the exact-solver budget, mm uses
                       the constant-cost matching bounds only
  --quiet              print only the edge list
  --help               this text

Reads an edge list (`u v` per line, `#` comments, optional `nodes <n>`
header) from FILE or stdin and prints an edge dominating set. The
distributed algorithms run through the scenario Session service and
report rounds, messages, and the paper's approximation-bound check.";

#[derive(Debug)]
struct Options {
    algorithm: String,
    delta: Option<usize>,
    ports: String,
    bounds: BoundsMode,
    quiet: bool,
    file: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        algorithm: "adelta".to_owned(),
        delta: None,
        ports: "canonical".to_owned(),
        bounds: BoundsMode::Exact,
        quiet: false,
        file: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--algorithm" => {
                options.algorithm = it.next().ok_or("--algorithm needs a value")?.clone();
            }
            "--delta" => {
                let v = it.next().ok_or("--delta needs a value")?;
                options.delta = Some(v.parse().map_err(|_| format!("bad --delta value {v:?}"))?);
            }
            "--ports" => {
                options.ports = it.next().ok_or("--ports needs a value")?.clone();
            }
            "--bounds" => {
                let v = it.next().ok_or("--bounds needs a value")?;
                options.bounds = BoundsMode::parse(v).ok_or_else(|| {
                    format!(
                        "bad --bounds value {v:?} (expected one of {})",
                        BoundsMode::NAMES.join(", ")
                    )
                })?;
            }
            "--quiet" => options.quiet = true,
            "--help" | "-h" => return Err(USAGE.to_owned()),
            other if other.starts_with('-') => {
                return Err(format!("unknown option {other:?}\n\n{USAGE}"))
            }
            other => {
                if options.file.is_some() {
                    return Err("at most one input file".to_owned());
                }
                options.file = Some(other.to_owned());
            }
        }
    }
    Ok(options)
}

/// Applies the `--ports` spec; returns the graph and the seed embedded
/// in a `random:<seed>` spec (reused for the identifier/randomised
/// baselines' per-node inputs).
fn number_ports(g: &SimpleGraph, spec: &str) -> Result<(PortNumberedGraph, u64), String> {
    if spec == "canonical" {
        return ports::canonical_ports(g)
            .map(|pg| (pg, 0))
            .map_err(|e| e.to_string());
    }
    if spec == "factorized" {
        // The adversarial 2-factorised numbering (2k-regular graphs only).
        return ports::two_factor_ports(g)
            .map(|pg| (pg, 0))
            .map_err(|e| e.to_string());
    }
    if let Some(seed) = spec.strip_prefix("random:") {
        let seed: u64 = seed
            .parse()
            .map_err(|_| format!("bad seed in --ports {spec:?}"))?;
        return ports::shuffled_ports(g, seed)
            .map(|pg| (pg, seed))
            .map_err(|e| e.to_string());
    }
    Err(format!("unknown --ports spec {spec:?}"))
}

/// The protocol behind an `--algorithm` name, with its display label.
fn protocol_for(name: &str) -> Option<(Protocol, &'static str)> {
    match name {
        "port1" => Some((Protocol::PortOne, "Theorem 3 (port-1, O(1) rounds)")),
        "thm4" => Some((Protocol::RegularOdd, "Theorem 4 (O(d^2) rounds)")),
        "adelta" => Some((
            Protocol::BoundedDegree,
            "Theorem 5 A(delta) (O(delta^2) rounds)",
        )),
        "vc3" => Some((Protocol::VertexCover, "vertex cover (3-approximation)")),
        "idmm" => Some((
            Protocol::IdMatching,
            "identifier greedy maximal matching (2-approximation)",
        )),
        "randmm" => Some((
            Protocol::RandMatching,
            "randomised maximal matching (2-approximation)",
        )),
        _ => None,
    }
}

/// Captures the single measurement a CLI session produces.
#[derive(Default)]
struct Capture {
    record: Option<SweepRecord>,
    solution: Option<Solution>,
}

impl RecordSink for Capture {
    fn record(&mut self, record: SweepRecord) {
        self.record = Some(record);
    }

    fn solution(&mut self, _record: &SweepRecord, solution: &Solution) {
        self.solution = Some(solution.clone());
    }
}

fn run_protocol(
    options: &Options,
    scenario: Scenario,
    protocol: Protocol,
    label: &str,
) -> Result<String, String> {
    if scenario.simple.is_edgeless() {
        // Nothing to dominate: every algorithm's answer is the empty
        // set. Succeed with empty output, like the centralised
        // baselines do.
        let mut out = String::new();
        if !options.quiet {
            out.push_str(&format!(
                "# {label}: 0 of 0 edges selected (graph: {} nodes, no edges)\n",
                scenario.simple.node_count()
            ));
        }
        return Ok(out);
    }
    if !protocol.applicable(&scenario) {
        return Err(format!(
            "{} requires an odd-regular graph; this input is not regular of odd degree",
            options.algorithm
        ));
    }

    // One input graph and one protocol: a single run on this thread.
    let session = Session::new().sequential().protocols(&[protocol]);
    let (mut session, _lp) = options.bounds.install(session);
    if let Some(delta) = options.delta {
        session = session.delta_hint(delta);
    }
    let graph = scenario.graph.clone();
    let mut capture = Capture::default();
    session
        .scenarios(vec![scenario])
        .run(&mut capture)
        .map_err(|e| e.to_string())?;
    let record = capture.record.ok_or("protocol produced no record")?;
    if let Some(v) = &record.violation {
        return Err(format!("internal error: output is infeasible: {v}"));
    }

    let mut out = String::new();
    if !options.quiet {
        let bound = match (record.bound, record.within_bound) {
            (Some((num, den)), Some(true)) => {
                format!(
                    ", within the {:.2}-approximation bound",
                    num as f64 / den as f64
                )
            }
            (Some((num, den)), Some(false)) => {
                format!(
                    ", VIOLATES the {:.2}-approximation bound",
                    num as f64 / den as f64
                )
            }
            (Some((num, den)), None) => {
                format!(
                    ", bound {:.2} not certifiable here",
                    num as f64 / den as f64
                )
            }
            (None, _) => String::new(),
        };
        out.push_str(&format!(
            "# {label}: {} of {} {} selected (graph: {} nodes, max degree {}; \
             {} rounds, {} messages{bound})\n",
            record.size,
            if matches!(capture.solution, Some(Solution::Nodes(_))) {
                graph.node_count()
            } else {
                graph.edge_count()
            },
            if matches!(capture.solution, Some(Solution::Nodes(_))) {
                "nodes"
            } else {
                "edges"
            },
            graph.node_count(),
            graph.max_degree(),
            record.rounds,
            record.messages,
        ));
    }
    match capture.solution.ok_or("protocol produced no solution")? {
        Solution::Edges(edges) => {
            for e in edges {
                let (u, v) = graph.edge(e).nodes();
                out.push_str(&format!("{} {}\n", u.index(), v.index()));
            }
        }
        Solution::Nodes(cover) => {
            for v in cover {
                out.push_str(&format!("{}\n", v.index()));
            }
        }
    }
    Ok(out)
}

fn run_baseline(
    options: &Options,
    pg: &PortNumberedGraph,
    simple: &SimpleGraph,
) -> Result<String, String> {
    let (label, edges): (&str, Vec<EdgeId>) = match options.algorithm.as_str() {
        "greedy" => (
            "greedy maximal matching (2-approximation)",
            two_approx::two_approximation(simple),
        ),
        "exact" => (
            "exact branch and bound",
            exact::minimum_edge_dominating_set(simple),
        ),
        other => return Err(format!("unknown algorithm {other:?}\n\n{USAGE}")),
    };

    // Sanity: every algorithm output must be a feasible EDS.
    eds_verify::check_edge_dominating_set(simple, &edges)
        .map_err(|e| format!("internal error: output is not an edge dominating set: {e}"))?;

    let mut out = String::new();
    if !options.quiet {
        out.push_str(&format!(
            "# {label}: {} of {} edges selected (graph: {} nodes, max degree {})\n",
            edges.len(),
            pg.edge_count(),
            pg.node_count(),
            pg.max_degree(),
        ));
    }
    for e in edges {
        let (u, v) = pg.edge(e).nodes();
        out.push_str(&format!("{} {}\n", u.index(), v.index()));
    }
    Ok(out)
}

/// The largest instance the CLI ingests (2^27 nodes ≈ the million-node
/// families with two orders of magnitude of headroom). A malicious or
/// corrupt file declaring more is a structured parse error, not a
/// multi-gigabyte allocation.
const MAX_INPUT_NODES: usize = 1 << 27;

fn run(options: &Options, input: &str) -> Result<String, String> {
    let g = io::parse_edge_list_capped(input, MAX_INPUT_NODES).map_err(|e| e.to_string())?;
    let (pg, seed) = number_ports(&g, &options.ports)?;

    match protocol_for(&options.algorithm) {
        Some((protocol, label)) => {
            let name = options.file.as_deref().unwrap_or("stdin");
            let scenario = Scenario::external(name, pg, seed).map_err(|e| e.to_string())?;
            run_protocol(options, scenario, protocol, label)
        }
        None => {
            let simple = pg.to_simple().map_err(|e| e.to_string())?;
            run_baseline(options, &pg, &simple)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let input = match &options.file {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => {
            let mut buf = String::new();
            if let Err(e) = std::io::stdin().read_to_string(&mut buf) {
                eprintln!("cannot read stdin: {e}");
                return ExitCode::FAILURE;
            }
            buf
        }
    };
    match run(&options, &input) {
        Ok(out) => {
            let mut stdout = std::io::stdout().lock();
            match stdout
                .write_all(out.as_bytes())
                .and_then(|()| stdout.flush())
            {
                Ok(()) => ExitCode::SUCCESS,
                // The reader has gone (`eds ... | head`): nobody is left
                // to tell, so the run still counts as done.
                Err(e) if e.kind() == ErrorKind::BrokenPipe => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("cannot write stdout: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> Options {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn parses_flags() {
        let o = opts(&["--algorithm", "thm4", "--delta", "5", "--quiet", "in.txt"]);
        assert_eq!(o.algorithm, "thm4");
        assert_eq!(o.delta, Some(5));
        assert!(o.quiet);
        assert_eq!(o.file.as_deref(), Some("in.txt"));
    }

    #[test]
    fn rejects_unknown() {
        let args = vec!["--bogus".to_owned()];
        assert!(parse_args(&args).is_err());
    }

    #[test]
    fn runs_all_algorithms() {
        // Path input for the degree-agnostic algorithms — including the
        // two matching baselines the CLI previously omitted.
        let path = "0 1\n1 2\n2 3\n";
        for algo in [
            "port1", "adelta", "vc3", "idmm", "randmm", "greedy", "exact",
        ] {
            let o = opts(&["--algorithm", algo, "--quiet"]);
            let out = run(&o, path).unwrap_or_else(|e| panic!("{algo}: {e}"));
            assert!(!out.is_empty(), "{algo} output");
        }
        // Theorem 4 needs an odd-regular graph: a 5-cycle is 2-regular,
        // so use the complete graph K4 (3-regular).
        let k4 = "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n";
        let o = opts(&["--algorithm", "thm4", "--quiet"]);
        assert!(!run(&o, k4).unwrap().is_empty());
    }

    #[test]
    fn matching_baselines_output_matchings() {
        // idmm/randmm outputs are matchings: no two printed edges share
        // a node.
        let input = "0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n";
        for algo in ["idmm", "randmm"] {
            let o = opts(&["--algorithm", algo, "--quiet"]);
            let out = run(&o, input).unwrap();
            let mut seen = std::collections::HashSet::new();
            for line in out.lines() {
                for tok in line.split_whitespace() {
                    assert!(seen.insert(tok.to_owned()), "{algo}: node {tok} repeated");
                }
            }
        }
    }

    #[test]
    fn stats_header_reports_rounds_and_bound() {
        let o = opts(&["--algorithm", "port1"]);
        let cycle = "0 1\n1 2\n2 3\n3 4\n4 0\n";
        let out = run(&o, cycle).unwrap();
        let header = out.lines().next().unwrap();
        assert!(header.contains("rounds"), "{header}");
        assert!(header.contains("messages"), "{header}");
        // 2-regular: Theorem 3's 4 - 2/2 = 3 bound applies and holds.
        assert!(header.contains("3.00-approximation"), "{header}");
    }

    #[test]
    fn thm4_rejects_irregular_input_cleanly() {
        let o = opts(&["--algorithm", "thm4", "--quiet"]);
        let err = run(&o, "0 1\n1 2\n2 3\n").unwrap_err();
        assert!(err.contains("not regular"), "{err}");
        // Even-regular inputs are rejected too (Theorem 4 is odd-only).
        let square = "0 1\n1 2\n2 3\n3 0\n";
        assert!(run(&o, square).is_err());
    }

    #[test]
    fn exact_beats_or_ties_adelta() {
        let input = "0 1\n1 2\n2 3\n3 4\n4 5\n";
        let count = |algo: &str| {
            let o = opts(&["--algorithm", algo, "--quiet"]);
            run(&o, input).unwrap().lines().count()
        };
        assert!(count("exact") <= count("adelta"));
    }

    #[test]
    fn delta_hint_is_honoured() {
        // A looser claimed Δ still yields a feasible output.
        let input = "0 1\n1 2\n2 3\n";
        let o = opts(&["--algorithm", "adelta", "--delta", "4", "--quiet"]);
        assert!(!run(&o, input).unwrap().is_empty());
    }

    #[test]
    fn bounds_provider_flag_selects_the_scorer() {
        // Port-1 selects 8 of C9's 9 edges. The folklore matching bound
        // (2) cannot certify 8 ≤ 3·2, but the exact optimum and the LP
        // dual bound (both 3) can — the provider choice is visible in
        // the verdict, not just accepted and ignored.
        let cycle9 = "0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n6 7\n7 8\n8 0\n";
        for (mode, verdict) in [
            ("exact", "within the 3.00-approximation bound"),
            ("lp", "within the 3.00-approximation bound"),
            ("mm", "bound 3.00 not certifiable here"),
        ] {
            let o = opts(&["--algorithm", "port1", "--bounds", mode]);
            let out = run(&o, cycle9).unwrap_or_else(|e| panic!("{mode}: {e}"));
            let header = out.lines().next().unwrap();
            assert!(header.contains(verdict), "{mode}: {header}");
        }
        let args = vec!["--bounds".to_owned(), "float".to_owned()];
        assert!(parse_args(&args).is_err(), "unknown provider rejected");
    }

    #[test]
    fn random_ports_accepted() {
        let o = opts(&["--ports", "random:7", "--quiet"]);
        assert!(run(&o, "0 1\n1 2\n").is_ok());
        let bad = opts(&["--ports", "nope"]);
        assert!(run(&bad, "0 1\n").is_err());
    }

    #[test]
    fn factorized_ports_on_even_regular() {
        // A 4-cycle is 2-regular: factorisable. The adversarial wiring
        // forces port-1 to select every edge.
        let cycle = "0 1\n1 2\n2 3\n3 0\n";
        let o = opts(&["--ports", "factorized", "--algorithm", "port1", "--quiet"]);
        let out = run(&o, cycle).unwrap();
        assert_eq!(out.lines().count(), 4, "all edges selected");
        // Odd-regular graphs cannot be 2-factorised.
        let k4 = "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n";
        assert!(run(&o, k4).is_err());
    }

    #[test]
    fn malformed_input_reports_error() {
        let o = opts(&["--quiet"]);
        assert!(run(&o, "0\n").is_err());
    }

    /// Regression: every malformed-input shape must come back as a
    /// structured `Err` (non-zero exit in `main`), never a panic or a
    /// giant allocation. These same paths are the daemon's request
    /// parser.
    #[test]
    fn hostile_inputs_are_structured_errors() {
        let cases: &[&str] = &[
            // Out-of-range endpoints: used to overflow the node count
            // (usize::MAX) or trip the NodeId::new expect (> u32::MAX).
            "0 18446744073709551615\n",
            "0 4294967296\n",
            // A two-line file declaring billions of nodes: caught by the
            // CLI ingestion cap before any allocation.
            "nodes 18446744073709551615\n",
            "nodes 999999999999\n",
            "0 999999999\n",
            // Garbage shapes.
            "0 1 2\n",
            "a b\n",
            "nodes x\n",
            "-1 0\n",
            "0.5 1\n",
            "nodes 1\n0 1\n",
            // Structural errors (loop, parallel edge).
            "0 0\n",
            "0 1\n1 0\n",
        ];
        for algo in ["port1", "vc3", "greedy"] {
            for input in cases {
                let o = opts(&["--algorithm", algo, "--quiet"]);
                let err = run(&o, input).expect_err(&format!("{algo}: {input:?} must be rejected"));
                assert!(!err.is_empty(), "{algo}: {input:?} produced an empty error");
            }
        }
    }

    #[test]
    fn edgeless_input_yields_empty_output() {
        // Isolated nodes: the empty set dominates everything. The
        // distributed algorithms agree with the centralised baselines:
        // empty output, success.
        for algo in ["port1", "adelta", "vc3", "idmm", "greedy", "exact"] {
            let o = opts(&["--algorithm", algo, "--quiet"]);
            let out = run(&o, "nodes 3\n").unwrap_or_else(|e| panic!("{algo}: {e}"));
            assert!(out.is_empty(), "{algo}: {out:?}");
        }
    }
}
