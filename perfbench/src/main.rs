//! `perfbench` — the repository's end-to-end benchmark on the paper's
//! six protocols. See `README.md` for the workloads, metrics and layer
//! table; `run.py` builds this binary and `eds-serve` and runs it.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 \
//!           --serve-bin PATH --out-dir DIR
//! ```
//!
//! The last line of standard output is the result object; the exit code
//! is 0 only when every operation succeeded and every output checked.

mod batch;
mod json;
mod metrics;
mod pipeline;
mod serve;
mod sys;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 2] = ["batch_mixed", "serve_mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: Option<PathBuf>,
    out_dir: PathBuf,
    /// Build a batch workload's inputs and sessions, then exit: the
    /// process the batch `setup_s` times.
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 25.0,
        trace: false,
        serve_bin: None,
        out_dir: PathBuf::from(".bench_out"),
        setup_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            "--serve-bin" => args.serve_bin = Some(PathBuf::from(value)),
            "--out-dir" => args.out_dir = PathBuf::from(value),
            "--setup-only" => args.setup_only = value == "1",
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, not {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.setup_only {
        if args.workload != "serve_mixed" {
            std::hint::black_box(batch::setup(args.seed));
        }
        return ExitCode::SUCCESS;
    }
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.out_dir.display());
        return ExitCode::from(2);
    }
    let outcome = match (args.workload.as_str(), args.trace) {
        ("serve_mixed", traced) => {
            let Some(bin) = &args.serve_bin else {
                eprintln!("perfbench: serve_mixed needs --serve-bin");
                return ExitCode::from(2);
            };
            if traced {
                serve::run_traced(bin, args.seed, args.seconds, &args.out_dir)
            } else {
                serve::run(bin, args.seed, args.seconds, &args.out_dir)
            }
        }
        (workload, true) => batch::run_traced(workload, args.seed, &args.out_dir),
        (workload, false) => batch::run(workload, args.seed, args.seconds, &args.out_dir),
    };
    let declared = if args.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    println!("{}", outcome.render(declared));
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
