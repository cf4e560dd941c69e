//! `eds-serve` — the solver-as-a-service daemon.
//!
//! Accepts JSON-lines solve requests (see `eds_scenarios::serve` for the
//! wire format) on stdin, with `--socket PATH` on a unix socket, and
//! with `--http ADDR` over HTTP/1.1 (`POST /solve` plus `/metrics`,
//! `/healthz` and `/statz`). Every frame gets exactly one response
//! frame; malformed input is a structured error, never a panic.
//! Concurrent clients share one persistent worker pool and a
//! canonical-form result cache, so two clients submitting
//! PN-isomorphic instances share one solve.
//!
//! ```text
//! echo '{"id":1,"spec":"cycle:9","protocols":["vc3"]}' | eds-serve
//! eds-serve --socket /tmp/eds.sock            # socket only, run until a shutdown frame
//! eds-serve --socket /tmp/eds.sock --stdin    # both transports
//! eds-serve --http 127.0.0.1:8080             # HTTP API + Prometheus /metrics
//! ```

use std::io::{self, Write};
use std::process::ExitCode;
use std::time::Duration;

use eds_scenarios::{ServeConfig, Server};

const USAGE: &str = "eds-serve: JSON-lines edge-dominating-set solver daemon

USAGE:
    eds-serve [OPTIONS]                 serve stdin/stdout
    eds-serve --socket PATH [OPTIONS]   also (or only) serve a unix socket
    eds-serve --http ADDR [OPTIONS]     also (or only) serve HTTP/1.1

OPTIONS:
    --socket PATH          bind a unix socket and accept concurrent clients
    --http ADDR            bind a TCP address (e.g. 127.0.0.1:8080) and serve
                           POST /solve, GET /metrics, GET /healthz, GET /statz
    --stdin                serve stdin/stdout too (default unless --socket given)
    --threads N            solver pool threads (default: available cores)
    --batch N              max requests batched into one shared session (default 8)
    --queue-capacity N     solve queue bound; fuller submissions block (default 256)
    --window N             per-client in-flight frame window (default 32)
    --cache-capacity N     canonical-result cache entries, FIFO evicted (default 1024)
    --max-nodes N          largest accepted instance, nodes (default 1048576)
    --max-edges N          largest accepted instance, edges (default 2097152)
    --timeout-ms N         default per-request timeout (default 10000)
    --quiet                don't print the stats summary to stderr on exit
    --help                 print this help

Send {\"op\":\"shutdown\"} on any connection (or close stdin) to drain
in-flight solves and exit gracefully.";

struct Options {
    socket: Option<std::path::PathBuf>,
    http: Option<String>,
    stdin: bool,
    quiet: bool,
    config: ServeConfig,
}

fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut options = Options {
        socket: None,
        http: None,
        stdin: false,
        quiet: false,
        config: ServeConfig::default(),
    };
    let mut explicit_stdin = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let number = |flag: &str, raw: &str| {
            raw.parse::<usize>()
                .map_err(|_| format!("{flag}: {raw:?} is not a non-negative integer"))
        };
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--stdin" => explicit_stdin = true,
            "--quiet" => options.quiet = true,
            "--socket" => options.socket = Some(value("--socket")?.into()),
            "--http" => options.http = Some(value("--http")?.to_owned()),
            "--threads" => {
                options.config.solver_threads = number("--threads", value("--threads")?)?.max(1)
            }
            "--batch" => options.config.batch_limit = number("--batch", value("--batch")?)?.max(1),
            "--queue-capacity" => {
                options.config.queue_capacity =
                    number("--queue-capacity", value("--queue-capacity")?)?.max(1)
            }
            "--window" => {
                options.config.client_window = number("--window", value("--window")?)?.max(1)
            }
            "--cache-capacity" => {
                options.config.cache_capacity =
                    number("--cache-capacity", value("--cache-capacity")?)?
            }
            "--max-nodes" => {
                options.config.max_nodes = number("--max-nodes", value("--max-nodes")?)?
            }
            "--max-edges" => {
                options.config.max_edges = number("--max-edges", value("--max-edges")?)?
            }
            "--timeout-ms" => {
                options.config.default_timeout =
                    Duration::from_millis(number("--timeout-ms", value("--timeout-ms")?)? as u64)
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    options.stdin = explicit_stdin || (options.socket.is_none() && options.http.is_none());
    Ok(Some(options))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(Some(options)) => options,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("eds-serve: {message}");
            return ExitCode::from(2);
        }
    };

    let server = Server::new(options.config);

    if let Some(path) = &options.socket {
        if let Err(err) = server.listen_unix(path) {
            eprintln!("eds-serve: cannot bind {}: {err}", path.display());
            return ExitCode::FAILURE;
        }
        if !options.quiet {
            eprintln!("eds-serve: listening on {}", path.display());
        }
    }

    if let Some(addr) = &options.http {
        match server.listen_http(addr.as_str()) {
            Ok(bound) => {
                if !options.quiet {
                    eprintln!("eds-serve: serving http on {bound}");
                }
            }
            Err(err) => {
                eprintln!("eds-serve: cannot bind {addr}: {err}");
                return ExitCode::FAILURE;
            }
        }
    }

    if options.stdin {
        // Stdin closing (or a shutdown frame) ends the daemon; socket
        // clients still drain before exit.
        let stdin = io::stdin().lock();
        if let Err(err) = server.serve_stream(stdin, io::stdout()) {
            eprintln!("eds-serve: stdout closed early: {err}");
        }
        server.begin_shutdown();
    } else {
        server.wait_for_shutdown();
    }

    server.finish();

    if !options.quiet {
        let stats = server.stats();
        let mut err = io::stderr().lock();
        let _ = writeln!(
            err,
            "eds-serve: {} frames, {} responses ({} errors), cache {}/{} hit/miss, \
             {} timeouts, {} connections, {} panics",
            stats.frames,
            stats.responses,
            stats.errors,
            stats.cache_hits,
            stats.cache_misses,
            stats.timeouts,
            stats.connections,
            stats.pool_panics,
        );
    }
    ExitCode::SUCCESS
}
