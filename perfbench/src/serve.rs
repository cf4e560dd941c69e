//! The `serve_mixed` workload: the release `eds-serve` daemon driven by
//! this process in a closed loop — one connection per core, half of
//! them JSON lines over the unix socket, half `POST /solve` over HTTP.
//!
//! Every frame is an edge list of a random cubic graph of 800–1000
//! nodes (at most 4000 nodes plus ports, under the daemon's
//! `canonical_limit` of 4096, so the canonical form is computed in
//! full) asking for all six protocols with default bounds. Half of the
//! timed frames are relabelled repeats of a warm working set (cache
//! reads); half are fresh instances (cache writes plus solves). Frames
//! are generated before timing and checked after it.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use eds_core::repair::RecoveryPolicy;
use eds_scenarios::{canonical_form, Protocol, Scenario, SweepRecord};
use pn_graph::{generators, ports, EdgeId, NodeId, SimpleGraph};

use crate::batch::layer_metrics;
use crate::json::Json;
use crate::metrics::{median, percentile, tail_percentile, Outcome};
use crate::pipeline::{replay_scenario, Provider, ReplayCounts};
use crate::sys;
use crate::trace::Tracer;
use crate::workloads::{derive, splitmix};

/// Instances in the warm working set that repeats are drawn from.
const WORKING_SET: usize = 8;
/// Timed requests per second of `--seconds`; 1250 at the benchmark's
/// 50 s. The traced run sends half, 625, which makes its tail p98.
const FRAMES_PER_SECOND: usize = 25;
/// Daemon start-ups per run; `setup_s` is their median.
const SETUP_SPAWNS: usize = 9;
/// The daemon's default canonicalisation ceiling, mirrored by the
/// traced replay.
const CANONICAL_LIMIT: usize = 4096;

#[derive(Clone, Debug, PartialEq)]
pub enum Kind {
    /// A working-set instance, sent once before timing.
    Warm,
    /// A new instance: a cache miss and a solve.
    Fresh,
    /// Working-set instance `of`, relabelled: node `v` of the original
    /// is node `perm[v]` here. A cache hit.
    Repeat { of: usize, perm: Vec<usize> },
}

pub struct Frame {
    pub body: String,
    pub nodes: usize,
    pub edges: Vec<(usize, usize)>,
    /// The frame's `seed` field (identifier and randomised inputs).
    pub seed: u64,
    pub kind: Kind,
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix(self.0)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

fn frame(id: usize, nodes: usize, edges: Vec<(usize, usize)>, seed: u64, kind: Kind) -> Frame {
    use std::fmt::Write as _;
    let mut body = String::with_capacity(16 * edges.len() + 96);
    let _ = write!(body, "{{\"id\":{id},\"edges\":[");
    for (i, (u, v)) in edges.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        let _ = write!(body, "[{u},{v}]");
    }
    let _ = write!(
        body,
        "],\"nodes\":{nodes},\"protocols\":\"all\",\"seed\":{seed}}}"
    );
    Frame {
        body,
        nodes,
        edges,
        seed,
        kind,
    }
}

/// One generated instance: node count, edge list and the frame's seed.
type Instance = (usize, Vec<(usize, usize)>, u64);

/// The warm working set and the timed frames, from the seed alone.
pub fn generate(seed: u64, timed: usize) -> (Vec<Frame>, Vec<Frame>) {
    let mut rng = Rng(derive(seed, 7));
    let instance = |rng: &mut Rng| -> Instance {
        let nodes = 800 + 2 * rng.below(101);
        let graph_seed = rng.next();
        let g = generators::random_regular(nodes, 3, graph_seed).expect("3-regular on even n");
        let edges: Vec<(usize, usize)> =
            g.edges().map(|(_, u, v)| (u.index(), v.index())).collect();
        (nodes, edges, rng.next() % 1_000_000)
    };
    let warm: Vec<Instance> = (0..WORKING_SET).map(|_| instance(&mut rng)).collect();
    let mut repeat = vec![true; timed / 2];
    repeat.resize(timed, false);
    rng.shuffle(&mut repeat);
    let timed_frames = repeat
        .iter()
        .enumerate()
        .map(|(i, &is_repeat)| {
            let id = WORKING_SET + i;
            if is_repeat {
                let of = rng.below(WORKING_SET);
                let (nodes, edges, s) = &warm[of];
                let mut perm: Vec<usize> = (0..*nodes).collect();
                rng.shuffle(&mut perm);
                // Same edge order, so every node keeps its port order:
                // the relabelled graph is PN-isomorphic to the original.
                let relabelled = edges.iter().map(|&(u, v)| (perm[u], perm[v])).collect();
                frame(id, *nodes, relabelled, *s, Kind::Repeat { of, perm })
            } else {
                let (nodes, edges, s) = instance(&mut rng);
                frame(id, nodes, edges, s, Kind::Fresh)
            }
        })
        .collect();
    let warm_frames = warm
        .into_iter()
        .enumerate()
        .map(|(id, (nodes, edges, s))| frame(id, nodes, edges, s, Kind::Warm))
        .collect();
    (warm_frames, timed_frames)
}

// ---------------------------------------------------------------------
// The daemon and its two transports.
// ---------------------------------------------------------------------

struct Daemon {
    child: Child,
    socket: PathBuf,
    http: SocketAddr,
    stderr: Option<std::thread::JoinHandle<()>>,
}

fn http_request(
    reader: &mut BufReader<TcpStream>,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String), String> {
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let stream = reader.get_mut();
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("http write: {e}"))?;
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("http read: {e}"))?;
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {line:?}"))?;
    let mut length = 0usize;
    loop {
        line.clear();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("http read: {e}"))?;
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                length = value.trim().parse().map_err(|_| "bad Content-Length")?;
            }
        }
    }
    let mut body = vec![0u8; length];
    reader
        .read_exact(&mut body)
        .map_err(|e| format!("http body: {e}"))?;
    String::from_utf8(body)
        .map(|b| (status, b))
        .map_err(|_| "non-UTF-8 body".to_owned())
}

fn http_get(addr: SocketAddr, path: &str) -> Result<(u16, String), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    http_request(&mut BufReader::new(stream), "GET", path, "")
}

impl Daemon {
    /// Starts the daemon and waits until `/healthz` answers and the
    /// socket accepts; returns it with that start-up time.
    fn spawn(bin: &Path, socket: PathBuf) -> Result<(Daemon, f64), String> {
        let _ = std::fs::remove_file(&socket);
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .arg("--socket")
            .arg(&socket)
            .args(["--http", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut http = None;
        let mut line = String::new();
        while http.is_none() {
            line.clear();
            if stderr.read_line(&mut line).unwrap_or(0) == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("eds-serve exited before serving http".to_owned());
            }
            http = line
                .trim()
                .strip_prefix("eds-serve: serving http on ")
                .and_then(|a| a.parse::<SocketAddr>().ok());
        }
        let http = http.expect("loop ends with an address");
        let stderr = std::thread::spawn(move || {
            for line in stderr.lines().map_while(Result::ok) {
                eprintln!("{line}");
            }
        });
        let mut daemon = Daemon {
            child,
            socket,
            http,
            stderr: Some(stderr),
        };
        let deadline = t0 + Duration::from_secs(30);
        loop {
            let healthy = matches!(http_get(daemon.http, "/healthz"), Ok((200, _)));
            if healthy && UnixStream::connect(&daemon.socket).is_ok() {
                return Ok((daemon, t0.elapsed().as_secs_f64()));
            }
            if Instant::now() > deadline {
                daemon.stop();
                return Err("eds-serve did not become ready within 30 s".to_owned());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Graceful shutdown through a `shutdown` frame; the process must
    /// exit on its own within 30 s.
    fn shutdown(mut self) -> Result<(), String> {
        let asked = UnixStream::connect(&self.socket).and_then(|mut s| {
            s.write_all(b"{\"op\":\"shutdown\"}\n")?;
            let mut line = String::new();
            BufReader::new(s).read_line(&mut line).map(|_| line)
        });
        let deadline = Instant::now() + Duration::from_secs(30);
        let exited = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status.success(),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => break false,
            }
        };
        let clean = asked.is_ok() && exited;
        self.stop();
        if clean {
            Ok(())
        } else {
            Err("eds-serve did not shut down cleanly".to_owned())
        }
    }

    /// Kills the process if it still runs and reaps it and its stderr
    /// reader.
    fn stop(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(reader) = self.stderr.take() {
            let _ = reader.join();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

// ---------------------------------------------------------------------
// Driving the daemon.
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Transport {
    Unix,
    Http,
}

struct Answer {
    latency_s: f64,
    transport: Transport,
    text: Result<String, String>,
}

enum Conn {
    Unix(BufReader<UnixStream>),
    Http(BufReader<TcpStream>),
}

impl Conn {
    fn open(transport: Transport, daemon: &Daemon) -> Result<Conn, String> {
        match transport {
            Transport::Unix => UnixStream::connect(&daemon.socket)
                .map(|s| Conn::Unix(BufReader::new(s)))
                .map_err(|e| format!("unix connect: {e}")),
            Transport::Http => TcpStream::connect(daemon.http)
                .and_then(|s| s.set_nodelay(true).map(|()| s))
                .map(|s| Conn::Http(BufReader::new(s)))
                .map_err(|e| format!("http connect: {e}")),
        }
    }

    /// One request, one response: the closed loop's step.
    fn call(&mut self, body: &str) -> Result<String, String> {
        match self {
            Conn::Unix(reader) => {
                let stream = reader.get_mut();
                stream
                    .write_all(body.as_bytes())
                    .and_then(|()| stream.write_all(b"\n"))
                    .map_err(|e| format!("unix write: {e}"))?;
                let mut line = String::new();
                match reader.read_line(&mut line) {
                    Ok(0) => Err("connection closed".to_owned()),
                    Ok(_) => Ok(line.trim_end().to_owned()),
                    Err(e) => Err(format!("unix read: {e}")),
                }
            }
            Conn::Http(reader) => {
                let (status, text) = http_request(reader, "POST", "/solve", body)?;
                if status == 200 {
                    Ok(text)
                } else {
                    Err(format!("HTTP {status}: {text}"))
                }
            }
        }
    }
}

/// Sends `frames` over `clients` closed-loop connections; returns the
/// answers in frame order and the wall time.
fn drive(daemon: &Daemon, frames: &[Frame], clients: usize) -> (Vec<Option<Answer>>, f64) {
    let cursor = AtomicUsize::new(0);
    let t0 = Instant::now();
    let mut answers: Vec<Option<Answer>> = (0..frames.len()).map(|_| None).collect();
    let per_client: Vec<Vec<(usize, Answer)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let transport = if c % 2 == 0 {
                    Transport::Unix
                } else {
                    Transport::Http
                };
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut got = Vec::new();
                    let mut conn = Conn::open(transport, daemon);
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= frames.len() {
                            return got;
                        }
                        let sent = Instant::now();
                        let text = match &mut conn {
                            Ok(conn) => conn.call(&frames[i].body),
                            Err(e) => Err(e.clone()),
                        };
                        got.push((
                            i,
                            Answer {
                                latency_s: sent.elapsed().as_secs_f64(),
                                transport,
                                text,
                            },
                        ));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    for (i, answer) in per_client.into_iter().flatten() {
        answers[i] = Some(answer);
    }
    (answers, wall)
}

// ---------------------------------------------------------------------
// Checking the answers.
// ---------------------------------------------------------------------

/// One protocol's witness, in the sender's labels: sorted normalised
/// edge pairs, or sorted nodes.
type Witness = (String, Vec<(usize, usize)>);

fn pairs(solution: &Json, key: &str) -> Option<Vec<(usize, usize)>> {
    solution
        .get(key)?
        .as_array()?
        .iter()
        .map(|item| match (key, item) {
            ("edges", Json::Arr(pair)) if pair.len() == 2 => {
                Some((pair[0].as_usize()?, pair[1].as_usize()?))
            }
            ("nodes", node) => node.as_usize().map(|v| (v, v)),
            _ => None,
        })
        .collect()
}

/// Parses an ok response, checks every witness against the graph the
/// client sent, and returns the witnesses.
fn check_response(frame: &Frame, text: &str) -> Result<Vec<Witness>, String> {
    let v = Json::parse(text).map_err(|e| format!("unparsable response: {e}"))?;
    if v.get("ok") != Some(&Json::Bool(true)) {
        return Err(format!("not ok: {text:.200}"));
    }
    let results = v
        .get("results")
        .and_then(Json::as_array)
        .ok_or("no results")?;
    let skipped = v
        .get("skipped")
        .and_then(Json::as_array)
        .ok_or("no skipped")?;
    let mut g = SimpleGraph::new(frame.nodes);
    for &(a, b) in &frame.edges {
        g.add_edge(NodeId::new(a), NodeId::new(b))
            .map_err(|e| format!("client graph: {e}"))?;
    }
    let mut answered: Vec<&str> = skipped.iter().filter_map(Json::as_str).collect();
    let mut witnesses = Vec::new();
    for r in results {
        let protocol = r
            .get("protocol")
            .and_then(Json::as_str)
            .ok_or("no protocol")?;
        answered.push(protocol);
        if r.get("violation") != Some(&Json::Null)
            || r.get("within_bound") == Some(&Json::Bool(false))
        {
            return Err(format!("{protocol}: record is not clean"));
        }
        let solution = r.get("solution").ok_or("no solution")?;
        let verdict = if let Some(edges) = pairs(solution, "edges") {
            let ids: Option<Vec<EdgeId>> = edges
                .iter()
                .map(|&(a, b)| g.find_edge(NodeId::new(a), NodeId::new(b)))
                .collect();
            let ids = ids.ok_or_else(|| format!("{protocol}: witness names a non-edge"))?;
            let checked = match protocol {
                "id-matching" | "rand-matching" => eds_verify::check_maximal_matching(&g, &ids),
                _ => eds_verify::check_edge_dominating_set(&g, &ids),
            };
            let mut norm: Vec<(usize, usize)> =
                edges.iter().map(|&(a, b)| (a.min(b), a.max(b))).collect();
            norm.sort_unstable();
            witnesses.push((protocol.to_owned(), norm));
            checked.map_err(|e| e.to_string())
        } else if let Some(nodes) = pairs(solution, "nodes") {
            let mut cover = vec![false; frame.nodes];
            for &(v, _) in &nodes {
                *cover.get_mut(v).ok_or("cover names a non-node")? = true;
            }
            let mut norm = nodes;
            norm.sort_unstable();
            witnesses.push((protocol.to_owned(), norm));
            match g
                .edges()
                .find(|&(_, u, v)| !cover[u.index()] && !cover[v.index()])
            {
                Some((e, ..)) => Err(format!("edge {e} is not covered")),
                None => Ok(()),
            }
        } else {
            Err("solution has neither edges nor nodes".to_owned())
        };
        verdict.map_err(|e| format!("{protocol}: {e}"))?;
    }
    answered.sort_unstable();
    let mut all: Vec<&str> = Protocol::ALL.iter().map(|p| p.name()).collect();
    all.sort_unstable();
    if answered != all {
        return Err(format!("protocols answered: {answered:?}"));
    }
    witnesses.sort();
    Ok(witnesses)
}

/// A repeat's witnesses in its original's labels.
fn undo_relabel(witnesses: &[Witness], perm: &[usize]) -> Vec<Witness> {
    let mut inverse = vec![0; perm.len()];
    for (old, &new) in perm.iter().enumerate() {
        inverse[new] = old;
    }
    let mut out: Vec<Witness> = witnesses
        .iter()
        .map(|(p, items)| {
            let mut mapped: Vec<(usize, usize)> = items
                .iter()
                .map(|&(a, b)| {
                    let (a, b) = (inverse[a], inverse[b]);
                    (a.min(b), a.max(b))
                })
                .collect();
            mapped.sort_unstable();
            (p.clone(), mapped)
        })
        .collect();
    out.sort();
    out
}

/// What `/metrics` says, for reconciliation with the traffic sent.
struct Scrape {
    frames: f64,
    ok: f64,
    hits: f64,
    misses: f64,
    batch_jobs_mean: f64,
}

fn scrape(daemon: &Daemon) -> Result<Scrape, String> {
    let (status, text) = http_get(daemon.http, "/metrics")?;
    if status != 200 {
        return Err(format!("/metrics answered {status}"));
    }
    let value = |series: &str| {
        sys::prometheus_value(&text, series).ok_or_else(|| format!("/metrics lacks {series}"))
    };
    let jobs = value("eds_serve_batch_jobs_sum")?;
    let batches = value("eds_serve_batch_jobs_count")?;
    Ok(Scrape {
        frames: value("eds_serve_frames_total")?,
        ok: value("eds_serve_responses_total{kind=\"ok\"}")?,
        hits: value("eds_serve_cache_hits_total")?,
        misses: value("eds_serve_cache_misses_total")?,
        batch_jobs_mean: if batches > 0.0 { jobs / batches } else { 0.0 },
    })
}

/// Everything one drive of the daemon produced.
struct Drive {
    warm: Vec<Frame>,
    timed: Vec<Frame>,
    warm_texts: Vec<Option<String>>,
    answers: Vec<Option<Answer>>,
    wall: f64,
    setup: Vec<f64>,
    rss_mb: f64,
    scrape: Option<Scrape>,
}

fn clients() -> usize {
    std::thread::available_parallelism()
        .map_or(1, std::num::NonZero::get)
        .max(2)
}

/// Starts the daemon (several times, keeping the last), warms the
/// working set, runs the timed closed loop, scrapes `/metrics` and shuts
/// the daemon down.
fn serve_once(
    bin: &Path,
    seed: u64,
    seconds: f64,
    out_dir: &Path,
    out: &mut Outcome,
) -> Option<Drive> {
    let timed_count = (FRAMES_PER_SECOND as f64 * seconds).round().max(20.0) as usize;
    let (warm, timed) = generate(seed, timed_count);
    let mut setup = Vec::new();
    let mut daemon = None;
    for i in 0..SETUP_SPAWNS {
        match Daemon::spawn(bin, out_dir.join(format!("serve-{i}.sock"))) {
            Ok((d, secs)) => {
                setup.push(secs);
                if let Some(previous) = daemon.replace(d) {
                    if let Err(e) = Daemon::shutdown(previous) {
                        out.fail(e);
                    }
                }
            }
            Err(e) => {
                out.fail(e);
                return None;
            }
        }
    }
    let daemon = daemon.expect("spawned at least once");

    let warm_texts: Vec<Option<String>> = match Conn::open(Transport::Unix, &daemon) {
        Ok(mut conn) => warm.iter().map(|f| conn.call(&f.body).ok()).collect(),
        Err(e) => {
            out.fail(e);
            vec![None; warm.len()]
        }
    };
    let (answers, wall) = drive(&daemon, &timed, clients());
    let rss_mb = sys::peak_rss_mb(Some(daemon.child.id())).unwrap_or(0.0);
    let scraped = scrape(&daemon);
    if let Err(e) = daemon.shutdown() {
        out.fail(e);
    }
    let scrape = match scraped {
        Ok(s) => Some(s),
        Err(e) => {
            out.fail(e);
            None
        }
    };
    Some(Drive {
        warm,
        timed,
        warm_texts,
        answers,
        wall,
        setup,
        rss_mb,
        scrape,
    })
}

/// Checks every answer and reconciles the daemon's counters with the
/// traffic sent; returns the ok count.
fn verify(s: &Drive, out: &mut Outcome) -> usize {
    let mut originals: Vec<Option<Vec<Witness>>> = Vec::new();
    for (frame, text) in s.warm.iter().zip(&s.warm_texts) {
        out.attempted += 1;
        let checked = text
            .as_deref()
            .ok_or_else(|| "no response".to_owned())
            .and_then(|t| check_response(frame, t));
        match checked {
            Ok(w) => originals.push(Some(w)),
            Err(e) => {
                out.fail(format!("warm frame: {e}"));
                originals.push(None);
            }
        }
    }
    let is_ok =
        |text: &str| Json::parse(text).is_ok_and(|v| v.get("ok") == Some(&Json::Bool(true)));
    let mut ok = s.warm_texts.iter().flatten().filter(|t| is_ok(t)).count();
    for (i, (frame, answer)) in s.timed.iter().zip(&s.answers).enumerate() {
        out.attempted += 1;
        let Some(answer) = answer else {
            out.fail(format!("frame {i}: no response"));
            continue;
        };
        let text = match &answer.text {
            Ok(t) => t,
            Err(e) => {
                out.fail(format!("frame {i}: {e}"));
                continue;
            }
        };
        if is_ok(text) {
            ok += 1;
        }
        match check_response(frame, text) {
            Err(e) => out.fail(format!("frame {i}: {e}")),
            Ok(witnesses) => {
                if let Kind::Repeat { of, perm } = &frame.kind {
                    if originals[*of].as_ref() != Some(&undo_relabel(&witnesses, perm)) {
                        out.fail(format!(
                            "frame {i}: repeat's witness differs from its original's"
                        ));
                    }
                }
            }
        }
    }
    if let Some(m) = &s.scrape {
        let sent = (s.warm.len() + s.timed.len()) as f64;
        let repeats = s
            .timed
            .iter()
            .filter(|f| matches!(f.kind, Kind::Repeat { .. }))
            .count() as f64;
        for (what, seen, expected) in [
            ("eds_serve_frames_total", m.frames, sent),
            ("cache hits + misses", m.hits + m.misses, sent),
            ("cache hits", m.hits, repeats),
            ("responses_total{kind=\"ok\"}", m.ok, ok as f64),
        ] {
            if seen != expected {
                out.fail(format!("{what} = {seen}, but the traffic says {expected}"));
            }
        }
    }
    ok
}

pub fn run(bin: &Path, seed: u64, seconds: f64, out_dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    let Some(s) = serve_once(bin, seed, seconds, out_dir, &mut out) else {
        return out;
    };
    verify(&s, &mut out);
    out.set("setup_s", median(&s.setup));
    out.set("wall_s", s.wall);
    out.set("peak_rss_mb", s.rss_mb);
    out
}

fn ms_p50(values: impl Iterator<Item = f64>) -> f64 {
    median(&values.map(|s| s * 1e3).collect::<Vec<_>>())
}

/// The traced run: the same drive (the daemon itself is never traced),
/// its client-side breakdown, then every frame replayed through the
/// public calls the daemon makes — graph build, canonical form, and for
/// every cache miss the solve — whose records must equal the daemon's
/// byte for byte. It drives half the untraced request set: the replay
/// costs about as much again as the drive, and the run must still end
/// well within three minutes.
pub fn run_traced(bin: &Path, seed: u64, seconds: f64, out_dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    let Some(s) = serve_once(bin, seed, seconds / 2.0, out_dir, &mut out) else {
        return out;
    };
    let ok = verify(&s, &mut out);

    let answered: Vec<(&Frame, &Answer)> = s
        .timed
        .iter()
        .zip(&s.answers)
        .filter_map(|(f, a)| a.as_ref().filter(|a| a.text.is_ok()).map(|a| (f, a)))
        .collect();
    let latencies: Vec<f64> = answered.iter().map(|(_, a)| a.latency_s * 1e3).collect();
    let of_kind = |repeat: bool| {
        ms_p50(
            answered
                .iter()
                .filter(|(f, _)| matches!(f.kind, Kind::Repeat { .. }) == repeat)
                .map(|(_, a)| a.latency_s),
        )
    };
    let of_transport = |t: Transport| {
        ms_p50(
            answered
                .iter()
                .filter(|(_, a)| a.transport == t)
                .map(|(_, a)| a.latency_s),
        )
    };
    out.set("serve.req_per_s", answered.len() as f64 / s.wall);
    out.set("serve.latency_p50_ms", median(&latencies));
    if let Some(p) = tail_percentile(latencies.len()) {
        out.set("serve.latency_tail_ms", percentile(&latencies, p));
    }
    out.set("serve.hit_p50_ms", of_kind(true));
    out.set("serve.miss_p50_ms", of_kind(false));
    out.set("serve.unix_p50_ms", of_transport(Transport::Unix));
    out.set("serve.http_p50_ms", of_transport(Transport::Http));
    let all_frames: Vec<&Frame> = s.warm.iter().chain(&s.timed).collect();
    out.set(
        "serve.frame_bytes_mean",
        all_frames.iter().map(|f| f.body.len() as f64).sum::<f64>() / all_frames.len() as f64,
    );
    if let Some(m) = &s.scrape {
        out.set(
            "serve.cache_hit_ratio",
            m.hits / (m.hits + m.misses).max(1.0),
        );
        out.set("serve.batch_jobs_mean", m.batch_jobs_mean);
    }
    if ok == 0 {
        return out;
    }

    // The replay: one frame at a time, in send order per kind.
    let responses: Vec<Option<&str>> = s
        .warm_texts
        .iter()
        .map(|t| t.as_deref())
        .chain(
            s.answers
                .iter()
                .map(|a| a.as_ref().and_then(|a| a.text.as_deref().ok())),
        )
        .collect();
    let mut t = Tracer::new();
    let mut counts = ReplayCounts::default();
    let mut solved: BTreeMap<usize, Vec<SweepRecord>> = BTreeMap::new();
    let provider = Provider::exact();
    let policy = RecoveryPolicy::default();
    let started = Instant::now();
    for (i, (frame, response)) in all_frames.iter().zip(&responses).enumerate() {
        let Some(response) = response else { continue };
        let root = t.open("request", &i.to_string(), None);
        let graph = t.time("pn_graph.build", "edges", Some(root), || {
            let mut g = SimpleGraph::new(frame.nodes);
            for &(a, b) in &frame.edges {
                g.add_edge(NodeId::new(a), NodeId::new(b))?;
            }
            ports::canonical_ports(&g)
        });
        let Ok(graph) = graph else {
            out.fail(format!("frame {i}: graph build failed"));
            t.close(root);
            continue;
        };
        let canonical = t.time("serve.canonical", "", Some(root), || {
            canonical_form(&graph, CANONICAL_LIMIT)
        });
        let records = match &frame.kind {
            Kind::Repeat { of, .. } => solved.get(of).cloned(),
            Kind::Warm | Kind::Fresh => {
                let solve = t.open("serve.solve", "", Some(root));
                let records = replay_solve(
                    &mut t,
                    solve,
                    frame.seed,
                    response,
                    canonical.graph,
                    &provider,
                    &policy,
                    &mut counts,
                );
                t.close(solve);
                match records {
                    Ok(records) => {
                        if frame.kind == Kind::Warm {
                            solved.insert(i, records.clone());
                        }
                        Some(records)
                    }
                    Err(e) => {
                        out.fail(format!("frame {i}: {e}"));
                        None
                    }
                }
            }
        };
        if let Some(records) = records {
            let bytes: usize = t.time("sink.emit", "render", Some(root), || {
                records.iter().map(|r| r.to_json_line().len()).sum()
            });
            out.add("sink.bytes", bytes as f64);
        }
        t.close(root);
    }
    let replay_wall = started.elapsed().as_secs_f64();
    if counts.mismatches > 0 {
        out.fail("replayed extractions or checks disagreed with the protocol runs");
    }
    layer_metrics(&t, &mut out);
    out.set(
        "serve.canonical_ms_p50",
        ms_p50(t.durations("serve.canonical").into_iter()),
    );
    out.set(
        "serve.solve_ms_p50",
        ms_p50(t.durations("serve.solve").into_iter()),
    );
    out.set("pn_runtime.rounds", counts.rounds as f64);
    out.set("pn_runtime.messages", counts.messages as f64);
    out.set(
        "pn_runtime.msgs_per_s",
        counts.messages as f64 / out.get("pn_runtime.execute_s").max(1e-9),
    );
    out.set("trace.spans", t.spans().len() as f64);
    let busy: f64 = t.durations("request").iter().sum();
    out.set("trace.overhead_s", (replay_wall - busy).max(0.0));
    let path = out_dir.join(format!("trace-serve_mixed-{seed}.jsonl"));
    if let Err(e) = t.write(&path) {
        out.fail(format!("cannot write {}: {e}", path.display()));
    }
    out
}

/// Solves one frame the way the daemon does — a sequential session over
/// `Scenario::external(canonical graph)` — decomposed into spans, and
/// checks the records against the daemon's response byte for byte.
#[allow(clippy::too_many_arguments)]
fn replay_solve(
    t: &mut Tracer,
    parent: usize,
    seed: u64,
    response: &str,
    canonical: pn_graph::PortNumberedGraph,
    provider: &Provider,
    policy: &RecoveryPolicy,
    counts: &mut ReplayCounts,
) -> Result<Vec<SweepRecord>, String> {
    let parsed = Json::parse(response).map_err(|e| e.to_string())?;
    let results = parsed
        .get("results")
        .and_then(Json::as_array)
        .ok_or("no results")?;
    // Records name the scenario `label/as-given/s{seed}`; the daemon
    // derives the label from its cache key.
    let name = results
        .first()
        .and_then(|r| r.get("scenario"))
        .and_then(Json::as_str)
        .and_then(|n| n.strip_suffix(&format!("/as-given/s{seed}")))
        .ok_or("no scenario name")?;
    let scenario = Scenario::external(name, canonical, seed).map_err(|e| e.to_string())?;
    let records: Vec<SweepRecord> = replay_scenario(
        t,
        parent,
        &scenario,
        &Protocol::ALL,
        provider,
        policy,
        counts,
    )
    .map_err(|e| e.to_string())?
    .into_iter()
    .map(|(r, _)| r)
    .collect();
    if records.len() != results.len() {
        return Err(format!(
            "replay produced {} records, the daemon {}",
            records.len(),
            results.len()
        ));
    }
    for r in &records {
        let line = r.to_json_line();
        let expected = format!("{},\"solution\":", &line[..line.len() - 1]);
        if !response.contains(&expected) {
            return Err(format!(
                "{}: traced record differs from the daemon's",
                r.protocol
            ));
        }
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_are_seeded_and_repeats_are_relabelled_copies() {
        let (warm, timed) = generate(3, 40);
        let (warm2, timed2) = generate(3, 40);
        assert!(warm.iter().zip(&warm2).all(|(a, b)| a.body == b.body));
        assert!(timed.iter().zip(&timed2).all(|(a, b)| a.body == b.body));
        assert_eq!(
            timed
                .iter()
                .filter(|f| matches!(f.kind, Kind::Repeat { .. }))
                .count(),
            20
        );
        for f in warm.iter().chain(&timed) {
            assert!(f.nodes >= 800 && f.nodes <= 1000 && f.nodes % 2 == 0);
            assert!(f.nodes + 2 * f.edges.len() <= CANONICAL_LIMIT);
            assert!(Json::parse(&f.body).is_ok());
        }
        for f in &timed {
            if let Kind::Repeat { of, perm } = &f.kind {
                let original = &warm[*of];
                let mapped: Vec<(usize, usize)> = original
                    .edges
                    .iter()
                    .map(|&(u, v)| (perm[u], perm[v]))
                    .collect();
                assert_eq!(mapped, f.edges);
                // PN-isomorphic: the canonical keys agree.
                let pg = |f: &Frame| {
                    let mut g = SimpleGraph::new(f.nodes);
                    for &(a, b) in &f.edges {
                        g.add_edge(NodeId::new(a), NodeId::new(b)).unwrap();
                    }
                    ports::canonical_ports(&g).unwrap()
                };
                assert_eq!(
                    canonical_form(&pg(original), CANONICAL_LIMIT).key,
                    canonical_form(&pg(f), CANONICAL_LIMIT).key
                );
                break;
            }
        }
    }

    #[test]
    fn relabelling_round_trips_witnesses() {
        let perm = vec![2, 0, 1];
        let w = vec![("port-one".to_owned(), vec![(0, 2)])];
        // Node 2 here is node 0 there; node 0 here is node 1 there.
        assert_eq!(
            undo_relabel(&w, &perm),
            vec![("port-one".to_owned(), vec![(0, 1)])]
        );
    }
}
