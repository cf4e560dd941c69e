//! Soak test for the `eds-serve` daemon layer: many concurrent unix-
//! socket clients hammering one server with a mix of solve requests,
//! cache-hitting duplicates, PN-isomorphic relabelings and malformed
//! frames.
//!
//! Checked invariants:
//!
//! * **No lost or duplicated responses** — every client gets exactly one
//!   response per frame, in request order, with the right `id` echoed.
//! * **Bounded memory** — the canonical-result cache never exceeds its
//!   configured capacity, however many distinct instances stream past.
//! * **Cache coherence under renumbering** — a response served from
//!   cache for a node-relabeled instance is byte-identical to a fresh
//!   solve of that same instance on a cold server.
//! * **Graceful shutdown under load** — a `shutdown` frame mid-stream
//!   drains every in-flight solve; late frames get structured refusals
//!   and every connection ends with a reason frame, not a hang.
//! * **Throughput** — ≥ 1000 requests/second sustained on smoke-tier
//!   instances over unix sockets (release builds only), and ≥ 500
//!   cached requests/second on one keep-alive HTTP connection (every
//!   build).
//! * **Prompt shutdown** — an idle daemon's blocking accept loops are
//!   woken, so `finish()` returns at once.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use edge_dominating_sets::scenarios::{ServeConfig, Server};

fn socket_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("eds-serve-{tag}-{}.sock", std::process::id()))
}

fn connect(path: &PathBuf) -> (BufReader<UnixStream>, UnixStream) {
    // `listen_unix` has bound the socket when it returns; retry briefly
    // anyway, so a transient connect error never flakes a test.
    for _ in 0..100 {
        if let Ok(stream) = UnixStream::connect(path) {
            let reader = BufReader::new(stream.try_clone().expect("clone socket"));
            return (reader, stream);
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    panic!("socket {} never came up", path.display());
}

fn read_line(reader: &mut BufReader<UnixStream>) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read response");
    assert!(line.ends_with('\n'), "response not newline-terminated");
    line.trim_end().to_owned()
}

/// Reads one HTTP/1.1 response with a `Content-Length` body; returns
/// the status and body.
fn read_http_response<R: BufRead>(reader: &mut R) -> (u16, String) {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .unwrap_or_else(|| panic!("malformed status line {status_line:?}"));
    let mut length = 0usize;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header).expect("header line");
        let header = header.trim_end().to_ascii_lowercase();
        if header.is_empty() {
            break;
        }
        if let Some(value) = header.strip_prefix("content-length:") {
            length = value.trim().parse().expect("numeric length");
        }
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).expect("body");
    (status, String::from_utf8(body).expect("UTF-8 body"))
}

/// The heart of the soak: `CLIENTS` threads, each sending `ROUNDS`
/// bursts of frames over one connection — a rotating mix of fresh
/// instances, repeats (cache hits), node-relabeled repeats and
/// malformed garbage — and checking every response as it arrives.
#[test]
fn concurrent_clients_lose_nothing_and_memory_stays_bounded() {
    const CLIENTS: usize = 6;
    const ROUNDS: usize = 12;
    let config = ServeConfig {
        solver_threads: 2,
        cache_capacity: 16,
        ..ServeConfig::default()
    };
    let server = Server::new(config);
    let path = socket_path("soak");
    server.listen_unix(&path).expect("bind socket");

    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let path = &path;
            scope.spawn(move || {
                let (mut reader, mut writer) = connect(path);
                let mut expected: Vec<(String, &str)> = Vec::new();
                for round in 0..ROUNDS {
                    let id = format!("\"c{client}-r{round}\"");
                    let frame = match round % 6 {
                        // A small rotating pool of instances: repeats
                        // across clients and rounds exercise the cache
                        // and in-batch dedup.
                        0 => format!(
                            "{{\"id\":{id},\"spec\":\"cycle:{}\",\"protocols\":[\"vc3\"]}}",
                            5 + (client + round) % 4
                        ),
                        1 => format!(
                            "{{\"id\":{id},\"spec\":\"path:{}\",\"protocols\":[\"vc3\",\"port-one\"]}}",
                            4 + round % 3
                        ),
                        // The same 5-cycle in two labelings: these two
                        // frames share one cache entry.
                        2 => format!(
                            "{{\"id\":{id},\"edges\":[[0,1],[1,2],[2,3],[3,4],[4,0]],\"protocols\":[\"vc3\"]}}"
                        ),
                        3 => format!(
                            "{{\"id\":{id},\"edges\":[[3,1],[1,4],[4,0],[0,2],[2,3]],\"protocols\":[\"vc3\"]}}"
                        ),
                        // Malformed traffic interleaved with real work.
                        4 => format!("{{\"id\":{id},\"edges\":[[0,0]]}}"),
                        _ => "not json at all".to_owned(),
                    };
                    let want = match round % 6 {
                        4 => "\"kind\":\"graph\"",
                        5 => "\"kind\":\"parse\"",
                        _ => "\"ok\":true",
                    };
                    expected.push((
                        if round % 6 == 5 { "null".to_owned() } else { id },
                        want,
                    ));
                    writer.write_all(frame.as_bytes()).expect("send frame");
                    writer.write_all(b"\n").expect("send frame");
                }
                // Responses arrive strictly in request order.
                for (id, want) in expected {
                    let line = read_line(&mut reader);
                    assert!(
                        line.contains(&format!("\"id\":{id}")),
                        "client {client}: response out of order or lost: {line}"
                    );
                    assert!(line.contains(want), "client {client}: {line}");
                }
            });
        }
    });

    let stats = server.stats();
    assert_eq!(
        stats.frames,
        (CLIENTS * ROUNDS) as u64,
        "every sent frame was read"
    );
    assert_eq!(
        stats.responses, stats.frames,
        "exactly one response per frame, none lost, none duplicated"
    );
    assert!(
        stats.cache_entries <= 16,
        "cache exceeded its capacity: {} entries",
        stats.cache_entries
    );
    assert!(
        stats.cache_hits > 0,
        "repeated instances must hit the cache"
    );
    assert_eq!(stats.pool_panics, 0, "no contained panics under load");

    server.begin_shutdown();
    server.finish();
    assert!(!path.exists(), "socket file removed on shutdown");
}

/// A relabeled instance answered from cache must be byte-identical to a
/// fresh solve of the same bytes on a cold server — over the socket,
/// exactly as clients see it.
#[test]
fn socket_cache_hits_are_byte_identical_under_renumbering() {
    // The same 6-cycle twice: identity labels, then an arbitrary
    // permutation of the node names.
    let original =
        "{\"id\":\"q\",\"edges\":[[0,1],[1,2],[2,3],[3,4],[4,5],[5,0]],\"protocols\":[\"vc3\",\"port-one\"]}";
    let relabeled =
        "{\"id\":\"q\",\"edges\":[[2,5],[5,0],[0,4],[4,1],[1,3],[3,2]],\"protocols\":[\"vc3\",\"port-one\"]}";

    let ask = |server: &Server, tag: &str, frames: &[&str]| -> Vec<String> {
        let path = socket_path(tag);
        server.listen_unix(&path).expect("bind socket");
        let (mut reader, mut writer) = connect(&path);
        let mut out = Vec::new();
        for frame in frames {
            writer.write_all(frame.as_bytes()).expect("send");
            writer.write_all(b"\n").expect("send");
            out.push(read_line(&mut reader));
        }
        out
    };

    let cold = Server::new(ServeConfig::default());
    let fresh = ask(&cold, "cold", &[relabeled]).remove(0);
    cold.begin_shutdown();
    cold.finish();

    let warm = Server::new(ServeConfig::default());
    let answers = ask(&warm, "warm", &[original, relabeled]);
    assert!(
        warm.stats().cache_hits >= 1,
        "relabeling must hit the cache"
    );
    warm.begin_shutdown();
    warm.finish();

    assert_eq!(
        answers[1], fresh,
        "cached response differs from a fresh solve of the same instance"
    );
    assert!(fresh.contains("\"ok\":true"), "{fresh}");
}

/// Shutdown mid-stream: in-flight solves drain, late frames are refused
/// with a structured `shutdown` error, and every connection is closed
/// with a reason frame.
#[test]
fn shutdown_under_load_drains_and_refuses_cleanly() {
    let server = Server::new(ServeConfig {
        solver_threads: 2,
        ..ServeConfig::default()
    });
    let path = socket_path("shutdown");
    server.listen_unix(&path).expect("bind socket");

    let (mut reader, mut writer) = connect(&path);
    writer
        .write_all(b"{\"id\":1,\"spec\":\"cycle:7\",\"protocols\":[\"vc3\"]}\n")
        .expect("send solve");
    writer
        .write_all(b"{\"id\":2,\"op\":\"shutdown\"}\n")
        .expect("send shutdown");
    let first = read_line(&mut reader);
    assert!(
        first.contains("\"ok\":true"),
        "in-flight solve drained: {first}"
    );
    let second = read_line(&mut reader);
    assert!(second.contains("\"shutdown\":true"), "{second}");
    // The server half-closed our read side; it still flushes the final
    // reason frame before the connection ends.
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("drain connection");
    assert!(
        rest.contains("\"kind\":\"shutdown\""),
        "connection must end with a reason frame, got {rest:?}"
    );
    server.finish();

    let stats = server.stats();
    assert_eq!(stats.pool_panics, 0);
    // The reason frame rides outside the request/response pairing: the
    // counters still balance exactly.
    assert_eq!(stats.responses, stats.frames);
}

/// The HTTP transport answers with the very bytes the unix-socket
/// transport emits — same response frames, HTTP framing aside — and
/// its `/metrics` series reconcile exactly with the request traffic.
#[test]
fn http_solves_match_the_socket_path_and_metrics_reconcile() {
    let frames = [
        "{\"id\":\"a\",\"spec\":\"cycle:6\",\"protocols\":[\"vc3\",\"port-one\"]}",
        "{\"id\":\"b\",\"edges\":[[0,1],[1,2],[2,0]],\"protocols\":[\"vc3\"]}",
        "{\"id\":\"c\",\"edges\":[[0,0]]}",
        "not json",
    ];

    // The baseline: the same frames over a unix socket on a cold server.
    let sock_server = Server::new(ServeConfig {
        solver_threads: 2,
        ..ServeConfig::default()
    });
    let path = socket_path("http-vs-sock");
    sock_server.listen_unix(&path).expect("bind socket");
    let (mut reader, mut writer) = connect(&path);
    let mut socket_lines = Vec::new();
    for frame in frames {
        writer.write_all(frame.as_bytes()).expect("send");
        writer.write_all(b"\n").expect("send");
        socket_lines.push(read_line(&mut reader));
    }
    sock_server.begin_shutdown();
    sock_server.finish();

    // One keep-alive HTTP connection sends one request per frame, then
    // reads the telemetry endpoints.
    let http_server = Server::new(ServeConfig {
        solver_threads: 2,
        ..ServeConfig::default()
    });
    let addr = http_server.listen_http("127.0.0.1:0").expect("bind http");
    let stream = TcpStream::connect(addr).expect("connect http");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .expect("client deadline");
    let mut http_writer = stream.try_clone().expect("clone stream");
    let mut http_reader = BufReader::new(stream);

    let mut request = |method: &str, target: &str, body: Option<&str>| -> (u16, String) {
        let mut raw = format!("{method} {target} HTTP/1.1\r\n");
        if let Some(body) = body {
            raw.push_str(&format!("Content-Length: {}\r\n", body.len()));
        }
        raw.push_str("\r\n");
        if let Some(body) = body {
            raw.push_str(body);
        }
        http_writer.write_all(raw.as_bytes()).expect("send request");
        read_http_response(&mut http_reader)
    };

    for (frame, socket_line) in frames.iter().zip(&socket_lines) {
        let (status, body) = request("POST", "/solve", Some(frame));
        assert_eq!(
            body.trim_end(),
            socket_line,
            "HTTP payload differs from the socket path for {frame}"
        );
        let expected = if socket_line.contains("\"ok\":true") {
            200
        } else {
            400
        };
        assert_eq!(status, expected, "{body}");
    }

    // /metrics and /statz reconcile with exactly the traffic sent: 4
    // frames — 2 ok, 1 graph error, 1 parse error — each timed.
    let (status, metrics) = request("GET", "/metrics", None);
    assert_eq!(status, 200);
    for needle in [
        "eds_serve_frames_total 4",
        "eds_serve_responses_total{kind=\"ok\"} 2",
        "eds_serve_responses_total{kind=\"graph\"} 1",
        "eds_serve_responses_total{kind=\"parse\"} 1",
        "eds_serve_responses_total{kind=\"timeout\"} 0",
        "eds_serve_request_latency_us_count 4",
        "eds_serve_cache_misses_total 2",
    ] {
        assert!(
            metrics.contains(needle),
            "missing {needle:?} in:\n{metrics}"
        );
    }

    let (status, statz) = request("GET", "/statz", None);
    assert_eq!(status, 200);
    assert!(
        statz.contains("\"frames\":4") && statz.contains("\"errors\":2"),
        "{statz}"
    );

    http_server.begin_shutdown();
    http_server.finish();
}

/// Keep-alive HTTP gate, in every build: cached `cycle:9` solves on one
/// connection must reach 500 requests/second. A response whose head and
/// body leave in two writes stalls each request on the client's delayed
/// ACK (about 40 ms), which caps one connection near 25 requests/second.
/// The best of three windows counts, so a briefly busy host does not
/// fail the gate.
#[test]
fn keep_alive_http_sustains_five_hundred_cached_requests_per_second() {
    const WINDOWS: usize = 3;
    const REQUESTS: usize = 150;
    let server = Server::new(ServeConfig {
        solver_threads: 1,
        ..ServeConfig::default()
    });
    let addr = server.listen_http("127.0.0.1:0").expect("bind http");
    let stream = TcpStream::connect(addr).expect("connect http");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("client deadline");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let frame = "{\"id\":9,\"spec\":\"cycle:9\",\"protocols\":[\"vc3\"]}";
    // Each request leaves in one write, so the client side adds no
    // delay of its own.
    let request = format!(
        "POST /solve HTTP/1.1\r\nContent-Length: {}\r\n\r\n{frame}",
        frame.len()
    );
    let mut call = || {
        writer.write_all(request.as_bytes()).expect("send request");
        let (status, body) = read_http_response(&mut reader);
        assert_eq!(status, 200, "{body}");
        body
    };
    let first = call();
    let mut best = 0.0f64;
    for _ in 0..WINDOWS {
        let start = Instant::now();
        for _ in 0..REQUESTS {
            assert_eq!(call(), first, "cache hits are byte-identical");
        }
        best = best.max(REQUESTS as f64 / start.elapsed().as_secs_f64());
    }
    let stats = server.stats();
    assert_eq!(stats.cache_misses, 1);
    assert_eq!(stats.cache_hits, (WINDOWS * REQUESTS) as u64);
    assert!(
        best >= 500.0,
        "one keep-alive connection sustained only {best:.0} req/s"
    );
    server.begin_shutdown();
    server.finish();
}

/// The accept loops block in `accept`; shutdown wakes them with a
/// self-connection. An idle daemon with both listeners must therefore
/// finish promptly, and leave neither listener behind.
#[test]
fn idle_daemon_finishes_promptly() {
    let server = Server::new(ServeConfig {
        solver_threads: 1,
        ..ServeConfig::default()
    });
    let path = socket_path("idle");
    server.listen_unix(&path).expect("bind socket");
    let addr = server.listen_http("127.0.0.1:0").expect("bind http");
    // Let both accept loops reach their blocking `accept`.
    std::thread::sleep(Duration::from_millis(50));

    let (done, finished) = std::sync::mpsc::channel();
    let finisher = std::thread::spawn(move || {
        server.finish();
        let _ = done.send(server.stats());
    });
    let stats = finished
        .recv_timeout(Duration::from_secs(10))
        .expect("finish() must return: every accept loop is woken on shutdown");
    finisher.join().expect("finisher thread");
    // The wake connections are neither served nor counted.
    assert_eq!(stats.connections, 0);
    assert_eq!(stats.frames, 0);
    assert!(!path.exists(), "socket file removed on shutdown");
    assert!(
        TcpStream::connect(addr).is_err(),
        "the HTTP listener is closed after finish()"
    );
}

/// Release-only throughput gate: smoke-tier requests (a handful of tiny
/// instances, so the steady state is cache hits — the intended serving
/// regime) must sustain at least 1000 requests/second on one core.
#[cfg(not(debug_assertions))]
#[test]
fn sustains_a_thousand_requests_per_second() {
    const CLIENTS: usize = 4;
    const REQUESTS: usize = 500;
    let server = Server::new(ServeConfig {
        solver_threads: 1,
        ..ServeConfig::default()
    });
    let path = socket_path("throughput");
    server.listen_unix(&path).expect("bind socket");

    // Warm the cache with the instance pool.
    {
        let (mut reader, mut writer) = connect(&path);
        for size in 5..9 {
            writer
                .write_all(
                    format!("{{\"id\":0,\"spec\":\"cycle:{size}\",\"protocols\":[\"vc3\"]}}\n")
                        .as_bytes(),
                )
                .expect("warm");
            read_line(&mut reader);
        }
    }

    let start = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let path = &path;
            scope.spawn(move || {
                let (mut reader, mut writer) = connect(path);
                for i in 0..REQUESTS {
                    let size = 5 + (client + i) % 4;
                    writer
                        .write_all(
                            format!(
                                "{{\"id\":{i},\"spec\":\"cycle:{size}\",\"protocols\":[\"vc3\"]}}\n"
                            )
                            .as_bytes(),
                        )
                        .expect("send");
                    let line = read_line(&mut reader);
                    assert!(line.contains("\"ok\":true"), "{line}");
                }
            });
        }
    });
    let elapsed = start.elapsed();
    let total = (CLIENTS * REQUESTS) as f64;
    let rate = total / elapsed.as_secs_f64();
    assert!(
        rate >= 1000.0,
        "sustained only {rate:.0} req/s over {total} requests ({elapsed:?})"
    );
    server.begin_shutdown();
    server.finish();
}
