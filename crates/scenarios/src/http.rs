//! The HTTP/1.1 transport for the solver daemon.
//!
//! [`Server::listen_http`] binds a TCP listener and serves four
//! endpoints:
//!
//! * `POST /solve` — the body is one JSON request frame in exactly the
//!   wire format of the JSON-lines transports (see [`crate::serve`]);
//!   the response body is the byte-identical response frame. Status
//!   codes mirror the frame's outcome kind: `200` for `ok`, `400` for
//!   `parse`/`graph`/`unsupported`, `408` for `timeout`, `503` for
//!   `shutdown`/`overload`, `500` for `internal`.
//! * `GET /metrics` — the server's telemetry in Prometheus text
//!   exposition format ([`Server::render_metrics`]).
//! * `GET /healthz` — `200 ok` while serving, `503` once shutting down.
//! * `GET /statz` — the counters as JSON, the same shape as an
//!   `{"op":"stats"}` frame.
//!
//! The parser is hand-rolled and bounded everywhere, in the same
//! spirit as the frame reader: the request head is capped at
//! [`MAX_HEAD_BYTES`] and [`MAX_HEADERS`] headers, bodies at
//! [`crate::ServeConfig::max_frame_bytes`], reads carry the
//! [`crate::ServeConfig::http_read_timeout`] deadline, and beyond
//! [`crate::ServeConfig::max_clients`] concurrent connections new
//! clients get a `503` with an `overload` frame. Every `503` —
//! overload, shutdown, draining `/healthz` — carries a `Retry-After`
//! header derived from the live solve-queue depth, and overload frames
//! embed the same hint as a `retry_ms` field, so well-behaved clients
//! back off for as long as the queue actually needs. Malformed input is
//! answered with a structured error response or a clean disconnect —
//! never a panic, never a hang. Keep-alive (and therefore pipelining)
//! is supported; requests on one connection are processed strictly in
//! order. Chunked transfer encoding is not.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::serve::{
    accept_backoff, error_frame, handle_frame, overload_frame, reap_finished, ConnShared, Core,
    Server,
};

/// Hard cap on one request head: request line plus all headers.
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Hard cap on the number of headers in one request.
const MAX_HEADERS: usize = 64;

impl Server {
    /// Binds a TCP listener and serves the HTTP API on background
    /// threads until shutdown; returns the bound address (useful with
    /// port 0). Connections beyond
    /// [`crate::ServeConfig::max_clients`] are answered with a `503`
    /// overload response and closed. The listener and every connection
    /// join in [`Server::finish`], after all accepted requests are
    /// answered and flushed.
    ///
    /// # Errors
    ///
    /// Propagates bind errors.
    pub fn listen_http<A: ToSocketAddrs>(&self, addr: A) -> io::Result<SocketAddr> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        // Registered before the accept loop's first shutdown check, so a
        // shutdown either wakes it or is already visible to it (see
        // `Core::begin_shutdown`).
        self.core
            .http_addrs
            .lock()
            .expect("http addrs poisoned")
            .push(local);

        let core = Arc::clone(&self.core);
        let conn_threads = Arc::clone(&self.conn_threads);
        let handle = std::thread::spawn(move || {
            while !core.is_shutting_down() {
                let accepted = listener.accept();
                // A shutdown's wake connection, or a client racing it:
                // either way the loop ends here, uncounted.
                if core.is_shutting_down() {
                    return;
                }
                let mut stream = match accepted {
                    Ok((stream, _)) => stream,
                    Err(_) => {
                        accept_backoff();
                        continue;
                    }
                };
                let mut threads = conn_threads.lock().expect("conn threads poisoned");
                reap_finished(&mut threads);

                let active = core
                    .tcp_conns
                    .lock()
                    .expect("tcp conn registry poisoned")
                    .len();
                if active >= core.config.max_clients {
                    core.metrics.rejected_connections.inc();
                    let retry_ms = core.retry_hint_ms();
                    let body = json_body(overload_frame(
                        "null",
                        &format!(
                            "server is at its limit of {} concurrent clients",
                            core.config.max_clients
                        ),
                        retry_ms,
                    ));
                    let _ = write_response_with_retry(
                        &mut stream,
                        503,
                        "Service Unavailable",
                        "application/json",
                        &body,
                        true,
                        Some(retry_ms),
                    );
                    continue;
                }
                let conn_id = core.next_conn.fetch_add(1, Ordering::Relaxed);
                if let Ok(registered) = stream.try_clone() {
                    core.tcp_conns
                        .lock()
                        .expect("tcp conn registry poisoned")
                        .insert(conn_id, registered);
                }
                let conn_core = Arc::clone(&core);
                threads.push(std::thread::spawn(move || {
                    serve_http_conn(conn_core, stream, conn_id);
                }));
            }
        });
        self.accept
            .lock()
            .expect("accept lock poisoned")
            .push(handle);
        Ok(local)
    }
}

// ---------------------------------------------------------------------
// Request head parsing.
// ---------------------------------------------------------------------

struct RequestHead {
    method: String,
    target: String,
    content_length: Option<usize>,
    /// Close after responding: `Connection: close`, or HTTP/1.0
    /// without `keep-alive`.
    close: bool,
}

/// A request rejected before dispatch, rendered as a structured HTTP
/// error (status + JSON error frame in the body).
struct HttpError {
    status: u16,
    reason: &'static str,
    kind: &'static str,
    message: String,
}

impl HttpError {
    fn bad(message: impl Into<String>) -> HttpError {
        HttpError {
            status: 400,
            reason: "Bad Request",
            kind: "parse",
            message: message.into(),
        }
    }
}

enum HeadRead {
    Head(RequestHead),
    /// Clean end-of-stream at a request boundary.
    Eof,
    /// Malformed head: answer with the error, then close.
    Error(HttpError),
    /// Read failure or deadline: close without a response.
    Failed,
}

enum LineRead {
    Line(String),
    TooLong,
    Eof,
    Failed,
}

/// Reads one CRLF- (or LF-) terminated line, never buffering more
/// than `max + 1` bytes.
fn read_line_bounded<R: BufRead>(reader: &mut R, max: usize) -> LineRead {
    let mut buf = Vec::new();
    let mut limited = reader.take(max as u64 + 1);
    match limited.read_until(b'\n', &mut buf) {
        Err(_) => return LineRead::Failed,
        Ok(0) => return LineRead::Eof,
        Ok(_) => {}
    }
    let terminated = buf.last() == Some(&b'\n');
    if terminated {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    }
    if buf.len() > max || !terminated {
        return LineRead::TooLong;
    }
    match String::from_utf8(buf) {
        Ok(line) => LineRead::Line(line),
        Err(_) => LineRead::Failed,
    }
}

fn read_head<R: BufRead>(reader: &mut R) -> HeadRead {
    let mut budget = MAX_HEAD_BYTES;
    let request_line = match read_line_bounded(reader, budget) {
        LineRead::Line(line) => line,
        LineRead::TooLong => {
            return HeadRead::Error(HttpError {
                status: 431,
                reason: "Request Header Fields Too Large",
                kind: "parse",
                message: format!("request head exceeds the limit of {MAX_HEAD_BYTES} bytes"),
            });
        }
        LineRead::Eof => return HeadRead::Eof,
        LineRead::Failed => return HeadRead::Failed,
    };
    budget = budget.saturating_sub(request_line.len() + 2);

    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(target), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return HeadRead::Error(HttpError::bad(format!(
            "malformed request line {request_line:?}"
        )));
    };
    if !version.starts_with("HTTP/1.") {
        return HeadRead::Error(HttpError {
            status: 505,
            reason: "HTTP Version Not Supported",
            kind: "unsupported",
            message: format!("unsupported protocol version {version:?}"),
        });
    }
    let mut head = RequestHead {
        method: method.to_owned(),
        target: target.to_owned(),
        content_length: None,
        close: version == "HTTP/1.0",
    };

    for _ in 0..=MAX_HEADERS {
        let line = match read_line_bounded(reader, budget) {
            LineRead::Line(line) => line,
            LineRead::TooLong => {
                return HeadRead::Error(HttpError {
                    status: 431,
                    reason: "Request Header Fields Too Large",
                    kind: "parse",
                    message: format!("request head exceeds the limit of {MAX_HEAD_BYTES} bytes"),
                });
            }
            LineRead::Eof | LineRead::Failed => return HeadRead::Failed,
        };
        budget = budget.saturating_sub(line.len() + 2);
        if line.is_empty() {
            return HeadRead::Head(head);
        }
        let Some((name, value)) = line.split_once(':') else {
            return HeadRead::Error(HttpError::bad(format!("malformed header line {line:?}")));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "content-length" => {
                let Ok(length) = value.parse::<usize>() else {
                    return HeadRead::Error(HttpError::bad(format!(
                        "invalid Content-Length {value:?}"
                    )));
                };
                if head.content_length.replace(length).is_some() {
                    return HeadRead::Error(HttpError::bad("duplicate Content-Length header"));
                }
            }
            "transfer-encoding" => {
                return HeadRead::Error(HttpError {
                    status: 501,
                    reason: "Not Implemented",
                    kind: "unsupported",
                    message: "chunked transfer encoding is not supported; \
                              send Content-Length"
                        .to_owned(),
                });
            }
            "connection" => {
                let value = value.to_ascii_lowercase();
                if value.contains("close") {
                    head.close = true;
                } else if value.contains("keep-alive") {
                    head.close = false;
                }
            }
            _ => {}
        }
    }
    HeadRead::Error(HttpError::bad(format!(
        "more than {MAX_HEADERS} request headers"
    )))
}

// ---------------------------------------------------------------------
// Response writing.
// ---------------------------------------------------------------------

/// A JSON frame as an HTTP body: the frame bytes plus the newline the
/// JSON-lines transports emit, so payloads are byte-identical across
/// transports.
fn json_body(frame: String) -> String {
    let mut body = frame;
    body.push('\n');
    body
}

fn kind_of(frame: &str) -> Option<&str> {
    frame
        .split_once("\"kind\":\"")
        .and_then(|(_, rest)| rest.split('"').next())
}

/// Maps a response frame's outcome kind onto an HTTP status.
fn status_for(frame: &str) -> (u16, &'static str) {
    match kind_of(frame) {
        None => (200, "OK"),
        Some("parse" | "graph" | "unsupported") => (400, "Bad Request"),
        Some("timeout") => (408, "Request Timeout"),
        Some("shutdown" | "overload") => (503, "Service Unavailable"),
        Some(_) => (500, "Internal Server Error"),
    }
}

fn write_response<W: Write>(
    writer: &mut W,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &str,
    close: bool,
) -> io::Result<()> {
    write_response_with_retry(writer, status, reason, content_type, body, close, None)
}

/// [`write_response`] plus an optional back-off hint: `retry_after_ms`
/// renders as a `Retry-After` header in whole seconds (rounded up, so a
/// sub-second hint never becomes `Retry-After: 0`), as RFC 9110
/// prescribes for `503` responses.
///
/// Head and body leave in one write. Written separately, the body of a
/// small response waits under Nagle's algorithm for the ACK of the
/// head, which the client delays (about 40 ms on Linux) because it has
/// nothing to send until the body arrives.
#[allow(clippy::too_many_arguments)]
fn write_response_with_retry<W: Write>(
    writer: &mut W,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &str,
    close: bool,
    retry_after_ms: Option<u64>,
) -> io::Result<()> {
    use std::fmt::Write as _;
    let connection = if close { "close" } else { "keep-alive" };
    let mut response = String::with_capacity(160 + body.len());
    let _ = write!(
        response,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: {connection}\r\n",
        body.len(),
    );
    if let Some(ms) = retry_after_ms {
        let _ = write!(response, "Retry-After: {}\r\n", ms.div_ceil(1000).max(1));
    }
    response.push_str("\r\n");
    response.push_str(body);
    writer.write_all(response.as_bytes())?;
    writer.flush()
}

// ---------------------------------------------------------------------
// The connection loop.
// ---------------------------------------------------------------------

fn serve_http_conn(core: Arc<Core>, stream: TcpStream, conn_id: u64) {
    core.metrics.connections.inc();
    let _ = stream.set_read_timeout(Some(core.config.http_read_timeout));
    // Every response is one write (see `write_response_with_retry`), so
    // nothing is gained by coalescing; without this the last partial
    // segment of a body larger than one segment would still wait for an
    // ACK.
    let _ = stream.set_nodelay(true);
    if let Ok(writer) = stream.try_clone() {
        let mut writer = writer;
        let mut reader = BufReader::new(stream);
        let conn = ConnShared::new(Arc::clone(&core));
        while serve_one_request(&core, &conn, &mut reader, &mut writer) {}
    }
    core.tcp_conns
        .lock()
        .expect("tcp conn registry poisoned")
        .remove(&conn_id);
}

/// Reads, dispatches and answers one request. Returns whether the
/// connection should continue.
fn serve_one_request<R: BufRead>(
    core: &Arc<Core>,
    conn: &Arc<ConnShared>,
    reader: &mut R,
    writer: &mut TcpStream,
) -> bool {
    let head = match read_head(reader) {
        HeadRead::Head(head) => head,
        HeadRead::Eof | HeadRead::Failed => return false,
        HeadRead::Error(err) => {
            let body = json_body(error_frame("null", err.kind, &err.message));
            let _ = write_response(
                writer,
                err.status,
                err.reason,
                "application/json",
                &body,
                true,
            );
            return false;
        }
    };
    // Closing is sticky: the client asked for it, or a shutdown began.
    let close = head.close || core.is_shutting_down();

    // Only `POST /solve` consumes its body below; draining any other
    // declared body keeps a pipelining client in sync.
    if !(head.method == "POST" && head.target == "/solve") {
        if let Some(length) = head.content_length.filter(|&length| length > 0) {
            if length > core.config.max_frame_bytes
                || io::copy(&mut reader.by_ref().take(length as u64), &mut io::sink()).is_err()
            {
                return false;
            }
        }
    }

    let sent = match (head.method.as_str(), head.target.as_str()) {
        ("POST", "/solve") => {
            let Some(length) = head.content_length else {
                let body = json_body(error_frame(
                    "null",
                    "parse",
                    "POST /solve requires a Content-Length header",
                ));
                let _ = write_response(
                    writer,
                    411,
                    "Length Required",
                    "application/json",
                    &body,
                    true,
                );
                return false;
            };
            if length > core.config.max_frame_bytes {
                let body = json_body(error_frame(
                    "null",
                    "parse",
                    &format!(
                        "frame exceeds the limit of {} bytes",
                        core.config.max_frame_bytes
                    ),
                ));
                let _ = write_response(
                    writer,
                    413,
                    "Content Too Large",
                    "application/json",
                    &body,
                    true,
                );
                return false;
            }
            let mut body = vec![0u8; length];
            if reader.read_exact(&mut body).is_err() {
                // Truncated or stalled body: the stream position is
                // lost, so answer (best-effort) and disconnect.
                let frame = json_body(error_frame(
                    "null",
                    "timeout",
                    "request body ended or stalled before Content-Length bytes",
                ));
                let _ = write_response(
                    writer,
                    408,
                    "Request Timeout",
                    "application/json",
                    &frame,
                    true,
                );
                return false;
            }
            core.metrics.frames.inc();
            let Some(seq) = conn.alloc(core.config.client_window.max(1)) else {
                return false;
            };
            handle_frame(core, conn, seq, &body);
            let frame = conn.await_response(seq);
            let (status, reason) = status_for(&frame);
            // A 503 asks the client to come back: advertise how long,
            // from the live queue depth (RFC 9110 Retry-After).
            let retry = (status == 503).then(|| core.retry_hint_ms());
            write_response_with_retry(
                writer,
                status,
                reason,
                "application/json",
                &json_body(frame),
                close,
                retry,
            )
        }
        ("GET", "/healthz") => {
            if core.is_shutting_down() {
                write_response_with_retry(
                    writer,
                    503,
                    "Service Unavailable",
                    "text/plain; charset=utf-8",
                    "shutting down\n",
                    close,
                    Some(core.retry_hint_ms()),
                )
            } else {
                write_response(
                    writer,
                    200,
                    "OK",
                    "text/plain; charset=utf-8",
                    "ok\n",
                    close,
                )
            }
        }
        ("GET", "/metrics") => write_response(
            writer,
            200,
            "OK",
            "text/plain; version=0.0.4; charset=utf-8",
            &core.render_metrics(),
            close,
        ),
        ("GET", "/statz") => write_response(
            writer,
            200,
            "OK",
            "application/json",
            &json_body(core.stats_frame("null")),
            close,
        ),
        ("POST" | "GET" | "HEAD" | "PUT" | "DELETE", target) => {
            let known = ["/solve", "/metrics", "/healthz", "/statz"];
            let (status, reason, message) = if known.contains(&target) {
                (
                    405,
                    "Method Not Allowed",
                    format!("{} does not accept {}", target, head.method),
                )
            } else {
                (404, "Not Found", format!("no such endpoint {target:?}"))
            };
            let body = json_body(error_frame("null", "unsupported", &message));
            write_response(writer, status, reason, "application/json", &body, close)
        }
        (method, _) => {
            let body = json_body(error_frame(
                "null",
                "unsupported",
                &format!("unsupported method {method:?}"),
            ));
            write_response(
                writer,
                405,
                "Method Not Allowed",
                "application/json",
                &body,
                close,
            )
        }
    };
    sent.is_ok() && !close
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sink that accepts every byte and counts the `write` calls.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_response_leaves_in_one_write() {
        let large = "x".repeat(200_000);
        for (body, retry, head) in [
            (
                "ok\n",
                None,
                "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 3\r\n\
                 Connection: keep-alive\r\n\r\n",
            ),
            (
                large.as_str(),
                Some(1500),
                "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 200000\r\n\
                 Connection: keep-alive\r\nRetry-After: 2\r\n\r\n",
            ),
        ] {
            let mut sink = CountingWriter::default();
            write_response_with_retry(&mut sink, 200, "OK", "text/plain", body, false, retry)
                .expect("in-memory writes cannot fail");
            assert_eq!(sink.writes, 1, "head and body must leave together");
            assert_eq!(sink.bytes, [head.as_bytes(), body.as_bytes()].concat());
        }
    }
}
