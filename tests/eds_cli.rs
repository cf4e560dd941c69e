//! End-to-end behaviour of the `eds` command-line binary.

use std::io::{BufRead as _, BufReader, Write as _};
use std::process::{Command, Stdio};

#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    // A 50,000-node cycle makes a few hundred kilobytes of edge list,
    // more than a pipe holds, so the reader's exit after one line
    // leaves `eds` writing into a closed pipe.
    let n = 50_000;
    let cycle: String = (0..n).map(|i| format!("{i} {}\n", (i + 1) % n)).collect();
    let mut child = Command::new(env!("CARGO_BIN_EXE_eds"))
        .args(["--algorithm", "adelta"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("eds starts");
    // `eds` reads all of stdin before it writes anything.
    let mut stdin = child.stdin.take().expect("piped stdin");
    stdin
        .write_all(cycle.as_bytes())
        .expect("eds reads its input");
    drop(stdin);
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut header = String::new();
    stdout.read_line(&mut header).expect("one line");
    assert!(header.starts_with("# "), "{header}");
    drop(stdout);
    let out = child.wait_with_output().expect("eds exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{}: {stderr}", out.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
}
