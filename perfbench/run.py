#!/usr/bin/env python3
"""Builds and runs the repository's end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds the `perfbench` binary and the
`eds-serve` daemon in release mode from the sources in the checkout (into
$CARGO_TARGET_DIR, default `.bench_build`), prints the host facts a
same-host comparison needs, and runs the binary, whose last output line
is the result object. Reports and traces go to `.bench_out/`.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ["batch_mixed", "serve_mixed"]
# What the host facts fingerprint: every source the benchmark builds.
SOURCES = ["Cargo.toml", "src", "crates", "shims", "perfbench/Cargo.toml", "perfbench/src"]


def source_digest(root):
    digest = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else [
            os.path.join(d, f) for d, _, names in os.walk(path) for f in names
        ]
        for f in sorted(files):
            digest.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def command_output(args):
    try:
        done = subprocess.run(args, capture_output=True, text=True, check=True)
        return done.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def host_facts(root, workload, seed):
    model = None
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            model = next(
                (l.split(":", 1)[1].strip() for l in cpuinfo if l.startswith("model name")),
                None,
            )
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "rustc": command_output(["rustc", "-V"]),
        # The benchmark may run from an exported tree with no git
        # metadata; the source digest identifies the code either way.
        "git_commit": command_output(["git", "-C", root, "rev-parse", "HEAD"])
        if os.path.exists(os.path.join(root, ".git")) else None,
        "source_sha256": source_digest(root),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = os.getcwd()
    if not all(os.path.exists(os.path.join(root, p)) for p in SOURCES):
        print("perfbench: run from the repository root; its sources are missing here",
              file=sys.stderr)
        return 2

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    manifest = os.path.join("perfbench", "Cargo.toml")
    for build in (["--bin", "perfbench"], ["-p", "edge-dominating-sets", "--bin", "eds-serve"]):
        done = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--manifest-path", manifest] + build,
            stdout=sys.stderr, env=env,
        )
        if done.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 2

    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    facts = host_facts(root, args.workload, args.seed)
    with open(os.path.join(out_dir, f"host-{args.workload}-{args.seed}.json"), "w") as f:
        json.dump(facts, f)
    print("host " + json.dumps(facts), flush=True)

    binary = os.path.join(target, "release")
    done = subprocess.run([
        os.path.join(binary, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--serve-bin", os.path.join(binary, "eds-serve"),
        "--out-dir", out_dir,
    ], env=env)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
