#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload refresh|pbs_open --seed N --seconds S \
        --trace 0|1

Builds `heap-node-serve` (root workspace) and the `perfbench` binary
(its own workspace under perfbench/) into $CARGO_TARGET_DIR (default
.bench_build), then runs one measurement. Cargo output goes to stderr;
the last stdout line is the result JSON. A copy of the stamp and the
result is kept under perfbench/out/ for `compare.py`.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "perfbench", "out")
# The measurement itself must end well inside a 180 s budget.
RUN_TIMEOUT_S = 170
WORKLOADS = ["refresh", "pbs_open"]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_id():
    """The git commit of this checkout, or "none" in a checkout that is
    not a git repository (an exported tree)."""
    def git(*args):
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              timeout=10)
        return done.stdout.strip() if done.returncode == 0 else ""

    try:
        # Only this checkout's own repository, never an enclosing one.
        if os.path.realpath(git("rev-parse", "--show-toplevel") or "/") == os.path.realpath(ROOT):
            return git("rev-parse", "HEAD") or "none"
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "none"


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "heap-runtime", "--bin", "heap-node-serve"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}", done.returncode or 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    for needed in ["Cargo.toml", os.path.join("crates", "runtime", "Cargo.toml")]:
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"{needed} not found: run from a checkout of the repository")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    build(target)

    sys.exit(measure(target, source_id(), args.workload, args))


def measure(target, source, workload, args):
    """Runs one measurement; returns its exit code."""
    cmd = [os.path.join(target, "release", "perfbench"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--node-bin", os.path.join(target, "release", "heap-node-serve"),
           "--source", source, "--out", OUT]
    # A session of its own, so every process the benchmark binary starts (primary,
    # nodes) can be stopped as a group however the run ends.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    timed_out = threading.Event()

    def stop_group():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def watchdog():
        timed_out.set()
        stop_group()

    timer = threading.Timer(RUN_TIMEOUT_S, watchdog)
    timer.start()
    lines = []
    try:
        for line in proc.stdout:
            sys.stdout.write(line)
            sys.stdout.flush()
            lines.append(line.rstrip("\n"))
        code = proc.wait()
    finally:
        timer.cancel()
        stop_group()
        proc.wait()
    if timed_out.is_set():
        fail("measurement timed out", 3)

    stamp = next((json.loads(l[len("STAMP "):]) for l in lines if l.startswith("STAMP ")), None)
    if stamp is not None and lines and lines[-1].startswith("{"):
        os.makedirs(OUT, exist_ok=True)
        name = f"{workload}-seed{args.seed}-trace{args.trace}.json"
        with open(os.path.join(OUT, name), "w") as fh:
            json.dump({"stamp": stamp, "result": json.loads(lines[-1])}, fh, indent=1)
    return code

if __name__ == "__main__":
    main()
