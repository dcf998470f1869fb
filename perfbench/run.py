#!/usr/bin/env python3
"""Repository benchmark: build perfbench/pbench.exe from source and run one
measurement.

    python3 perfbench/run.py --workload cfg_large --seed 1 --seconds 15 --trace 0

Run it from the repository root. Workloads: cfg_large, hpcstruct_debug,
forensics_wild, serve_mixed (see perfbench/NOTES.md). The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
of a traced run with --trace 1 (whose spans go to
.perfbench/spans-<workload>.json). The build goes to .bench_build; scratch
files go to .perfbench and are removed afterwards.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("cfg_large", "hpcstruct_debug", "forensics_wild", "serve_mixed")
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "pbench.exe")
SCRATCH = ".perfbench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run(cmd, timeout, capture):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"run.py: {cmd[0]} timed out after {timeout} s")
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile("dune-project"):
        sys.exit("run.py: no dune-project here; run from the repository root")
    try:
        code, _ = run(
            ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
             "--profile", "release", "./perfbench/pbench.exe"],
            BUILD_TIMEOUT_S, capture=False)
    except FileNotFoundError:
        sys.exit("run.py: dune not found")
    if code != 0:
        sys.exit(f"run.py: build failed ({code})")

    os.makedirs(SCRATCH, exist_ok=True)
    scratch = os.path.join(SCRATCH, f"run-{os.getpid()}")
    spans = os.path.join(SCRATCH, f"spans-{args.workload}.json")
    try:
        code, out = run(
            [EXE, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--dir", scratch, "--spans", spans],
            RUN_TIMEOUT_S, capture=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if code != 0:
        sys.exit(f"run.py: pbench failed ({code})")

    lines = out.decode().strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if not isinstance(result, dict) or sorted(result) != [
            "attempted", "correct", "failed", "metrics"]:
        sys.exit("run.py: pbench printed no result")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
