#!/usr/bin/env python3
"""Build and run the RRMP end-to-end + per-layer benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a repository checkout. The first run builds the
benchmark (perfbench/CMakeLists.txt, which compiles the repository's own
library from src/) into .bench_build/perfbench; later runs rebuild only what
changed. The last line of standard output is the result JSON:
{"correct", "attempted", "failed", "metrics"} — the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. Exit status 0 means the run
was made and every delivery passed the correctness oracle.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "rrmp_perfbench"
WORKLOADS = ("udp_saturate", "udp_lossy_open", "sim_regions")

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

_child = None


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def _stop_child(*_):
    if _child is not None and _child.poll() is None:
        os.killpg(_child.pid, signal.SIGKILL)
        _child.wait()
    sys.exit(128 + signal.SIGTERM)


def run(cmd, timeout, capture=False):
    """Runs cmd in its own process group; kills the whole group on timeout.
    Returns (exit code, stdout or None)."""
    global _child
    _child = subprocess.Popen(
        cmd, cwd=ROOT, start_new_session=True,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr, text=True)
    try:
        out, _ = _child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(_child.pid, signal.SIGKILL)
        _child.wait()
        fail(f"timed out after {timeout} s: {' '.join(map(str, cmd))}", 3)
    code = _child.returncode
    _child = None
    return code, out


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no RRMP sources under {ROOT} (need CMakeLists.txt and src/); "
             "run from the root of a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    # A build tree left by another checkout location cannot be reused:
    # on failure, start once from a clean tree.
    for attempt in (0, 1):
        if attempt or not (BUILD / "CMakeCache.txt").is_file():
            shutil.rmtree(BUILD, ignore_errors=True)
            cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if run(cmd, BUILD_TIMEOUT_S)[0] != 0:
                continue
        jobs = str(min(4, os.cpu_count() or 1))
        code, _ = run(["cmake", "--build", str(BUILD), "--target",
                       "rrmp_perfbench", "-j", jobs], BUILD_TIMEOUT_S)
        if code == 0 and BINARY.is_file():
            return
    fail("build failed")


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, or None."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    signal.signal(signal.SIGTERM, _stop_child)
    build()

    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = ROOT / ".bench_build" / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(spans / f"{args.workload}-seed{args.seed}.csv")]
    code, out = run(cmd, RUN_TIMEOUT_S, capture=True)
    lines = [l for l in (out or "").splitlines() if l.strip()]
    if code not in (0, 1) or not lines:
        fail(f"benchmark exited with status {code} and no result")

    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    declared = declared_metrics(bool(args.trace))
    if declared is not None and set(result["metrics"]) != declared:
        fail("reported metrics differ from BENCHMARK.json: "
             f"{sorted(set(result['metrics']) ^ declared)}")
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()
