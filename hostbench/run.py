#!/usr/bin/env python3
"""Host-measured benchmark of the MaxK-GNN engines.

Run from the repository root:

    python3 hostbench/run.py --workload full-maxk --seed 1 --seconds 10 --trace 0

Builds the library and the `maxk_hostbench` program from source with CMake
(into $CARGO_TARGET_DIR, default `.bench_build`), runs one workload, and
prints the program's progress lines followed, as the last line, by one JSON
object {"correct", "attempted", "failed", "metrics"}. With `--trace 0` the
metrics are the end-to-end metrics of BENCHMARK.json, with `--trace 1` the
per-layer metrics. Full results with machine facts, and the spans of traced
runs, are written to `.bench_out/`.

Exit status: 0 when the run completed and every correctness check passed;
non-zero, without a result line, when the build or the run failed; 1 with
a result line whose "correct" is false when a check failed.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


_child = None


def fail(msg):
    print(f"hostbench: {msg}", file=sys.stderr)
    sys.exit(1)


def _kill_child(*_):
    if _child is not None and _child.poll() is None:
        os.killpg(_child.pid, signal.SIGKILL)
        _child.wait()


def _on_term(signum, _frame):
    _kill_child()
    sys.exit(128 + signum)


def run_group(cmd, timeout, stdout, env):
    """Run cmd in its own process group; on timeout kill the whole group
    (compilers under cmake too) and wait for it. Returns (code, output)."""
    global _child
    _child = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr,
                              text=True, env=env, start_new_session=True)
    try:
        out, _ = _child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _kill_child()
        fail(f"{' '.join(cmd)} timed out after {timeout} s")
    code = _child.returncode
    _child = None
    return code, out


def build(build_dir, env):
    src = os.path.relpath(HERE)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.append(["cmake", "-S", src, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", "4",
                  "--target", "maxk_hostbench"])
    for cmd in steps:
        try:
            code, _ = run_group(cmd, BUILD_TIMEOUT_S, sys.stderr, env)
        except OSError as e:
            fail(f"build step {' '.join(cmd)} failed: {e}")
        if code != 0:
            fail(f"build step {' '.join(cmd)} exited {code}")
    binary = os.path.join(build_dir, "maxk_hostbench")
    if not os.path.exists(binary):
        fail(f"{binary} was not built")
    return binary


def declared_metrics(trace):
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    signal.signal(signal.SIGTERM, _on_term)
    declared = declared_metrics(args.trace)
    build_dir = os.path.join(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "hostbench")
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.abspath(os.path.join(build_dir, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    binary = build(build_dir, env)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", ".bench_out"]
    try:
        code, out = run_group(cmd, RUN_TIMEOUT_S, subprocess.PIPE, env)
    except OSError as e:
        fail(f"run failed: {e}")
    lines = out.strip().splitlines()
    if not lines:
        fail(f"maxk_hostbench printed nothing (exit {code})")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"maxk_hostbench exited {code} without a result")

    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result keys {sorted(result)}")
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        fail("printed metrics differ from BENCHMARK.json: "
             f"{sorted(set(metrics) ^ set(declared))}")
    for name, m in metrics.items():
        if m.get("unit") != declared[name]:
            fail(f"metric {name} unit {m.get('unit')} != {declared[name]}")

    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    if code != 0 or not result["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
