#!/usr/bin/env python3
"""One-command benchmark for the LScatter UE.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The script builds the repository's
libraries and the benchmark binary from source (CMake, RelWithDebInfo with
contracts and obs on, as the tier-1 build) into .bench_build/perfbench,
runs one workload in one process, relays its report, and prints as its last
line one JSON object:

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": number, "unit": str}, ...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics, and writes a Chrome trace plus the program's obs report
under .bench_out/. BENCHMARK.json at the repository root lists the
workloads and metrics; perfbench/README.md gives the reasons for each.

Exit status: 0 ok; 1 a correctness violation (the result line says
correct: false); 2 no source tree, a failed build or a malformed report
(no result line); 3 the binary refused an assert-enabled build.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("ue_20mhz_blind", "ue_1p4mhz_ragged", "montecarlo_home_20mhz")
# A first run configures and builds, then runs: together under 900 s.
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
TARGET = "lscatter_perfbench"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_group(cmd, timeout, **kwargs):
    """Run cmd in its own process group and return (exit status, stdout).

    On timeout, or when this script is stopped, the whole group (make, the
    compilers, ...) is killed and waited for; a timeout returns None.
    """
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 0.001))
    except BaseException as stop:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(stop, subprocess.TimeoutExpired):
            return None
        raise
    return proc.returncode, out


def run_logged(cmd, log, env, deadline):
    """Run cmd with output appended to log; True on exit status 0."""
    with open(log, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        done = run_group(cmd, deadline - time.monotonic(), stdout=out,
                         stderr=subprocess.STDOUT, env=env)
    return done is not None and done[0] == 0


def build(root):
    """Configure (once) and build the benchmark binary; return its path."""
    bench_dir = root / "perfbench"
    build_dir = root / ".bench_build" / "perfbench"
    tmp_dir = root / ".bench_build" / "tmp"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    log = root / ".bench_build" / "build.log"
    env = dict(os.environ, TMPDIR=str(tmp_dir))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not (build_dir / "CMakeCache.txt").is_file():
        if not run_logged(["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                           "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                          log, env, deadline):
            fail(f"cmake configure failed, see {log}")
    if not run_logged(["cmake", "--build", str(build_dir), "--target", TARGET,
                       "-j", jobs], log, env, deadline):
        fail(f"build failed, see {log}")
    return build_dir / TARGET


def expected_metrics(root, trace):
    """Metric names BENCHMARK.json promises for this mode (None if absent)."""
    spec = root / "BENCHMARK.json"
    if not spec.is_file():
        return None
    data = json.loads(spec.read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in data[key]}


def check_result(line, expected):
    """Parse and validate the binary's result line; return it as a dict."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("the benchmark printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a whole number >= 1")
    metrics = result["metrics"]
    if expected is not None and set(metrics) != set(expected):
        fail("metrics differ from BENCHMARK.json: missing "
             f"{sorted(set(expected) - set(metrics))}, extra "
             f"{sorted(set(metrics) - set(expected))}")
    for name, m in metrics.items():
        if expected is not None and m["unit"] != expected[name]:
            fail(f"metric {name} has unit {m['unit']}, "
                 f"BENCHMARK.json says {expected[name]}")
        if not math.isfinite(m["value"]):
            result["correct"] = False
            print(f"VIOLATION: metric {name} is not finite")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2020)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    # SIGTERM unwinds like an exception, so run_group stops its children.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(2))

    root = Path.cwd()
    if not ((root / "CMakeLists.txt").is_file() and (root / "src").is_dir()
            and (root / "perfbench" / "CMakeLists.txt").is_file()):
        fail("run from the root of an LScatter source checkout")
    binary = build(root)

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(root / ".bench_out")]
    done = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    if done is None:
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s")
    status, stdout = done
    lines = stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if status not in (0, 1):
        print(lines[-1])
        sys.exit(status if status > 0 else 2)
    result = check_result(lines[-1], expected_metrics(root, args.trace))
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
