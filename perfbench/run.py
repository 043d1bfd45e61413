#!/usr/bin/env python3
"""Builds the Northup benchmark driver from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds
perfbench/northup_perf (and the Northup libraries it links) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs only
re-check the build. Every file the benchmark writes, the Northup
runtimes' file-backed storage included, stays inside that directory.

The driver's metric lines are passed through; the last line of standard
output is the result object {"correct", "attempted", "failed",
"metrics"}. The exit code is 0 unless the build fails, the driver
fails, or a job returned a result that differs from the reference.
See perfbench/README.md for the workloads and metrics.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# pipelined-paced is runnable but not in BENCHMARK.json; see README.md.
WORKLOADS = ("gemm-dgpu", "hotspot-paced", "pipelined-paced", "svc-http")
RUN_TIMEOUT_S = 170


def fail(message, code):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir, env):
    """Configures (once) and builds northup_perf; returns its path."""
    log_path = build_dir / "build.log"
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "northup_perf", "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              env=env).returncode != 0:
                tail = log_path.read_text().splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build step failed: {' '.join(step)}", 3)
    return build_dir / "northup_perf"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1", 2)
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no Northup sources next to {HERE}", 3)

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    build_dir = build_dir.resolve()
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    binary = build(build_dir, env)

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {RUN_TIMEOUT_S} s", 4)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"driver exited with code {proc.returncode}", 4)

    result = json.loads(lines[-1])
    wanted = expected_metrics(args.trace)
    missing = wanted - set(result["metrics"])
    if missing:
        fail(f"driver did not report {sorted(missing)}", 4)
    result["metrics"] = {k: v for k, v in result["metrics"].items() if k in wanted}
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
