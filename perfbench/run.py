#!/usr/bin/env python3
"""End-to-end benchmark of the memsched simulator.

Builds the benchmark (perfbench/CMakeLists.txt, which compiles ../src) and
runs one workload:

    python3 perfbench/run.py --workload closed-mem4 --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones; the
last line of standard output is the result as one JSON object. The
build goes to
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench, under the
repository root.

    python3 perfbench/run.py --regen [--workload NAME]

rewrites the stored digests and the sampled reference in perfbench/expected
(untimed; the sampled workload's exact-engine reference takes a while).
See perfbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ["closed-mem4", "closed-ilp4", "sampled-mem8", "openloop-ctrl"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def build():
    """Configures once and builds; progress goes to stderr."""
    if not (ROOT / "src" / "sim" / "system.hpp").is_file():
        fail(f"the simulator sources are missing under {ROOT / 'src'}; "
             "run from a full checkout of the repository")
    out = build_dir()
    log = sys.stderr
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out)],
                       check=True, stdout=log, stderr=log)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                   check=True, stdout=log, stderr=log)
    return out / "perfbench_memsched"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--regen", action="store_true")
    p.add_argument("--expected-dir", default=str(BENCH_DIR / "expected"),
                   help="stored digests and sampled reference (tests point this "
                        "at a tampered copy)")
    args = p.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")
    if not args.regen and args.workload is None:
        fail("--workload is required")

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        fail(f"build failed: {e}")

    cmd = [str(binary), "--expected-dir", args.expected_dir, "--seed", str(args.seed)]
    if args.regen:
        if args.workload is not None:
            cmd += ["--workload", args.workload]
        sys.exit(subprocess.run(cmd + ["--regen"]).returncode)
    cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out-dir", str(build_dir() / "spans"), "--workload", args.workload]
    run_one(cmd)


def run_one(cmd):
    """Runs the benchmark binary and passes its output through."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"benchmark exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
