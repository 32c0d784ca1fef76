#!/usr/bin/env python3
"""Checks that the benchmark's correctness checks fail when they should.

    python3 perfbench/selftest.py

1. A clean run at the default seed against the stored digests is correct.
2. The same run against a copy of perfbench/expected whose closed-ilp4
   digest was altered reports every run as failed.
3. A traced sampled-mem8 run against a copy whose stored reference names
   another configuration withholds sampled_* and reports a failure.

Exits 0 when all three hold. The tampered copies live under the benchmark's
build directory.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402  (for the benchmark's build directory)


def bench(workload, trace, expected_dir):
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--expected-dir", str(expected_dir)],
        stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def tampered_copy(name, workload, key, value):
    dst = run.build_dir() / "selftest" / name
    if dst.exists():
        shutil.rmtree(dst)
    shutil.copytree(BENCH_DIR / "expected", dst)
    path = dst / f"{workload}.json"
    doc = json.loads(path.read_text())
    doc[key] = value
    path.write_text(json.dumps(doc, indent=2))
    return dst


def main():
    problems = []

    clean = bench("closed-ilp4", 0, BENCH_DIR / "expected")
    if not clean["correct"] or clean["failed"] != 0:
        problems.append(f"clean run not correct: {clean}")

    digest_dir = tampered_copy("digest", "closed-ilp4", "digest", "0" * 16)
    bad = bench("closed-ilp4", 0, digest_dir)
    if bad["correct"] or bad["failed"] != bad["attempted"]:
        problems.append(f"tampered digest not reported: {bad}")

    config_dir = tampered_copy("config", "sampled-mem8", "config", "another configuration")
    refused = bench("sampled-mem8", 1, config_dir)
    if refused["correct"] or any(m.startswith("sampled_") for m in refused["metrics"]):
        problems.append(f"stale sampled reference used: {refused}")

    for p in problems:
        print(f"FAIL: {p}")
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
