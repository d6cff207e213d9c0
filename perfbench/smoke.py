#!/usr/bin/env python3
"""Smoke check of the benchmark: every workload at a tiny size.

Usage, from the repository root:

    python3 perfbench/smoke.py

Runs each workload of BENCHMARK.json untraced and traced on a small world
and asserts that the result line has exactly the documented keys, that
its outputs checked out, and that it reports every metric BENCHMARK.json
names, with the unit BENCHMARK.json gives it, and no other. Exits non-zero
on the first mismatch.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Rows per workload for the smoke run; fred_paper_120 is already tiny.
TINY_ROWS = {
    "attack_100k": 3000,
    "eval_grid_100k": 3000,
    "fred_paper_120": 120,
    "faults_20k": 2000,
}


def run(workload: str, trace: int) -> dict:
    cmd = [
        sys.executable,
        os.path.join(HERE, "run.py"),
        "--workload", workload,
        "--seed", "7",
        "--seconds", "1",
        "--trace", str(trace),
        "--rows", str(TINY_ROWS[workload]),
    ]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"{workload} trace {trace}: exit code {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = run(workload, trace)
            where = f"{workload} trace {trace}"
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
            assert result["correct"] is True and result["failed"] == 0, where
            assert isinstance(result["attempted"], int) and result["attempted"] >= 1, where
            want = {m["name"]: m["unit"] for m in bench[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, f"{where}: metrics {sorted(got.items())} != {sorted(want.items())}"
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), f"{where}: {name}"
            print(f"ok  {where}: {len(got)} metrics")
    return 0


if __name__ == "__main__":
    sys.exit(main())
