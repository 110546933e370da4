#!/usr/bin/env python3
"""Smoke test of the benchmark: the quick mode of every workload, untraced
and traced. Checks that each run exits 0, that its last line is the result
object with exactly the metrics BENCHMARK.json names for that mode, each
with its unit, that the result entry before it carries the run metadata and
a sample count per metric, and that the correctness gates ran and passed.
Also checks that a bad argument is refused without a result.

Run from anywhere: python3 perfbench/smoke.py
"""

import json
import math
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
META = ("workload", "seed", "nproc", "cpu_model", "commit", "rustc")


def run(args):
    return subprocess.run(
        SPEC["command"] + args, cwd=ROOT, capture_output=True, text=True, timeout=900
    )


def check_run(workload, trace, table):
    where = f"{workload} --trace {trace}"
    out = run(["--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--quick"])
    assert out.returncode == 0, f"{where}: exit {out.returncode}\n{out.stderr}"
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True, f"{where}: {result}"
    assert result["attempted"] >= 1 and result["failed"] == 0, f"{where}: {result}"
    units = {m["name"]: m["unit"] for m in table}
    assert set(result["metrics"]) == set(units), (
        f"{where}: metrics {sorted(result['metrics'])} != {sorted(units)}")
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name], f"{where}: {name} unit {metric['unit']}"
        assert isinstance(metric["value"], (int, float)), f"{where}: {name}"
        assert math.isfinite(metric["value"]), f"{where}: {name}"
    entry = json.loads(lines[-2])["perfbench_entry"]
    for key in META:
        assert entry.get(key), f"{where}: entry lacks {key}"
    for name in units:
        assert "samples" in entry["metrics"][name], f"{where}: {name} has no sample count"
    assert entry["gates"], f"{where}: no correctness gate ran"
    assert all(entry["gates"].values()), f"{where}: gates {entry['gates']}"
    print(f"ok  {where}: {len(units)} metrics, gates {sorted(entry['gates'])}")


def main():
    for workload in SPEC["workloads"]:
        check_run(workload["name"], 0, SPEC["end_to_end"])
        check_run(workload["name"], 1, SPEC["per_layer"])
    bad = run(["--workload", "no-such-workload", "--seed", "1", "--seconds", "1",
               "--trace", "0"])
    assert bad.returncode != 0, "an unknown workload must be refused"
    assert '"correct"' not in bad.stdout, "a refused run must print no result"
    print("ok  unknown workload refused")


if __name__ == "__main__":
    try:
        main()
    except AssertionError as e:
        print(f"FAILED {e}", file=sys.stderr)
        sys.exit(1)
