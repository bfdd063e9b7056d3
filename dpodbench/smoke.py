#!/usr/bin/env python3
"""Smoke test of the dpod benchmark.

Runs every workload of BENCHMARK.json briefly, untraced and traced, and
checks that the last output line is the result object, that no
operation failed, and that every metric BENCHMARK.json names is printed
with its unit (and, untraced, with a value above zero).

Run from the repository root:  python3 dpodbench/smoke.py [SECONDS]
"""

import json
import math
import subprocess
import sys


def main():
    seconds = sys.argv[1] if len(sys.argv) > 1 else "3"
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    expected = {0: bench["end_to_end"], 1: bench["per_layer"]}
    problems = []
    for workload in bench["workloads"]:
        for trace in (0, 1):
            cmd = bench["command"] + ["--workload", workload["name"], "--seed", "7",
                                      "--seconds", seconds, "--trace", str(trace)]
            run = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            label = f"{workload['name']} trace={trace}"
            if run.returncode != 0:
                problems.append(f"{label}: exit {run.returncode}: {run.stderr.strip()[-500:]}")
                continue
            result = json.loads(run.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
            metrics = result["metrics"]
            names = [m["name"] for m in expected[trace]]
            if sorted(metrics) != sorted(names):
                problems.append(f"{label}: metric names differ: {sorted(set(metrics) ^ set(names))}")
            for m in expected[trace]:
                got = metrics.get(m["name"])
                if got is None:
                    continue
                if got.get("unit") != m["unit"]:
                    problems.append(f"{label}: {m['name']} unit {got.get('unit')} != {m['unit']}")
                value = got.get("value")
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{label}: {m['name']} value {value!r}")
                elif trace == 0 and value <= 0:
                    problems.append(f"{label}: {m['name']} is {value}, expected > 0")
            print(f"ok  {label}: {result['attempted']} operations, {len(metrics)} metrics", flush=True)
    for p in problems:
        print("FAIL", p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
