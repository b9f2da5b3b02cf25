#!/usr/bin/env python3
"""Smoke test of the benchmark itself, run from the repository root:

    python3 perfbench/smoke.py

For every workload at the tiny size it checks that
* an untraced run prints every end-to-end metric with its unit, answers
  correctly and fails nothing;
* a traced run prints every per-layer metric with its unit and passes the
  layer-coverage check;
* a run with a deliberately wrong expected answer reports failed ops;
* two seeds run the same op-class counts.
It also checks that ``BENCHMARK.json`` names the metrics the runner prints.
Exits nonzero on the first failed check.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(*args):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args,
                           "--seconds", "0", "--size", "tiny"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise AssertionError(f"no output from {args}: {proc.stderr}")
    return proc.returncode, lines, json.loads(lines[-1])


def expect(cond, message):
    if not cond:
        raise AssertionError(message)


def printed_metrics(lines, result, wanted, label):
    """Every wanted metric is in the result with its unit, and printed."""
    expect(set(result["metrics"]) == set(wanted), f"{label}: metric names differ")
    for name, unit in wanted.items():
        entry = result["metrics"][name]
        expect(entry["unit"] == unit, f"{label}: {name} has unit {entry['unit']}, not {unit}")
        expect(isinstance(entry["value"], (int, float)), f"{label}: {name} is not a number")
        pattern = re.compile(rf"^# {re.escape(name)} = \S+ {re.escape(unit)}\b")
        expect(any(pattern.match(line) for line in lines), f"{label}: {name} not printed")


def class_counts(lines):
    line = next(line for line in lines if line.startswith("# rounds="))
    return line.split("op class counts: ", 1)[1]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "spec.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expect(per_layer == {m["name"]: m["unit"] for m in spec["per_layer"]},
           "BENCHMARK.json and spec.json list different per-layer metrics")
    expect([w["name"] for w in bench["workloads"]] == list(spec["workloads"]),
           "BENCHMARK.json and spec.json list different workloads")

    for workload in spec["workloads"]:
        rc, lines, result = run("--workload", workload, "--seed", "1", "--trace", "0")
        expect(rc == 0 and result["correct"] and result["failed"] == 0,
               f"{workload}: untraced run failed: {result}")
        printed_metrics(lines, result, end_to_end, workload)

        rc, other, _ = run("--workload", workload, "--seed", "2", "--trace", "0")
        expect(rc == 0 and class_counts(lines) == class_counts(other),
               f"{workload}: seeds 1 and 2 ran different op-class counts")

        rc, lines, result = run("--workload", workload, "--seed", "3", "--trace", "1")
        expect(rc == 0 and result["correct"], f"{workload}: traced run or coverage failed")
        printed_metrics(lines, result, per_layer, workload + " traced")

        rc, lines, result = run("--workload", workload, "--seed", "1", "--trace", "0",
                                "--corrupt-expected")
        expect(result["failed"] > 0 and not result["correct"],
               f"{workload}: a corrupted expected answer was not caught")
        frac = next(line for line in lines if line.startswith("# failed_frac = "))
        expect(float(frac.split()[3]) > 0, f"{workload}: failed_frac stayed 0")
        print(f"ok {workload}")
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
