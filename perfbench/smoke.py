#!/usr/bin/env python3
"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Run it from the root of a checkout. It runs every workload BENCHMARK.json
names at tiny sizes (perfbench --smoke), once untraced and once traced, and
fails unless each run ends with a result line that passed its correctness
checks and carries exactly the metrics BENCHMARK.json names for that mode,
each with its unit. A traced run must also print its ledger table.
"""

import json
import math
import subprocess
import sys


def check_run(workload, trace, expected):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", "7", "--seconds", "1", "--trace", str(trace),
               "--smoke"]
    run = subprocess.run(command, capture_output=True, text=True,
                         timeout=600)
    lines = run.stdout.strip().splitlines()
    problems = []
    if run.returncode != 0 or not lines:
        return [f"exit code {run.returncode}: {run.stderr.strip()[-500:]}"]
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correctness: {run.stderr.strip()[-500:]}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted < 1")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"missing {sorted(set(expected) - set(metrics))}, "
                        f"unexpected {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        got = metrics.get(name, {})
        value = got.get("value")
        if got.get("unit") != unit:
            problems.append(f"{name}: unit {got.get('unit')!r}, want {unit!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
        elif trace == 0 and value <= 0:
            problems.append(f"{name}: end-to-end value {value} is not > 0")
    if not any(line.startswith("# fingerprint ") for line in lines):
        problems.append("no host fingerprint")
    if trace == 1 and not any(line.startswith("# ledger ") for line in lines):
        problems.append("no ledger table")
    return problems


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    modes = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
             1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    failures = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, expected in modes.items():
            problems = check_run(workload, trace, expected)
            status = "ok" if not problems else "FAIL"
            print(f"{workload} --trace {trace}: {status}")
            for problem in problems:
                print(f"  {problem}")
            failures += bool(problems)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
