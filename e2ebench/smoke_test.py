#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark harness.

    python3 e2ebench/smoke_test.py

Runs every workload at the reduced --smoke budget with seed 1, once
untraced and once traced, and asserts for each run that:
  - the run exits 0 and its result object says correct, with no failed call;
  - the result carries exactly the end-to-end (untraced) or per-layer
    (traced) metrics BENCHMARK.json names, each with its unit;
  - each metric is also printed as a "metric NAME = VALUE UNIT" line,
    and the untraced run prints fail_ratio;
  - the output digest matches the committed reference;
  - the traced run wrote its trace file and confirmed its digest.
Takes under half a minute on four cores after the first build.
"""
import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def check_run(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "0", "--trace", str(trace), "--smoke"]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
    errors = []
    if out.returncode != 0:
        return [f"exit code {out.returncode}: {out.stderr[-1000:]}"]
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"not correct: {result['attempted']} attempted, {result['failed']} failed;"
                      f" {out.stderr[-1000:]}")
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    want = {m["name"]: m["unit"] for m in expected}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        errors.append(f"metric set differs: missing {sorted(set(want) - set(got))}, "
                      f"extra {sorted(set(got) - set(want))}, units "
                      f"{sorted(n for n in want if n in got and got[n] != want[n])}")
    printed = {m.group(1): m.group(2) for m in
               (re.match(r"metric (\S+) = \S+ (\S+)$", line) for line in lines) if m}
    for name, unit in want.items():
        if printed.get(name) != unit:
            errors.append(f"metric {name} not printed with unit {unit}")
    if not trace and "fail_ratio" not in printed:
        errors.append("fail_ratio not printed")
    if not any("matches the committed reference" in line for line in lines):
        errors.append("digest does not match a committed reference")
    if trace and not any(line.startswith("trace written to ") for line in lines):
        errors.append("no trace file written")
    return errors


def main():
    failures = 0
    for workload in [w["name"] for w in SPEC["workloads"]]:
        for trace in (0, 1):
            errors = check_run(workload, trace)
            status = "ok" if not errors else "FAILED"
            print(f"{workload} trace={trace}: {status}", flush=True)
            for error in errors:
                print("  " + error)
            failures += bool(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
