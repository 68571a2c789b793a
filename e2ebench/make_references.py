#!/usr/bin/env python3
"""Regenerate e2ebench/references.txt, the committed output digests.

    python3 e2ebench/make_references.py

Runs every workload for each seed 0-20 at the full budget,
and for seed 1 at the smoke budget, with the reference check off (each
run makes the harness's minimum of three calls, which must agree), and
records each run's digest of best design + Pareto front + counters
(campaign: the report). Every other output check still applies, so a
run that fails one aborts the script. Regenerate only when a change is
meant to alter results, and say so in the change.
"""
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ["search-tgff200", "prune-accept", "giant-tgff1k", "campaign-100k"]
# The seeds the benchmark is run with: 0-20.
SEEDS = range(0, 21)


def digest(workload, seed, smoke):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", "0", "--no-references"] + (["--smoke"] if smoke else [])
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent)
    if out.returncode != 0 or '"correct":true' not in out.stdout.splitlines()[-1]:
        sys.exit(f"{workload} seed {seed}: run failed\n{out.stderr[-2000:]}")
    for line in out.stdout.splitlines():
        if line.startswith("digest "):
            return line.split()[1]
    sys.exit(f"{workload} seed {seed}: no digest line")


def main():
    lines = ["# Output digests the harness checks every call against:",
             "# workload budget seed digest. Regenerate with make_references.py."]
    for workload in WORKLOADS:
        lines.append(f"{workload} smoke 1 {digest(workload, 1, True)}")
        for seed in SEEDS:
            lines.append(f"{workload} full {seed} {digest(workload, seed, False)}")
            print(lines[-1], flush=True)
    (HERE / "references.txt").write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
