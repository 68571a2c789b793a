#!/usr/bin/env python3
"""Compare two result sets of the end-to-end benchmark.

    python3 e2ebench/compare.py BASE.jsonl NEW.jsonl

Each file holds the records `run.py ... --out FILE` appends, one JSON
object per run. Records are grouped by (workload, budget, trace mode);
for every metric the report gives each side's median and quartiles and
the change of the median. A median of 0 on the base side (a layer that
does not run on that workload) is reported as such, not as a relative
change. search.ms_tail is only compared when both sides took it at the
same percentile, which follows from search.calls. End-to-end metrics
are judged against the bounds in BENCHMARK.json: "worse" when the new
median is worse by more than the bound, "unresolved" when either side's
own spread (quartile distance over median) is wider than the bound.

Results are only comparable from the same host and build: when the
host fingerprints (nproc, workers, CPU model, compiler, build type)
differ between or within the sets, the script names the differing
fields and exits with status 3 without comparing. The git commit is
shown, not compared.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

HOST_KEYS = ("nproc", "workers", "cpu_model", "compiler", "build_type")


def load(path):
    records = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            records.append(json.loads(line))
    if not records:
        sys.exit(f"{path}: no records")
    return records


def host(record):
    return {key: record["fingerprint"].get(key) for key in HOST_KEYS}


def host_differences(base, new):
    problems = []
    hosts = {json.dumps(host(r), sort_keys=True) for r in base + new}
    if len(hosts) > 1:
        for key in HOST_KEYS:
            values = sorted({str(host(r)[key]) for r in base}), sorted({str(host(r)[key]) for r in new})
            if values[0] != values[1] or len(values[0]) > 1:
                problems.append(f"{key}: base {values[0]} vs new {values[1]}")
    return problems


def tail_percentile(searches):
    """The percentile search.ms_tail is taken at: the harness's ladder."""
    best = 50.0
    for p in (90.0, 99.0, 99.9):
        if searches * (1.0 - p / 100.0) >= 10.0:
            best = p
    return best


def summary(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args()

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layers = {m["name"]: m for m in spec["per_layer"]}
    base, new = load(args.base), load(args.new)

    problems = host_differences(base, new)
    if problems:
        print("FINGERPRINT MISMATCH: these result sets come from different hosts or builds")
        for problem in problems:
            print("  " + problem)
        return 3
    commits = sorted({r["fingerprint"].get("git_commit", "?") for r in base}), \
        sorted({r["fingerprint"].get("git_commit", "?") for r in new})
    print(f"base commit(s) {commits[0]}  new commit(s) {commits[1]}")

    def groups(records):
        out = {}
        for r in records:
            out.setdefault((r["workload"], r["budget"], r["trace"]), []).append(r)
        return out

    base_groups, new_groups = groups(base), groups(new)
    regressions = 0
    for key in sorted(set(base_groups) | set(new_groups)):
        if key not in base_groups or key not in new_groups:
            print(f"\n{key}: only in {'base' if key in base_groups else 'new'}")
            continue
        workload, budget, trace = key
        b_runs, n_runs = base_groups[key], new_groups[key]
        print(f"\n{workload} ({budget}, {'traced' if trace else 'untraced'}): "
              f"{len(b_runs)} base runs, {len(n_runs)} new runs")
        failed = sum(r["result"]["failed"] for r in n_runs)
        if failed or not all(r["result"]["correct"] for r in n_runs):
            print(f"  new runs failed {failed} calls or were not correct")
            regressions += 1
        for name, metric in b_runs[0]["result"]["metrics"].items():
            b_vals = [r["result"]["metrics"][name]["value"] for r in b_runs]
            n_vals = [r["result"]["metrics"][name]["value"] for r in n_runs
                      if name in r["result"]["metrics"]]
            if not n_vals:
                continue
            bq1, bmed, bq3 = summary(b_vals)
            nq1, nmed, nq3 = summary(n_vals)
            values = (f"  {name:36s} base {bmed:.6g} [{bq1:.6g}, {bq3:.6g}]  "
                      f"new {nmed:.6g} [{nq1:.6g}, {nq3:.6g}] {metric['unit']}  ")
            if name == "search.ms_tail":
                ranks = [{tail_percentile(r["result"]["metrics"]["search.calls"]["value"])
                          for r in runs} for runs in (b_runs, n_runs)]
                if len(ranks[0] | ranks[1]) > 1:
                    print(values + f"not comparable: percentiles {sorted(ranks[0])} "
                          f"vs {sorted(ranks[1])}")
                    continue
            if not bmed:
                print(values + ("zero on both sides" if not nmed else "from a zero base"))
                continue
            change = (nmed - bmed) / bmed
            verdict = ""
            spec_entry = e2e.get(name) or layers.get(name)
            if name in e2e:
                bound = spec_entry["bound"]
                worse = change if spec_entry["better"] == "lower" else -change
                b_spread = (bq3 - bq1) / bmed
                n_spread = (nq3 - nq1) / nmed if nmed else 0.0
                if max(b_spread, n_spread) > bound:
                    verdict = "unresolved (spread wider than bound)"
                elif worse > bound:
                    verdict = f"WORSE beyond bound {bound}"
                    regressions += 1
                else:
                    verdict = f"within bound {bound}"
            print(values + f"{change:+.1%} {verdict}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
