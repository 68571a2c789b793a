#!/usr/bin/env python3
"""Build and run the seamap end-to-end benchmark.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
                            [--smoke] [--out FILE] [--no-references]

NAME "all" runs every workload in turn, each in its own process, and
ends with one result object whose metric names are prefixed with the
workload name.

Run from the repository root. The first run configures and builds the
library and the harness (Release) under .bench_build/e2ebench; later
runs rebuild incrementally. Build output goes to stderr, so the last
line of stdout is the harness's result object. Scratch files and traces
go to .bench_out/. Exits non-zero, without a result, when the library
sources are missing or the build fails.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "e2ebench"
WORK = ROOT / ".bench_out"


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"seamap sources not found under {ROOT}; run from a full checkout")
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", str(BUILD), "--target", "seamap_e2ebench", "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return BUILD / "seamap_e2ebench"


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


WORKLOADS = ["search-tgff200", "prune-accept", "giant-tgff1k", "campaign-100k"]


def run_all(binary, argv, at):
    """Run every workload; print one combined result object last."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        out = subprocess.run([str(binary), *argv[:at + 1], workload, *argv[at + 2:]],
                             capture_output=True, text=True)
        sys.stderr.write(out.stderr)
        lines = out.stdout.splitlines()
        print("\n".join(f"[{workload}] {line}" for line in lines[:-1]), flush=True)
        if out.returncode != 0 or not lines:
            fail(f"{workload} exited with status {out.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv):
    binary = build()
    WORK.mkdir(exist_ok=True)
    argv = [*argv, "--work-dir", str(WORK), "--git-commit", git_commit()]
    if "--no-references" not in argv:
        argv += ["--references", str(HERE / "references.txt")]
    if "--workload" in argv and argv[argv.index("--workload") + 1:][:1] == ["all"]:
        return run_all(binary, argv, argv.index("--workload"))
    sys.stdout.flush()
    code = subprocess.run([str(binary), *argv]).returncode
    return code if code >= 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
