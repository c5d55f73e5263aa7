"""Self-check of the benchmark on tiny seeded instances.

    python3 perfbench/selfcheck.py

Runs every workload with ``--tiny`` untraced and traced, and confirms that
the last output line has the result schema with exactly the metric names
and units of BENCHMARK.json, that the lines before it carry the provenance
and the report-only figures, and that the benchmark refuses to run (exit
code other than 0, no result line) in a copy that holds only
BENCHMARK.json and the benchmark's own files.  Exits 1 on any problem.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROVENANCE = {"nproc", "python", "platform", "git_commit", "workload", "seed", "metrics"}
REPORT_ONLY = {"gap_pct", "proved_frac", "failed_frac"}


def run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=170)


def check(workload: str, trace: int, spec: dict) -> list[str]:
    proc = run(ROOT, "--workload", workload, "--seed", "0", "--seconds", "0.3",
               "--trace", str(trace), "--tiny")
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-800:]}"]
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    result, report, provenance = lines[-1], lines[-2]["report"], lines[-3]["provenance"]
    problems = []
    if list(result) != ["correct", "attempted", "failed", "metrics"]:
        problems.append(f"result keys {list(result)}")
    if result["correct"] is not True:
        problems.append(f"not correct: {report.get('problems')}")
    if not (type(result["attempted"]) is int and result["attempted"] >= 1
            and type(result["failed"]) is int and 0 <= result["failed"] <= result["attempted"]):
        problems.append(f"attempted/failed {result['attempted']}/{result['failed']}")
    if result["failed"] and not (report["errors"] or report["problems"]):
        problems.append("failures without a recorded error type")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != declared:
        problems.append(f"metric names/units differ: {sorted(set(got) ^ set(declared))}")
    for name, m in result["metrics"].items():
        value = m.get("value")
        if (set(m) != {"value", "unit"} or type(value) not in (int, float)
                or not math.isfinite(value)):
            problems.append(f"{name}: {m}")
    if not PROVENANCE <= set(provenance):
        problems.append(f"provenance lacks {sorted(PROVENANCE - set(provenance))}")
    if not trace and not (REPORT_ONLY <= set(report)
                          and REPORT_ONLY == set(provenance["report_only"])):
        problems.append("report-only figures missing from the report or provenance")
    return problems


def check_refuses_without_sources(spec: dict) -> list[str]:
    bare = ROOT / ".perfbench_work" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "--workload", "exact", "--seed", "0", "--seconds", "1")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if not any(bare.parent.iterdir()):
            bare.parent.rmdir()
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"ran without sources: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = check(workload, trace, spec)
            failures += bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {workload} --trace {trace}")
            for problem in problems:
                print(f"     {problem}")
    problems = check_refuses_without_sources(spec)
    failures += bool(problems)
    print(f"{'FAIL' if problems else 'ok  '} refuses to run without src/")
    for problem in problems:
        print(f"     {problem}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
