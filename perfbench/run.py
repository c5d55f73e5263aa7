"""spedac benchmark: one workload, one run, one result line.

    python3 perfbench/run.py --workload {exact,heuristic,pipeline} --seed N \
        --seconds S --trace {0,1}

Run from the root of a spedac checkout; the package is imported from its
``src/`` directory, never from an installed copy.  The workload's inputs
come from ``--seed``.  Set-up is repeated (SETUP_REPEATS); then whole
passes over the workload's operations run until ``--seconds`` of timed
work is done.  Every reported time is normalised by a CPU-speed reference
(see speed.py).  Each result is checked outside the timed region, and a
final gate (model rows, HiGHS on ``exact``, LP identity on ``pipeline``)
runs after the last pass.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced and traced passes and reports
the per-layer metrics, including the tracing overhead; the spans of the
traced set-up and last traced pass go to ``.perfbench_out/``.  The last
line of standard output is the result object; the lines before it give
provenance and the full report.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import oracle
import tracing
from speed import Speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Figures of the issue's metric list that are printed but not declared in
# BENCHMARK.json, because each reads exactly 0 on some workload.
REPORT_ONLY = {"gap_pct": ("%", "lower"), "proved_frac": ("ratio", "higher"),
               "failed_frac": ("ratio", "lower")}
# Set-up runs at least 5 times, then until SETUP_SECONDS have gone or 50 runs.
SETUP_REPEATS = (5, 50)
SETUP_SECONDS = 1.0


def _import_spedac() -> None:
    if not (SRC / "spedac" / "__init__.py").is_file():
        sys.exit(f"perfbench: no spedac sources at {SRC / 'spedac'}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import spedac
    if Path(spedac.__file__).resolve().parent != (SRC / "spedac").resolve():
        sys.exit(f"perfbench: imported spedac from {spedac.__file__}, not from {SRC}")


class Pass:
    """One pass over the operations: raw and normalised seconds, outcomes."""

    def __init__(self) -> None:
        self.raw = 0.0
        self.seconds = 0.0
        self.samples: list[tuple[object, float, object, str | None]] = []


def run_pass(ops, speed, tracer=None) -> Pass:
    record = Pass()
    for op in ops:
        t0 = perf_counter()
        try:
            result = tracer.operation(op.name, op.run) if tracer else op.run()
            error = None
        except Exception as exc:  # counted as a failed operation; the run goes on
            # Keep the text only: a traceback would hold every frame alive.
            result, error = None, f"{type(exc).__name__}: {str(exc)[:200]}"
        raw = perf_counter() - t0
        seconds = speed.scale(raw)
        record.raw += raw
        record.seconds += seconds
        record.samples.append((op, seconds, result, error))
    return record


class Outcomes:
    """Attempts, failures and successful results across passes."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.ok_by_op: dict[str, list[float]] = {}
        self.last: dict[str, object] = {}
        self.errors: dict[str, str] = {}
        self.problems: dict[str, list[str]] = {}
        self.quality = None

    def add(self, record: Pass) -> None:
        quality = []
        for op, seconds, result, error in record.samples:
            self.attempted += 1
            if error is not None:
                self.failed += 1
                self.errors[op.name] = error
                continue
            problems = op.check(result)
            if problems:
                self.failed += 1
                self.incorrect += 1
                self.problems[op.name] = problems
                continue
            self.ok_by_op.setdefault(op.name, []).append(seconds)
            self.last[op.name] = result
            quality.extend(self.workload.quality(op, result))
        if self.quality is None:
            self.quality = quality

    def apply_gate(self, problems: dict[str, list[str]]) -> None:
        # A gate failure makes every successful attempt of that operation wrong.
        for name, found in problems.items():
            hits = len(self.ok_by_op.pop(name, []))
            self.failed += hits
            self.incorrect += hits
            self.problems[name] = found
            self.last.pop(name, None)


def timed_passes(ops, seconds: float, outcomes: Outcomes, speed) -> list[Pass]:
    passes: list[Pass] = []
    spent = 0.0
    while not passes or spent < seconds:
        record = run_pass(ops, speed)
        passes.append(record)
        spent += record.raw
        outcomes.add(record)
    return passes


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def end_to_end(workload, setup_s: list[float], passes: list[Pass], outcomes: Outcomes,
               peak_rss_mb: float) -> tuple[dict, dict]:
    """The end-to-end metrics, and the report-only figures beside them."""
    timed = sum(p.seconds for p in passes)
    ok = sum(len(runs) for runs in outcomes.ok_by_op.values())
    # Repeats of one operation measure one quantity, so the percentiles run
    # over each successful operation's median, not over raw samples.
    typical = [statistics.median(runs) for runs in outcomes.ok_by_op.values()]
    if workload.name == "pipeline":
        sweep = statistics.median(outcomes.ok_by_op.get("bench") or [math.nan])
    else:
        sweep = typical_pass(passes)
    quality = outcomes.quality or []
    ubs = [ub for ub, _, _ in quality]
    metrics = {
        "setup_s": statistics.median(setup_s),
        "ops_per_s": ok / timed,
        "op_s.p50": statistics.median(typical) if typical else math.nan,
        "op_s.p90": percentile(typical, 90) if typical else math.nan,
        "sweep_s": sweep,
        "ub_geomean": math.exp(statistics.fmean(map(math.log, ubs))) if ubs else math.nan,
        "ok_frac": (outcomes.attempted - outcomes.failed) / outcomes.attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    report = {
        "gap_pct": statistics.fmean(gap for _, gap, _ in quality) if quality else math.nan,
        "proved_frac": sum(p for _, _, p in quality) / workload.solves,
        "failed_frac": outcomes.failed / outcomes.attempted,
        "op_samples": ok,
        "op_median_s": {name: statistics.median(runs)
                        for name, runs in outcomes.ok_by_op.items()},
        "passes": len(passes),
        "timed_s": timed,
        "timed_raw_s": sum(p.raw for p in passes),
        "setup_samples": len(setup_s),
    }
    return metrics, report


def typical_pass(passes: list[Pass]) -> float:
    """Sum over operations of each one's median seconds.

    Steadier than the mean pass on a host whose speed swings within a
    pass: over recorded 30 s windows of ``heuristic`` its spread (IQR over
    median) was 4.3%, against 5.4% for the mean pass.
    """
    by_op: dict[str, list[float]] = {}
    for record in passes:
        for op, seconds, _, _ in record.samples:
            by_op.setdefault(op.name, []).append(seconds)
    return sum(statistics.median(runs) for runs in by_op.values())


def per_layer(untraced: list[Pass], traced: list[Pass], layers: list[dict]) -> dict:
    values = {key: statistics.median(layer[key] for layer in layers) for key in layers[0]}
    base = typical_pass(untraced)
    over = typical_pass(traced) - base
    values["trace.overhead_s"] = over
    values["trace.overhead_pct"] = 100.0 * over / base
    return values


def measure(args) -> tuple[dict, dict]:
    import workloads  # imports spedac, which _import_spedac has put on the path

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.workload, args.seed, workdir, args.tiny)
    speed = Speed()
    try:
        setup_s: list[float] = []
        spent = 0.0
        while len(setup_s) < SETUP_REPEATS[0] or (
                spent < SETUP_SECONDS and len(setup_s) < SETUP_REPEATS[1]):
            t0 = perf_counter()
            workload.setup()
            raw = perf_counter() - t0
            spent += raw
            setup_s.append(speed.scale(raw))
        ops = workload.ops()
        outcomes = Outcomes(workload)
        if not args.trace:
            passes = timed_passes(ops, args.seconds, outcomes, speed)
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            untraced, traced, layers = [], [], []
            tracer = tracing.Tracer()
            phases: dict[str, list] = {}
            with tracer:
                workload.setup()
                phases["setup"] = tracer.take()
                ops = workload.ops()
                if hasattr(workload, "replay"):
                    tracer.operation("replay", workload.replay)
                    phases["replay"] = tracer.take()
            # Untraced and traced passes alternate, so both meet the same
            # swings of host speed and their difference is the overhead.
            spent = 0.0
            while not traced or spent < args.seconds:
                plain = run_pass(ops, speed)
                with tracer:
                    spanned = run_pass(ops, speed, tracer)
                phases["pass"] = tracer.take()
                layers.append(tracing.layer_metrics(list(phases.values()),
                                                    spanned.seconds / spanned.raw))
                for record, kept in ((plain, untraced), (spanned, traced)):
                    outcomes.add(record)
                    kept.append(record)
                    spent += record.raw
            tracing.write_spans(ROOT / ".perfbench_out" / f"spans-{args.workload}.jsonl", phases)
        highs = oracle.highs_oracle() if workload.name == "exact" else None
        gate_problems, notes = workload.gate(outcomes.last, highs)
        if workload.name == "exact" and highs is None:
            notes.append("scipy is not importable: HiGHS checks skipped")
        outcomes.apply_gate(gate_problems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.is_dir() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    if args.trace:
        metrics = per_layer(untraced, traced, layers)
        report = {"untraced_passes": len(untraced), "traced_passes": len(traced)}
    else:
        metrics, report = end_to_end(workload, setup_s, passes, outcomes, peak)
    report.update({
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "incorrect": outcomes.incorrect,
        "errors": outcomes.errors,
        "problems": outcomes.problems,
        "notes": notes,
        "instances": workload.labels(),
    })
    return metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("exact", "heuristic", "pipeline"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="one tiny instance per role; used by selfcheck.py")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _import_spedac()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics, report = measure(args)

    units = {m["name"]: {"unit": m["unit"], "better": m["better"]} for m in declared}
    provenance = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "metrics": units,
        "report_only": {} if args.trace else {
            name: {"unit": unit, "better": better}
            for name, (unit, better) in REPORT_ONLY.items()},
    }
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"report": report}))
    for name, value in metrics.items():
        meta = units[name]
        print(f"{name:45s} {value:>16.6g} {meta['unit']:10s} ({meta['better']} is better)")
    if not args.trace:
        for name, (unit, better) in REPORT_ONLY.items():
            print(f"{name:45s} {report[name]:>16.6g} {unit:10s} ({better} is better;"
                  " report only)")
    result = {
        "correct": report["incorrect"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
