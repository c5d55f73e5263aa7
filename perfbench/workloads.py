"""The three benchmark workloads: inputs from a seed, operations, checks.

Every workload draws its instances from ``pools.json``: for each slot,
a list of generator seeds whose instances cost about the same (solver
seconds, measured once when the pools were built; see README.md).  ``--seed`` picks one
entry per slot, so different seeds give different instances of about
the same cost, and run-to-run figures stay comparable across seeds.

Operations call spedac through module attributes (``solvers.branch_and_bound``,
``cli.main``, ...) so the tracer's wrappers see them.  Checks use the
functions bound here at import time, which the tracer never replaces.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import spedac.cli as cli
import spedac.core as core
import spedac.generators as generators
import spedac.instance_io as instance_io
import spedac.model_export as model_export
import spedac.solvers as solvers
from spedac.bench import CSV_SCHEMA_COMMENT, bench_filename

# Originals for the correctness gate; the tracer patches module attributes only.
_evaluate = core.evaluate
_export = model_export.export_flow_model
_verify = model_export.verify_model_at_point
_induced = model_export.induced_assignment
_optimality_gap = solvers.optimality_gap

POOLS = json.loads((Path(__file__).parent / "pools.json").read_text(encoding="ascii"))

# Self-check sizes: one small instance per role, every code path kept.
TINY = {
    "exact": [{"family": "random", "n": 12, "d": 0.3, "r": 0.02, "pool": [7]}],
    "heuristic": [{"family": "random", "n": 20, "d": 0.2, "r": 0.01, "pool": [7]}],
    "sweep": [{"family": "random", "n": 10, "d": 0.3, "r": 0.02, "count": 2, "pool": [1, 2]}],
    "large": [{"family": "random", "n": 30, "d": 0.1, "r": 0.01}],
}
CHAIN_VERTICES = 1200


@dataclass
class Op:
    """One timed call plus the check applied to each of its results."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]


def _rng(seed: int, *labels) -> random.Random:
    return random.Random("perfbench/" + "/".join(map(str, (seed,) + labels)))


def config(spec: dict, gen_seed: int):
    """Generator configuration of a pool spec."""
    if spec["family"] == "random":
        return generators.RandomConfig(n=spec["n"], d=spec["d"], r=spec["r"], seed=gen_seed)
    return generators.SmallWorldConfig(n=spec["n"], k=spec["k"], beta=spec.get("beta", 0.5),
                                       r=spec["r"], seed=gen_seed)


def generate(spec: dict, gen_seed: int) -> core.Instance:
    """Instance of a pool spec through the public generators."""
    if spec["family"] == "random":
        return generators.generate_random(config(spec, gen_seed))
    return generators.generate_small_world(config(spec, gen_seed))


def spec_label(spec: dict, gen_seed: int) -> str:
    density = f"d{spec['d']:g}" if spec["family"] == "random" else f"k{spec['k']:g}"
    beta = f"_b{spec['beta']:g}" if "beta" in spec else ""
    return f"{spec['family']}_n{spec['n']}_{density}{beta}_r{spec['r']:g}_s{gen_seed}"


def chain_instance(seed: int) -> core.Instance:
    """Seeded single-path chain; B&B recursion depth equals its length."""
    rng = _rng(seed, "chain")
    n = CHAIN_VERTICES
    arcs = tuple(core.ArcRecord(i, i + 1, rng.randint(1, 100)) for i in range(n - 1))
    pairs = sorted({tuple(sorted(rng.sample(range(n - 1), 2))) for _ in range(12)})
    conflicts = tuple(core.ConflictRecord(a, b, rng.randint(25, 125)) for a, b in pairs)
    return core.Instance(vertex_count=n, arcs=arcs, conflicts=conflicts, source=0, sink=n - 1)


def _pick(seed: int, role: str, specs: list[dict]) -> list[tuple[dict, int]]:
    # One pool entry per slot; a slot with "count" takes that many distinct entries.
    picked = []
    for slot, spec in enumerate(specs):
        rng = _rng(seed, role, slot)
        for gen_seed in rng.sample(spec["pool"], spec.get("count", 1)):
            picked.append((spec, gen_seed))
    return picked


# -- checks ------------------------------------------------------------------

def check_solution(instance: core.Instance, report, exact: bool) -> list[str]:
    """Status, bounds and re-evaluation of one solver report."""
    problems = []
    if exact and report.status is not solvers.SolveStatus.OPTIMAL:
        problems.append(f"status {report.status.value}, expected Optimal")
    if exact and report.lower_bound != report.upper_bound:
        problems.append(f"LB {report.lower_bound} != UB {report.upper_bound}")
    if report.lower_bound > report.upper_bound:
        problems.append(f"LB {report.lower_bound} > UB {report.upper_bound}")
    if report.incumbent is None:
        return problems + ["no incumbent"]
    again = _evaluate(instance, report.incumbent.vertices).objective
    if again != report.upper_bound:
        problems.append(f"incumbent re-evaluates to {again}, UB {report.upper_bound}")
    return problems


def check_model_rows(model, instance: core.Instance, solution: core.PathSolution) -> list[str]:
    """The exported model holds at the path and prices it at its objective."""
    value, violated = _verify(model, _induced(instance, solution))
    problems = []
    if violated:
        problems.append(f"violated rows {violated[:5]}")
    if value != solution.objective:
        problems.append(f"model objective {value} != path objective {solution.objective}")
    return problems


def _quality(report) -> tuple[float, float, bool]:
    gap = _optimality_gap(report.lower_bound, report.upper_bound)
    return report.upper_bound, gap, report.status is solvers.SolveStatus.OPTIMAL


# -- workloads ---------------------------------------------------------------

class SolverWorkload:
    """exact / heuristic: one solver call per generated instance."""

    def __init__(self, name: str, seed: int, workdir: Path, tiny: bool) -> None:
        self.name = name
        self.seed = seed
        self.exact = name == "exact"
        self.specs = TINY[name] if tiny else POOLS[name]
        self.instances: list[tuple[str, core.Instance]] = []

    def setup(self) -> None:
        self.instances = [(spec_label(spec, gs), generate(spec, gs))
                          for spec, gs in _pick(self.seed, self.name, self.specs)]
        if self.exact:
            self.instances.append((f"chain_n{CHAIN_VERTICES}", chain_instance(self.seed)))

    @property
    def solves(self) -> int:
        return len(self.instances)

    def labels(self) -> list[str]:
        return [label for label, _ in self.instances]

    def ops(self) -> list[Op]:
        return [self._op(label, inst) for label, inst in self.instances]

    def _op(self, label: str, inst: core.Instance) -> Op:
        if self.exact:
            def run():
                return solvers.branch_and_bound(inst)
        else:
            def run():
                return solvers.local_search(inst)
        return Op(label, run, lambda report: check_solution(inst, report, self.exact))

    def quality(self, op: Op, result) -> list[tuple[float, float, bool]]:
        return [_quality(result)]

    def gate(self, results: dict[str, object], oracle) -> tuple[dict[str, list[str]], list[str]]:
        """Model-row check per output; on exact, a HiGHS check of each optimum."""
        problems: dict[str, list[str]] = {}
        notes: list[str] = []
        for label, inst in self.instances:
            report = results.get(label)
            if report is None or report.incumbent is None:
                continue
            model = _export(inst)
            found = check_model_rows(model, inst, report.incumbent)
            if self.exact and oracle is not None:
                verdict = oracle(model)
                if verdict is None:
                    notes.append(f"{label}: HiGHS proved no optimum in its time limit")
                elif abs(verdict - report.upper_bound) > 1e-6 * max(1.0, abs(verdict)):
                    found.append(f"HiGHS optimum {verdict} != B&B optimum {report.upper_bound}")
            if found:
                problems[label] = found
        return problems, notes


class PipelineWorkload:
    """File-to-file use through spedac.cli.main plus an exact model verification."""

    name = "pipeline"

    def __init__(self, name: str, seed: int, workdir: Path, tiny: bool) -> None:
        self.seed = seed
        self.sweep_dir = workdir / "sweep"
        self.large_dir = workdir / "large"
        self.out_dir = workdir / "out"
        self.csv_path = self.out_dir / "bench.csv"
        self.sweep_specs = TINY["sweep"] if tiny else POOLS["sweep"]
        self.large_specs = TINY["large"] if tiny else POOLS["large"]
        self.sweep: dict[str, core.Instance] = {}
        self.large: dict[str, core.Instance] = {}
        self.lp_digest: dict[str, str] = {}

    def setup(self) -> None:
        for d in (self.sweep_dir, self.large_dir, self.out_dir):
            d.mkdir(parents=True, exist_ok=True)
        self.sweep = {}
        for spec, gs in _pick(self.seed, "sweep", self.sweep_specs):
            inst = generate(spec, gs)
            cfg = config(spec, gs)
            key = "d" if spec["family"] == "random" else "k"
            name = bench_filename(spec["family"], cfg.n, key, getattr(cfg, key), cfg.r,
                                  *cfg.penalty_range, gs)
            instance_io.save_instance(inst, self.sweep_dir / name)
            self.sweep[name] = inst
        self.large = {}
        for slot, spec in enumerate(self.large_specs):
            gs = _rng(self.seed, "large", slot).randrange(10**6)
            inst = generate(spec, gs)
            name = spec_label(spec, gs) + ".spedac"
            instance_io.save_instance(inst, self.large_dir / name)
            self.large[name] = inst

    @property
    def solves(self) -> int:
        return 2 * len(self.sweep)

    def labels(self) -> list[str]:
        return sorted(self.sweep) + list(self.large)

    def ops(self) -> list[Op]:
        ops = [Op("bench", self._bench, self._check_bench)]
        for name, inst in self.large.items():
            path = self.large_dir / name
            lp = self.out_dir / (name + ".lp")
            ops.append(Op(f"validate:{name}", _cli_call(["validate", str(path)]),
                          _check_validate(inst)))
            ops.append(Op(f"export:{name}", _cli_call(["export", str(path), "--out", str(lp)]),
                          self._check_export(name, lp)))
            ops.append(Op(f"verify:{name}", _verify_call(path), _check_verify))
        return ops

    def _bench(self) -> int:
        return _cli_call(["bench", str(self.sweep_dir), "--method", "bb", "--method",
                          "brute", "--workers", "2", "--out", str(self.csv_path)])()[0]

    def _check_bench(self, code) -> list[str]:
        if code != 0:
            return [f"spedac bench exited {code}"]
        text = self.csv_path.read_text(encoding="ascii")
        if not text.startswith(CSV_SCHEMA_COMMENT + "\n"):
            return ["CSV lacks the schema comment"]
        problems = []
        ubs: dict[str, dict[str, str]] = {}
        for row in _csv_rows(text):
            if row["status"] != "Optimal":
                problems.append(f"{row['method']} {row['instance']}: status {row['status']}")
            ubs.setdefault(row["instance"], {})[row["method"]] = row["UB"]
        if set(ubs) != set(self.sweep):
            problems.append("CSV instances differ from the sweep directory")
        for name, by_method in sorted(ubs.items()):
            if by_method.get("bb") is None or by_method.get("bb") != by_method.get("brute"):
                problems.append(f"{name}: bb UB {by_method.get('bb')} != brute UB"
                                f" {by_method.get('brute')}")
        return problems

    def _check_export(self, name: str, lp: Path) -> Callable[[object], list[str]]:
        def check(result) -> list[str]:
            code, _ = result
            if code != 0:
                return [f"spedac export exited {code}"]
            digest = hashlib.sha256(lp.read_bytes()).hexdigest()
            first = self.lp_digest.setdefault(name, digest)
            return [] if digest == first else ["LP text differs from the first pass"]
        return check

    def quality(self, op: Op, result) -> list[tuple[float, float, bool]]:
        if op.name != "bench" or result != 0:
            return []
        return [(int(row["UB"]), float(row["Opt gap %"]), row["status"] == "Optimal")
                for row in _csv_rows(self.csv_path.read_text(encoding="ascii"))]

    def gate(self, results: dict[str, object], oracle) -> tuple[dict[str, list[str]], list[str]]:
        """The LP files equal the in-process rendering of each exported model."""
        problems: dict[str, list[str]] = {}
        for name, inst in self.large.items():
            lp = self.out_dir / (name + ".lp")
            if lp.exists() and lp.read_text(encoding="ascii") != _export(inst).render():
                problems[f"export:{name}"] = ["LP file differs from the in-process model"]
        return problems, []

    def replay(self) -> None:
        """The sweep's solver calls in this process, so traced spans can see them."""
        for name in sorted(self.sweep):
            inst = self.sweep[name]
            solvers.branch_and_bound(inst)
            solvers.brute_force(inst)


def _cli_call(argv: list[str]) -> Callable[[], tuple[int, str]]:
    def run() -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()
    return run


def _check_validate(inst: core.Instance) -> Callable[[object], list[str]]:
    expected = (f"ok: {inst.vertex_count} vertices, {len(inst.arcs)} arcs,"
                f" {len(inst.conflicts)} conflicts, source {inst.source}, sink {inst.sink}\n")

    def check(result) -> list[str]:
        code, text = result
        if code != 0:
            return [f"spedac validate exited {code}"]
        return [] if text == expected else [f"validate printed {text!r}"]
    return check


def _verify_call(path: Path) -> Callable[[], tuple]:
    # Exact rational check of the exported model at the conflict-blind
    # shortest path, which is always a feasible point of the model.
    def run():
        inst = instance_io.load_instance(path)
        model = model_export.export_flow_model(inst)
        solution = core.evaluate(inst, solvers.shortest_path_vertices(inst))
        value, violated = model_export.verify_model_at_point(
            model, model_export.induced_assignment(inst, solution))
        return value, violated, solution.objective
    return run


def _check_verify(result) -> list[str]:
    value, violated, objective = result
    problems = [f"violated rows {violated[:5]}"] if violated else []
    if value != objective:
        problems.append(f"model objective {value} != path objective {objective}")
    return problems


def _csv_rows(text: str) -> list[dict[str, str]]:
    reader = csv.DictReader(io.StringIO(text.split("\n", 1)[1]))
    return [row for row in reader if not row["instance"].startswith("mean of")]


WORKLOADS = {
    "exact": SolverWorkload,
    "heuristic": SolverWorkload,
    "pipeline": PipelineWorkload,
}
