"""In-memory spans around spedac's public layer functions.

A Tracer replaces each traced function in every ``spedac`` module
attribute that refers to it, so callers that resolve the name at call
time (``spedac.solvers.evaluate`` inside the solvers, ``spedac.cli.run_bench``
inside the CLI, ...) go through a wrapper that records a span.  Nothing
under ``src/`` changes; ``uninstall`` restores the original objects.

A span is the list ``[name, start, end, parent, op, attrs]``: ``parent`` is
the index of the enclosing span (-1 at the top), ``op`` the id shared by
all spans of one benchmark operation, and ``attrs`` a dict of counts
taken at the boundary (bytes, rows, nodes, ...) or None.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from time import perf_counter
from typing import Callable

# (module, attribute path, span name).  All shortest-path routines count
# as "solvers.dijkstra", so folding the private ones into dijkstra keeps
# the counter comparable; a target missing from a later version is skipped.
TARGETS = (
    ("spedac.generators", "generate_random", "generators.generate"),
    ("spedac.generators", "generate_small_world", "generators.generate"),
    ("spedac.instance_io", "parse_instance", "instance_io.parse"),
    ("spedac.instance_io", "render_instance", "instance_io.render"),
    ("spedac.core", "evaluate", "core.evaluate"),
    ("spedac.solvers", "dijkstra", "solvers.dijkstra"),
    ("spedac.solvers", "_masked_shortest_path", "solvers.dijkstra"),
    ("spedac.solvers", "k_shortest_paths", "solvers.k_shortest_paths"),
    ("spedac.solvers", "branch_and_bound", "solvers.branch_and_bound"),
    ("spedac.solvers", "brute_force", "solvers.brute_force"),
    ("spedac.solvers", "local_search", "solvers.local_search"),
    ("spedac.model_export", "export_flow_model", "model_export.export"),
    ("spedac.model_export", "ExportedModel.render", "model_export.render"),
    ("spedac.model_export", "verify_model_at_point", "model_export.verify"),
    ("spedac.bench", "run_bench", "bench.run_bench"),
    ("spedac.bench", "render_bench_csv", "bench.render_csv"),
    ("spedac.cli", "main", "cli.main"),
)


def _bytes_in(args, kwargs, result):
    return {"bytes": len(args[0])}


def _bytes_out(args, kwargs, result):
    return {"bytes": len(result)}


def _rows(args, kwargs, result):
    return {"rows": len(result.rows)}


def _explored(args, kwargs, result):
    return {"count": result.nodes_explored}


def _bench_rows(args, kwargs, result):
    rows = [r for r in result if not r["_aggregate"]]
    solved = {"Optimal", "Feasible", "Infeasible", "TimeLimit"}
    return {
        "tasks": len(rows),
        "failed_rows": sum(r["status"] not in solved for r in rows),
    }


ANNOTATE: dict[str, Callable] = {
    "instance_io.parse": _bytes_in,
    "instance_io.render": _bytes_out,
    "model_export.export": _rows,
    "model_export.render": _bytes_out,
    "solvers.brute_force": _explored,
    "solvers.local_search": _explored,
    "bench.run_bench": _bench_rows,
}


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = 0
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "spedac" or name.startswith("spedac.")]
        for module_name, path, span_name in TARGETS:
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(span_name, original)
            if outer:  # a method: patch the class attribute only
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def _patch(self, owner, name: str, wrapper) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        annotate = ANNOTATE.get(name)
        spans, stack = self.spans, self.stack
        is_bb = name == "solvers.branch_and_bound"

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            spans.append(rec)
            stack.append(len(spans) - 1)
            if is_bb and "on_node" not in kwargs and len(args) < 3:
                rec[5] = _attach_bb_hooks(kwargs)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = perf_counter()
            if annotate is not None:
                rec[5] = annotate(args, kwargs, result)
            elif is_bb and rec[5] is not None:
                rec[5]["ub"] = result.upper_bound
            return result

        return wrapper

    def operation(self, name: str, fn: Callable):
        """Run one benchmark operation under a root span with a fresh op id."""
        self.op += 1
        self.stack.clear()
        return self._wrap("op." + name, fn)()

    def take(self) -> list[list]:
        """The spans recorded so far; recording restarts from an empty list."""
        taken = self.spans[:]
        self.spans.clear()
        self.stack.clear()
        return taken


def write_spans(path: Path, phases: dict[str, list[list]]) -> None:
    """One JSON object per span; ids and parents index within the phase."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="ascii") as out:
        for phase, spans in phases.items():
            for i, (name, start, end, parent, op, attrs) in enumerate(spans):
                out.write(json.dumps({"phase": phase, "id": i, "name": name, "start": start,
                                      "end": end, "parent": parent, "op": op,
                                      "attrs": attrs}) + "\n")


def _attach_bb_hooks(kwargs: dict) -> dict:
    # Counts nodes and incumbents through branch_and_bound's own hooks and
    # keeps the first node's bound (the root bound).
    info = {"nodes": 0, "root": None, "incumbents": 0, "best_at": None}

    def on_node(path, bound):
        info["nodes"] += 1
        if info["root"] is None:
            info["root"] = bound

    def on_incumbent(solution):
        info["incumbents"] += 1
        info["best_at"] = perf_counter()

    kwargs["on_node"] = on_node
    kwargs["on_incumbent"] = on_incumbent
    return info


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(groups: list[list[list]], scale: float = 1.0) -> dict[str, float]:
    """Per-layer totals over span lists (each indexed on its own), by metric name.

    Seconds are multiplied by ``scale`` (nominal seconds per raw second of
    the pass, see speed.py) and rates divided by it.
    """
    spans = [span for group in groups for span in group]
    own = [t for group in groups for t in self_times(group)]
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    selfs: dict[str, float] = {}
    attrs: dict[str, float] = {}
    root_gaps: list[float] = []
    best_s = 0.0
    for (name, start, end, _, _, extra), self_s in zip(spans, own):
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        selfs[name] = selfs.get(name, 0.0) + self_s
        if not extra:
            continue
        for key, value in extra.items():
            if isinstance(value, (int, float)) and key not in ("root", "best_at", "ub"):
                attrs[f"{name}.{key}"] = attrs.get(f"{name}.{key}", 0) + value
        if name == "solvers.branch_and_bound":
            if extra.get("best_at") is not None:
                best_s += extra["best_at"] - start
            ub = extra.get("ub")
            if extra.get("root") is not None and ub is not None and 0 < ub < math.inf:
                root_gaps.append(100.0 * (ub - extra["root"]) / ub)

    total = {name: value * scale for name, value in total.items()}
    selfs = {name: value * scale for name, value in selfs.items()}
    best_s *= scale

    def t(name):
        return total.get(name, 0.0)

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    bb_nodes = attrs.get("solvers.branch_and_bound.nodes", 0)
    ls_evals = attrs.get("solvers.local_search.count", 0)
    paths = attrs.get("solvers.brute_force.count", 0)
    tasks = attrs.get("bench.run_bench.tasks", 0)
    return {
        "generators.generate_s": t("generators.generate"),
        "instance_io.parse_s": t("instance_io.parse"),
        "instance_io.render_s": t("instance_io.render"),
        "instance_io.bytes": attrs.get("instance_io.parse.bytes", 0)
        + attrs.get("instance_io.render.bytes", 0),
        "core.evaluate.calls": calls.get("core.evaluate", 0),
        "core.evaluate.s": t("core.evaluate"),
        "solvers.branch_and_bound.nodes": bb_nodes,
        "solvers.branch_and_bound.nodes_per_s": rate(bb_nodes, t("solvers.branch_and_bound")),
        "solvers.branch_and_bound.self_s": selfs.get("solvers.branch_and_bound", 0.0),
        "solvers.branch_and_bound.incumbents": attrs.get("solvers.branch_and_bound.incumbents", 0),
        "solvers.branch_and_bound.time_to_best_s": best_s,
        "solvers.branch_and_bound.root_gap_pct":
            sum(root_gaps) / len(root_gaps) if root_gaps else 0.0,
        "solvers.dijkstra.calls": calls.get("solvers.dijkstra", 0),
        "solvers.dijkstra.s": t("solvers.dijkstra"),
        "solvers.k_shortest_paths.calls": calls.get("solvers.k_shortest_paths", 0),
        "solvers.k_shortest_paths.s": t("solvers.k_shortest_paths"),
        "solvers.local_search.evals": ls_evals,
        "solvers.local_search.evals_per_s": rate(ls_evals, t("solvers.local_search")),
        "solvers.local_search.self_s": selfs.get("solvers.local_search", 0.0),
        "solvers.brute_force.paths": paths,
        "solvers.brute_force.paths_per_s": rate(paths, t("solvers.brute_force")),
        "model_export.export_s": t("model_export.export"),
        "model_export.render_s": t("model_export.render"),
        "model_export.lp_bytes": attrs.get("model_export.render.bytes", 0),
        "model_export.rows": attrs.get("model_export.export.rows", 0),
        "model_export.verify_s": t("model_export.verify"),
        "bench.run_bench_s": t("bench.run_bench"),
        "bench.tasks": tasks,
        "bench.tasks_per_s": rate(tasks, t("bench.run_bench")),
        "bench.failed_rows": attrs.get("bench.run_bench.failed_rows", 0),
        "bench.render_csv_s": t("bench.render_csv"),
        "cli.main_s": t("cli.main"),
        "cli.self_s": selfs.get("cli.main", 0.0),
    }

