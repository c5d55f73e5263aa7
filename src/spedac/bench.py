"""Benchmark sweep harness: solve a directory of instances, emit one CSV.

Instance files follow the naming scheme
``family_nNNN_dDDD_rRRR_pLO-HI_sSEED.spedac`` (the small-world family
uses ``k`` in place of ``d``); the harness recovers the grouping keys
from the name.  The CSV carries one row per (instance, method) plus
mean rows per group: first by density and size, then by density alone.
Per-instance failures become rows with a telling status and never abort
the sweep.  Seconds are reported with 1 ms resolution; bounds of mean
rows with one decimal; gaps with five decimals.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .core import Instance, InvariantError
from .instance_io import ParseError, load_instance
from .solvers import (
    INFINITY,
    GapUndefinedError,
    GuardExceededError,
    SolveReport,
    branch_and_bound,
    brute_force,
    check_time_limit,
    local_search,
    optimality_gap,
)

CSV_SCHEMA_COMMENT = "# spedac bench csv v1"
CSV_COLUMNS = ["set", "method", "instance", "status", "LB", "UB", "Sec best", "Sec tot", "Opt gap %"]
METHODS = ("bb", "heur", "brute")
SUFFIX = ".spedac"


@dataclass(frozen=True)
class BenchName:
    """Grouping keys encoded in a benchmark file name."""

    family: str
    n: int
    density_key: str  # "d" for random, "k" for small-world
    density_text: str
    r_text: str
    p_lo: int
    p_hi: int
    seed: int

    @property
    def density(self) -> float:
        return float(self.density_text)

    @property
    def r(self) -> float:
        return float(self.r_text)


def bench_filename(
    family: str,
    n: int,
    density_key: str,
    density: float,
    r: float,
    p_lo: int,
    p_hi: int,
    seed: int,
) -> str:
    return (
        f"{family}_n{n}_{density_key}{density:g}_r{r:g}_p{p_lo}-{p_hi}_s{seed}{SUFFIX}"
    )


def parse_bench_filename(name: str) -> BenchName:
    """Recover the grouping keys from a benchmark file name."""
    if not name.endswith(SUFFIX):
        raise ValueError(f"{name!r} does not end in {SUFFIX}")
    parts = name[: -len(SUFFIX)].split("_")
    if len(parts) != 6:
        raise ValueError(f"{name!r} does not match family_n.._d.._r.._p..-.._s..")
    family, n_part, density_part, r_part, p_part, s_part = parts
    if (
        not n_part.startswith("n")
        or density_part[:1] not in ("d", "k")
        or not r_part.startswith("r")
        or not p_part.startswith("p")
        or "-" not in p_part
        or not s_part.startswith("s")
    ):
        raise ValueError(f"{name!r} does not match family_n.._d.._r.._p..-.._s..")
    p_lo, p_hi = p_part[1:].split("-", 1)
    try:
        return BenchName(
            family=family,
            n=int(n_part[1:]),
            density_key=density_part[0],
            density_text=density_part[1:],
            r_text=r_part[1:],
            p_lo=int(p_lo),
            p_hi=int(p_hi),
            seed=int(s_part[1:]),
        )
    except ValueError:
        raise ValueError(f"{name!r} carries a non-numeric field") from None


def solve_with_method(
    instance: Instance,
    method: str,
    time_limit: Optional[float] = None,
    seed: int = 0,
) -> SolveReport:
    """Dispatch to one of the solvers by its CLI name."""
    if method == "bb":
        return branch_and_bound(instance, time_limit=time_limit)
    if method == "heur":
        return local_search(instance, time_limit=time_limit, seed=seed)
    if method == "brute":
        return brute_force(instance, time_limit=time_limit)
    raise ValueError(f"unknown method {method!r}; pick one of {', '.join(METHODS)}")


def _task_row(
    set_label: str, method: str, name: str, status: str, meta: Optional[BenchName],
    values: Sequence = (None,) * 5,
) -> dict:
    # One (instance, method) row; values fill the columns from LB on.
    row = dict(zip(CSV_COLUMNS, (set_label, method, name, status, *values)))
    row.update(_meta=meta, _aggregate=False)
    return row


def _solve_task(args: tuple[str, str, Optional[float], bool]) -> dict:
    path_text, method, time_limit, timing = args
    path = Path(path_text)
    try:
        meta = parse_bench_filename(path.name)
        set_label = f"{meta.density_key}={meta.density_text},n={meta.n}"
    except ValueError:
        meta = None
        set_label = ""
    try:
        instance = load_instance(path)
    except (ParseError, InvariantError) as exc:
        return _task_row(set_label, method, path.name, f"ParseError: {exc}", meta)
    except OSError as exc:
        return _task_row(set_label, method, path.name, f"ReadError: {exc}", meta)
    try:
        report = solve_with_method(instance, method, time_limit=time_limit)
    except GuardExceededError as exc:
        return _task_row(set_label, method, path.name, f"GuardExceeded: {exc}", meta)
    except RecursionError as exc:
        # branch_and_bound recurses once per path vertex.
        return _task_row(set_label, method, path.name, f"RecursionError: {exc}", meta)
    lb = None if report.lower_bound == INFINITY else report.lower_bound
    ub = None if report.upper_bound == INFINITY else report.upper_bound
    try:
        gap = round(optimality_gap(report.lower_bound, report.upper_bound), 5)
    except GapUndefinedError:
        gap = None
    seconds = (report.seconds_to_best, report.seconds_total) if timing else (0.0, 0.0)
    return _task_row(set_label, method, path.name, report.status.value, meta,
                     (lb, ub, *(round(s, 3) for s in seconds), gap))


def _row_sort_key(row: dict):
    meta = row["_meta"]
    if meta is None:
        return (row["method"], "~", 0.0, 0, 0.0, 0, 0, row["instance"])
    return (
        row["method"],
        meta.family,
        meta.density,
        meta.n,
        meta.r,
        meta.p_lo,
        meta.seed,
        row["instance"],
    )


def _mean_rows(rows: Sequence[dict]) -> list[dict]:
    # Group means by (method, family, density, n) and by (method,
    # family, density); members missing a value are skipped per column.
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        meta = row["_meta"]
        if meta is None:
            continue
        by_n = (row["method"], meta.family, meta.density_key, meta.density_text, meta.n)
        groups.setdefault(by_n, []).append(row)
        overall = (row["method"], meta.family, meta.density_key, meta.density_text, None)
        groups.setdefault(overall, []).append(row)

    def sort_key(item):
        (method, family, key, density_text, n), _ = item
        return (method, family, float(density_text), n is None, n or 0)

    out = []
    for (method, family, key, density_text, n), members in sorted(
        groups.items(), key=sort_key
    ):
        label = f"{key}={density_text}" + ("" if n is None else f",n={n}")
        row = {
            "set": label,
            "method": method,
            "instance": f"mean of {len(members)}",
            "status": "",
            "_meta": None,
            "_aggregate": True,
        }
        for column in CSV_COLUMNS[4:]:
            values = [m[column] for m in members if m[column] is not None]
            row[column] = sum(values) / len(values) if values else None
        out.append(row)
    return out


def run_bench(
    directory: str | Path,
    methods: Sequence[str] = ("bb",),
    time_limit: Optional[float] = 1800.0,
    timing: bool = True,
    workers: int = 1,
) -> list[dict]:
    """Solve every *.spedac file under directory with every method.

    workers (at least 1) processes share the tasks, one per task at most.
    """
    check_time_limit(time_limit)
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers!r}")
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}; pick one of {', '.join(METHODS)}")
    paths = sorted(Path(directory).glob(f"*{SUFFIX}"))
    tasks = [
        (str(path), method, time_limit, timing)
        for method in methods
        for path in paths
    ]
    workers = min(workers, len(tasks))
    if workers > 1:
        # Imported here: the process pool machinery costs about 1.5 MB of
        # resident memory, which serial sweeps and the other commands skip.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_solve_task, tasks))
    else:
        rows = [_solve_task(task) for task in tasks]
    rows.sort(key=_row_sort_key)
    rows.extend(_mean_rows(rows))
    return rows


def _format_cell(column: str, value, aggregate: bool) -> str:
    if value is None:
        return ""
    if column in ("LB", "UB"):
        return f"{value:.1f}" if aggregate else str(value)
    if column in ("Sec best", "Sec tot"):
        return f"{value:.3f}"
    if column == "Opt gap %":
        return f"{value:.5f}"
    return str(value)


def render_bench_csv(rows: Sequence[dict]) -> str:
    """CSV text with the versioned schema comment on the first line."""
    buffer = io.StringIO()
    buffer.write(CSV_SCHEMA_COMMENT + "\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow(
            [row["set"], row["method"], row["instance"], row["status"]]
            + [
                _format_cell(col, row[col], row["_aggregate"])
                for col in CSV_COLUMNS[4:]
            ]
        )
    return buffer.getvalue()


def write_bench_csv(rows: Sequence[dict], path: str | Path) -> None:
    Path(path).write_text(render_bench_csv(rows), encoding="ascii", newline="\n")
