"""Command line front end.

Subcommands:

* gen-random      write one uniform-random instance
* gen-smallworld  write one small-world instance
* solve           solve an instance file (bb | heur | brute)
* export          write the LP-format flow model of an instance
* bench           sweep a directory of instances into one CSV
* validate        parse an instance file and report its shape

Exit codes: 0 success, 2 unparseable or invariant-violating input,
3 a guard or time limit struck before any incumbent was found, or the
search ran past the interpreter's recursion limit.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import Optional

from . import __version__
from .bench import (
    METHODS,
    bench_filename,
    run_bench,
    solve_with_method,
    write_bench_csv,
)
from .core import InvariantError
from .generators import (
    RandomConfig,
    SmallWorldConfig,
    UnsatisfiableConfigError,
    generate_random,
    generate_small_world,
    parse_profile,
)
from .instance_io import ParseError, load_instance, save_instance
from .model_export import export_flow_model
from .solvers import (
    INFINITY,
    GapUndefinedError,
    GuardExceededError,
    SolveStatus,
    check_time_limit,
    optimality_gap,
)

DEFAULT_TIME_LIMIT = 1800.0


def _time_limit(text: str) -> float:
    try:
        return check_time_limit(float(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"time limit must be a non-negative number of seconds, got {text!r}"
        ) from None


def _workers(text: str) -> int:
    if text.strip().isdecimal() and int(text) >= 1:
        return int(text)
    raise argparse.ArgumentTypeError(f"workers must be a whole number of at least 1, got {text!r}")


@functools.cache  # built once per process; parse_args keeps no state in it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spedac",
        description="Shortest paths with exclusive-disjunction arc-pair conflicts.",
    )
    parser.add_argument("--version", action="version", version=f"spedac {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_generator_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--n", type=int, help="vertex count")
        p.add_argument("--r", type=float, help="conflict ratio")
        p.add_argument("--penalty", type=int, nargs=2, metavar=("LO", "HI"),
                       help="penalty range (inclusive)")
        p.add_argument("--weights", type=int, nargs=2, metavar=("LO", "HI"),
                       help="arc weight range (inclusive)")
        p.add_argument("--seed", type=int,
                       help=f"generator seed (default {RandomConfig.seed})")
        p.add_argument("--profile", type=Path,
                       help="key=value profile file; explicit flags win")
        out = p.add_mutually_exclusive_group(required=True)
        out.add_argument("--out", type=Path, help="output instance file")
        out.add_argument("--out-dir", type=Path,
                         help="output directory; the file name encodes the configuration")

    p = sub.add_parser("gen-random", help="generate a uniform random instance")
    p.add_argument("--d", type=float, help="arc density in (0, 1]")
    add_generator_flags(p)

    p = sub.add_parser("gen-smallworld", help="generate a small-world instance")
    p.add_argument("--k", type=float, help="ring degree fraction")
    p.add_argument("--beta", type=float,
                   help=f"rewiring probability (default {SmallWorldConfig.beta})")
    add_generator_flags(p)

    p = sub.add_parser("solve", help="solve an instance file")
    p.add_argument("instance", type=Path)
    p.add_argument("--method", choices=METHODS, default="bb")
    p.add_argument("--time-limit", type=_time_limit, default=DEFAULT_TIME_LIMIT,
                   help="seconds (default 1800)")
    p.add_argument("--seed", type=int, default=0, help="heuristic seed")
    p.add_argument("--no-timing", action="store_true",
                   help="report all seconds fields as 0.000 (reproducible output)")

    p = sub.add_parser("export", help="write the LP-format flow model")
    p.add_argument("instance", type=Path)
    p.add_argument("--out", type=Path, help="output model file (default stdout)")

    p = sub.add_parser("bench", help="solve a directory of instances into a CSV")
    p.add_argument("directory", type=Path)
    p.add_argument("--method", choices=METHODS, action="append",
                   help="solver to run (repeatable; default bb)")
    p.add_argument("--time-limit", type=_time_limit, default=DEFAULT_TIME_LIMIT)
    p.add_argument("--out", type=Path, required=True, help="output CSV file")
    p.add_argument("--workers", type=_workers, default=1,
                   help="parallel worker processes, at most one per task (default 1)")
    p.add_argument("--no-timing", action="store_true",
                   help="report all seconds fields as 0.000 (reproducible output)")

    p = sub.add_parser("validate", help="parse an instance file and report its shape")
    p.add_argument("instance", type=Path)

    return parser


_CASTS = {"n": int, "r": float, "seed": int, "d": float, "k": float, "beta": float}


def _cmd_generate(args: argparse.Namespace, family: str) -> int:
    # The config gets only the fields that a flag or the profile sets and
    # fills in the rest from its own defaults.  A flag wins over the
    # profile; a profile key the family does not read is ignored.
    profile = parse_profile(args.profile.read_text(encoding="ascii")) if args.profile else {}
    if family == "random":
        make, generate, density, keys = RandomConfig, generate_random, "d", ("d",)
    else:
        make, generate, density, keys = SmallWorldConfig, generate_small_world, "k", ("k", "beta")
    fields = {}
    for key in ("n", "r", "seed", *keys):
        if getattr(args, key) is not None:
            fields[key] = getattr(args, key)
        elif key in profile:
            fields[key] = _CASTS[key](profile[key])
        elif key in ("n", "r", density):
            raise InvariantError(f"missing required parameter {key!r} (flag --{key} or profile)")
    for flag, stem in (("weights", "weight"), ("penalty", "penalty")):
        lo, hi = f"{stem}_lo", f"{stem}_hi"
        if getattr(args, flag) is not None:
            fields[f"{stem}_range"] = tuple(getattr(args, flag))
        elif lo in profile or hi in profile:
            if not (lo in profile and hi in profile):
                raise InvariantError(f"profile must set both {lo} and {hi}")
            fields[f"{stem}_range"] = (int(profile[lo]), int(profile[hi]))
    config = make(**fields)
    name = bench_filename(family, config.n, density, getattr(config, density), config.r,
                          *config.penalty_range, config.seed)
    out = args.out if args.out is not None else args.out_dir / name
    out.parent.mkdir(parents=True, exist_ok=True)
    save_instance(generate(config), out)
    print(out)
    return 0


def _fmt_bound(value: float) -> str:
    return "inf" if value == INFINITY else str(value)


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    report = solve_with_method(
        instance, args.method, time_limit=args.time_limit, seed=args.seed
    )
    try:
        gap = f"{optimality_gap(report.lower_bound, report.upper_bound):.5f}"
    except GapUndefinedError:
        gap = "undefined"
    sec_best = 0.0 if args.no_timing else report.seconds_to_best
    sec_tot = 0.0 if args.no_timing else report.seconds_total
    lines = [
        f"instance: {args.instance}",
        f"method: {args.method}",
        f"status: {report.status.value}",
        f"lb: {_fmt_bound(report.lower_bound)}",
        f"ub: {_fmt_bound(report.upper_bound)}",
        f"gap_pct: {gap}",
    ]
    if report.incumbent is not None:
        sol = report.incumbent
        lines += [
            f"objective: {sol.objective}",
            f"arc_cost: {sol.arc_cost}",
            f"penalty_cost: {sol.penalty_cost}",
            f"violated_conflicts: {' '.join(map(str, sorted(sol.violated_conflicts)))}",
            f"path: {' '.join(map(str, sol.vertices))}",
        ]
    else:
        lines.append("path: none")
    lines += [
        f"nodes: {report.nodes_explored}",
        f"sec_best: {sec_best:.3f}",
        f"sec_tot: {sec_tot:.3f}",
    ]
    print("\n".join(lines))
    if report.status is SolveStatus.TIME_LIMIT and report.incumbent is None:
        return 3
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    model = export_flow_model(instance)
    text = model.render()
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text, encoding="ascii", newline="\n")
        print(args.out)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    methods = args.method if args.method else ["bb"]
    rows = run_bench(
        args.directory,
        methods=methods,
        time_limit=args.time_limit,
        timing=not args.no_timing,
        workers=args.workers,
    )
    args.out.parent.mkdir(parents=True, exist_ok=True)
    write_bench_csv(rows, args.out)
    print(args.out)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    print(
        f"ok: {instance.vertex_count} vertices, {len(instance.arcs)} arcs,"
        f" {len(instance.conflicts)} conflicts,"
        f" source {instance.source}, sink {instance.sink}"
    )
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "gen-random": lambda a: _cmd_generate(a, "random"),
        "gen-smallworld": lambda a: _cmd_generate(a, "smallworld"),
        "solve": _cmd_solve,
        "export": _cmd_export,
        "bench": _cmd_bench,
        "validate": _cmd_validate,
    }
    try:
        return handlers[args.command](args)
    except (ParseError, InvariantError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GuardExceededError, UnsatisfiableConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RecursionError as exc:
        print(f"error: the path is too long for the recursive search ({exc})",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
