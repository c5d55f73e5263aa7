"""Acceptance gate: one test per shipping criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

from __future__ import annotations

import csv
import io
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import spedac
from spedac import (
    ArcRecord,
    ConflictRecord,
    Instance,
    RandomConfig,
    SmallWorldConfig,
    SolveStatus,
    arc_count,
    branch_and_bound,
    brute_force,
    conflict_count,
    dijkstra,
    enumerate_simple_paths,
    evaluate,
    export_flow_model,
    generate_random,
    generate_small_world,
    induced_assignment,
    local_search,
    render_instance,
    ring_degree,
    save_instance,
    validate_selection,
    verify_model_at_point,
)
from spedac.bench import (
    CSV_COLUMNS,
    CSV_SCHEMA_COMMENT,
    bench_filename,
    render_bench_csv,
    run_bench,
)


@contextmanager
def _criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE FAIL - {name}")
        raise
    print(f"\nACCEPTANCE PASS - {name}")


def _run_cli(*argv: str) -> subprocess.CompletedProcess:
    # The child imports the same spedac as the tests, installed or not.
    package_root = str(Path(spedac.__file__).parents[1])
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "spedac.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_criterion_1_reference_instance_solved_by_all_methods(golden):
    with _criterion("reference instance: every solver finds objective 7"):
        start = time.perf_counter()
        for solve in (brute_force, branch_and_bound, local_search):
            report = solve(golden)
            solution = report.incumbent
            assert solution.objective == 7
            assert solution.vertices == (0, 1, 3, 4, 6)
            assert solution.violated_conflicts == frozenset()
            assert report.upper_bound == 7
            if solve is local_search:
                assert report.status is SolveStatus.FEASIBLE
            else:
                assert report.status is SolveStatus.OPTIMAL
                assert report.lower_bound == 7
        assert time.perf_counter() - start < 1.0


def test_criterion_2_branch_and_bound_exact_on_sweep():
    with _criterion("branch and bound matches exhaustive search on 208 instances"):
        start = time.perf_counter()
        solved = 0
        for n in (6, 8, 10, 12):
            for d in (0.2, 0.4):
                m = arc_count(n, d)
                r = 30 / (m * (m - 1))  # at most 15 conflicts
                for penalties in ((25, 125), (1, 20)):
                    for seed in range(13):
                        instance = generate_random(
                            RandomConfig(
                                n=n, d=d, r=r, penalty_range=penalties, seed=seed
                            )
                        )
                        exact = brute_force(instance)
                        bb = branch_and_bound(instance)
                        assert bb.status is exact.status
                        assert bb.upper_bound == exact.upper_bound
                        assert bb.lower_bound == bb.upper_bound
                        if bb.incumbent is not None:
                            check = evaluate(instance, bb.incumbent.vertices)
                            assert check.objective == exact.upper_bound
                        solved += 1
        assert solved == 208
        assert time.perf_counter() - start < 60.0


def test_criterion_3_conflict_free_reduces_to_shortest_path():
    with _criterion("without conflicts the solver equals plain shortest path"):
        solved = 0
        for n in (10, 20, 30, 40, 50):
            for d in (0.2, 0.3):
                for seed in range(5):
                    instance = generate_random(
                        RandomConfig(n=n, d=d, r=0.0, seed=seed)
                    )
                    assert instance.conflicts == ()
                    dist, _ = dijkstra(instance)
                    report = branch_and_bound(instance)
                    assert report.status is SolveStatus.OPTIMAL
                    assert report.upper_bound == dist[instance.sink]
                    assert report.incumbent.penalty_cost == 0
                    solved += 1
        assert solved == 50


def test_criterion_4_penalty_term_truth_table():
    with _criterion("penalty term charges both-or-neither, never exactly-one"):
        # One conflict on arcs (0,1) and (1,3); the four 0-3 paths use
        # both, neither and each one alone.
        arcs = tuple(
            ArcRecord(tail, head, 1)
            for tail, head in ((0, 1), (1, 3), (0, 2), (2, 3), (1, 2), (2, 1))
        )
        uses = {  # path -> (x_a, x_b)
            (0, 1, 3): (1, 1),
            (0, 2, 3): (0, 0),
            (0, 1, 2, 3): (1, 0),
            (0, 2, 1, 3): (0, 1),
        }
        rng = random.Random(20260814)
        penalties = [rng.randint(1, 10_000) for _ in range(100)]
        for p in penalties:
            instance = Instance(
                vertex_count=4, arcs=arcs, conflicts=(ConflictRecord(0, 1, p),),
                source=0, sink=3,
            )
            model = export_flow_model(instance)
            for path, (x_a, x_b) in uses.items():
                charged = p * (1 - (x_a ^ x_b))
                assert charged == (p if x_a == x_b else 0)
                solution = evaluate(instance, path)
                assert solution.penalty_cost == charged
                objective, violated = verify_model_at_point(
                    model, induced_assignment(instance, solution)
                )
                assert violated == []
                assert objective == solution.arc_cost + charged


def test_criterion_5_generator_grids_hit_exact_counts():
    with _criterion("generator grids land exactly on the advertised counts"):
        r_menu = {
            100: (1e-3, 2e-3, 3e-3),
            200: (1e-4, 2e-4, 3e-4),
            300: (1e-5, 2e-5, 3e-5),
            400: (1e-5, 2e-5, 3e-5),
            500: (1e-5, 2e-5, 3e-5),
        }
        checked = 0
        for n, r_values in r_menu.items():
            for d in (0.1, 0.2, 0.3):
                m = arc_count(n, d)
                assert m == round(d * n * (n - 1))
                for r in r_values:
                    instance = generate_random(
                        RandomConfig(n=n, d=d, r=r, seed=checked)
                    )
                    assert instance.vertex_count == n
                    assert len(instance.arcs) == m
                    # Independent integer oracle for floor((r/2) m (m-1)).
                    scale = round(r * 1e6)
                    expected_c = (scale * m * (m - 1)) // 2_000_000
                    assert len(instance.conflicts) == expected_c
                    assert len(instance.conflicts) == conflict_count(r, m)
                    checked += 1
        assert checked == 45

        lattice_checked = 0
        for n in (100, 300, 500):
            for k in (0.1, 0.15, 0.3):
                # Nearest even integer to k*n, ties upward, by hand.
                twice = round(k * 1000) * n  # 1000*k*n, exact on this grid
                degree = 2 * ((twice + 1000) // 2000)
                assert degree == ring_degree(n, k)
                instance = generate_small_world(
                    SmallWorldConfig(n=n, k=k, beta=0.5, r=0.0, seed=lattice_checked)
                )
                assert len(instance.arcs) == n * degree
                lattice_checked += 1
        assert lattice_checked == 9

        sw = generate_small_world(
            SmallWorldConfig(n=100, k=0.15, beta=0.5, r=1e-4, seed=0)
        )
        m = 100 * 16
        assert len(sw.conflicts) == (m * (m - 1)) // 20_000


def test_criterion_6_model_export_agrees_with_the_solvers():
    with _criterion("exported models verify solver output exactly"):
        configs = []
        for n in (6, 7, 8):
            for d in (0.3, 0.4):
                for seed in range(9):
                    configs.append((n, d, seed))
        configs = configs[:50]
        assert len(configs) == 50
        for n, d, seed in configs:
            m = arc_count(n, d)
            r = 20 / (m * (m - 1))
            instance = generate_random(
                RandomConfig(n=n, d=d, r=r, penalty_range=(1, 30), seed=seed)
            )
            report = branch_and_bound(instance)
            assert report.status is SolveStatus.OPTIMAL
            optimum = report.upper_bound
            model = export_flow_model(instance)
            point = induced_assignment(instance, report.incumbent)
            objective, violated = verify_model_at_point(model, point)
            assert violated == []
            assert objective == Fraction(optimum)

            on_path = set(report.incumbent.arc_indices)
            arc_flags = [int(a in on_path) for a in range(len(instance.arcs))]
            assert validate_selection(instance, arc_flags) == report.incumbent

            for verts in enumerate_simple_paths(instance):
                solution = evaluate(instance, verts)
                objective, violated = verify_model_at_point(
                    model, induced_assignment(instance, solution)
                )
                assert violated == []
                assert objective == solution.objective
                assert objective >= optimum


def test_criterion_7_bench_harness_schema(tmp_path):
    with _criterion("benchmark sweep produces the versioned CSV schema"):
        for n in (8, 10):
            for seed in (0, 1):
                m = arc_count(n, 0.4)
                r = 20 / (m * (m - 1))
                save_instance(
                    generate_random(
                        RandomConfig(n=n, d=0.4, r=r, penalty_range=(5, 50), seed=seed)
                    ),
                    tmp_path / bench_filename("random", n, "d", 0.4, r, 5, 50, seed),
                )
        rows = run_bench(tmp_path, methods=("bb", "heur"), time_limit=60.0)
        text = render_bench_csv(rows)
        lines = text.splitlines()
        assert lines[0] == CSV_SCHEMA_COMMENT
        records = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
        assert records[0] == CSV_COLUMNS
        assert records[0] == [
            "set", "method", "instance", "status",
            "LB", "UB", "Sec best", "Sec tot", "Opt gap %",
        ]
        body = records[1:]
        assert len(body) == len(rows) == 8 + 2 * (2 + 1)
        for record in body:
            assert len(record) == len(CSV_COLUMNS)
            if record[1] == "bb" and record[3] == "Optimal":
                assert record[8] == "0.00000"
                assert record[4] == record[5] or "." in record[4]
        assert any(record[2].startswith("mean of") for record in body)


def test_criterion_8_artifacts_are_reproducible(tmp_path):
    with _criterion("repeated runs emit byte-identical artifacts"):
        gen_args = (
            "gen-random", "--n", "15", "--d", "0.3", "--r", "0.005",
            "--penalty", "5", "50", "--seed", "6",
        )
        outputs = []
        for i in range(2):
            out = tmp_path / f"gen{i}.spedac"
            proc = _run_cli(*gen_args, "--out", str(out))
            assert proc.returncode == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

        instance_path = tmp_path / "gen0.spedac"
        exports = [_run_cli("export", str(instance_path)) for _ in range(2)]
        assert exports[0].returncode == 0
        assert exports[0].stdout == exports[1].stdout

        validates = [_run_cli("validate", str(instance_path)) for _ in range(2)]
        assert validates[0].returncode == 0
        assert validates[0].stdout == validates[1].stdout

        solves = [
            _run_cli("solve", str(instance_path), "--no-timing") for _ in range(2)
        ]
        assert solves[0].returncode == 0
        assert solves[0].stdout == solves[1].stdout

        bench_dir = tmp_path / "bench"
        bench_dir.mkdir()
        for seed in (0, 1):
            save_instance(
                generate_random(RandomConfig(n=8, d=0.4, r=0.01, seed=seed)),
                bench_dir / bench_filename("random", 8, "d", 0.4, 0.01, 25, 125, seed),
            )
        frozen = []
        for i in range(2):
            out = tmp_path / f"report{i}.csv"
            proc = _run_cli(
                "bench", str(bench_dir), "--method", "bb", "--no-timing",
                "--out", str(out),
            )
            assert proc.returncode == 0
            frozen.append(out.read_bytes())
        assert frozen[0] == frozen[1]

        # With the clock on, everything except the Sec columns must agree.
        timed = []
        for i in range(2):
            out = tmp_path / f"timed{i}.csv"
            proc = _run_cli(
                "bench", str(bench_dir), "--method", "bb", "--out", str(out)
            )
            assert proc.returncode == 0
            records = list(
                csv.reader(io.StringIO(out.read_text(encoding="ascii")))
            )
            timed.append(
                [row[:6] + row[8:] for row in records[1:]]  # drop Sec columns
            )
        assert timed[0] == timed[1]

        # Library-level rebuild equals the file the CLI wrote.
        rebuilt = render_instance(
            generate_random(
                RandomConfig(n=15, d=0.3, r=0.005, penalty_range=(5, 50), seed=6)
            )
        )
        assert rebuilt.encode("ascii") == outputs[0]
