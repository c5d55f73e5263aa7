"""Command-line interface: artifacts, stdout reports, exit codes."""

from __future__ import annotations

import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spedac
from spedac import (
    RandomConfig,
    SmallWorldConfig,
    export_flow_model,
    generate_random,
    generate_small_world,
    render_instance,
    save_instance,
)
from spedac.bench import CSV_SCHEMA_COMMENT
from spedac.cli import main


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


def _golden_file(tmp_path, golden):
    path = tmp_path / "golden.spedac"
    save_instance(golden, path)
    return path


# --- generation -----------------------------------------------------------

def test_gen_random_matches_library(tmp_path, capsys):
    out = tmp_path / "inst.spedac"
    code = main([
        "gen-random", "--n", "20", "--d", "0.3", "--r", "0.002",
        "--seed", "4", "--out", str(out),
    ])
    assert code == 0
    assert capsys.readouterr().out.strip() == str(out)
    expected = generate_random(RandomConfig(n=20, d=0.3, r=0.002, seed=4))
    assert out.read_text(encoding="ascii") == render_instance(expected)


def test_gen_random_out_dir_names_the_file(tmp_path):
    code = main([
        "gen-random", "--n", "15", "--d", "0.2", "--r", "0.01",
        "--penalty", "5", "50", "--seed", "2", "--out-dir", str(tmp_path),
    ])
    assert code == 0
    produced = list(tmp_path.iterdir())
    assert [p.name for p in produced] == ["random_n15_d0.2_r0.01_p5-50_s2.spedac"]


def test_gen_smallworld_matches_library(tmp_path):
    out = tmp_path / "sw.spedac"
    code = main([
        "gen-smallworld", "--n", "30", "--k", "0.2", "--beta", "0.4",
        "--r", "0.001", "--seed", "1", "--out", str(out),
    ])
    assert code == 0
    expected = generate_small_world(
        SmallWorldConfig(n=30, k=0.2, beta=0.4, r=0.001, seed=1)
    )
    assert out.read_text(encoding="ascii") == render_instance(expected)


def test_gen_profile_with_flag_override(tmp_path):
    profile = tmp_path / "family.profile"
    profile.write_text(
        "# base family\nn=12\nd=0.3\nr=0.002\nseed=3\npenalty_lo=5\npenalty_hi=9\n"
    )
    out = tmp_path / "inst.spedac"
    code = main([
        "gen-random", "--profile", str(profile), "--seed", "5", "--out", str(out),
    ])
    assert code == 0
    expected = generate_random(
        RandomConfig(n=12, d=0.3, r=0.002, penalty_range=(5, 9), seed=5)
    )
    assert out.read_text(encoding="ascii") == render_instance(expected)


@pytest.mark.parametrize(
    "argv, expected, name",
    [
        (
            ["gen-random", "--n", "12", "--d", "0.3", "--r", "0.002", "--seed", "5"],
            lambda: generate_random(RandomConfig(n=12, d=0.3, r=0.002, seed=5)),
            "random_n12_d0.3_r0.002_p25-125_s5.spedac",
        ),
        (
            ["gen-smallworld", "--n", "30", "--k", "0.2", "--r", "0.001"],
            lambda: generate_small_world(SmallWorldConfig(n=30, k=0.2, r=0.001)),
            "smallworld_n30_k0.2_r0.001_p1-20_s0.spedac",
        ),
    ],
)
def test_gen_defaults_are_the_configs(tmp_path, argv, expected, name):
    # No optional flag: the weights, penalties, beta and seed are the
    # config's defaults, in the file and in its name.
    out = tmp_path / "inst.spedac"
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_text(encoding="ascii") == render_instance(expected())
    assert main([*argv, "--out-dir", str(tmp_path / "set")]) == 0
    assert [p.name for p in (tmp_path / "set").iterdir()] == [name]
    assert (tmp_path / "set" / name).read_bytes() == out.read_bytes()


def test_gen_random_ignores_profile_keys_it_does_not_read(tmp_path):
    profile = tmp_path / "family.profile"
    profile.write_text("n=12\nd=0.3\nr=0.002\nbeta=0.2\n")
    out = tmp_path / "inst.spedac"
    assert main(["gen-random", "--profile", str(profile), "--out", str(out)]) == 0
    expected = generate_random(RandomConfig(n=12, d=0.3, r=0.002))
    assert out.read_text(encoding="ascii") == render_instance(expected)


def test_gen_missing_parameter_exits_2(tmp_path, capsys):
    code = main(["gen-random", "--n", "10", "--d", "0.3", "--out",
                 str(tmp_path / "x.spedac")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, field",
    [
        (["gen-random", "--n", "10", "--d", "0.5", "--r", "nan"], "conflict ratio r"),
        (["gen-smallworld", "--n", "10", "--k", "inf", "--r", "0"], "k"),
    ],
)
def test_gen_non_finite_parameter_exits_2(tmp_path, capsys, argv, field):
    out = tmp_path / "x.spedac"
    assert main([*argv, "--out", str(out)]) == 2
    assert f"error: {field} must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_gen_unsatisfiable_exits_3(tmp_path, capsys):
    code = main([
        "gen-random", "--n", "10", "--d", "0.2", "--r", "3.0",
        "--out", str(tmp_path / "x.spedac"),
    ])
    assert code == 3
    assert "error:" in capsys.readouterr().err


# --- solve ----------------------------------------------------------------

def test_solve_bb_golden(tmp_path, capsys, golden):
    path = _golden_file(tmp_path, golden)
    code = main(["solve", str(path), "--method", "bb"])
    out = capsys.readouterr().out
    assert code == 0
    for line in (
        "method: bb",
        "status: Optimal",
        "lb: 7",
        "ub: 7",
        "gap_pct: 0.00000",
        "objective: 7",
        "arc_cost: 7",
        "penalty_cost: 0",
        "violated_conflicts: ",
        "path: 0 1 3 4 6",
    ):
        assert line in out


def test_solve_heur_golden(tmp_path, capsys, golden):
    path = _golden_file(tmp_path, golden)
    code = main(["solve", str(path), "--method", "heur", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "status: Feasible" in out
    assert "lb: 5" in out
    assert "ub: 7" in out


def test_solve_no_timing_zeroes_seconds(tmp_path, capsys, golden):
    path = _golden_file(tmp_path, golden)
    assert main(["solve", str(path), "--no-timing"]) == 0
    out = capsys.readouterr().out
    assert "sec_best: 0.000" in out
    assert "sec_tot: 0.000" in out


def test_solve_infeasible_reports_no_path(tmp_path, capsys):
    path = tmp_path / "dead.spedac"
    path.write_text("SPEDAC 1\n3 1 0 0 2\n1 0 4\n")
    code = main(["solve", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "status: Infeasible" in out
    assert "lb: inf" in out
    assert "path: none" in out
    assert "gap_pct: undefined" in out


def test_solve_brute_guard_exits_3(tmp_path, capsys):
    instance = generate_random(RandomConfig(n=12, d=0.5, r=0.0, seed=0))
    path = tmp_path / "big.spedac"
    save_instance(instance, path)
    code = main(["solve", str(path), "--method", "brute", "--time-limit", "0"])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_solve_bb_too_deep_for_the_recursion_exits_3(tmp_path, capsys, chain_builder):
    path = tmp_path / "chain.spedac"
    save_instance(chain_builder(1500), path)
    code = main(["solve", str(path), "--method", "bb"])
    assert code == 3
    assert "recursion" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "bench"])
@pytest.mark.parametrize("limit", ["nan", "-1"])
def test_time_limit_rejects_nan_and_negatives(tmp_path, capsys, golden, command, limit):
    # NaN compares false with every deadline, so it would disable them all.
    path = _golden_file(tmp_path, golden)
    argv = [command, str(path if command == "solve" else tmp_path), f"--time-limit={limit}"]
    if command == "bench":
        argv += ["--out", str(tmp_path / "bench.csv")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "time limit must be a non-negative number" in capsys.readouterr().err
    assert not (tmp_path / "bench.csv").exists()


@pytest.mark.parametrize("workers", ["0", "-1", "1.5", "two"])
def test_bench_workers_must_be_at_least_one(tmp_path, capsys, workers):
    argv = ["bench", str(tmp_path), f"--workers={workers}", "--out", str(tmp_path / "bench.csv")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "workers must be a whole number of at least 1" in capsys.readouterr().err
    assert not (tmp_path / "bench.csv").exists()


def test_solve_missing_file_exits_2(tmp_path, capsys):
    code = main(["solve", str(tmp_path / "absent.spedac")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


# --- export ---------------------------------------------------------------

def test_export_stdout_matches_library(tmp_path, capsys, golden):
    path = _golden_file(tmp_path, golden)
    assert main(["export", str(path)]) == 0
    assert capsys.readouterr().out == export_flow_model(golden).render()


def test_export_to_file_matches_library(tmp_path, capsys, golden):
    path = _golden_file(tmp_path, golden)
    out = tmp_path / "model.lp"
    assert main(["export", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().out.strip() == str(out)
    text = out.read_text(encoding="ascii")
    assert text == export_flow_model(golden).render()
    assert "sec-mode: mtz" in text


@pytest.mark.parametrize("mode", ["mtz", "omit"])
def test_export_has_no_sec_mode_flag(tmp_path, capsys, golden, mode):
    # The model always carries its MTZ rows; the flag that chose them is gone.
    path = _golden_file(tmp_path, golden)
    out = tmp_path / "model.lp"
    with pytest.raises(SystemExit) as exc:
        main(["export", str(path), "--sec-mode", mode, "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --sec-mode" in capsys.readouterr().err
    assert not out.exists()


# --- bench ----------------------------------------------------------------

def test_bench_writes_csv(tmp_path, capsys, golden):
    bench_dir = tmp_path / "set"
    bench_dir.mkdir()
    save_instance(golden, bench_dir / "random_n7_d0.29_r0.045_p10-10_s0.spedac")
    out = tmp_path / "report.csv"
    code = main([
        "bench", str(bench_dir), "--method", "bb", "--method", "heur",
        "--out", str(out), "--no-timing",
    ])
    assert code == 0
    lines = out.read_text(encoding="ascii").splitlines()
    assert lines[0] == CSV_SCHEMA_COMMENT
    assert lines[1].startswith("set,method,instance,status")
    assert any(",bb," in line and "Optimal" in line for line in lines)
    assert any(",heur," in line and "Feasible" in line for line in lines)


@pytest.mark.parametrize("case, time_limit, status", [
    ("golden", "1800", "Optimal"),
    ("dead", "1800", "Infeasible"),
    ("random", "0", "TimeLimit"),
])
def test_solve_and_bench_print_one_outcome(tmp_path, capsys, golden, case, time_limit, status):
    # solve's inf and undefined are bench's empty cells.
    bench_dir = tmp_path / "set"
    bench_dir.mkdir()
    path = bench_dir / f"{case}.spedac"
    if case == "golden":
        save_instance(golden, path)
    elif case == "dead":
        path.write_text("SPEDAC 1\n3 1 0 0 2\n1 0 4\n")
    else:
        save_instance(generate_random(RandomConfig(n=60, d=0.05, r=1e-3, seed=0)), path)
    assert main(["solve", str(path), "--time-limit", time_limit, "--no-timing"]) == 0
    printed = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    out = tmp_path / "report.csv"
    assert main(["bench", str(bench_dir), "--time-limit", time_limit, "--no-timing",
                 "--out", str(out)]) == 0
    text = out.read_text(encoding="ascii")
    [row] = csv.DictReader(io.StringIO(text.split("\n", 1)[1]))
    assert printed["status"] == row["status"] == status
    blank = {"inf": "", "undefined": ""}
    assert [blank.get(printed[key], printed[key]) for key in ("lb", "ub", "gap_pct")] == [
        row["LB"], row["UB"], row["Opt gap %"]
    ]


@pytest.mark.parametrize("target", ["absent", "report.csv"])
def test_bench_needs_a_directory(tmp_path, capsys, target):
    # A missing directory and a file are both input errors, not empty sweeps.
    (tmp_path / "report.csv").write_text("set\n")
    out = tmp_path / "out" / "bench.csv"
    code = main(["bench", str(tmp_path / target), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {tmp_path / target} is not a directory")
    assert not out.exists()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_bench_survives_a_recursion_error(tmp_path, capsys, golden, chain_builder, workers):
    bench_dir = tmp_path / "set"
    bench_dir.mkdir()
    save_instance(golden, bench_dir / "random_n7_d0.29_r0.045_p10-10_s0.spedac")
    save_instance(chain_builder(1500), bench_dir / "chain_n1500.spedac")
    out = tmp_path / "report.csv"
    code = main([
        "bench", str(bench_dir), "--method", "bb", "--workers", workers,
        "--out", str(out), "--no-timing",
    ])
    assert code == 0
    text = out.read_text(encoding="ascii")
    rows = {r["instance"]: r for r in csv.DictReader(io.StringIO(text.split("\n", 1)[1]))}
    assert rows["chain_n1500.spedac"]["status"].startswith("RecursionError: ")
    assert rows["chain_n1500.spedac"]["UB"] == ""
    assert rows["random_n7_d0.29_r0.045_p10-10_s0.spedac"]["status"] == "Optimal"


# --- validate -------------------------------------------------------------

def test_validate_ok(tmp_path, capsys, golden):
    path = _golden_file(tmp_path, golden)
    assert main(["validate", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.strip() == "ok: 7 vertices, 12 arcs, 3 conflicts, source 0, sink 6"


def test_validate_corrupt_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.spedac"
    path.write_text("SPEDAC 1\n7 12 3 0\n")
    assert main(["validate", str(path)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_validate_structural_error_exits_2(tmp_path, capsys, golden):
    text = render_instance(golden).replace("0 2 1\n", "0 1 3\n", 1)
    path = tmp_path / "dup.spedac"
    path.write_text(text)
    assert main(["validate", str(path)]) == 2
    assert "duplicate arc" in capsys.readouterr().err


def test_repeated_main_calls_share_no_parsed_state(tmp_path, capsys, golden):
    bench_dir = tmp_path / "set"
    bench_dir.mkdir()
    save_instance(golden, bench_dir / "random_n7_d0.29_r0.045_p10-10_s0.spedac")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["bench", str(bench_dir), "--method", "heur", "--no-timing",
                 "--out", str(a)]) == 0
    assert main(["bench", str(bench_dir), "--no-timing", "--out", str(b)]) == 0
    for path, method in ((a, "heur"), (b, "bb")):
        text = path.read_text(encoding="ascii")
        rows = list(csv.DictReader(io.StringIO(text.split("\n", 1)[1])))
        assert {row["method"] for row in rows} == {method}
    with pytest.raises(SystemExit) as exc:
        main(["solve"])  # missing the instance argument
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["validate", str(_golden_file(tmp_path, golden))]) == 0
    assert capsys.readouterr().out == "ok: 7 vertices, 12 arcs, 3 conflicts, source 0, sink 6\n"


# --- process-level behavior -----------------------------------------------

def test_version_flag():
    proc = _run_cli("--version")
    assert proc.returncode == 0
    assert proc.stdout.strip() == f"spedac {spedac.__version__}"


def test_subprocess_artifacts_are_byte_identical(tmp_path, golden):
    path = _golden_file(tmp_path, golden)
    runs = [
        _run_cli("solve", str(path), "--no-timing") for _ in range(2)
    ]
    assert runs[0].returncode == runs[1].returncode == 0
    assert runs[0].stdout == runs[1].stdout
    gens = [
        _run_cli(
            "gen-random", "--n", "18", "--d", "0.25", "--r", "0.004",
            "--out", str(tmp_path / f"g{i}.spedac"),
        )
        for i in range(2)
    ]
    assert all(p.returncode == 0 for p in gens)
    a = (tmp_path / "g0.spedac").read_bytes()
    b = (tmp_path / "g1.spedac").read_bytes()
    assert a == b


def test_usage_error_exit_code():
    proc = _run_cli("solve")  # missing the instance argument
    assert proc.returncode == 2
    assert "usage" in proc.stderr.lower()
