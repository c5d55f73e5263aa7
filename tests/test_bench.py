"""Benchmark harness: file names, sweep rows, aggregation, CSV."""

from __future__ import annotations

import csv
import io
import math

import pytest

from spedac import (
    RandomConfig,
    SmallWorldConfig,
    brute_force,
    generate_random,
    generate_small_world,
    save_instance,
)
from spedac.bench import (
    CSV_COLUMNS,
    CSV_SCHEMA_COMMENT,
    BenchName,
    bench_filename,
    parse_bench_filename,
    render_bench_csv,
    run_bench,
    solve_with_method,
    write_bench_csv,
)


def _fill_directory(tmp_path, n_values=(8, 10), seeds=(0, 1, 2)):
    for n in n_values:
        for seed in seeds:
            m = round(0.4 * n * (n - 1))
            r = 20 / (m * (m - 1))
            config = RandomConfig(n=n, d=0.4, r=r, penalty_range=(5, 50), seed=seed)
            name = bench_filename("random", n, "d", 0.4, r, 5, 50, seed)
            save_instance(generate_random(config), tmp_path / name)
    return tmp_path


# --- file names -----------------------------------------------------------

# Names of the bench grammar whose density or r is no finite number.
BAD_NUMBER_NAMES = [
    "random_n8_dabc_r0.01_p5-50_s0.spedac",
    "random_n8_d0.4_rx_p5-50_s0.spedac",
    "random_n8_d_r0.01_p5-50_s0.spedac",
    "random_n8_dnan_r0.01_p5-50_s0.spedac",
    "random_n8_d0.4_rinf_p5-50_s0.spedac",
]


def test_filename_round_trip():
    name = bench_filename("random", 300, "d", 0.2, 1e-05, 25, 125, 7)
    assert name == "random_n300_d0.2_r1e-05_p25-125_s7.spedac"
    meta = parse_bench_filename(name)
    assert meta == BenchName(
        family="random",
        n=300,
        density_key="d",
        density_text="0.2",
        r_text="1e-05",
        p_lo=25,
        p_hi=125,
        seed=7,
    )
    assert meta.density == 0.2
    assert meta.r == 1e-05


def test_filename_round_trip_small_world():
    name = bench_filename("smallworld", 100, "k", 0.15, 0.001, 1, 20, 3)
    assert name == "smallworld_n100_k0.15_r0.001_p1-20_s3.spedac"
    meta = parse_bench_filename(name)
    assert (meta.family, meta.density_key, meta.density_text) == (
        "smallworld", "k", "0.15",
    )
    assert meta.n == 100 and meta.seed == 3


def test_filename_parse_rejections():
    with pytest.raises(ValueError, match="does not end"):
        parse_bench_filename("random_n10_d0.2_r0_p1-9_s0.txt")
    with pytest.raises(ValueError, match="does not match"):
        parse_bench_filename("random_n10_d0.2_p1-9_s0.spedac")
    with pytest.raises(ValueError, match="does not match"):
        parse_bench_filename("random_n10_q0.2_r0_p1-9_s0.spedac")
    with pytest.raises(ValueError, match="non-numeric"):
        parse_bench_filename("random_nten_d0.2_r0_p1-9_s0.spedac")
    for name in BAD_NUMBER_NAMES:
        with pytest.raises(ValueError, match="non-numeric"):
            parse_bench_filename(name)


# --- method dispatch ------------------------------------------------------

def test_solve_with_method_matches_direct_calls(golden):
    assert solve_with_method(golden, "bb").upper_bound == 7
    assert solve_with_method(golden, "brute").upper_bound == 7
    assert solve_with_method(golden, "heur").upper_bound == 7
    with pytest.raises(ValueError, match="unknown method"):
        solve_with_method(golden, "simplex")


# --- sweeps ---------------------------------------------------------------

def test_run_bench_rows_and_aggregates(tmp_path):
    _fill_directory(tmp_path)
    rows = run_bench(tmp_path, methods=("bb", "heur"), time_limit=60.0)
    singles = [row for row in rows if not row["_aggregate"]]
    means = [row for row in rows if row["_aggregate"]]
    assert len(singles) == 12  # 6 files x 2 methods
    # Per-instance rows sort by method, then density, n, seed.
    assert [row["method"] for row in singles] == ["bb"] * 6 + ["heur"] * 6
    bb_keys = [
        (parse_bench_filename(r["instance"]).n, parse_bench_filename(r["instance"]).seed)
        for r in singles[:6]
    ]
    assert bb_keys == sorted(bb_keys)
    for row in singles:
        if row["method"] == "bb":
            assert row["status"] == "Optimal"
            assert row["LB"] == row["UB"]
            assert row["Opt gap %"] == 0.0
        else:
            assert row["status"] == "Feasible"
            assert row["LB"] <= row["UB"]
        assert row["set"].startswith("d=0.4,n=")
    # Mean rows: per (method, density, n) plus one per (method, density).
    assert len(means) == 2 * (2 + 1)
    by_label = {(row["method"], row["set"]): row for row in means}
    overall = by_label[("bb", "d=0.4")]
    assert overall["instance"] == "mean of 6"
    group = [r for r in singles if r["method"] == "bb" and r["set"] == "d=0.4,n=8"]
    mean_row = by_label[("bb", "d=0.4,n=8")]
    assert mean_row["UB"] == pytest.approx(sum(r["UB"] for r in group) / len(group))
    assert mean_row["instance"] == "mean of 3"


def test_run_bench_matches_direct_solves(tmp_path):
    _fill_directory(tmp_path, n_values=(8,), seeds=(0, 1))
    rows = run_bench(tmp_path, methods=("brute",))
    singles = [row for row in rows if not row["_aggregate"]]
    for row in singles:
        instance = generate_random(
            RandomConfig(
                n=8,
                d=0.4,
                r=parse_bench_filename(row["instance"]).r,
                penalty_range=(5, 50),
                seed=parse_bench_filename(row["instance"]).seed,
            )
        )
        report = brute_force(instance)
        assert row["UB"] == report.upper_bound
        assert row["LB"] == report.lower_bound
        assert row["status"] == "Optimal"


def test_run_bench_survives_corrupt_files(tmp_path):
    _fill_directory(tmp_path, n_values=(8,), seeds=(0,))
    (tmp_path / "random_n8_d0.4_r0_p5-50_s9.spedac").write_text("SPEDAC 9\n")
    (tmp_path / "notes.txt").write_text("ignored\n")
    rows = run_bench(tmp_path, methods=("bb",))
    singles = [row for row in rows if not row["_aggregate"]]
    assert len(singles) == 2
    bad = next(r for r in singles if r["instance"].endswith("_s9.spedac"))
    assert bad["status"].startswith("ParseError")
    assert bad["LB"] is None and bad["Opt gap %"] is None
    good = next(r for r in singles if r["instance"].endswith("_s0.spedac"))
    assert good["status"] == "Optimal"
    # The corrupt member drops out of means per column, not per row.
    mean = next(r for r in rows if r["_aggregate"] and r["set"] == "d=0.4,n=8")
    assert mean["instance"] == "mean of 2"
    assert mean["UB"] == good["UB"]


def test_run_bench_solves_badly_numbered_names_as_ungrouped_rows(tmp_path):
    _fill_directory(tmp_path, n_values=(8,), seeds=(0, 1))
    text = sorted(tmp_path.glob("*.spedac"))[0].read_text()
    for name in BAD_NUMBER_NAMES:
        (tmp_path / name).write_text(text)
    (tmp_path / "x.spedac").mkdir()
    rows = run_bench(tmp_path, methods=("bb", "heur"), timing=False)
    singles = [row for row in rows if not row["_aggregate"]]
    assert sorted(r["instance"] for r in singles) == sorted(
        [p.name for p in tmp_path.iterdir()] * 2
    )
    for row in singles:
        if row["instance"] in BAD_NUMBER_NAMES:
            assert row["set"] == "" and row["status"] in ("Optimal", "Feasible")
        elif row["instance"] == "x.spedac":
            assert row["set"] == "" and row["status"].startswith("ReadError")
        else:
            assert row["set"] == "d=0.4,n=8"
    means = [row for row in rows if row["_aggregate"]]
    assert sorted((r["method"], r["set"], r["instance"]) for r in means) == [
        (m, label, "mean of 2") for m in ("bb", "heur") for label in ("d=0.4", "d=0.4,n=8")
    ]


def test_run_bench_runs_a_repeated_method_once(tmp_path):
    _fill_directory(tmp_path, n_values=(8,), seeds=(0, 1))
    once = render_bench_csv(run_bench(tmp_path, methods=("bb",), timing=False))
    assert render_bench_csv(run_bench(tmp_path, methods=("bb", "bb"), timing=False)) == once


@pytest.mark.parametrize(
    "corrupt", [b"SPEDAC 1\n2 -5 5 0 1\n", b"SPEDAC 1\n2 1 0 0 1\n0 1 \xff\n"]
)
def test_bench_csv_reports_undecodable_and_negative_count_files(tmp_path, corrupt):
    _fill_directory(tmp_path, n_values=(8,), seeds=(0,))
    (tmp_path / "random_n8_d0.4_r0_p5-50_s9.spedac").write_bytes(corrupt)
    text = render_bench_csv(run_bench(tmp_path, methods=("bb",), timing=False))
    records = list(csv.DictReader(io.StringIO(text.split("\n", 1)[1])))
    bad = next(r for r in records if r["instance"].endswith("_s9.spedac"))
    assert bad["status"].startswith("ParseError: line ")
    assert bad["UB"] == ""
    good = next(r for r in records if r["instance"].endswith("_s0.spedac"))
    assert good["status"] == "Optimal"
    assert good["UB"] != ""


def test_run_bench_rejects_unknown_method(tmp_path):
    with pytest.raises(ValueError, match="unknown method"):
        run_bench(tmp_path, methods=("bb", "magic"))


def test_run_bench_timing_flag_zeroes_clock_columns(tmp_path):
    _fill_directory(tmp_path, n_values=(8,), seeds=(0, 1))
    rows = run_bench(tmp_path, methods=("bb",), timing=False)
    singles = [row for row in rows if not row["_aggregate"]]
    assert all(row["Sec best"] == 0.0 and row["Sec tot"] == 0.0 for row in singles)
    again = run_bench(tmp_path, methods=("bb",), timing=False)
    assert render_bench_csv(rows) == render_bench_csv(again)


def test_run_bench_parallel_matches_serial(tmp_path):
    _fill_directory(tmp_path, n_values=(8,), seeds=(0, 1, 2))
    serial = run_bench(tmp_path, methods=("bb", "brute"), timing=False)
    parallel = run_bench(tmp_path, methods=("bb", "brute"), timing=False, workers=2)
    assert render_bench_csv(serial) == render_bench_csv(parallel)


def test_run_bench_starts_no_more_workers_than_tasks(tmp_path, monkeypatch):
    # The pool is faked: it records its size and maps in-process, so no
    # process starts, whatever size is asked for.
    import concurrent.futures

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    _fill_directory(tmp_path, n_values=(8,), seeds=(0, 1))
    serial = run_bench(tmp_path, methods=("bb",), timing=False)
    assert run_bench(tmp_path, methods=("bb",), timing=False, workers=64) == serial
    assert sizes == [2]
    sorted(tmp_path.glob("*.spedac"))[1].unlink()
    run_bench(tmp_path, methods=("bb",), timing=False, workers=64)
    assert sizes == [2]  # one task runs serially


@pytest.mark.parametrize("workers", [0, -2])
def test_run_bench_rejects_fewer_than_one_worker(tmp_path, workers):
    with pytest.raises(ValueError, match="workers must be at least 1"):
        run_bench(tmp_path, workers=workers)


def test_run_bench_small_world_family(tmp_path):
    for seed in (0, 1):
        config = SmallWorldConfig(n=12, k=0.2, beta=0.5, r=0.01, seed=seed)
        name = bench_filename("smallworld", 12, "k", 0.2, 0.01, 1, 20, seed)
        save_instance(generate_small_world(config), tmp_path / name)
    rows = run_bench(tmp_path, methods=("bb",))
    singles = [row for row in rows if not row["_aggregate"]]
    assert [row["set"] for row in singles] == ["k=0.2,n=12"] * 2
    assert all(row["status"] == "Optimal" for row in singles)


# --- CSV ------------------------------------------------------------------

def test_csv_schema_and_formatting(tmp_path):
    _fill_directory(tmp_path, n_values=(8,), seeds=(0, 1))
    rows = run_bench(tmp_path, methods=("bb",))
    text = render_bench_csv(rows)
    lines = text.splitlines()
    assert lines[0] == CSV_SCHEMA_COMMENT == "# spedac bench csv v1"
    parsed = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    assert parsed[0] == CSV_COLUMNS
    assert CSV_COLUMNS == [
        "set", "method", "instance", "status",
        "LB", "UB", "Sec best", "Sec tot", "Opt gap %",
    ]
    body = parsed[1:]
    assert len(body) == len(rows)
    for record, row in zip(body, rows):
        assert len(record) == len(CSV_COLUMNS)
        if row["_aggregate"]:
            assert record[2].startswith("mean of")
            assert "." in record[4]  # aggregate LB rendered as a float
        else:
            assert record[4] == str(row["LB"])  # per-instance LB stays integer
            assert float(record[4]) == math.floor(float(record[4]))
        assert record[8] == "0.00000"
        # Sec columns carry exactly three decimals.
        assert record[6].count(".") == 1 and len(record[6].split(".")[1]) == 3


def test_csv_quotes_comma_bearing_sets(tmp_path):
    _fill_directory(tmp_path, n_values=(8,), seeds=(0,))
    text = render_bench_csv(run_bench(tmp_path, methods=("bb",)))
    assert '"d=0.4,n=8"' in text


def test_write_bench_csv_lf_bytes(tmp_path):
    _fill_directory(tmp_path, n_values=(8,), seeds=(0,))
    rows = run_bench(tmp_path, methods=("bb",), timing=False)
    out = tmp_path / "report.csv"
    write_bench_csv(rows, out)
    raw = out.read_bytes()
    assert b"\r" not in raw
    assert raw.decode("ascii") == render_bench_csv(rows)
