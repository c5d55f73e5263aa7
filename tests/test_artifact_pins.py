"""Byte pins of the artifacts spedac writes, by sha256 against one manifest.

Goldens, node counts, CSV and LP bytes stay identical unless a change
says why.  This test rebuilds every pinned artifact from the public
generators and ``cli.main`` and compares its digest with
``artifact_pins.json``:

* ``spedac export`` on the golden instance, the three ``pipeline`` large
  instances of perfbench seed 0, and random n1000 s639207, whose isolated
  vertex 785 has an empty flow row;
* ``spedac validate`` on the same instances;
* ``spedac solve --no-timing`` with bb, heur and brute on the golden
  instance and on one instance of each ``sweep`` slot;
* the ``spedac bench --method bb --method brute --no-timing`` CSV of the
  seed-0 ``pipeline`` sweep (eight files);
* ``render_instance`` of one generated instance per family;
* ``branch_and_bound`` on the 48 ``exact`` and 16 ``sweep`` pool instances
  of perfbench (status, LB, UB, nodes, the root bound and the incumbent's
  vertices) and ``brute_force`` on the ``sweep`` ones (UB, path count and
  vertices);
* ``local_search`` on the 28 ``heuristic`` pool instances of perfbench
  (UB, nodes, the incumbent's vertices and the number of ``dijkstra``
  calls, so that a memo that stops saving searches shows).

A change that alters an artifact on purpose refreshes the manifest with
``PYTHONPATH=src python tests/test_artifact_pins.py`` and states the
change in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
from pathlib import Path

from spedac import (
    RandomConfig,
    SmallWorldConfig,
    generate_random,
    generate_small_world,
    render_instance,
    save_instance,
)
from spedac import solvers
from spedac.cli import main
from spedac.solvers import _root, _Run, branch_and_bound, brute_force, local_search

MANIFEST = Path(__file__).resolve().parent / "artifact_pins.json"

# The seed-0 pipeline sweep: four files per slot, named by gen-*.
SWEEP = [
    ("gen-random", ["--n", "14", "--d", "0.3", "--r", "0.02"], (1002, 1027, 1059, 1065)),
    ("gen-smallworld", ["--n", "16", "--k", "0.25", "--r", "0.02"], (1024, 1031, 1032, 1069)),
]
# The solve pins take the first file of each slot.
SOLVED_SWEEP = ("random_n14_d0.3_r0.02_p25-125_s1002.spedac",
                "smallworld_n16_k0.25_r0.02_p1-20_s1024.spedac")
LARGE = {
    "random_n500_s585647": RandomConfig(n=500, d=0.01, r=1e-4, seed=585647),
    "random_n1000_s631049": RandomConfig(n=1000, d=0.004, r=1e-4, seed=631049),
    "smallworld_n600_s505815": SmallWorldConfig(n=600, k=0.01, r=1e-4, seed=505815),
    "random_n1000_s639207": RandomConfig(n=1000, d=0.004, r=1e-4, seed=639207),
}
RENDERED = ("random_n500_s585647", "smallworld_n600_s505815")
# perfbench's exact, sweep and heuristic pools (perfbench/pools.json), copied so
# that no benchmark file is read: each slot's config and its seeds.
EXACT_POOL = [
    (RandomConfig(n=30, d=0.15, r=0.001), (1001, 1038, 1042, 1043, 1051, 1089, 1172, 1242)),
    (RandomConfig(n=35, d=0.1, r=0.001), (1034, 1067, 1098, 1103, 1141, 1151, 1172, 1176)),
    (RandomConfig(n=40, d=0.08, r=0.001), (1002, 1019, 1076, 1083, 1117, 1184, 1291, 1330)),
    (RandomConfig(n=40, d=0.08, r=0.001), (1066, 1085, 1137, 1159, 1178, 1201, 1262, 1304)),
    (SmallWorldConfig(n=40, k=0.15, r=0.001), (1008, 1031, 1063, 1080, 1124, 1134, 1141, 1173)),
    (SmallWorldConfig(n=30, k=0.2, r=0.001), (1073, 1127, 1220, 1227, 1322, 1343, 1375, 1382)),
]
SWEEP_POOL = [
    (RandomConfig(n=14, d=0.3, r=0.02), (1002, 1008, 1027, 1028, 1040, 1059, 1065, 1068)),
    (SmallWorldConfig(n=16, k=0.25, r=0.02), (1015, 1024, 1031, 1032, 1034, 1055, 1069, 1070)),
]
HEURISTIC_POOL = [
    (RandomConfig(n=100, d=0.1, r=0.001), (1007, 1008, 1011, 1013, 1017, 1035)),
    (RandomConfig(n=200, d=0.05, r=0.0001), (1007, 1013, 1015, 1017, 1028, 1032)),
    (SmallWorldConfig(n=100, k=0.1, r=0.001), (1005, 1012, 1019, 1021, 1022, 1031, 1035, 1038)),
    (SmallWorldConfig(n=120, k=0.04, beta=0.0, r=0.001),
     (1001, 1008, 1016, 1026, 1031, 1033, 1037, 1038)),
]


def _cli(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == 0, (argv, out.getvalue())
    return out.getvalue()


def _generate(config):
    if isinstance(config, RandomConfig):
        return generate_random(config)
    return generate_small_world(config)


def pool_solves() -> str:
    """One line per solve of the pool instances, B&B on both pools and
    brute force on the sweep pool.  Also checks that ``_root`` alone gives
    the walk's root bound, its first ``on_node`` bound."""
    lines = []
    for pool, brute in ((EXACT_POOL, False), (SWEEP_POOL, True)):
        for slot, seeds in pool:
            for seed in seeds:
                config = dataclasses.replace(slot, seed=seed)
                instance = _generate(config)
                roots = []
                report = branch_and_bound(
                    instance, on_node=lambda path, bound: len(path) == 1 and roots.append(bound))
                assert _root(instance, _Run(None)).bound == roots[0]
                lines.append(f"bb {config} {report.status.value} {report.lower_bound}"
                             f" {report.upper_bound} {report.nodes_explored} {roots[0]}"
                             f" {report.incumbent.vertices}")
                if brute:
                    report = brute_force(instance)
                    lines.append(f"brute {config} {report.upper_bound}"
                                 f" {report.nodes_explored} {report.incumbent.vertices}")
    return "\n".join(lines) + "\n"


def heuristic_pool_solves() -> str:
    """One line per ``local_search`` of the heuristic pool instances,
    with the number of ``solvers.dijkstra`` calls the solve made."""
    search = solvers.dijkstra
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return search(*args, **kwargs)

    lines = []
    solvers.dijkstra = counted
    try:
        for slot, seeds in HEURISTIC_POOL:
            for seed in seeds:
                config = dataclasses.replace(slot, seed=seed)
                instance = _generate(config)
                calls = 0
                report = local_search(instance)
                lines.append(f"heur {config} {report.upper_bound} {report.nodes_explored}"
                             f" {report.incumbent.vertices} {calls}")
    finally:
        solvers.dijkstra = search
    return "\n".join(lines) + "\n"


def pinned_artifacts(golden) -> dict[str, str]:
    """sha256 of every pinned artifact, built in the current directory."""
    artifacts: dict[str, str] = {}
    sweep = Path("sweep")
    for command, flags, seeds in SWEEP:
        for seed in seeds:
            _cli(command, *flags, "--seed", str(seed), "--out-dir", str(sweep))
    model_inputs = {"golden": Path("golden.spedac")}
    save_instance(golden, model_inputs["golden"])
    for label, config in LARGE.items():
        instance = _generate(config)
        if label in RENDERED:
            artifacts[f"render/{label}"] = render_instance(instance)
        model_inputs[label] = Path(f"{label}.spedac")
        save_instance(instance, model_inputs[label])
    for label, path in model_inputs.items():
        artifacts[f"export/{label}"] = _cli("export", str(path))
        artifacts[f"validate/{label}"] = _cli("validate", str(path))
    for path in [model_inputs["golden"]] + [sweep / name for name in SOLVED_SWEEP]:
        for method in ("bb", "heur", "brute"):
            artifacts[f"solve/{method}/{path.name}"] = _cli(
                "solve", str(path), "--method", method, "--no-timing")
    _cli("bench", str(sweep), "--method", "bb", "--method", "brute", "--no-timing",
         "--out", "bench.csv")
    artifacts["bench/pipeline_sweep_seed0.csv"] = Path("bench.csv").read_text(encoding="ascii")
    artifacts["solve/pools"] = pool_solves()
    artifacts["solve/heuristic_pool"] = heuristic_pool_solves()
    return {
        label: hashlib.sha256(text.encode("ascii")).hexdigest()
        for label, text in sorted(artifacts.items())
    }


def test_artifacts_match_the_manifest(tmp_path, monkeypatch, golden):
    monkeypatch.chdir(tmp_path)
    expected = json.loads(MANIFEST.read_text(encoding="ascii"))
    got = pinned_artifacts(golden)
    assert sorted(got) == sorted(expected)
    changed = [label for label in expected if got[label] != expected[label]]
    assert changed == []


if __name__ == "__main__":
    # Rewrite the manifest from the current code.
    import os
    import tempfile

    from conftest import build_golden

    with tempfile.TemporaryDirectory() as tmp:
        here = os.getcwd()
        os.chdir(tmp)
        try:
            digests = pinned_artifacts(build_golden())
        finally:
            os.chdir(here)
    MANIFEST.write_text(json.dumps(digests, indent=1) + "\n", encoding="ascii")
    print(f"{MANIFEST}: {len(digests)} digests")
