"""Branch-and-bound against an independent MILP oracle on mid-size instances.

The oracle is scipy's HiGHS (``scipy.optimize.milp``) solving the model
written by ``export_flow_model``, through ``highs_oracle`` of
``perfbench/oracle.py``, the one HiGHS adaptor, loaded by its path.  It
is test-only: the module is skipped when scipy is not installed.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from spedac import (
    RandomConfig,
    SmallWorldConfig,
    SolveStatus,
    branch_and_bound,
    export_flow_model,
    generate_random,
    generate_small_world,
)

pytest.importorskip("scipy")
import numpy as np  # noqa: E402  (scipy brings numpy)
from scipy.optimize import linprog  # noqa: E402

_ORACLE = Path(__file__).resolve().parent.parent / "perfbench" / "oracle.py"
_spec = importlib.util.spec_from_file_location("perfbench_oracle", _ORACLE)
_oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_oracle)
highs_optimum = _oracle.highs_oracle()


_MID_SIZE = [
    RandomConfig(n=30, d=0.15, r=1e-3, seed=1042),
    RandomConfig(n=35, d=0.1, r=1e-3, seed=1067),
    RandomConfig(n=40, d=0.08, r=1e-3, seed=1178),
    RandomConfig(n=18, d=0.2, r=1e-2, weight_range=(0, 5), penalty_range=(1, 20), seed=0),
    SmallWorldConfig(n=40, k=0.15, r=1e-3, seed=1134),
    SmallWorldConfig(n=30, k=0.2, r=1e-3, seed=1322),
]


@pytest.mark.parametrize(
    "config", _MID_SIZE, ids=lambda c: f"{type(c).__name__}-n{c.n}-s{c.seed}"
)
def test_branch_and_bound_brackets_the_milp_optimum(config):
    generate = generate_random if isinstance(config, RandomConfig) else generate_small_world
    instance = generate(config)
    optimum = highs_optimum(export_flow_model(instance))
    assert optimum is not None
    assert optimum == round(optimum)
    # A full solve certifies the optimum; a solve cut at once must still
    # bracket it, and must not claim optimality unless it found it.
    for time_limit in (None, 0.0):
        report = branch_and_bound(instance, time_limit=time_limit)
        assert report.lower_bound <= optimum + 1e-6
        assert optimum - 1e-6 <= report.upper_bound
        if report.status is SolveStatus.OPTIMAL:
            assert report.lower_bound == report.upper_bound == round(optimum)
        else:
            assert time_limit is not None
            assert report.status is SolveStatus.TIME_LIMIT


def lagrangian_dual(instance) -> float:
    """Best bound of branch-and-bound's conflict relaxation, by LP duality.

    The maximum over mu in [-p, p] of sum(mu) + SP+ + sum(min(0, r)) equals
    the minimum of w.y + sum p_k * t_k over 0 <= f <= y <= 1 with f a unit
    source-sink flow and t_k >= |1 - y_a - y_b|.
    """
    m, c = len(instance.arcs), len(instance.conflicts)
    cost = np.concatenate([np.zeros(m), instance.weights,
                           [k.penalty for k in instance.conflicts]])
    flow = np.zeros((instance.vertex_count, 2 * m + c))
    for i, arc in enumerate(instance.arcs):
        flow[arc.tail, i] += 1
        flow[arc.head, i] -= 1
    supply = np.zeros(instance.vertex_count)
    supply[instance.source], supply[instance.sink] = 1, -1
    rows, rhs = [], []
    for i in range(m):  # f <= y
        row = np.zeros(2 * m + c)
        row[i], row[m + i] = 1, -1
        rows.append(row)
        rhs.append(0)
    for k, conflict in enumerate(instance.conflicts):  # t >= +-(1 - y_a - y_b)
        for sign in (1, -1):
            row = np.zeros(2 * m + c)
            row[m + conflict.arc_a] = row[m + conflict.arc_b] = -sign
            row[2 * m + k] = -1
            rows.append(row)
            rhs.append(-sign)
    result = linprog(cost, A_ub=np.array(rows), b_ub=rhs, A_eq=flow, b_eq=supply,
                     bounds=[(0, 1)] * (2 * m) + [(0, None)] * c, method="highs")
    assert result.status == 0, result.message
    return result.fun


@pytest.mark.parametrize(
    "config", _MID_SIZE,
    ids=lambda c: f"{type(c).__name__}-n{c.n}-s{c.seed}",
)
def test_root_bound_reaches_the_lagrangian_dual(config):
    # The root bound is valid for the relaxation (never above its dual
    # optimum), and the subgradient schedule reaches that optimum here.
    generate = generate_random if isinstance(config, RandomConfig) else generate_small_world
    instance = generate(config)
    roots = []
    branch_and_bound(instance, on_node=lambda path, bound: roots.append(bound))
    assert roots[0] == pytest.approx(lagrangian_dual(instance), abs=1e-6)
