"""Differential test on seeded tiny shapes: the exact solvers agree, and the
anytime ones bracket the optimum.

The generators draw weights from 1 up, put the source at 0 and the sink at
n-1, and retry until the sink is reachable.  The shapes here do none of
that: 2 to 8 vertices with any terminals, zero weights, arcs into the source
and out of the sink, up to 3m conflicts (capped by the m(m-1)/2 arc pairs)
and unreachable sinks.  On each shape:

* brute force and branch-and-bound agree on the optimum, LB = UB;
* branch-and-bound at ``time_limit=0`` and local search bracket it;
* every tenth shape, HiGHS on the exported model brackets it (skipped
  without scipy).

HiGHS gets HIGHS_SECONDS per shape.  The exported model's relaxation is
weak on dense conflicts: one 8-vertex shape here (54 arcs, 150 conflicts)
takes HiGHS 29 s to close.  So the check is on the bounds HiGHS proves in
that time, which must contain the optimum and meet at it when HiGHS
closes the model.  perfbench's HiGHS adaptor returns only a proven
optimum, under a 20 s limit, so the test calls HiGHS itself.
"""

from __future__ import annotations

import math
import random
from itertools import combinations

import pytest

from spedac import (
    ArcRecord,
    ConflictRecord,
    Instance,
    SolveStatus,
    branch_and_bound,
    brute_force,
    export_flow_model,
    local_search,
)

SHAPES = 1000
HIGHS_EVERY = 10
HIGHS_SECONDS = 0.1


def draw_shape(rng: random.Random) -> Instance:
    n = rng.randint(2, 8)
    source, sink = rng.sample(range(n), 2)
    density = rng.random()
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < density]
    arcs = tuple(ArcRecord(u, v, rng.choice((0, rng.randint(1, 20)))) for u, v in pairs)
    m = len(arcs)
    count = rng.randint(0, min(3 * m, m * (m - 1) // 2))
    # A ceiling per shape: penalties well below the weights are drawn too.
    ceiling = rng.randint(1, 30)
    conflicts = tuple(
        ConflictRecord(a, b, rng.randint(1, ceiling))
        for a, b in rng.sample(list(combinations(range(m), 2)), count)
    )
    return Instance(vertex_count=n, arcs=arcs, conflicts=conflicts, source=source, sink=sink)


def _shapes():
    rng = random.Random("spedac/differential")
    return [draw_shape(rng) for _ in range(SHAPES)]


def test_shapes_cover_the_edge_cases():
    shapes = _shapes()
    assert any(w == 0 for shape in shapes for w in shape.weights)
    assert any(shape.incoming[shape.source] for shape in shapes)
    assert any(shape.outgoing[shape.sink] for shape in shapes)
    assert any(len(shape.conflicts) == 3 * len(shape.arcs) > 0 for shape in shapes)
    assert any(brute_force(shape).status is SolveStatus.INFEASIBLE for shape in shapes)


def test_solvers_agree_on_tiny_shapes():
    mismatches = []
    for k, shape in enumerate(_shapes()):
        exact = brute_force(shape)
        optimum = exact.upper_bound
        bb = branch_and_bound(shape)
        cut = branch_and_bound(shape, time_limit=0.0)
        heur = local_search(shape)
        checks = {
            "brute force LB = UB": exact.lower_bound == optimum,
            "bb matches brute force": (bb.status, bb.lower_bound, bb.upper_bound)
            == (exact.status, optimum, optimum),
            "bb at time 0 brackets": cut.lower_bound <= optimum <= cut.upper_bound,
            "local search brackets": heur.lower_bound <= optimum <= heur.upper_bound,
        }
        failed = [name for name, ok in checks.items() if not ok]
        if failed:
            mismatches.append((k, failed))
    assert mismatches == []


def highs_bounds(model) -> tuple[float, float]:
    """Lower and upper bounds HiGHS proves on the model's optimum.

    Both are the optimum when HiGHS closes the model within HIGHS_SECONDS,
    and both are +inf when it proves the model infeasible.  Needs scipy.
    """
    import numpy as np
    from scipy import optimize
    index = {var.name: i for i, var in enumerate(model.variables)}
    cost = np.zeros(len(index))
    for coeff, name in model.objective_terms:
        cost[index[name]] += coeff
    matrix = np.zeros((len(model.rows), len(index)))
    for r, row in enumerate(model.rows):
        for coeff, name in row.terms:
            matrix[r, index[name]] += coeff
    result = optimize.milp(
        cost,
        constraints=optimize.LinearConstraint(
            matrix,
            [row.rhs if row.sense in (">=", "=") else -math.inf for row in model.rows],
            [row.rhs if row.sense in ("<=", "=") else math.inf for row in model.rows],
        ),
        integrality=[var.kind == "binary" for var in model.variables],
        bounds=optimize.Bounds([var.lower for var in model.variables],
                               [var.upper for var in model.variables]),
        options={"time_limit": HIGHS_SECONDS},
    )
    if result.status == 0:
        return result.fun, result.fun
    if result.status == 2:
        return math.inf, math.inf
    assert result.status == 1, result.message  # the time limit
    return result.mip_dual_bound, math.inf if result.x is None else result.fun


def test_highs_brackets_every_tenth_shape():
    pytest.importorskip("scipy")
    mismatches = []
    for k, shape in enumerate(_shapes()[::HIGHS_EVERY]):
        optimum = brute_force(shape).upper_bound
        lower, upper = highs_bounds(export_flow_model(shape))
        if not lower - 1e-6 <= optimum <= upper + 1e-6:
            mismatches.append((k * HIGHS_EVERY, optimum, lower, upper))
    assert mismatches == []
