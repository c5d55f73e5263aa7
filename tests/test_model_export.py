"""Exported flow model: objective, rows, exact verification, decoding."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import pytest

import spedac
from spedac import (
    ArcRecord,
    ConflictRecord,
    Instance,
    MissingVariableError,
    PathSolution,
    RandomConfig,
    SmallWorldConfig,
    brute_force,
    enumerate_simple_paths,
    evaluate,
    export_flow_model,
    generate_random,
    generate_small_world,
    induced_assignment,
    instance_digest,
    shortest_path_vertices,
    validate_selection,
    verify_model_at_point,
)


def _loopback_instance() -> Instance:
    """Five vertices with an arc back into the source (3 -> 0).

    Small enough to enumerate every binary arc assignment, which is what
    the cycle-exclusion soundness test below needs.
    """
    return Instance(
        vertex_count=5,
        arcs=(
            ArcRecord(0, 1, 2),
            ArcRecord(0, 2, 4),
            ArcRecord(1, 2, 1),
            ArcRecord(1, 3, 2),
            ArcRecord(2, 1, 1),
            ArcRecord(2, 3, 1),
            ArcRecord(2, 4, 6),
            ArcRecord(3, 0, 5),
            ArcRecord(3, 4, 1),
        ),
        conflicts=(ConflictRecord(0, 8, 7),),
        source=0,
        sink=4,
    )


def _mtz_orders_exist(instance: Instance, x_flags: tuple[int, ...]) -> bool:
    """Difference-constraint oracle: do order values u satisfy every row?

    Each row u_head - u_tail - n*x >= 1 - n bounds u_head from below by
    u_tail + (1 if x else 1 - n).  Longest-path relaxation from the box
    lower bounds finds the least solution; infeasible when it keeps
    growing (a positive cycle) or overshoots an upper bound.
    """
    n = instance.vertex_count
    lower = [0] * n
    upper = [0 if v == instance.source else n - 1 for v in range(n)]
    edges = [
        (a.tail, a.head, 1 if x_flags[i] else 1 - n)
        for i, a in enumerate(instance.arcs)
    ]
    level = list(lower)
    for _ in range(n):
        changed = False
        for tail, head, gap in edges:
            if level[tail] + gap > level[head]:
                level[head] = level[tail] + gap
                changed = True
        if not changed:
            break
    else:
        for tail, head, gap in edges:
            if level[tail] + gap > level[head]:
                return False  # still relaxing after n rounds: positive cycle
    return all(level[v] <= upper[v] for v in range(n))


def _arc_flags(instance: Instance, verts) -> tuple[int, ...]:
    """0/1 flag per arc: 1 on the arcs of the vertex path verts."""
    on_path = set(zip(verts, verts[1:]))
    return tuple(int((a.tail, a.head) in on_path) for a in instance.arcs)


def _flow_balanced(instance: Instance, x_flags: tuple[int, ...]) -> bool:
    net = [0] * instance.vertex_count
    for i, arc in enumerate(instance.arcs):
        if x_flags[i]:
            net[arc.tail] += 1
            net[arc.head] -= 1
    want = [0] * instance.vertex_count
    want[instance.source] = 1
    want[instance.sink] = -1
    return net == want


# --- model construction ---------------------------------------------------

def test_golden_model_catalog(golden):
    model = export_flow_model(golden)
    names = [v.name for v in model.variables]
    assert names[0] == "ONE_VAR_CONSTANT"
    assert [n for n in names if n.startswith("x_")] == [
        f"x_{a.tail}_{a.head}" for a in golden.arcs
    ]
    assert [n for n in names if n.startswith("y_")] == ["y_0", "y_1", "y_2"]
    assert [n for n in names if n.startswith("u_")] == [f"u_{v}" for v in range(7)]
    assert (30, "ONE_VAR_CONSTANT") in model.objective_terms
    row_names = [row.name for row in model.rows]
    assert row_names[:7] == [f"flow_{v}" for v in range(7)]
    assert "penalty_lb_0" in row_names and "penalty_ub_b_2" in row_names
    assert sum(1 for name in row_names if name.startswith("mtz_")) == 12


def test_conflict_arcs_collect_negative_weight_coefficients(golden):
    model = export_flow_model(golden)
    coeff = dict((name, c) for c, name in model.objective_terms)
    # Arc 0 weighs 3 and belongs to the penalty-10 pair (0, 9).
    assert coeff["x_0_1"] == 3 - 10
    assert coeff["x_3_6"] == 2 - 10
    assert coeff["y_0"] == 20
    # Arc 5 (2 -> 3, weight 4) is conflict-free.
    assert coeff["x_2_3"] == 4


def test_source_order_variable_is_pinned(golden):
    model = export_flow_model(golden)
    u0 = next(v for v in model.variables if v.name == "u_0")
    assert (u0.lower, u0.upper) == (0, 0)
    u5 = next(v for v in model.variables if v.name == "u_5")
    assert (u5.lower, u5.upper) == (0, 6)


def test_mtz_rows_cover_arcs_into_the_source():
    model = export_flow_model(_loopback_instance())
    assert any(row.name == "mtz_3_0" for row in model.rows)


def test_header_identifies_instance_and_tool(golden):
    model = export_flow_model(golden)
    assert f"instance-sha256: {instance_digest(golden)}" in model.header
    assert "sec-mode: mtz" in model.header
    assert f"tool-version: {spedac.__version__}" in model.header


# --- exact verification ---------------------------------------------------

def test_optimum_assignment_verifies_cleanly(golden):
    model = export_flow_model(golden)
    solution = evaluate(golden, (0, 1, 3, 4, 6))
    objective, violated = verify_model_at_point(
        model, induced_assignment(golden, solution)
    )
    assert objective == Fraction(7)
    assert violated == []


def test_all_zero_point_fails_flow_rows(golden):
    model = export_flow_model(golden)
    point = {v.name: 0 for v in model.variables}
    point["ONE_VAR_CONSTANT"] = 1
    objective, violated = verify_model_at_point(model, point)
    assert objective == 30  # nothing selected: every penalty is charged
    assert "flow_0" in violated
    assert "flow_6" in violated
    assert not any(name.startswith("penalty") for name in violated)


def test_suppressed_and_flag_fails_linkage_row(golden):
    # (0, 1, 3, 6) uses both arcs of conflict 0; clearing y_0 must trip
    # the lower linkage row and drop the objective below truth.
    model = export_flow_model(golden)
    solution = evaluate(golden, (0, 1, 3, 6))
    assert 0 in solution.violated_conflicts
    point = induced_assignment(golden, solution)
    assert point["y_0"] == 1
    _, violated = verify_model_at_point(model, point)
    assert violated == []
    point["y_0"] = 0
    objective, violated = verify_model_at_point(model, point)
    assert violated == ["penalty_lb_0"]
    assert objective == solution.objective - 2 * 10


def test_missing_variable_is_reported(golden):
    model = export_flow_model(golden)
    point = induced_assignment(golden, evaluate(golden, (0, 1, 3, 4, 6)))
    del point["y_1"]
    with pytest.raises(MissingVariableError):
        verify_model_at_point(model, point)


def test_fractional_binary_trips_its_bound(golden):
    model = export_flow_model(golden)
    point = induced_assignment(golden, evaluate(golden, (0, 1, 3, 4, 6)))
    point["y_0"] = Fraction(1, 2)
    _, violated = verify_model_at_point(model, point)
    assert "bound_y_0" in violated
    point["y_0"] = 2
    _, violated = verify_model_at_point(model, point)
    assert "bound_y_0" in violated


def test_model_objective_agrees_with_evaluator_on_every_path(golden):
    instances = [
        golden,
        _loopback_instance(),
        generate_random(RandomConfig(n=8, d=0.35, r=0.02, penalty_range=(1, 30), seed=6)),
        generate_random(RandomConfig(n=9, d=0.3, r=0.015, seed=2)),
    ] + [
        generate_random(RandomConfig(n=8, d=0.3, r=0.05, penalty_range=(1, 20), seed=s))
        for s in range(6)
    ]
    for instance in instances:
        optimum = brute_force(instance).upper_bound
        model = export_flow_model(instance)
        for verts in enumerate_simple_paths(instance):
            solution = evaluate(instance, verts)
            point = induced_assignment(instance, solution)
            x = _arc_flags(instance, verts)
            assert [point[f"x_{a.tail}_{a.head}"] for a in instance.arcs] == list(x)
            for k, c in enumerate(instance.conflicts):
                assert point[f"y_{k}"] == (x[c.arc_a] and x[c.arc_b])
            objective, violated = verify_model_at_point(model, point)
            assert violated == []
            assert objective == solution.objective
            assert objective >= optimum


def test_cycle_exclusion_admits_exactly_the_simple_paths():
    # Exhaustive over all 2^m arc selections: a selection satisfies the
    # flow rows and admits feasible order values exactly when it is the
    # incidence vector of a simple source-sink path.  The instance has
    # an arc back into the source, the shape that lets a path plus a
    # disjoint cycle slip through flow conservation alone.
    instance = _loopback_instance()
    m = len(instance.arcs)
    paths = {_arc_flags(instance, verts) for verts in enumerate_simple_paths(instance)}
    admitted = set()
    flow_only = set()
    for x_flags in product((0, 1), repeat=m):
        if not _flow_balanced(instance, x_flags):
            continue
        flow_only.add(x_flags)
        if _mtz_orders_exist(instance, x_flags):
            admitted.add(x_flags)
    assert admitted == paths
    assert flow_only > paths  # flow alone admits path + cycle combinations

    # Cross-check the oracle against the exported rows on a specimen:
    # path 0-2-4 plus the cycle 0-1-3-0 balances flow but has no orders.
    specimen = tuple(
        1 if (a.tail, a.head) in {(0, 2), (2, 4), (0, 1), (1, 3), (3, 0)} else 0
        for a in instance.arcs
    )
    assert specimen in flow_only and specimen not in admitted


def test_verifier_flags_the_ordered_cycle_specimen():
    # Same specimen as above, pushed through verify_model_at_point with
    # the least order values; some cycle row must object.
    instance = _loopback_instance()
    model = export_flow_model(instance)
    chosen = {(0, 2), (2, 4), (0, 1), (1, 3), (3, 0)}
    point: dict[str, int] = {"ONE_VAR_CONSTANT": 1}
    for arc in instance.arcs:
        point[f"x_{arc.tail}_{arc.head}"] = 1 if (arc.tail, arc.head) in chosen else 0
    point["y_0"] = 0
    for v in range(instance.vertex_count):
        point[f"u_{v}"] = {0: 0, 1: 1, 2: 1, 3: 2, 4: 2}[v]
    _, violated = verify_model_at_point(model, point)
    assert any(name.startswith("mtz_") for name in violated)


def test_unreadable_value_raises_a_value_error_naming_the_variable(golden):
    model = export_flow_model(golden)
    point = induced_assignment(golden, evaluate(golden, (0, 1, 3, 4, 6)))
    for bad in (float("inf"), float("-inf"), float("nan"), None, "one", 1j):
        point["y_1"] = bad
        with pytest.raises(ValueError, match=r"^variable y_1: "):
            verify_model_at_point(model, point)


# --- exact verification against a term-by-term reference --------------------

def _reference_verify(model, assignment):
    """Term-by-term Fraction evaluation of every bound, row and the objective.

    The verifier's earlier body, kept as a test-only reference for the
    common-denominator integer arithmetic that replaced it.
    """
    values = {}
    violated = []
    for var in model.variables:
        value = values[var.name] = Fraction(assignment[var.name])
        if not var.lower <= value <= var.upper or (
            var.kind == "binary" and value not in (0, 1)
        ):
            violated.append(f"bound_{var.name}")
    for row in model.rows:
        lhs = sum((coeff * values[name] for coeff, name in row.terms), Fraction(0))
        ok = (
            lhs <= row.rhs if row.sense == "<="
            else lhs >= row.rhs if row.sense == ">="
            else lhs == row.rhs
        )
        if not ok:
            violated.append(row.name)
    objective = sum(
        (coeff * values[name] for coeff, name in model.objective_terms), Fraction(0)
    )
    return objective, violated


def _assert_matches_reference(model, point):
    got = verify_model_at_point(model, point)
    assert type(got[0]) is Fraction
    assert repr(got) == repr(_reference_verify(model, point))


# Ints (big ones too), bools, mixed-denominator Fractions, binary floats,
# fractional binaries and values outside the bounds.
_PERTURBATIONS = (
    0, 1, -1, 2, 40,
    Fraction(1, 2), Fraction(1, 3), Fraction(-5, 7), Fraction(11, 6), Fraction(9, 4),
    0.1, 2.5, 0.5, -0.25,
    True, False, 10**30,
)


def test_verifier_matches_the_reference_on_perturbed_points(golden):
    instances = [golden] + [
        generate_random(RandomConfig(n=n, d=d, r=0.02, penalty_range=(1, 30), seed=s))
        for n, d, s in ((6, 0.5, 1), (8, 0.35, 2), (10, 0.3, 3), (12, 0.25, 4),
                        (16, 0.2, 5), (20, 0.15, 6), (30, 0.1, 7))
    ] + [
        generate_small_world(SmallWorldConfig(n=n, k=k, r=0.02, seed=s))
        for n, k, s in ((10, 0.3, 1), (16, 0.25, 2), (24, 0.2, 3), (30, 0.15, 4))
    ]
    for index, instance in enumerate(instances):
        solution = evaluate(instance, shortest_path_vertices(instance))
        clean = induced_assignment(instance, solution)
        model = export_flow_model(instance)
        assert verify_model_at_point(model, clean) == (solution.objective, [])
        _assert_matches_reference(model, clean)
        names = [var.name for var in model.variables]
        rng = random.Random(f"{index}/mtz")
        for trial in range(12):
            point = dict(clean)
            for name in rng.sample(names, min(len(names), 1 + trial)):
                point[name] = rng.choice(_PERTURBATIONS)
            _assert_matches_reference(model, point)


def test_pipeline_size_model_verifies_at_its_shortest_path():
    instance = generate_random(RandomConfig(n=1000, d=0.004, r=1e-4, seed=631049))
    solution = evaluate(instance, shortest_path_vertices(instance))
    model = export_flow_model(instance)
    objective, violated = verify_model_at_point(
        model, induced_assignment(instance, solution)
    )
    assert (objective, violated) == (solution.objective, [])
    assert type(objective) is Fraction


def _primes(count: int) -> list[int]:
    primes: list[int] = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


def test_pairwise_coprime_denominators_stay_exact(golden):
    # One distinct prime denominator per variable: the common
    # denominator is their product, the worst case of the scaling.
    clean = induced_assignment(golden, evaluate(golden, (0, 1, 3, 4, 6)))
    model = export_flow_model(golden)
    primes = _primes(len(model.variables))
    nudged = {
        var.name: clean[var.name] + Fraction(1, p)
        for var, p in zip(model.variables, primes)
    }
    spread = {
        var.name: Fraction(i, p) for i, (var, p) in enumerate(zip(model.variables, primes))
    }
    for point in (nudged, spread):
        _assert_matches_reference(model, point)


# --- LP text --------------------------------------------------------------

def test_render_is_deterministic_ascii_lf(golden):
    model = export_flow_model(golden)
    text = model.render()
    assert text == export_flow_model(golden).render()
    assert text.isascii()
    assert "\r" not in text and text.endswith("\n")
    lines = text.splitlines()
    for keyword in ("Minimize", "Subject To", "Bounds", "Binaries", "End"):
        assert keyword in lines
    assert lines.index("Minimize") < lines.index("Subject To") < lines.index("Bounds")
    assert lines.index("Bounds") < lines.index("Binaries") < lines.index("End")
    assert all(line.startswith("\\ ") for line in lines[: len(model.header)])


def test_render_spells_signs_and_senses(golden):
    text = export_flow_model(golden).render()
    assert "- 7 x_0_1" in text
    assert "+ 20 y_0" in text
    assert ">= -6" in text  # order rows for n = 7
    assert " u_0 = 0" in text
    assert " 0 <= u_1 <= 6" in text
    assert "\n x_0_1\n" in text  # Binaries section lists bare names


def test_render_writes_an_empty_row_and_wraps_after_eight_terms():
    # Vertex 2 touches ten arcs (8 out, 2 in); vertex 10 touches none.
    heads = (1, 3, 4, 5, 6, 7, 8, 9)
    arcs = (ArcRecord(0, 2, 1), *(ArcRecord(2, h, 1) for h in heads), ArcRecord(3, 2, 1))
    instance = Instance(vertex_count=11, arcs=arcs, conflicts=(), source=0, sink=1)
    lines = export_flow_model(instance).render().splitlines()
    hub = lines.index(
        " flow_2: + 1 x_2_1 + 1 x_2_3 + 1 x_2_4 + 1 x_2_5"
        " + 1 x_2_6 + 1 x_2_7 + 1 x_2_8 + 1 x_2_9"
    )
    assert lines[hub + 1] == "   - 1 x_0_2 - 1 x_3_2 = 0"
    assert " flow_10: + 0 ONE_VAR_CONSTANT = 0" in lines
    assert " flow_1: - 1 x_2_1 = -1" in lines


def test_penalty_free_instance_renders_without_constant():
    instance = generate_random(RandomConfig(n=8, d=0.4, r=0.0, seed=0))
    model = export_flow_model(instance)
    assert not any(name == "ONE_VAR_CONSTANT" for _, name in model.objective_terms)
    lines = model.render().splitlines()
    minimize = lines[lines.index("Minimize"): lines.index("Subject To")]
    assert not any("ONE_VAR_CONSTANT" in line for line in minimize)
    assert " ONE_VAR_CONSTANT = 1" in lines  # still in Bounds as the fixed var


# --- decoding --------------------------------------------------------------
# The circuit view is gone; these check the same claims on the arc flags
# that validate_selection decodes and the exported model's rows.

def test_every_path_encodes_to_a_circuit():
    # Every simple path's flags decode to that path, and its induced
    # point satisfies every row of the model.
    instances = [_loopback_instance()] + [
        generate_random(RandomConfig(n=6, d=0.5, r=0.1, seed=s)) for s in range(3)
    ]
    for instance in instances:
        model = export_flow_model(instance)
        for verts in enumerate_simple_paths(instance):
            solution = evaluate(instance, verts)
            assert validate_selection(instance, _arc_flags(instance, verts)) == solution
            point = induced_assignment(instance, solution)
            assert verify_model_at_point(model, point) == (solution.objective, [])


def test_tampered_circuits_are_rejected(golden):
    flags = _arc_flags(golden, (0, 1, 3, 4, 6))
    assert isinstance(validate_selection(golden, flags), PathSolution)

    # An extra arc off the path breaks the single-successor rule.
    extra = list(flags)
    extra[3] = 1  # second arc out of vertex 1
    assert validate_selection(golden, extra).kind == "flow_imbalance"

    # Dropping a path arc severs the path.
    severed = list(flags)
    severed[severed.index(1)] = 0
    assert validate_selection(golden, severed).kind == "flow_imbalance"

    # The model's flow rows reject both.
    model = export_flow_model(golden)
    point = induced_assignment(golden, evaluate(golden, (0, 1, 3, 4, 6)))
    for tampered in (extra, severed):
        for arc, x in zip(golden.arcs, tampered):
            point[f"x_{arc.tail}_{arc.head}"] = x
        _, violated = verify_model_at_point(model, point)
        assert any(name.startswith("flow_") for name in violated)


def test_is_circuit_rejects_flag_counts_that_do_not_match(golden):
    flags = _arc_flags(golden, (0, 1, 3, 4, 6))
    assert isinstance(validate_selection(golden, flags), PathSolution)
    for bad in (flags[:10], flags + (0,)):
        with pytest.raises(ValueError, match="arc flag count"):
            validate_selection(golden, bad)


def test_is_circuit_accepts_exactly_the_covering_paths():
    # Exhaustive over every arc flag vector: validate_selection accepts
    # exactly the flags of an enumerated simple source-sink path.  The
    # random digraphs have arcs into the source and out of the sink.
    instances = [_loopback_instance()] + [
        generate_random(RandomConfig(n=5, d=0.5, r=0.0, seed=s)) for s in range(3)
    ] + [generate_random(RandomConfig(n=4, d=0.7, r=0.0, seed=1))]
    for instance in instances:
        paths = {_arc_flags(instance, verts) for verts in enumerate_simple_paths(instance)}
        accepted = {
            flags
            for flags in product((0, 1), repeat=len(instance.arcs))
            if isinstance(validate_selection(instance, flags), PathSolution)
        }
        assert accepted == paths


def test_disconnected_cycles_are_not_circuits():
    instance = _loopback_instance()
    # Path 0-2-4 plus the cycle 0-1-3-0 through the source is
    # flow-balanced, but not one simple path: validate_selection names
    # the cycle and no MTZ order values exist.
    flags = tuple(
        1 if (a.tail, a.head) in {(0, 2), (2, 4), (0, 1), (1, 3), (3, 0)} else 0
        for a in instance.arcs
    )
    assert _flow_balanced(instance, flags)
    result = validate_selection(instance, flags)
    assert result.kind == "cycle"
    assert result.cycle == frozenset({0, 1, 3})
    assert not _mtz_orders_exist(instance, flags)
