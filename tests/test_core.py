"""Data model, objective evaluation, and selection validation."""

from __future__ import annotations

import dataclasses
import random
from itertools import product

import pytest

from spedac import (
    ArcRecord,
    ConflictRecord,
    Instance,
    InvariantError,
    MalformedPathError,
    PathSolution,
    SelectionViolation,
    evaluate,
    export_flow_model,
    generate_random,
    induced_assignment,
    validate_selection,
    verify_model_at_point,
    RandomConfig,
)
from spedac.solvers import enumerate_simple_paths


# --- penalty term ---------------------------------------------------------

# One conflict on arcs (0,1) and (1,3); the four 0-3 paths use both,
# neither and each one alone.
_XOR_ARCS = tuple(
    ArcRecord(tail, head, 1)
    for tail, head in ((0, 1), (1, 3), (0, 2), (2, 3), (1, 2), (2, 1))
)
_XOR_USES = {  # path -> (x_a, x_b)
    (0, 1, 3): (1, 1),
    (0, 2, 3): (0, 0),
    (0, 1, 2, 3): (1, 0),
    (0, 2, 1, 3): (0, 1),
}


def _xor_instance(penalty: int) -> Instance:
    return Instance(
        vertex_count=4, arcs=_XOR_ARCS, conflicts=(ConflictRecord(0, 1, penalty),),
        source=0, sink=3,
    )


def test_penalty_term_truth_table():
    instance = _xor_instance(10)
    charged = {uses: evaluate(instance, path).penalty_cost for path, uses in _XOR_USES.items()}
    assert charged == {(1, 1): 10, (0, 0): 10, (1, 0): 0, (0, 1): 0}


def test_penalty_term_matches_xor_form():
    rng = random.Random(20240811)
    for _ in range(200):
        p = rng.randint(1, 200)
        instance = _xor_instance(p)
        for path, (x_a, x_b) in _XOR_USES.items():
            charged = evaluate(instance, path).penalty_cost
            assert charged == p * (1 - (x_a ^ x_b))
            assert charged == p * (2 * x_a * x_b - x_a - x_b + 1)


# --- evaluation -----------------------------------------------------------

def test_evaluate_optimum_path(golden):
    sol = evaluate(golden, (0, 1, 3, 4, 6))
    assert sol.arc_cost == 7
    assert sol.penalty_cost == 0
    assert sol.objective == 7
    assert sol.violated_conflicts == frozenset()
    assert sol.arc_indices == (0, 2, 7, 10)


def test_evaluate_path_with_all_conflicts_violated(golden):
    # 0,2,1,4,6 leaves pairs 0 and 1 untouched (both-absent) and uses
    # both arcs of pair 2: every conflict is violated.
    sol = evaluate(golden, (0, 2, 1, 4, 6))
    assert sol.arc_cost == 5
    assert sol.penalty_cost == 30
    assert sol.objective == 35
    assert sol.violated_conflicts == frozenset({0, 1, 2})


def test_evaluate_cheapest_path_pays_one_penalty(golden):
    sol = evaluate(golden, (0, 2, 1, 3, 6))
    assert sol.arc_cost == 5
    assert sol.violated_conflicts == frozenset({2})
    assert sol.objective == 15


def test_evaluate_matches_a_scan_of_every_conflict():
    # evaluate prices only the conflicts of the path's arcs; the
    # definition scans them all.
    for seed in range(4):
        instance = generate_random(
            RandomConfig(n=9, d=0.5, r=0.02, penalty_range=(1, 20), seed=seed)
        )
        everything = set(range(len(instance.conflicts)))
        for verts in enumerate_simple_paths(instance):
            sol = evaluate(instance, verts)
            used = set(sol.arc_indices)
            violated = {
                k for k, c in enumerate(instance.conflicts)
                if (c.arc_a in used) == (c.arc_b in used)
            }
            satisfied = [
                k for k, c in enumerate(instance.conflicts)
                if (c.arc_a in used) != (c.arc_b in used)
            ]
            assert sol.satisfied_conflicts == tuple(satisfied)
            assert sol.violated_conflicts == violated
            assert sol.violated_conflicts.isdisjoint(sol.satisfied_conflicts)
            assert sol.violated_conflicts.union(sol.satisfied_conflicts) == everything
            assert sol.penalty_cost == sum(instance.conflicts[k].penalty for k in violated)
    assert instance.penalty_total == sum(c.penalty for c in instance.conflicts)


def test_evaluate_rejects_malformed_paths(golden):
    with pytest.raises(MalformedPathError, match="source"):
        evaluate(golden, (1, 3, 4, 6))
    with pytest.raises(MalformedPathError, match="sink"):
        evaluate(golden, (0, 1, 3, 4))
    with pytest.raises(MalformedPathError, match="revisits"):
        evaluate(golden, (0, 1, 3, 4, 3, 6))
    with pytest.raises(MalformedPathError, match="no arc"):
        evaluate(golden, (0, 3, 6))
    with pytest.raises(MalformedPathError, match="two vertices"):
        evaluate(golden, (0,))


def test_path_solution_objective_is_sum():
    sol = PathSolution(
        vertices=(0, 1),
        arc_indices=(0,),
        arc_cost=4,
        penalty_cost=11,
        satisfied_conflicts=(1,),
        conflict_count=2,
    )
    assert sol.objective == 15
    assert sol.violated_conflicts == frozenset({0})


def test_incidence_objective_matches_evaluate_everywhere(golden):
    # The linearised objective, read off the exported model at the path's
    # induced 0/1 assignment, prices every simple path as evaluate does.
    instances = [golden]
    for seed in range(6):
        instances.append(
            generate_random(
                RandomConfig(n=8, d=0.3, r=0.05, penalty_range=(1, 20), seed=seed)
            )
        )
    for instance in instances:
        model = export_flow_model(instance)
        for verts in enumerate_simple_paths(instance):
            sol = evaluate(instance, verts)
            objective, violated = verify_model_at_point(
                model, induced_assignment(instance, sol)
            )
            assert violated == []
            assert objective == sol.objective


# --- selection validation -------------------------------------------------

def _flags_for(instance, arc_ids):
    flags = [0] * len(instance.arcs)
    for idx in arc_ids:
        flags[idx] = 1
    return flags


def test_validate_selection_accepts_path(golden):
    result = validate_selection(golden, _flags_for(golden, (0, 2, 7, 10)))
    assert isinstance(result, PathSolution)
    assert result.objective == 7
    assert result.vertices == (0, 1, 3, 4, 6)


def test_validate_selection_all_zero_is_source_imbalance(golden):
    result = validate_selection(golden, [0] * len(golden.arcs))
    assert isinstance(result, SelectionViolation)
    assert result.kind == "flow_imbalance"
    assert result.vertex == golden.source


def test_validate_selection_imbalance_names_vertex(golden):
    # A lone mid-graph arc leaves its endpoints unbalanced.
    result = validate_selection(golden, _flags_for(golden, (7,)))
    assert isinstance(result, SelectionViolation)
    assert result.kind == "flow_imbalance"


def test_validate_selection_reports_disjoint_cycle():
    base = [
        ArcRecord(0, 1, 1),
        ArcRecord(1, 4, 1),
        ArcRecord(2, 3, 1),
        ArcRecord(3, 5, 1),
        ArcRecord(5, 2, 1),
    ]
    instance = Instance(
        vertex_count=6, arcs=tuple(base), conflicts=(), source=0, sink=4
    )
    result = validate_selection(instance, [1, 1, 1, 1, 1])
    assert isinstance(result, SelectionViolation)
    assert result.kind == "cycle"
    assert result.cycle == frozenset({2, 3, 5})
    assert len(result.cycle) == 3


def test_validate_selection_cycle_through_path_vertex(golden):
    # Path plus a cycle sharing vertex 1 is flow-balanced but no path.
    arcs = golden.arcs + (ArcRecord(4, 1, 1),)
    instance = Instance(
        vertex_count=7, arcs=arcs, conflicts=(), source=0, sink=6
    )
    # 0->1 (0), 1->3 (2), 3->6 (9) is the path; 1->4 (3), 4->1 (12) the cycle.
    result = validate_selection(instance, _flags_for(instance, (0, 2, 9, 3, 12)))
    assert isinstance(result, SelectionViolation)
    assert result.kind == "cycle"
    assert result.cycle == frozenset({1, 4})


def test_validate_selection_roundtrip_on_enumerated_paths(golden):
    for verts in enumerate_simple_paths(golden):
        sol = evaluate(golden, verts)
        result = validate_selection(golden, _flags_for(golden, sol.arc_indices))
        assert isinstance(result, PathSolution)
        assert result == sol


def test_validate_selection_rejections_carry_true_certificates(golden, permutation_enumerator):
    # Exhaustive over every 0/1 vector, checked against the definitions:
    # the accepted selections are exactly the simple paths, priced by
    # evaluate; an imbalance names the first vertex, in the order source,
    # sink, rest, whose out - in differs from +1 / -1 / 0; a cycle
    # witness S has at least |S| selected arcs inside S.
    instances = [golden] + [
        generate_random(RandomConfig(n=n, d=d, r=0.1, seed=seed))
        for n, d in ((4, 0.7), (5, 0.6), (6, 0.4))
        for seed in range(3)
    ]
    kinds = set()
    for instance in instances[1:]:
        assert instance.incoming[instance.source] and instance.outgoing[instance.sink]
    for instance in instances:
        s, t, n = instance.source, instance.sink, instance.vertex_count
        order = [s, t] + [v for v in range(n) if v not in (s, t)]
        paths = {
            tuple(_flags_for(instance, evaluate(instance, verts).arc_indices)): verts
            for verts in permutation_enumerator(instance)
        }
        accepted = set()
        for flags in product((0, 1), repeat=len(instance.arcs)):
            selected = [a for a, f in zip(instance.arcs, flags) if f]
            excess = {
                v: sum(a.tail == v for a in selected) - sum(a.head == v for a in selected)
                - (v == s) + (v == t)
                for v in order
            }
            unbalanced = next((v for v in order if excess[v]), None)
            result = validate_selection(instance, flags)
            kinds.add(getattr(result, "kind", "path"))
            if isinstance(result, PathSolution):
                assert result == evaluate(instance, paths[flags])
                accepted.add(flags)
            elif result.kind == "flow_imbalance":
                assert result.vertex == unbalanced is not None
            else:
                assert result.kind == "cycle" and unbalanced is None
                inside = [a for a in selected if a.tail in result.cycle and a.head in result.cycle]
                assert len(inside) >= len(result.cycle) >= 2
        assert accepted == set(paths)
    assert kinds == {"path", "flow_imbalance", "cycle"}


def test_validate_selection_checks_flag_count(golden):
    with pytest.raises(ValueError):
        validate_selection(golden, [0, 1])


# --- structural invariants ------------------------------------------------

def test_arc_record_invariants():
    with pytest.raises(InvariantError, match="self-loop"):
        ArcRecord(2, 2, 1)
    with pytest.raises(InvariantError, match="non-negative"):
        ArcRecord(0, 1, -1)
    with pytest.raises(InvariantError, match="integer"):
        ArcRecord(0, 1, 1.5)


def test_conflict_record_invariants():
    with pytest.raises(InvariantError, match="itself"):
        ConflictRecord(3, 3, 5)
    with pytest.raises(InvariantError, match="positive"):
        ConflictRecord(0, 1, 0)
    assert ConflictRecord(4, 1, 2).pair == (1, 4)


def test_instance_rejects_duplicate_arc():
    with pytest.raises(InvariantError, match="duplicate arc"):
        Instance(
            vertex_count=3,
            arcs=(ArcRecord(0, 1, 1), ArcRecord(0, 1, 2)),
            conflicts=(),
            source=0,
            sink=2,
        )


def test_instance_rejects_bad_terminals_and_endpoints():
    with pytest.raises(InvariantError, match="source and sink"):
        Instance(2, (ArcRecord(0, 1, 1),), (), 0, 0)
    with pytest.raises(InvariantError, match="out of range"):
        Instance(2, (ArcRecord(0, 1, 1),), (), 0, 5)
    with pytest.raises(InvariantError, match="endpoint out of range"):
        Instance(2, (ArcRecord(0, 7, 1),), (), 0, 1)
    with pytest.raises(InvariantError, match="at least 2"):
        Instance(1, (), (), 0, 0)


def test_instance_rejects_bad_conflicts():
    arcs = (ArcRecord(0, 1, 1), ArcRecord(1, 2, 1))
    with pytest.raises(InvariantError, match="arc index out of range"):
        Instance(3, arcs, (ConflictRecord(0, 5, 1),), 0, 2)
    with pytest.raises(InvariantError, match="duplicate conflict"):
        Instance(
            3,
            arcs,
            (ConflictRecord(0, 1, 1), ConflictRecord(1, 0, 2)),
            0,
            2,
        )


def test_core_types_are_immutable(golden):
    with pytest.raises(dataclasses.FrozenInstanceError):
        golden.source = 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        golden.arcs[0].weight = 9


def test_adjacency_tables(golden):
    assert golden.outgoing[0] == (0, 1)
    assert golden.incoming[6] == (9, 10, 11)
    assert golden.conflicts_of_arc[0] == (0,)
    assert golden.conflicts_of_arc[9] == (0,)
    assert golden.conflicts_of_arc[1] == ()
    assert golden.arc_index[(3, 4)] == 7
