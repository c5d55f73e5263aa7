"""Dijkstra, exhaustive oracle, branch-and-bound, local search, gap."""

from __future__ import annotations

import gc
import hashlib
import math
import random
import sys
import time
from collections import Counter
from itertools import islice, product

import pytest

from spedac import (
    ArcRecord,
    ConflictRecord,
    GapUndefinedError,
    GuardExceededError,
    Instance,
    RandomConfig,
    SmallWorldConfig,
    SolveStatus,
    branch_and_bound,
    brute_force,
    dijkstra,
    enumerate_simple_paths,
    evaluate,
    generate_random,
    generate_small_world,
    local_search,
    optimality_gap,
    shortest_path_vertices,
)
from spedac import solvers
from spedac.bench import run_bench
from spedac.solvers import _detour_objective, _detours

INFINITY = math.inf


def _yen_paths(instance, k):
    """The first k paths of the Yen pool, each (arc cost, vertices)."""
    return list(islice(solvers._yen(instance), k))


def _sweep_instances(counts=(6, 8, 10), densities=(0.2, 0.4), seeds=range(4)):
    out = []
    for n in counts:
        for d in densities:
            m = round(d * n * (n - 1))
            r = 24 / (m * (m - 1))  # lands a handful of conflicts
            for seed in seeds:
                out.append(
                    generate_random(
                        RandomConfig(
                            n=n, d=d, r=r, penalty_range=(1, 20), seed=seed
                        )
                    )
                )
    return out


# --- dijkstra -------------------------------------------------------------

def test_dijkstra_forward_distances(golden):
    dist, pred = dijkstra(golden)
    assert dist[golden.source] == 0
    assert dist[golden.sink] == 5
    assert pred[golden.source] is None
    # The predecessor chain reconstructs a distance-5 route.
    verts = shortest_path_vertices(golden)
    assert evaluate(golden, verts).arc_cost == 5


def test_dijkstra_from_sink(golden):
    dist, pred = dijkstra(golden, from_sink=True)
    assert dist[golden.sink] == 0
    assert dist[golden.source] == 5
    assert dist[4] == 1
    assert dist[3] == 2
    # pred points along an arc leaving the vertex toward the sink.
    arc = golden.arcs[pred[3]]
    assert arc.tail == 3


def test_dijkstra_marks_unreachable_with_infinity():
    instance = Instance(
        vertex_count=4,
        arcs=(ArcRecord(0, 1, 1), ArcRecord(1, 3, 1), ArcRecord(2, 3, 1)),
        conflicts=(),
        source=0,
        sink=3,
    )
    dist, _ = dijkstra(instance)
    assert dist[2] == INFINITY
    assert dist[3] == 2


def _without(instance, origin, target, banned_vertices, banned_arcs):
    # The instance with the banned arcs and the arcs into banned vertices
    # removed, with origin and target as its terminals.
    kept = tuple(
        arc
        for i, arc in enumerate(instance.arcs)
        if i not in banned_arcs and arc.head not in banned_vertices
    )
    return Instance(
        vertex_count=instance.vertex_count,
        arcs=kept,
        conflicts=(),
        source=origin,
        sink=target,
    )


def _route(instance, dist, pred, origin, target):
    # The shortest-path tree's route to target as (tail, head) pairs.
    steps = []
    v = target
    while v != origin and pred[v] is not None:
        arc = instance.arcs[pred[v]]
        steps.append((arc.tail, arc.head))
        v = arc.tail
    return dist[target], steps


def _arc_pairs(instance, dist, pred, limit):
    # {vertex: (dist, pred as a (tail, head) pair)} for every vertex whose
    # distance is at most limit; arc indices differ between instances.
    pairs = {}
    for v, (d, a) in enumerate(zip(dist, pred)):
        if d <= limit:
            arc = None if a is None else instance.arcs[a]
            pairs[v] = (d, None if arc is None else (arc.tail, arc.head))
    return pairs


def test_dijkstra_bans_and_target_match_a_pruned_instance():
    # Weights 0-2 make equal-distance ties.
    checked = 0
    for seed, weight_range in product(range(6), ((1, 100), (0, 2))):
        instance = generate_random(
            RandomConfig(n=30, d=0.1, r=0.0, weight_range=weight_range, seed=seed)
        )
        rng = random.Random(seed)
        for _ in range(10):
            origin, target = rng.sample(range(instance.vertex_count), 2)
            others = [v for v in range(instance.vertex_count) if v not in (origin, target)]
            banned_vertices = set(rng.sample(others, 5))
            banned_arcs = set(rng.sample(range(len(instance.arcs)), 15))
            pruned = _without(instance, origin, target, banned_vertices, banned_arcs)
            full_dist, full_pred = dijkstra(pruned)
            dist, _ = dijkstra(
                instance,
                origin=origin,
                banned_vertices=banned_vertices,
                banned_arcs=banned_arcs,
            )
            assert dist == full_dist
            early = dijkstra(
                instance,
                origin=origin,
                targets=(target,),
                banned_vertices=banned_vertices,
                banned_arcs=banned_arcs,
            )
            assert _route(instance, *early, origin, target) == _route(
                pruned, full_dist, full_pred, origin, target
            )
            # A multi-target stop leaves every target, and every vertex it
            # puts no farther than the farthest target, with the full
            # search's distance and predecessor, so each target's route is
            # the full one.
            targets = rng.sample(others, 4) + [target]
            many = dijkstra(
                instance,
                origin=origin,
                targets=targets,
                banned_vertices=banned_vertices,
                banned_arcs=banned_arcs,
            )
            farthest = max(many[0][t] for t in targets)
            assert _arc_pairs(instance, *many, farthest).items() <= _arc_pairs(
                pruned, full_dist, full_pred, farthest
            ).items()
            for t in targets:
                assert _route(instance, *many, origin, t) == _route(
                    pruned, full_dist, full_pred, origin, t
                )
            # The same holds with the origin among the targets, and with a
            # target whose in-arcs are all banned, which stays at infinity.
            lost = rng.choice([v for v in others if v not in targets + list(banned_vertices)])
            cut = banned_arcs | set(instance.incoming[lost])
            cut_pruned = _without(instance, origin, target, banned_vertices, cut)
            for more, arcs, full in (([origin], banned_arcs, pruned),
                                     ([origin, lost], cut, cut_pruned)):
                extra = dijkstra(
                    instance,
                    origin=origin,
                    targets=more + targets,
                    banned_vertices=banned_vertices,
                    banned_arcs=arcs,
                )
                farthest = max(extra[0][t] for t in more + targets)
                assert _arc_pairs(instance, *extra, farthest).items() <= _arc_pairs(
                    full, *dijkstra(full), farthest
                ).items()
            assert extra[0][lost] == INFINITY
            checked += dist[target] != INFINITY
    assert checked > 20  # most draws leave the target reachable


# --- path enumeration and the exhaustive oracle ---------------------------

def test_enumeration_matches_permutation_oracle(golden, permutation_enumerator):
    ours = set(enumerate_simple_paths(golden))
    assert ours == permutation_enumerator(golden)
    assert len(ours) == 12


def test_enumeration_matches_oracle_on_random_instances(permutation_enumerator):
    for instance in _sweep_instances(counts=(6, 8), seeds=range(3)):
        assert set(enumerate_simple_paths(instance)) == permutation_enumerator(instance)


def test_brute_force_golden(golden):
    report = brute_force(golden)
    assert report.status is SolveStatus.OPTIMAL
    assert report.lower_bound == report.upper_bound == 7
    assert report.incumbent.vertices == (0, 1, 3, 4, 6)
    assert report.nodes_explored == 12


def test_brute_force_walks_a_long_chain(chain_builder):
    chain = chain_builder(1500)
    report = brute_force(chain)
    assert report.status is SolveStatus.OPTIMAL
    assert report.nodes_explored == 1
    assert report.upper_bound == evaluate(chain, range(1500)).objective


def test_brute_force_guard(golden, monkeypatch):
    monkeypatch.setattr(solvers, "BRUTE_FORCE_PATHS", 5)
    with pytest.raises(GuardExceededError, match="more than 5 simple paths enumerated"):
        brute_force(golden)


def test_enumeration_order_is_pinned(golden):
    # brute_force keeps the first optimum in this order, so the order is
    # part of the oracle's output, not only the set of paths.
    assert list(enumerate_simple_paths(golden)) == [
        (0, 1, 3, 4, 6), (0, 1, 3, 5, 6), (0, 1, 3, 6), (0, 1, 4, 6),
        (0, 2, 1, 3, 4, 6), (0, 2, 1, 3, 5, 6), (0, 2, 1, 3, 6), (0, 2, 1, 4, 6),
        (0, 2, 3, 4, 6), (0, 2, 3, 5, 6), (0, 2, 3, 6), (0, 2, 5, 6),
    ]


def _pricing_instances():
    # Weights from 0 and about two conflicts per arc, so paths meet
    # conflicts with both arcs, neither arc and one arc on them.
    out = []
    for seed in range(60):
        n = 6 + seed % 5
        out.append(generate_random(RandomConfig(
            n=n, d=0.35, r=0.2, weight_range=(0, 5), penalty_range=(1, 20), seed=seed
        )))
        out.append(generate_small_world(SmallWorldConfig(
            n=n + 1, k=0.4, r=0.2, weight_range=(0, 5), penalty_range=(1, 20), seed=seed
        )))
    return out


def test_walk_prices_every_path_like_evaluate(golden):
    states = Counter()
    paths = 0
    for instance in [golden, *_pricing_instances()]:
        priced = list(solvers._simple_paths(instance, solvers._Run(None)))
        assert [verts for verts, _ in priced] == list(enumerate_simple_paths(instance))
        for verts, price in priced:
            sol = evaluate(instance, verts)
            assert price == sol.objective, verts
            used = set(sol.arc_indices)
            states.update((c.arc_a in used) + (c.arc_b in used) for c in instance.conflicts)
            paths += 1
    assert paths >= 1000
    assert states[0] and states[1] and states[2], states


def test_brute_force_keeps_the_first_path_of_least_evaluate():
    # The reference prices every path with evaluate and keeps the first
    # minimum in enumeration order.
    for instance in _pricing_instances():
        paths = list(enumerate_simple_paths(instance))
        best = min(paths, key=lambda verts: evaluate(instance, verts).objective)
        report = brute_force(instance)
        assert report.incumbent == evaluate(instance, best)
        assert report.nodes_explored == len(paths)


# (status, LB, UB, nodes, incumbent vertices, satisfied conflicts) of one
# pool entry of each perfbench pipeline sweep slot, recorded while every
# path was still priced by evaluate.
_PINNED_BRUTE = [
    (
        RandomConfig(n=14, d=0.3, r=0.02, seed=1002),
        (SolveStatus.OPTIMAL, 1513, 1513, 1060, (0, 9, 10, 7, 4, 1, 3, 6, 12, 2, 13),
         (0, 2, 3, 7, 8, 11, 13, 14, 15, 16, 17, 20, 23, 24)),
    ),
    (
        SmallWorldConfig(n=16, k=0.25, r=0.02, seed=1024),
        (SolveStatus.OPTIMAL, 481, 481, 3838, (0, 15), ()),
    ),
]


@pytest.mark.parametrize("config, expected", _PINNED_BRUTE)
def test_brute_force_is_pinned(config, expected):
    generate = generate_random if isinstance(config, RandomConfig) else generate_small_world
    report = brute_force(generate(config))
    assert (
        report.status, report.lower_bound, report.upper_bound, report.nodes_explored,
        report.incumbent.vertices, report.incumbent.satisfied_conflicts,
    ) == expected


@pytest.mark.parametrize("first", [(0, 1, 3), (0, 2, 3)])
def test_brute_force_keeps_the_first_of_tied_optima(first):
    # Two paths of objective 2 through vertex 1 or 2; the arcs out of the
    # source are listed so that the path through `first[1]` is enumerated
    # first.  Each path uses one of the two conflicting source arcs.
    arcs = (ArcRecord(0, first[1], 1), ArcRecord(0, 3 - first[1], 1),
            ArcRecord(1, 3, 1), ArcRecord(2, 3, 1))
    instance = Instance(vertex_count=4, arcs=arcs, source=0, sink=3,
                        conflicts=(ConflictRecord(0, 1, 5),))
    paths = list(enumerate_simple_paths(instance))
    assert paths[0] == first
    assert {evaluate(instance, verts).objective for verts in paths} == {2}
    report = brute_force(instance)
    assert report.incumbent.vertices == first
    assert report.nodes_explored == 2



# --- branch and bound -----------------------------------------------------

def test_branch_and_bound_golden(golden):
    report = branch_and_bound(golden)
    assert report.status is SolveStatus.OPTIMAL
    assert report.lower_bound == report.upper_bound == 7
    assert report.incumbent.vertices == (0, 1, 3, 4, 6)
    assert report.incumbent.violated_conflicts == frozenset()


@pytest.mark.xfail(
    strict=True,
    raises=RecursionError,
    reason="branch_and_bound's depth-first walk is recursive",
)
def test_branch_and_bound_walks_a_long_chain(chain_builder):
    chain = chain_builder(1500)
    report = branch_and_bound(chain)
    assert report.status is SolveStatus.OPTIMAL
    assert report.upper_bound == evaluate(chain, range(1500)).objective


def test_branch_and_bound_matches_brute_force_sweep():
    for instance in _sweep_instances():
        exact = brute_force(instance)
        bb = branch_and_bound(instance)
        assert bb.status is SolveStatus.OPTIMAL
        assert bb.upper_bound == exact.upper_bound
        assert bb.lower_bound == bb.upper_bound
        assert evaluate(instance, bb.incumbent.vertices) == bb.incumbent


def test_branch_and_bound_reduces_to_dijkstra_without_conflicts():
    for n, d, seed in [(10, 0.3, 1), (15, 0.2, 2), (20, 0.25, 3), (12, 0.4, 4)]:
        instance = generate_random(RandomConfig(n=n, d=d, r=0.0, seed=seed))
        assert not instance.conflicts
        dist, _ = dijkstra(instance)
        report = branch_and_bound(instance)
        assert report.status is SolveStatus.OPTIMAL
        assert report.upper_bound == dist[instance.sink]



def test_branch_and_bound_is_deterministic(golden):
    first = branch_and_bound(golden)
    second = branch_and_bound(golden)
    assert first.incumbent == second.incumbent
    assert (first.lower_bound, first.upper_bound) == (
        second.lower_bound,
        second.upper_bound,
    )
    assert first.nodes_explored == second.nodes_explored


def _admissibility_instances():
    # The sweep plus small-world lattices and random instances whose
    # weights in 0..5 against penalties up to 20 drive some reduced costs
    # w - sum(mu) below zero, which the bound prices separately.
    out = _sweep_instances(counts=(6, 8), seeds=range(2))
    for seed in range(4):
        out.append(generate_random(RandomConfig(
            n=9, d=0.4, r=0.05, weight_range=(0, 5), penalty_range=(1, 20), seed=seed
        )))
        out.append(generate_small_world(SmallWorldConfig(
            n=8, k=0.4, r=0.08, penalty_range=(1, 20), seed=seed
        )))
    return out


def test_branch_and_bound_bounds_are_admissible():
    # Every node bound must lower-bound the best completion of its
    # partial path, established here against the exhaustive oracle.
    for instance in _admissibility_instances():
        completions: dict[tuple[int, ...], int] = {}
        for verts in enumerate_simple_paths(instance):
            objective = evaluate(instance, verts).objective
            for i in range(1, len(verts) + 1):
                prefix = verts[:i]
                best = completions.get(prefix)
                if best is None or objective < best:
                    completions[prefix] = objective
        seen = []

        def check(prefix, bound):
            seen.append(prefix)
            assert isinstance(bound, int)
            if prefix in completions:
                assert bound <= completions[prefix]

        report = branch_and_bound(instance, on_node=check)
        assert seen, "instrumentation hook never fired"
        assert report.upper_bound == completions[(instance.source,)]


def test_branch_and_bound_leaves_no_cyclic_garbage(golden, chain_builder):
    # The recursive walk's closure refers to itself; a returned or failed
    # solve must not leave that cycle (and on failure every frame of the
    # walk) to the cyclic collector.
    chain = chain_builder(1500)
    gc.collect()
    gc.disable()
    try:
        branch_and_bound(golden)
        assert gc.collect() == 0
        try:
            branch_and_bound(chain)
        except RecursionError:
            pass
        else:
            pytest.fail("the walk no longer recurses: drop this failure case")
        assert gc.collect() == 0
    finally:
        gc.enable()


_PINNED_BB = [
    (
        RandomConfig(n=30, d=0.15, r=1e-3, seed=1042),
        (383, 282, 301, (0, 13, 8, 21, 16, 1, 25, 5, 29)),
    ),
    (
        SmallWorldConfig(n=30, k=0.2, r=1e-3, seed=1322),
        (230, 16, 217, (0, 23, 5, 7, 12, 15, 28, 29)),
    ),
]


@pytest.mark.parametrize("config, expected", _PINNED_BB)
def test_branch_and_bound_is_pinned(config, expected):
    # (optimum, nodes, root bound, incumbent); the node count and the root
    # bound move with the bound or the multiplier schedule, the optimum
    # and the incumbent (the first optimum in child order) must not.
    generate = generate_random if isinstance(config, RandomConfig) else generate_small_world
    roots = []
    report = branch_and_bound(
        generate(config), on_node=lambda path, bound: roots.append(bound)
    )
    assert report.status is SolveStatus.OPTIMAL
    assert (
        report.upper_bound, report.nodes_explored, roots[0], report.incumbent.vertices
    ) == expected


def test_branch_and_bound_incumbents_improve_strictly(golden):
    seen = []
    report = branch_and_bound(golden, on_incumbent=seen.append)
    assert [(sol.objective, sol.vertices) for sol in seen] == [
        (15, (0, 2, 1, 3, 6)), (7, (0, 1, 3, 4, 6)),
    ]
    assert seen[-1] is report.incumbent


def test_branch_and_bound_hands_over_the_root_timeout_incumbent():
    # A deadline that passes while the multipliers are chosen: the path the
    # rounds priced is the incumbent, and the hook receives it like any other.
    instance = generate_random(RandomConfig(n=60, d=0.05, r=1e-3, seed=0))
    seen = []
    report = branch_and_bound(instance, time_limit=0.0, on_incumbent=seen.append)
    assert report.status is SolveStatus.TIME_LIMIT
    assert report.nodes_explored == 1
    assert [sol.objective for sol in seen] == [report.upper_bound] == [1172]
    assert seen[0] is report.incumbent


def test_branch_and_bound_timeout_keeps_valid_bounds():
    instance = generate_random(
        RandomConfig(n=16, d=0.3, r=0.01, penalty_range=(25, 125), seed=1)
    )
    full = branch_and_bound(instance)
    assert full.status is SolveStatus.OPTIMAL
    assert full.nodes_explored > 2048, "instance too small to exercise a timeout"
    cut = branch_and_bound(instance, time_limit=0.0)
    assert cut.status is SolveStatus.TIME_LIMIT
    assert cut.lower_bound <= cut.upper_bound
    assert cut.lower_bound <= full.upper_bound
    if cut.incumbent is not None:
        assert cut.upper_bound == cut.incumbent.objective
        assert cut.upper_bound >= full.upper_bound


def test_branch_and_bound_stops_at_the_root_on_a_past_deadline():
    # The deadline has passed before the walk starts, so only the root is
    # visited and the LB is its bound.  Only round 0 of the multipliers
    # runs, and its path, the incumbent, is a conflict-blind shortest path.
    instance = _timeout_instance()
    optimum = branch_and_bound(instance).upper_bound
    roots = []
    report = branch_and_bound(
        instance, time_limit=0.0, on_node=lambda path, bound: roots.append(bound)
    )
    assert report.status is SolveStatus.TIME_LIMIT
    assert report.nodes_explored == len(roots) == 1
    assert report.incumbent.arc_cost == dijkstra(instance)[0][instance.sink]
    assert report.lower_bound == min(roots[0], report.upper_bound) <= optimum


def test_branch_and_bound_root_timeout_keeps_the_best_priced_path(monkeypatch):
    # A clock that expires the moment the root record, multiplier rounds
    # included, is built: the walk stops at the root, and the incumbent is
    # the best path the rounds priced rather than the conflict-blind
    # shortest path.
    instance = generate_random(RandomConfig(n=40, d=0.1, r=1e-3, seed=3))
    returned = False
    choose = solvers._root

    def chosen(*args, **kwargs):
        nonlocal returned
        result = choose(*args, **kwargs)
        returned = True
        return result

    monkeypatch.setattr(solvers, "_root", chosen)
    monkeypatch.setattr(solvers._Run, "expired", lambda run: returned)
    report = branch_and_bound(instance)
    assert report.status is SolveStatus.TIME_LIMIT
    assert report.nodes_explored == 1
    blind = evaluate(instance, shortest_path_vertices(instance)).objective
    assert (report.upper_bound, blind) == (752, 882)
    assert evaluate(instance, report.incumbent.vertices).objective == report.upper_bound
    assert report.lower_bound <= report.upper_bound


def test_branch_and_bound_stops_the_multipliers_once_they_stall(
    monkeypatch, chain_builder
):
    # On the chain one step clips the multiplier to its penalty and the next
    # moves nothing, so the remaining rounds would repeat one Dijkstra each.
    calls = []
    counted = solvers.dijkstra

    def counting(*args, **kwargs):
        calls.append(args)
        return counted(*args, **kwargs)

    monkeypatch.setattr(solvers, "dijkstra", counting)
    chain = chain_builder(300)
    report = branch_and_bound(chain)
    assert report.status is SolveStatus.OPTIMAL
    assert report.upper_bound == evaluate(chain, range(300)).objective
    assert len(calls) <= 2


# --- local search ---------------------------------------------------------

def test_local_search_golden(golden):
    report = local_search(golden, seed=0)
    assert report.status is SolveStatus.FEASIBLE
    assert report.lower_bound == 5
    assert report.upper_bound == 7
    assert report.incumbent.vertices == (0, 1, 3, 4, 6)


def test_local_search_without_conflicts_matches_dijkstra():
    for seed in range(3):
        instance = generate_random(RandomConfig(n=15, d=0.3, r=0.0, seed=seed))
        dist, _ = dijkstra(instance)
        report = local_search(instance, seed=seed)
        assert report.upper_bound == dist[instance.sink]


def test_local_search_bounds_and_dominance():
    for instance in _sweep_instances(counts=(8, 10), seeds=range(3)):
        exact = brute_force(instance)
        seed_objective = evaluate(instance, shortest_path_vertices(instance)).objective
        report = local_search(instance, seed=1)
        assert report.status is SolveStatus.FEASIBLE
        assert report.lower_bound <= exact.upper_bound
        assert exact.upper_bound <= report.upper_bound <= seed_objective


def test_local_search_is_deterministic(golden):
    instance = generate_random(
        RandomConfig(n=20, d=0.3, r=0.003, penalty_range=(25, 125), seed=5)
    )
    first = local_search(instance, seed=9)
    second = local_search(instance, seed=9)
    assert first.incumbent == second.incumbent
    assert first.nodes_explored == second.nodes_explored



def _deadline_instance():
    # Large enough that no solver finishes within 0.2 s.
    return generate_random(RandomConfig(n=1000, d=0.01, r=1e-4, seed=0))


def test_local_search_deadline_covers_the_candidate_pool(deadline_tolerance):
    # The 50-path Yen pool alone takes about a second here.
    instance = _deadline_instance()
    start = time.perf_counter()
    report = local_search(instance, time_limit=0.2)
    assert time.perf_counter() - start <= 0.2 + deadline_tolerance
    assert report.status is SolveStatus.FEASIBLE
    assert report.upper_bound == evaluate(instance, report.incumbent.vertices).objective


@pytest.mark.parametrize("solve", [branch_and_bound, brute_force], ids=["bb", "brute"])
def test_exact_solvers_meet_the_same_deadline(solve, deadline_tolerance):
    # Brute force finds few complete paths here, so its time guard must be
    # tested during the walk, not once per batch of paths.
    instance = _deadline_instance()
    start = time.perf_counter()
    if solve is brute_force:
        with pytest.raises(GuardExceededError, match="time guard"):
            brute_force(instance, time_limit=0.2)
    else:
        report = branch_and_bound(instance, time_limit=0.2)
        assert report.status is SolveStatus.TIME_LIMIT
        assert report.lower_bound <= report.upper_bound
        assert report.upper_bound == evaluate(instance, report.incumbent.vertices).objective
    assert time.perf_counter() - start <= 0.2 + deadline_tolerance


def _detour_instances():
    # Zero weights and the beta = 0 ring lattice make equal-distance ties.
    return [
        generate_random(RandomConfig(
            n=25, d=0.2, r=1e-3, weight_range=(0, 5), penalty_range=(1, 20), seed=s
        ))
        for s in range(2)
    ] + [
        generate_small_world(SmallWorldConfig(
            n=40, k=0.1, beta=0.0, r=2e-3, weight_range=(0, 3), seed=s
        ))
        for s in range(2)
    ] + [
        generate_random(RandomConfig(n=40, d=0.1, r=1e-3, seed=3)),
        generate_small_world(SmallWorldConfig(n=60, k=0.05, beta=0.0, r=1e-3, seed=3)),
    ]


def _detour_paths(instance):
    # A few Yen paths plus the local-search incumbent, as evaluated
    # solutions; the incumbent is dropped when it is one of the Yen paths.
    paths = [verts for _, verts in _yen_paths(instance, 6)]
    paths.append(local_search(instance).incumbent.vertices)
    return [evaluate(instance, verts) for verts in dict.fromkeys(paths)]


def _masked_route(instance, p, i, j):
    # Reference: arcs of the masked dijkstra from p[i] to p[j] with the
    # vertices of p[:i] and p[j+1:] banned.
    _, pred = dijkstra(
        instance, origin=p[i], targets=(p[j],),
        banned_vertices=set(p[:i]) | set(p[j + 1:]),
    )
    arcs = []
    v = p[j]
    while v != p[i]:
        arcs.append(pred[v])
        v = instance.arcs[pred[v]].tail
    arcs.reverse()
    return arcs


def _masked_detours(instance, sol, i):
    # Reference: one masked dijkstra per (i, j).
    p = sol.vertices
    found = []
    for j in range(i + 1, len(p)):
        arcs = _masked_route(instance, p, i, j)
        if tuple(arcs) != sol.arc_indices[i:j]:
            found.append((j, arcs))
    return found


def _shared_memo_detours(instance, paths, reused):
    # (sol, i, detours) for every start vertex of every solution in paths,
    # all sharing one memo as in a local_search call.  reused counts the
    # trees and masked searches that a call finds cached by an earlier
    # path: a masked key holds the path's prefix and suffix, and the same
    # prefix gives the same tree, so a cached search is one the call
    # needs.  Once the paths are done, every cached search is checked
    # against a fresh full search under its key's bans: each predecessor
    # it keeps is the full search's, and its targets (every later vertex
    # of each path that read a tree, p[j] of a masked key) are kept.
    memo = {}
    read = {}  # tree key -> the later vertices of the paths that read it
    for sol in paths:
        p = sol.vertices
        for i in range(len(p) - 1):
            root = p[: i + 1]
            reused["trees"] += root in memo
            reused["routes"] += sum((root, p[j:]) in memo for j in range(i + 1, len(p)))
            read.setdefault(root, set()).update(p[i + 1:])
            yield sol, i, list(_detours(instance, p, i, memo))
    for key, cached in memo.items():
        if isinstance(key[0], tuple):  # (p[: i + 1], p[j:]): the search for j
            root, rest = key
            origin, banned, targets = root[-1], {*root[:-1], *rest[1:]}, rest[:1]
        else:  # p[: i + 1]: the tree from p[i]
            origin, banned, targets = key[-1], set(key[:-1]), read[key]
        fresh = dijkstra(instance, origin=origin, banned_vertices=banned)[1]
        assert len(cached) == len(fresh)
        assert all(a is None or a == b for a, b in zip(cached, fresh)), key
        assert all(cached[t] is not None for t in targets), key


def _detour_cases():
    # (instance, paths) per detour instance; the paths come first, so a
    # wrapper installed afterwards sees only the detour searches.
    return [(instance, _detour_paths(instance)) for instance in _detour_instances()]


def test_detour_routes_match_the_masked_reference(monkeypatch):
    # A tree targets the path's later vertices, the sink among them; a
    # masked search bans p[j+1:], so its targets never hold the sink.
    cases = _detour_cases()
    fallbacks = 0
    searches = solvers.dijkstra

    def counted(instance, **kwargs):
        nonlocal fallbacks
        fallbacks += instance.sink not in kwargs["targets"]
        return searches(instance, **kwargs)

    monkeypatch.setattr(solvers, "dijkstra", counted)
    reused = Counter()
    for instance, paths in cases:
        for sol, i, found in _shared_memo_detours(instance, paths, reused):
            assert found == _masked_detours(instance, sol, i)
    assert fallbacks > 0, "no route entered the later path; the fallback went untested"
    assert reused["trees"] > 0 and reused["routes"] > 0, reused


def _tiny_shape(rng):
    # 3-14 vertices, source 0 and sink n - 1, arcs both ways, weights drawn
    # from {0, 0, 1, 1, 2, 3}, so equal-distance ties are everywhere.
    n = rng.randint(3, 14)
    density = rng.uniform(0.15, 0.5)
    arcs = tuple(
        ArcRecord(t, h, rng.choice((0, 0, 1, 1, 2, 3)))
        for t in range(n) for h in range(n)
        if t != h and rng.random() < density
    )
    return Instance(vertex_count=n, arcs=arcs, conflicts=(), source=0, sink=n - 1)


def test_detours_match_the_masked_reference_on_tiny_ties(monkeypatch):
    # Several paths of one shape share a memo, as in a local_search call,
    # so trees are reused and rerun and masked searches serve smaller j.
    searches = solvers.dijkstra
    kinds = Counter()
    trees = set()

    def counted(instance, **kwargs):
        targets = kwargs["targets"]
        if instance.sink in targets:
            tree = (kwargs["origin"], frozenset(kwargs["banned_vertices"]))
            kinds["tree reruns"] += tree in trees
            trees.add(tree)
        else:
            kinds["masked with several targets"] += len(targets) > 1
        return searches(instance, **kwargs)

    monkeypatch.setattr(solvers, "dijkstra", counted)
    shapes = 0
    for seed in range(1400):
        rng = random.Random(f"tiny-detours/{seed}")
        instance = _tiny_shape(rng)
        paths = list(islice(enumerate_simple_paths(instance), 100))
        if not paths:
            continue
        shapes += 1
        memo = {}
        trees.clear()
        for verts in rng.sample(paths, min(len(paths), 4)):
            sol = evaluate(instance, verts)
            for i in range(len(verts) - 1):
                assert list(_detours(instance, verts, i, memo)) == (
                    _masked_detours(instance, sol, i)
                ), (seed, verts, i)
    assert shapes >= 1000
    assert kinds["tree reruns"] > 0 and kinds["masked with several targets"] > 0, kinds


def test_detour_objective_matches_evaluate():
    priced = 0
    reused = Counter()
    for instance, paths in _detour_cases():
        heads = instance.heads
        for sol, i, found in _shared_memo_detours(instance, paths, reused):
            p = sol.vertices
            used = set(sol.arc_indices)
            for j, alt in found:
                moved = (*p[: i + 1], *(heads[a] for a in alt), *p[j + 1:])
                assert _detour_objective(instance, sol, used, i, j, alt) == (
                    evaluate(instance, moved).objective
                )
                priced += 1
    assert priced >= 100
    assert reused["trees"] > 0 and reused["routes"] > 0, reused


# --- k shortest paths -----------------------------------------------------

def test_k_shortest_paths_covers_everything(golden):
    ranked = _yen_paths(golden, 50)
    assert len(ranked) == 12
    costs = [cost for cost, _ in ranked]
    assert costs == sorted(costs)
    assert costs[:3] == [5, 5, 6]
    assert {verts for _, verts in ranked} == set(enumerate_simple_paths(golden))
    for cost, verts in ranked:
        assert evaluate(golden, verts).arc_cost == cost


def test_k_shortest_paths_of_none_is_empty(golden):
    assert list(solvers._yen(_dead_end())) == []
    assert _yen_paths(golden, 1) == [(5, (0, 2, 1, 3, 6))]


def test_k_shortest_paths_prefix():
    instance = generate_random(RandomConfig(n=10, d=0.4, r=0.0, seed=2))
    all_costs = sorted(
        evaluate(instance, verts).arc_cost
        for verts in enumerate_simple_paths(instance)
    )
    top = _yen_paths(instance, 4)
    assert [cost for cost, _ in top] == all_costs[: len(top)]


# --- pinned outputs -------------------------------------------------------

_PINNED_N60 = [
    (
        RandomConfig(n=60, d=0.05, r=1e-3, seed=1),
        [76, 77, 171, 172, 219, 227, 235, 237, 249, 259,
         265, 268, 269, 274, 278, 289, 290, 292, 295, 295],
        "87d3dbb347fdc1eafdd927dc76cd940934bf0115039cc994a20adbbdb45291f8",
        (1080, 279, (0, 58, 31, 59)),
    ),
    (
        RandomConfig(n=60, d=0.1, r=5e-4, seed=2),
        [126, 145, 146, 165, 173, 174, 177, 179, 181, 183,
         184, 185, 187, 187, 189, 190, 191, 191, 192, 193],
        "302858b3683506a71f8763500cb6b92aade3087181cf3ad63a7d21b63a58dc4c",
        (2386, 285, (0, 54, 3, 28, 13, 8, 51, 34, 59)),
    ),
]


@pytest.mark.parametrize("config, costs, digest, _", _PINNED_N60)
def test_k_shortest_paths_are_pinned(config, costs, digest, _):
    ranked = _yen_paths(generate_random(config), 20)
    assert [cost for cost, _ in ranked] == costs
    assert hashlib.sha256(repr(ranked).encode()).hexdigest() == digest


@pytest.mark.parametrize("config, _, __, expected", _PINNED_N60)
def test_local_search_is_pinned(config, _, __, expected):
    report = local_search(generate_random(config))
    assert (
        report.upper_bound, report.nodes_explored, report.incumbent.vertices
    ) == expected


# Recorded with the per-pair masked-Dijkstra descent, before detours were
# routed from one search per start vertex and priced by their delta.  The
# node counts here and in _PINNED_N60 are one lower than in that recording:
# the shortest path now seeds the search as the Yen pool's first path, so
# it is priced once instead of twice.
_PINNED_FAMILIES = [
    (
        RandomConfig(n=100, d=0.1, r=1e-3, seed=1007), 0,
        (33183, 2360, (0, 42, 68, 82, 36, 17, 43, 94, 53, 25, 72, 92, 41,
                       67, 64, 19, 35, 1, 63, 51, 11, 84, 79, 46, 99)),
    ),
    (
        RandomConfig(n=200, d=0.05, r=1e-4, seed=1007), 0,
        (13382, 3627, (0, 107, 39, 3, 38, 102, 100, 98, 70, 133, 43, 162, 78,
                       140, 10, 127, 2, 34, 25, 45, 108, 106, 164, 193, 199)),
    ),
    (
        SmallWorldConfig(n=100, k=0.1, r=1e-3, seed=1005), 0,
        (5057, 1187, (0, 16, 41, 42, 46, 3, 20, 22, 96, 80, 84, 81, 76, 92,
                      95, 99)),
    ),
    (
        SmallWorldConfig(n=120, k=0.04, beta=0.0, r=1e-3, seed=1001), 0,
        (1300, 1422, (0, 1, 119)),
    ),
    (
        RandomConfig(n=25, d=0.2, r=1e-3, weight_range=(0, 5),
                     penalty_range=(1, 20), seed=7), 7,
        (24, 940, (0, 18, 22, 4, 6, 2, 14, 10, 9, 12, 5, 1, 19, 24)),
    ),
    (
        SmallWorldConfig(n=60, k=0.05, beta=0.0, r=1e-3, seed=3), 3,
        (284, 1625, (0, 59)),
    ),
]


# The four slots of the `heuristic` benchmark workload at seed 0, with
# the sha256 of repr(incumbent vertices), recorded before the detour
# searches stopped at the path's last vertex.
_PINNED_HEURISTIC = [
    (RandomConfig(n=100, d=0.1, r=1e-3, seed=1007), 33183, 2360,
     "8b8f4cbd3bbd1bffeeffb381a8665870e66be06efbbc226bc421231636844144"),
    (RandomConfig(n=200, d=0.05, r=1e-4, seed=1017), 13800, 3633,
     "8aefba682635f5e7b5cc234487f31f6360e19839b39d232b31d6ba452cd4b7a6"),
    (SmallWorldConfig(n=100, k=0.1, r=1e-3, seed=1019), 5364, 1378,
     "50f8398803c19bfdd5c8450b5c49edf30a62cbdb15b5012c6991c74ce95fbfac"),
    (SmallWorldConfig(n=120, k=0.04, beta=0.0, r=1e-3, seed=1033), 1134, 4598,
     "5170f5800143d8f3235a4e238eaf3c545c69afbee1d0120c8a448ae0ac7a0b00"),
]


def _pinned_instance(config):
    if isinstance(config, RandomConfig):
        return generate_random(config)
    return generate_small_world(config)


@pytest.mark.parametrize("config, seed, expected", _PINNED_FAMILIES)
def test_local_search_is_pinned_across_families(config, seed, expected):
    report = local_search(_pinned_instance(config), seed=seed)
    assert (
        report.upper_bound, report.nodes_explored, report.incumbent.vertices
    ) == expected


@pytest.mark.parametrize("config, ub, nodes, digest", _PINNED_HEURISTIC)
def test_local_search_is_pinned_on_the_heuristic_slots(config, ub, nodes, digest):
    instance = _pinned_instance(config)
    report = local_search(instance, seed=0)
    assert (report.upper_bound, report.nodes_explored) == (ub, nodes)
    vertices = report.incumbent.vertices
    assert hashlib.sha256(repr(vertices).encode()).hexdigest() == digest
    assert evaluate(instance, vertices).objective == ub


def test_local_search_repeats_no_search(monkeypatch):
    # Each solve runs every distinct shortest-path search once: the detour
    # memo serves repeated trees and masked searches, Yen's memo repeated
    # spur searches.  The instances are built before dijkstra is wrapped,
    # because the generators' sink check is the same search as Yen's
    # first path.  The two memos are apart, and a detour tree from the
    # source of a one-arc path is Yen's first search, so searches are told
    # apart by their caller too.
    solves = [
        (local_search, _pinned_instance(config))
        for config in (
            SmallWorldConfig(n=120, k=0.04, beta=0.0, r=1e-3, seed=1001),
            RandomConfig(n=100, d=0.1, r=1e-3, seed=1007),
        )
    ] + [
        (lambda instance: _yen_paths(instance, 20), generate_random(config))
        for config, *_ in _PINNED_N60
    ]
    searches = solvers.dijkstra
    keys = []

    def recorded(instance, **kwargs):
        keys.append((
            sys._getframe(1).f_code.co_name,
            kwargs.get("origin"), frozenset(kwargs.get("targets", ())),
            frozenset(kwargs.get("banned_vertices", ())),
            frozenset(kwargs.get("banned_arcs", ())),
        ))
        return searches(instance, **kwargs)

    monkeypatch.setattr(solvers, "dijkstra", recorded)
    for solve, instance in solves:
        keys.clear()
        solve(instance)
        repeated = [key for key, count in Counter(keys).items() if count > 1]
        assert keys and not repeated, f"{len(repeated)} of {len(set(keys))} searches repeat"


def test_local_search_closes_the_yen_pool_before_the_descent(monkeypatch):
    # The pool holds Yen's spur memo and candidate heap.  The instance has
    # more paths than the pool draws, so only closing the generator ends
    # its frame before the first detour search.
    yen, detours = solvers._yen, solvers._detours
    pools, frames = [], []

    def captured(instance):
        pools.append(yen(instance))
        return pools[-1]

    def first_detour(*args):
        if not frames:
            frames.append(pools[0].gi_frame)
        return detours(*args)

    monkeypatch.setattr(solvers, "_yen", captured)
    monkeypatch.setattr(solvers, "_detours", first_detour)
    config, *_, expected = _PINNED_N60[0]
    report = local_search(generate_random(config))
    assert len(pools) == 1 and frames == [None]
    assert (
        report.upper_bound, report.nodes_explored, report.incumbent.vertices
    ) == expected


@pytest.mark.parametrize(
    "config", [c for c, *_ in _PINNED_N60] + [c for c, *_ in _PINNED_FAMILIES]
)
def test_local_search_bound_and_seed_are_yens_first_path(config):
    # The seed path is the conflict-blind shortest path, which is also the
    # first path of the Yen pool, and the lower bound is its arc cost.
    instance = _pinned_instance(config)
    [(cost, first)] = _yen_paths(instance, 1)
    assert shortest_path_vertices(instance) == first
    assert local_search(instance, time_limit=0.0).lower_bound == cost


# --- the report contract and time limits ----------------------------------

def _dead_end():
    # The sink has no arc in, so no path exists.
    return Instance(
        vertex_count=3, arcs=(ArcRecord(1, 0, 1),), conflicts=(), source=0, sink=2
    )


def _timeout_instance():
    # The instance of test_branch_and_bound_timeout_keeps_valid_bounds.
    return generate_random(
        RandomConfig(n=16, d=0.3, r=0.01, penalty_range=(25, 125), seed=1)
    )


@pytest.mark.parametrize(
    "solve, name, time_limit, status",
    [
        (brute_force, "dead end", None, SolveStatus.INFEASIBLE),
        (branch_and_bound, "dead end", None, SolveStatus.INFEASIBLE),
        (local_search, "dead end", None, SolveStatus.INFEASIBLE),
        (brute_force, "golden", None, SolveStatus.OPTIMAL),
        (branch_and_bound, "golden", None, SolveStatus.OPTIMAL),
        (local_search, "golden", None, SolveStatus.FEASIBLE),
        (branch_and_bound, "n16", 0.0, SolveStatus.TIME_LIMIT),
    ],
    ids=[
        "brute-infeasible", "bb-infeasible", "heur-infeasible",
        "brute-optimal", "bb-optimal", "heur-feasible", "bb-timelimit",
    ],
)
def test_report_contract(golden, solve, name, time_limit, status):
    build = {"dead end": _dead_end, "golden": lambda: golden, "n16": _timeout_instance}
    instance = build[name]()
    report = solve(instance, time_limit=time_limit)
    assert report.status is status
    assert report.lower_bound <= report.upper_bound
    assert (report.upper_bound == INFINITY) == (report.incumbent is None)
    if report.incumbent is not None:
        assert report.upper_bound == evaluate(instance, report.incumbent.vertices).objective
    if status is SolveStatus.OPTIMAL:
        assert report.lower_bound == report.upper_bound
    if status is SolveStatus.INFEASIBLE:
        assert report.lower_bound == report.upper_bound == INFINITY
        assert report.nodes_explored == 0
    assert 0 <= report.seconds_to_best <= report.seconds_total


@pytest.mark.parametrize("limit", [math.nan, -1.0, 0.0, math.inf])
@pytest.mark.parametrize(
    "solve", [branch_and_bound, local_search, brute_force, run_bench],
    ids=["bb", "heur", "brute", "run_bench"],
)
def test_library_rejects_nan_and_negative_time_limits(tmp_path, golden, solve, limit):
    # NaN compares false with every deadline, so it would disable them all;
    # zero and infinity are valid limits.
    target = tmp_path if solve is run_bench else golden
    if limit >= 0:
        solve(target, time_limit=limit)
    else:
        with pytest.raises(ValueError, match="time limit must be a non-negative number"):
            solve(target, time_limit=limit)


# --- optimality gap -------------------------------------------------------

def test_optimality_gap_values():
    assert optimality_gap(7, 7) == 0.0
    assert optimality_gap(0, 0) == 0.0
    assert optimality_gap(99, 100) == pytest.approx(1.0)
    assert optimality_gap(50, 100) == pytest.approx(50.0)
    assert optimality_gap(70658.9, 70658.9) == 0.0


def test_optimality_gap_errors():
    with pytest.raises(GapUndefinedError):
        optimality_gap(3, INFINITY)
    with pytest.raises(ValueError):
        optimality_gap(8, 7)
    with pytest.raises(GapUndefinedError):
        optimality_gap(-2, 0)
