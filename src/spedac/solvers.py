"""Solvers: Dijkstra baseline, exhaustive oracle, branch-and-bound, local search.

All solvers consume the immutable Instance from spedac.core and return a
SolveReport.  Bounds and objectives are exact integers; +infinity is the
sentinel for "no value" (unreachable sink, no incumbent).
"""

from __future__ import annotations

import heapq
import math
import random
import time
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import Callable, Collection, Iterator, NamedTuple, Optional, Sequence

from .core import Instance, PathSolution, evaluate, satisfied_conflicts

INFINITY = math.inf
LOCAL_SEARCH_POOL = 50  # k-shortest paths evaluated before the descent
BRUTE_FORCE_PATHS = 1_000_000  # simple paths brute_force enumerates at most
LOCAL_SEARCH_RESTARTS = 8  # perturbation kicks after the first descent
LAGRANGE_ROUNDS = 40  # subgradient rounds for the B&B root multipliers
LAGRANGE_PATIENCE = 2  # rounds without a better bound before the step halves


class GuardExceededError(RuntimeError):
    """The enumeration guard of the exhaustive solver tripped."""


class GapUndefinedError(ValueError):
    """The optimality gap is undefined for the given bounds."""


class SolveStatus(Enum):
    OPTIMAL = "Optimal"
    FEASIBLE = "Feasible"
    INFEASIBLE = "Infeasible"
    TIME_LIMIT = "TimeLimit"


@dataclass(frozen=True, slots=True)
class SolveReport:
    """Outcome of one solver run.

    lower_bound <= upper_bound always holds; upper_bound is +infinity
    exactly when there is no incumbent, and status OPTIMAL certifies
    lower_bound == upper_bound.
    """

    status: SolveStatus
    lower_bound: float
    upper_bound: float
    incumbent: Optional[PathSolution]
    seconds_to_best: float
    seconds_total: float
    nodes_explored: int


def check_time_limit(time_limit: Optional[float]) -> Optional[float]:
    """Return time_limit, or raise ValueError unless it is None or >= 0.

    NaN would defeat every deadline comparison; +infinity means no limit.
    """
    if time_limit is None or time_limit >= 0:
        return time_limit
    raise ValueError(
        f"time limit must be a non-negative number of seconds, got {time_limit!r}"
    )


class _Run:
    """One solve's clock, deadline and incumbent; builds its SolveReport."""

    __slots__ = ("start", "deadline", "best", "best_at", "on_incumbent")

    def __init__(
        self, time_limit: Optional[float],
        on_incumbent: Optional[Callable[[PathSolution], None]] = None,
    ) -> None:
        check_time_limit(time_limit)
        self.start = time.perf_counter()
        self.deadline = None if time_limit is None else self.start + time_limit
        self.best: Optional[PathSolution] = None
        self.best_at = 0.0
        self.on_incumbent = on_incumbent

    def expired(self) -> bool:
        return self.deadline is not None and time.perf_counter() > self.deadline

    def offer(self, sol: PathSolution) -> float:
        # Keeps sol when it strictly improves the incumbent, and hands it to
        # on_incumbent; returns the incumbent's objective.
        if self.best is None or sol.objective < self.best.objective:
            self.best = sol
            self.best_at = time.perf_counter() - self.start
            if self.on_incumbent is not None:
                self.on_incumbent(sol)
        return self.best.objective

    def report(self, status: SolveStatus, lower_bound: float, nodes: int) -> SolveReport:
        best = self.best
        return SolveReport(
            status=status,
            lower_bound=lower_bound,
            upper_bound=INFINITY if best is None else best.objective,
            incumbent=best,
            seconds_to_best=self.best_at,
            seconds_total=time.perf_counter() - self.start,
            nodes_explored=nodes,
        )


def dijkstra(
    instance: Instance,
    from_sink: bool = False,
    origin: Optional[int] = None,
    targets: Collection[int] = (),
    banned_vertices: frozenset[int] | set[int] = frozenset(),
    banned_arcs: frozenset[int] | set[int] = frozenset(),
    weights: Optional[Sequence[int]] = None,
) -> tuple[list[float], list[Optional[int]]]:
    """Conflict-blind single-source shortest arc-cost distances.

    With from_sink=False: distances from origin (default the source),
    pred[v] is the arc index entering v on a shortest route (None at the
    origin or when unreachable).  With from_sink=True the graph is
    traversed backwards from origin (default the sink): distances
    measure v -> origin, and pred[v] is the arc leaving v toward it.
    Unreachable vertices carry +infinity.  Arcs in banned_arcs and arcs
    leading into banned_vertices are skipped.  weights, indexed by arc,
    replaces the arc weights (default instance.weights); it must be
    non-negative.

    Given targets, the search stops once every target is settled.  With
    D the largest target distance, every vertex whose returned dist is at
    most D, each target among them, carries the dist and pred of the full
    search, ties included: the pops up to the last target are the full
    search's, since equal distances are settled in vertex-id order and a
    vertex keeps the first predecessor that reaches its distance.
    Entries above D may be provisional.
    """
    n = instance.vertex_count
    if weights is None:
        weights = instance.weights
    if origin is None:
        origin = instance.sink if from_sink else instance.source
    dist: list[float] = [INFINITY] * n
    pred: list[Optional[int]] = [None] * n
    dist[origin] = 0
    heap: list[tuple[float, int]] = [(0, origin)]
    if from_sink:
        neighbours, ends = instance.incoming, instance.tails
    else:
        neighbours, ends = instance.outgoing, instance.heads
    waiting = set(targets)  # the targets not yet settled
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        if waiting and u in waiting:
            waiting.remove(u)
            if not waiting:
                break
        for a in neighbours[u]:
            v = ends[a]
            nd = d + weights[a]
            if nd < dist[v] and v not in banned_vertices and a not in banned_arcs:
                dist[v] = nd
                pred[v] = a
                heapq.heappush(heap, (nd, v))
    return dist, pred


def _route(
    instance: Instance, origin: int, target: int,
    banned_vertices: frozenset[int] | set[int] = frozenset(),
    banned_arcs: frozenset[int] | set[int] = frozenset(),
) -> Optional[tuple[float, tuple[int, ...]]]:
    # (arc cost, vertices) of the cheapest origin -> target route that
    # avoids the bans, or None when target is unreachable.  dijkstra is
    # called through the module attribute, so a wrapper counts it.
    dist, pred = dijkstra(instance, origin=origin, targets=(target,),
                          banned_vertices=banned_vertices, banned_arcs=banned_arcs)
    if dist[target] == INFINITY:
        return None
    verts = [target]
    while verts[-1] != origin:
        verts.append(instance.tails[pred[verts[-1]]])
    verts.reverse()
    return dist[target], tuple(verts)


def shortest_path_vertices(instance: Instance) -> Optional[tuple[int, ...]]:
    """Vertices of a conflict-blind shortest source-sink path, or None."""
    found = _route(instance, instance.source, instance.sink)
    return None if found is None else found[1]


def enumerate_simple_paths(instance: Instance) -> Iterator[tuple[int, ...]]:
    """Yield every simple source-sink path, arcs explored in index order.

    Depth-first with an explicit stack of outgoing-arc iterators, so the
    path length is not limited by the interpreter's recursion depth.
    """
    return (verts for verts, _ in _simple_paths(instance, _Run(None)))


def _simple_paths(
    instance: Instance, run: _Run
) -> Iterator[tuple[Optional[tuple[int, ...]], int]]:
    # The walk of enumerate_simple_paths; yields (vertices, price) per
    # path, the price being the path's objective, and (None, 0) once run
    # has expired, which is tested at every 1024th backtrack, so the
    # deadline holds however few branches reach the sink.  A prefix's
    # price is its arc cost plus penalty_total minus the penalties of the
    # conflicts it satisfies.  Adding arc a adds w_a, plus p for each
    # partner already on the path (the conflict is no longer satisfied)
    # and minus p for each partner that is not (it now is); a and the
    # price before it are kept on a stack, and the price is restored when
    # a is taken off.
    heads = instance.heads
    weights = instance.weights
    outgoing = instance.outgoing
    sink = instance.sink
    partners = instance.conflict_partners
    path = [instance.source]
    on_path = [False] * instance.vertex_count
    on_path[instance.source] = True
    arc_on = [False] * len(weights)
    entered: list[tuple[int, int]] = []  # (arc, price before it) per path arc
    price = instance.penalty_total
    stack = [iter(outgoing[instance.source])]
    backtracks = 0
    while stack:
        for a in stack[-1]:
            v = heads[a]
            if on_path[v]:
                continue
            change = weights[a]
            for _, b, p in partners[a]:
                change += p if arc_on[b] else -p
            if v == sink:
                yield (*path, v), price + change
                continue
            entered.append((a, price))
            price += change
            arc_on[a] = True
            on_path[v] = True
            path.append(v)
            stack.append(iter(outgoing[v]))
            break
        else:
            stack.pop()
            on_path[path.pop()] = False
            if entered:
                a, price = entered.pop()
                arc_on[a] = False
            backtracks += 1
            if backtracks % 1024 == 0 and run.expired():
                yield None, 0


def brute_force(instance: Instance, time_limit: Optional[float] = None) -> SolveReport:
    """Exhaustive oracle: price every simple source-sink path.

    The walk prices each path incrementally (see _simple_paths), and
    evaluate builds a PathSolution only for a path that strictly improves
    the incumbent, so among equal-objective optima the first path in
    enumeration order is kept.  Raises GuardExceededError once more than
    BRUTE_FORCE_PATHS paths have been enumerated or the optional time
    guard trips.
    """
    run = _Run(time_limit)
    count = 0
    ub: float = INFINITY  # the incumbent's objective
    for verts, price in _simple_paths(instance, run):
        if verts is None:
            raise GuardExceededError(
                f"time guard of {time_limit} s exceeded after {count} paths"
            )
        count += 1
        if count > BRUTE_FORCE_PATHS:
            raise GuardExceededError(
                f"more than {BRUTE_FORCE_PATHS} simple paths enumerated"
            )
        if price < ub:
            ub = run.offer(evaluate(instance, verts))
    status = SolveStatus.INFEASIBLE if run.best is None else SolveStatus.OPTIMAL
    return run.report(status, ub, count)


class _Root(NamedTuple):
    """What the walk of branch_and_bound reads; built once per solve by _root."""

    dist_sink: list[float]  # conflict-blind distance to the sink
    dist_mu: list[float]  # distance to the sink under max(0, r)
    partners: list[tuple[tuple[int, int, int], ...]]  # (other arc, mu_k, p_k) per conflict
    order: list[tuple[int, ...]]  # out-arcs of each vertex in child order
    conflicted: list[tuple[int, ...]]  # the arcs of order[v] in some conflict
    negative_out: list[int]  # sum of min(0, r_a) over the arcs of order[v]
    open_mu: int  # sum(mu)
    negative_sum: int  # sum of min(0, r_a) over every arc
    bound: int  # the best round's L(mu), the root's bound
    priced: tuple[int, ...]  # the least-objective path the rounds priced


def _root(instance: Instance, run: _Run) -> Optional[_Root]:
    """The root of branch_and_bound, or None when the sink is unreachable.

    Picks integer Lagrangian multipliers for the conflicts by subgradient
    ascent.  Since p*|1 - x_a - x_b| >= mu*(1 - x_a - x_b) whenever
    |mu| <= p, every mu_k in [-p_k, p_k] gives the lower bound
        L(mu) = sum(mu) + SP+(source) + sum_a min(0, r_a)
    with r_a = w_a minus the multipliers of the conflicts of a, and SP+ the
    shortest distance under max(0, r).  Polyak steps toward the best path
    objective seen, rounded to integers and clipped to [-p_k, p_k], run
    for at most LAGRANGE_ROUNDS rounds; the step size halves after
    LAGRANGE_PATIENCE rounds without a better bound.  The search stops
    early on a zero subgradient, once run has expired, or when a step moves
    no multiplier: each multiplier with a nonzero subgradient then sits at
    the clip bound it is pushed against, so every later round, whatever its
    step, would repeat the same bound and leave mu where it is.  Round 0
    runs at mu = 0, where r = w, so the best bound is at least
    dist_sink[source].
    The record is built from the best round's multipliers, distances and
    reduced costs, and keeps the least-objective path among the rounds'
    (round 0's is a conflict-blind shortest path).
    """
    source, sink = instance.source, instance.sink
    dist, pred = dijkstra(instance, from_sink=True)
    if dist[source] == INFINITY:
        return None
    dist_sink = dist
    heads = instance.heads
    weights = instance.weights
    conflicts = instance.conflicts
    mu = [0] * len(conflicts)
    best, best_mu, best_dist, best_reduced = -INFINITY, mu, dist, weights
    target, best_pred = INFINITY, pred
    scale = 1.0
    stale = 0
    for round_ in range(LAGRANGE_ROUNDS):
        reduced = list(weights)
        for c, m in zip(conflicts, mu):
            reduced[c.arc_a] -= m
            reduced[c.arc_b] -= m
        if round_:
            dist, pred = dijkstra(
                instance, from_sink=True, weights=[r if r > 0 else 0 for r in reduced]
            )
        bound = sum(mu) + dist[source] + sum(r for r in reduced if r < 0)
        path_arcs = set()
        cost = 0
        v = source
        while v != sink:
            a = pred[v]
            path_arcs.add(a)
            cost += weights[a]
            v = heads[a]
        objective = cost + sum(
            c.penalty for c in conflicts
            if (c.arc_a in path_arcs) == (c.arc_b in path_arcs)
        )
        if objective < target:
            target, best_pred = objective, pred
        if bound > best:
            best, best_mu, best_dist, best_reduced, stale = bound, mu, dist, reduced, 0
        else:
            stale += 1
            if stale == LAGRANGE_PATIENCE:
                scale, stale = scale / 2, 0
        # The relaxed solution uses the path and every negative arc.
        grad = [1 - (reduced[c.arc_a] < 0 or c.arc_a in path_arcs)
                - (reduced[c.arc_b] < 0 or c.arc_b in path_arcs) for c in conflicts]
        norm = sum(g * g for g in grad)
        if norm == 0 or run.expired():
            break
        step = max(1, round(scale * (target - bound) / norm))
        moved = [
            max(-c.penalty, min(c.penalty, m + step * g))
            for m, g, c in zip(mu, grad, conflicts)
        ]
        if moved == mu:
            break
        mu = moved
    path = [source]
    while path[-1] != sink:
        path.append(heads[best_pred[path[-1]]])
    negative = [r if r < 0 else 0 for r in best_reduced]
    # Most arcs are in no conflict; their empty rows are kept as they are.
    partners = [row and tuple([(b, best_mu[k], p) for k, b, p in row])
                for row in instance.conflict_partners]
    # Children by arc weight plus the head's distance to the sink, ties by index.
    order = [tuple(sorted(out, key=lambda i: (weights[i] + dist_sink[heads[i]], i)))
             for out in instance.outgoing]
    return _Root(dist_sink, best_dist, partners, order,
                 [tuple(a for a in arcs if partners[a]) for arcs in order],
                 [sum(negative[a] for a in arcs) for arcs in order],
                 sum(best_mu), sum(negative), best, tuple(path))


def branch_and_bound(
    instance: Instance,
    time_limit: Optional[float] = None,
    on_node: Optional[Callable[[tuple[int, ...], float], None]] = None,
    on_incumbent: Optional[Callable[[PathSolution], None]] = None,
) -> SolveReport:
    """Depth-first branch-and-bound over simple path extensions.

    An arc is decided-in when it lies on the partial path and decided-out
    when its tail is a non-endpoint path vertex; every other arc is
    undecided.  _root picks integer conflict multipliers mu with reduced
    costs r, and builds every table the walk reads; dist_mu is the
    distance to the sink under max(0, r).  The bound at a node ending in v
    with partial arc cost g is

        g + committed + max(dist_sink[v],
                            open_mu + dist_mu[v] + sum of min(0, r_a)
                            over the undecided arcs a)

    where committed is the penalty of the conflicts whose two arcs are
    both decided and in the same state, open_mu the multiplier sum over
    the other conflicts that have no arc on the path, and dist_sink the
    conflict-blind distance to the sink.  Both terms of the max are
    valid; at mu = 0 the second equals the first.  At the root the bound
    is the best multiplier round's.  These sums, and the penalty sum over
    the same conflicts as open_mu, are kept incrementally, so a leaf's
    objective is g + committed + that penalty sum; evaluate builds the
    PathSolution only on a strict improvement.  Out-arcs are excluded
    once per node and each child flips only its own arc in and back out.
    Nodes are pruned when the bound reaches the incumbent.  Children are
    tried by ascending arc weight plus distance-to-sink of the head, ties
    by arc index, which makes the search deterministic; the incumbent is
    the first optimum in that order, whatever the bound.

    The wall clock is consulted at the root and every 1024 nodes.  A
    deadline that passed while the multipliers were chosen stops the walk
    at the root; the report then carries the root bound and, as the
    incumbent, the least-objective path among those the multiplier rounds
    priced.  On a timeout the report carries the incumbent and a lower
    bound no larger than any open node's bound.  The two hooks serve
    instrumentation: the tests and perfbench's tracing pass them.
    on_incumbent gets every incumbent, the one taken at a root timeout
    included.
    """
    run = _Run(time_limit, on_incumbent)
    root = _root(instance, run)
    if root is None:
        return run.report(SolveStatus.INFEASIBLE, INFINITY, 0)
    (dist_sink, dist_mu, partners, order, conflicted, negative_out,
     open_mu, negative_sum, root_bound, priced) = root
    source, sink = instance.source, instance.sink
    heads = instance.heads
    weights = instance.weights

    # 0 undecided, 1 on path, 2 excluded; kept for arcs in conflicts only.
    status = [0] * len(weights)
    committed = 0  # penalties of decided conflicts: both arcs in or both out
    # open_mu and open_penalty sum over the conflicts not fully decided with
    # no arc in, negative_sum over the undecided arcs.
    open_penalty = instance.penalty_total
    on_path = [False] * instance.vertex_count
    on_path[source] = True
    path = [source]

    ub: float = INFINITY  # the incumbent's objective
    nodes = 0
    open_lb: float = INFINITY  # min bound over subtrees abandoned at timeout

    def exclude(a: int, sign: int) -> None:
        # Moves arc a from undecided to out (sign 1) or back (sign -1).
        nonlocal committed, open_mu, open_penalty
        status[a] = 2 if sign > 0 else 0
        for b, m, p in partners[a]:
            if status[b] == 2:
                open_mu -= sign * m
                open_penalty -= sign * p
                committed += sign * p

    def flip(a: int, sign: int) -> None:
        # Moves arc a from out to in (sign 1) or back (sign -1).
        nonlocal committed, open_mu, open_penalty
        status[a] = 1 if sign > 0 else 2
        for b, m, p in partners[a]:
            other = status[b]
            if other == 0:
                open_mu -= sign * m
                open_penalty -= sign * p
            elif other == 1:
                committed += sign * p
            else:
                committed -= sign * p

    def visit(u: int, g: int, bound: int) -> None:
        nonlocal nodes, ub, timed_out, open_lb, negative_sum
        nodes += 1
        if nodes % 1024 == 0 and run.expired():
            timed_out = True
        if on_node is not None:
            on_node(tuple(path), bound)
        if timed_out:
            open_lb = min(open_lb, bound)
            return
        if u == sink:
            if g + committed + open_penalty < ub:
                ub = run.offer(evaluate(instance, path))
            return
        for a in conflicted[u]:
            exclude(a, 1)
        negative_sum -= negative_out[u]
        for a in order[u]:
            v = heads[a]
            if on_path[v]:
                continue
            if partners[a]:
                flip(a, 1)
            child_g = g + weights[a]
            rest = open_mu + dist_mu[v] + negative_sum
            if rest < dist_sink[v]:
                rest = dist_sink[v]
            child_bound = child_g + committed + rest
            if child_bound < ub:
                on_path[v] = True
                path.append(v)
                visit(v, child_g, child_bound)
                path.pop()
                on_path[v] = False
            if partners[a]:
                flip(a, -1)
            if timed_out:
                open_lb = min(open_lb, bound)
                break
        negative_sum += negative_out[u]
        for a in reversed(conflicted[u]):
            exclude(a, -1)

    timed_out = run.expired()
    if timed_out:
        # The deadline passed while the multipliers were chosen: the root is
        # visited and abandoned, and the best path the rounds priced stands
        # as the incumbent.
        ub = run.offer(evaluate(instance, priced))
    try:
        visit(source, 0, root_bound)
    finally:
        visit = None  # the closure refers to itself; break the cycle
    # open_lb stays +infinity without a timeout, ub without an incumbent.
    status = SolveStatus.TIME_LIMIT if timed_out else SolveStatus.OPTIMAL
    return run.report(status, min(open_lb, ub), nodes)


def _yen(instance: Instance) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Yen's simple source-sink paths, cheapest arc cost first, each
    (arc cost, vertices); conflicts are ignored, ties break on vertices.

    The next path is computed only when asked for, so a consumer can stop
    at a deadline.  A spur search that sits before a path's deviation
    point repeats one made for an earlier path (Lawler 1972), so each
    spur route is kept by its search inputs, (spur, root vertices,
    banned arcs), and each distinct spur search runs once per generator;
    the memo goes with the generator.  The key holds the root's vertex
    set, not its order: a root that visits the same vertices in another
    order meets the same bans, and its candidate is still built from its
    own root, so the paths and their order are as without the memo.
    """
    sink = instance.sink
    first = _route(instance, instance.source, sink)
    if first is None:
        return
    found: list[tuple[int, tuple[int, ...]]] = [first]
    seen = {first[1]}
    candidates: list[tuple[int, tuple[int, ...]]] = []
    spurs: dict[tuple, Optional[tuple[float, tuple[int, ...]]]] = {}
    lookup = instance.arc_index
    weights = instance.weights
    while True:
        yield found[-1]
        _, prev = found[-1]
        root_cost = 0
        for i in range(len(prev) - 1):
            spur = prev[i]
            root = prev[: i + 1]
            banned_vertices = frozenset(root[:-1])
            banned_arcs = frozenset(
                lookup[(p[i], p[i + 1])]
                for _, p in found
                if len(p) > i + 1 and p[: i + 1] == root
            )
            key = (spur, banned_vertices, banned_arcs)
            if key not in spurs:
                spurs[key] = _route(instance, spur, sink, banned_vertices=banned_vertices,
                                    banned_arcs=banned_arcs)
            spur_route = spurs[key]
            if spur_route is not None:
                full = root[:-1] + spur_route[1]
                if full not in seen:
                    seen.add(full)
                    heapq.heappush(candidates, (root_cost + spur_route[0], full))
            root_cost += weights[lookup[(prev[i], prev[i + 1])]]
        if not candidates:
            return
        found.append(heapq.heappop(candidates))


def _settled_tree(
    instance: Instance, origin: int, targets: Sequence[int], banned_vertices: set[int]
) -> list[Optional[int]]:
    # The preds of a dijkstra from origin that stops once targets are
    # settled, with None wherever the search may not be final (dist above
    # the largest target distance); the rest are the full search's preds.
    dist, pred = dijkstra(instance, origin=origin, targets=targets,
                          banned_vertices=banned_vertices)
    top = max(dist[t] for t in targets)
    return [a if d <= top else None for a, d in zip(pred, dist)]


def _detours(
    instance: Instance, p: tuple[int, ...], i: int, memo: dict[tuple, list[Optional[int]]]
) -> Iterator[tuple[int, list[int]]]:
    """Cheapest p[i] -> p[j] routes through no vertex of p[:i] or p[j+1:].

    Yields (j, arcs) in ascending j for every j > i whose route is not
    p[i..j] itself: the route that a dijkstra from p[i] with target p[j]
    and those vertices banned returns.  One dijkstra from p[i] with only
    p[:i] banned, stopped once p[i+1:] is settled, serves every j whose
    tree route avoids p[j+1:]; the masked search gives each vertex of
    that route the same distance and predecessor.  (Equal distances are
    settled in vertex-id order among the queued vertices; more bans only
    take vertices away or queue them later, and a vertex whose tree
    route avoids the bans is queued by the same predecessor, so no rival
    is settled ahead of it.)  The j whose tree route enters p[j+1:] fall
    back to masked searches, largest j first: the search for j, with
    p[:i] and p[j+1:] banned and the smaller failing p[j'] as targets
    too, serves every such j' whose route in it avoids p[j'+1:], by the
    same argument, since the bans of j' contain those of j.  Every p[j]
    is reachable along p itself.

    memo belongs to one local_search call and keeps each search's final
    predecessors (None elsewhere, see _settled_tree) by its inputs: the
    tree under p[: i + 1], the masked search for j under (p[: i + 1],
    p[j:]).  A descent step leaves the prefix before its move alone, and
    a restart meets paths seen before, so a tree is searched again only
    when a later path needs a vertex beyond its farthest target.  The new
    search, with the same origin and bans, has a strictly farther target,
    so it settles every vertex the kept one did and replaces it; the
    routes, and so the yields, are the same as without the memo.
    """
    tails = instance.tails
    origin = p[i]
    root = p[: i + 1]
    position = {v: k for k, v in enumerate(p)}

    def walk(pred: list[Optional[int]], j: int) -> Optional[list[int]]:
        # The arcs of pred's route to p[j]: None when it passes a vertex of
        # p[j+1:], [] when it is p[i..j] itself.
        arcs = []
        v = p[j]
        while v != origin:
            a = pred[v]
            arcs.append(a)
            v = tails[a]
            if position.get(v, -1) > j:
                return None
        arcs.reverse()
        if len(arcs) == j - i and all(tails[a] == u for a, u in zip(arcs, p[i:j])):
            return []
        return arcs

    pred = memo.get(root)
    if pred is None or any(pred[v] is None for v in p[i + 1:]):
        pred = memo[root] = _settled_tree(instance, origin, p[i + 1:], set(p[:i]))
    routes: list[Optional[list[int]]] = [None] * len(p)
    failing = []
    along = True  # the tree route to p[j] is p[i..j]
    for j in range(i + 1, len(p)):
        along = along and tails[pred[p[j]]] == p[j - 1]
        if not along:
            routes[j] = walk(pred, j)
            if routes[j] is None:
                failing.append(j)
    while failing:
        j = failing.pop()
        key = (root, p[j:])
        masked = memo.get(key)
        if masked is None:
            masked = memo[key] = _settled_tree(
                instance, origin, [p[k] for k in failing] + [p[j]], {*p[:i], *p[j + 1:]}
            )
        routes[j] = walk(masked, j)
        for k in failing:
            if masked[p[k]] is not None:
                routes[k] = walk(masked, k)
        failing = [k for k in failing if routes[k] is None]
    for j in range(i + 1, len(p)):
        if routes[j]:
            yield j, routes[j]


def _detour_objective(
    instance: Instance, sol: PathSolution, used: set[int], i: int, j: int,
    alt: Sequence[int],
) -> int:
    """Objective of sol with its arcs i..j-1 replaced by the arcs alt.

    used is set(sol.arc_indices).  Only the arcs that leave or enter the
    path are priced (a detour often rejoins p before p[j], and the arcs
    it keeps cancel out): their weights and the conflicts that mention
    them, through the same satisfied_conflicts that evaluate sums.
    """
    weights = instance.weights
    after = used.difference(sol.arc_indices[i:j])
    after.update(alt)
    changed = used.symmetric_difference(after)
    return (
        sol.objective
        + sum(weights[a] if a in after else -weights[a] for a in changed)
        + satisfied_conflicts(instance, used, changed)[1]
        - satisfied_conflicts(instance, after, changed)[1]
    )


def local_search(
    instance: Instance, time_limit: Optional[float] = None, seed: int = 0
) -> SolveReport:
    """Heuristic: shortest-path seed, candidate pool, detour descent.

    Evaluates a pool of LOCAL_SEARCH_POOL cheap paths (k-shortest by arc
    cost, the first being the conflict-blind shortest path), then
    repeatedly applies the best single-detour move (replace one subpath
    by the cheapest alternative subpath) while it strictly improves the
    objective.  LOCAL_SEARCH_RESTARTS seeded perturbation restarts escape
    local optima.  The reported lower bound is the arc cost of the
    pool's first path; the status is always FEASIBLE when the sink is
    reachable since no optimality is proven.  nodes_explored counts the
    paths priced: pool paths, detours (see _detours) and perturbations.
    A detour search settles only the vertices whose routes it reads: the
    tree from p[i] stops once p[i+1:] is settled, and one masked search
    serves every smaller fallback j whose route in it avoids its own
    later vertices.  A memo created here keeps the detour searches by
    their inputs and goes when the call returns; the pool keeps its spur
    routes, one search per distinct spur, and is closed after its last
    draw, which frees them before the descent.  None of this changes a
    path, tie or count: results and nodes_explored are those of running
    every masked search in full, afresh every time.
    The schedule is iteration-bounded, so results with a fixed seed do
    not depend on the clock unless the time limit trips; the limit is
    checked between pool paths and after each start vertex of a descent
    step.
    """
    run = _Run(time_limit)
    pool = _yen(instance)
    cheapest = next(pool, None)
    if cheapest is None:
        return run.report(SolveStatus.INFEASIBLE, INFINITY, 0)
    lb, shortest = cheapest
    heads = instance.heads
    evaluated = 0
    memo: dict[tuple, list[Optional[int]]] = {}  # _detours' searches, this call only

    def assess(verts: Sequence[int]) -> PathSolution:
        nonlocal evaluated
        evaluated += 1
        return evaluate(instance, verts)

    def best_detour(sol: PathSolution) -> Optional[PathSolution]:
        # Best strict improvement over every (i, j) subpath replacement,
        # the first found on ties; each candidate is priced by its delta.
        nonlocal evaluated
        p = sol.vertices
        used = set(sol.arc_indices)
        target = sol.objective
        winner: Optional[tuple[int, ...]] = None
        for i in range(len(p) - 1):
            for j, alt in _detours(instance, p, i, memo):
                evaluated += 1
                objective = _detour_objective(instance, sol, used, i, j, alt)
                if objective < target:
                    target = objective
                    winner = (*p[: i + 1], *(heads[a] for a in alt), *p[j + 1:])
            if run.expired():
                break
        return None if winner is None else evaluate(instance, winner)

    def descend(sol: PathSolution) -> PathSolution:
        while not run.expired():
            move = best_detour(sol)
            if move is None:
                break
            sol = move
        return sol

    def perturbed(sol: PathSolution, rng: random.Random) -> Optional[PathSolution]:
        # Forces the path through a random off-path vertex between two
        # random positions; used to escape local optima.
        p = sol.vertices
        for _ in range(8):
            i = rng.randrange(0, len(p) - 1)
            j = rng.randrange(i + 1, len(p))
            w = rng.randrange(0, instance.vertex_count)
            if w in p:
                continue
            first = _route(instance, p[i], w, banned_vertices=set(p[:i]) | set(p[j:]))
            if first is None:
                continue
            second = _route(instance, w, p[j],
                            banned_vertices=set(p[: i + 1]) | set(p[j + 1:]) | set(first[1]))
            if second is None:
                continue
            return assess(p[:i] + first[1] + second[1][1:] + p[j + 1:])
        return None

    run.offer(assess(shortest))
    for _, verts in islice(pool, LOCAL_SEARCH_POOL - 1):
        if run.expired():
            break
        run.offer(assess(verts))
    pool.close()
    run.offer(descend(run.best))
    rng = random.Random(f"{seed}/local-search")
    for _ in range(LOCAL_SEARCH_RESTARTS):
        if run.expired():
            break
        kicked = perturbed(run.best, rng)
        if kicked is None:
            continue
        run.offer(descend(kicked))
    return run.report(SolveStatus.FEASIBLE, lb, evaluated)


def optimality_gap(lower_bound: float, upper_bound: float) -> float:
    """Percent gap 100 * (ub - lb) / ub; zero when the bounds meet.

    Raises GapUndefinedError on the +infinity sentinel (no incumbent) or
    a non-positive upper bound with slack, and ValueError when
    lower_bound exceeds upper_bound.
    """
    if upper_bound == INFINITY:
        raise GapUndefinedError("gap undefined without an incumbent")
    if lower_bound > upper_bound:
        raise ValueError(
            f"lower bound {lower_bound} exceeds upper bound {upper_bound}"
        )
    if lower_bound == upper_bound:
        return 0.0
    if upper_bound > 0:
        return 100.0 * (upper_bound - lower_bound) / upper_bound
    raise GapUndefinedError(
        f"gap undefined for non-positive upper bound {upper_bound}"
    )
