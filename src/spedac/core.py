"""Problem data model and objective evaluation for SP-EDAC.

SP-EDAC (shortest path with exclusive-disjunction arc-pair conflicts)
extends the classical shortest-path problem with soft conflicts between
arc pairs: a conflict's penalty is paid whenever the chosen path uses
both arcs of the pair or neither of them.  Using exactly one arc of a
pair is the only penalty-free state, so the objective of a path is the
sum of its arc weights plus the penalties of all violated conflicts.

Everything in this module is exact integer arithmetic on immutable
values; no floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Container, Iterable, Sequence, Union


class InvariantError(ValueError):
    """A structural invariant of the problem data is violated."""


class MalformedPathError(ValueError):
    """The vertex sequence is not a simple source-to-sink path of the instance."""


@dataclass(frozen=True)
class ArcRecord:
    """Directed arc tail -> head with a non-negative integer weight."""

    tail: int
    head: int
    weight: int

    def __post_init__(self) -> None:
        if self.tail == self.head:
            raise InvariantError(f"self-loop arc ({self.tail}, {self.head})")
        if isinstance(self.weight, bool) or not isinstance(self.weight, int) or self.weight < 0:
            raise InvariantError(
                f"arc ({self.tail}, {self.head}): weight must be a non-negative"
                f" integer, got {self.weight!r}"
            )


@dataclass(frozen=True)
class ConflictRecord:
    """Unordered pair of distinct arc indices with a positive integer penalty.

    The penalty is charged when a path uses both arcs or neither arc;
    using exactly one of the two is free.
    """

    arc_a: int
    arc_b: int
    penalty: int

    def __post_init__(self) -> None:
        if self.arc_a == self.arc_b:
            raise InvariantError(f"conflict pairs arc {self.arc_a} with itself")
        if isinstance(self.penalty, bool) or not isinstance(self.penalty, int) or self.penalty < 1:
            raise InvariantError(
                f"conflict ({self.arc_a}, {self.arc_b}): penalty must be a"
                f" positive integer, got {self.penalty!r}"
            )

    @property
    def pair(self) -> tuple[int, int]:
        """Canonical unordered form: the two arc indices sorted ascending."""
        if self.arc_a < self.arc_b:
            return (self.arc_a, self.arc_b)
        return (self.arc_b, self.arc_a)


@dataclass(frozen=True)
class Instance:
    """An SP-EDAC instance: digraph, conflict list, and the two terminals.

    Vertices are the integers 0 .. vertex_count-1.  Conflicts reference
    arcs by their index into ``arcs``.  Instances are immutable; all
    derived lookup tables are cached on first use.
    """

    vertex_count: int
    arcs: tuple[ArcRecord, ...]
    conflicts: tuple[ConflictRecord, ...]
    source: int
    sink: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "arcs", tuple(self.arcs))
        object.__setattr__(self, "conflicts", tuple(self.conflicts))
        n = self.vertex_count
        if n < 2:
            raise InvariantError(f"vertex count must be at least 2, got {n}")
        for name, v in (("source", self.source), ("sink", self.sink)):
            if not 0 <= v < n:
                raise InvariantError(f"{name} {v} out of range for {n} vertices")
        if self.source == self.sink:
            raise InvariantError("source and sink must differ")
        seen_arcs: set[tuple[int, int]] = set()
        for idx, arc in enumerate(self.arcs):
            if not (0 <= arc.tail < n and 0 <= arc.head < n):
                raise InvariantError(
                    f"arc {idx}: endpoint out of range ({arc.tail}, {arc.head})"
                )
            key = (arc.tail, arc.head)
            if key in seen_arcs:
                raise InvariantError(f"duplicate arc ({arc.tail}, {arc.head})")
            seen_arcs.add(key)
        m = len(self.arcs)
        seen_pairs: set[tuple[int, int]] = set()
        for idx, conflict in enumerate(self.conflicts):
            for a in (conflict.arc_a, conflict.arc_b):
                if not 0 <= a < m:
                    raise InvariantError(
                        f"conflict {idx}: arc index out of range ({a} not in 0..{m - 1})"
                    )
            if conflict.pair in seen_pairs:
                raise InvariantError(f"duplicate conflict pair {conflict.pair}")
            seen_pairs.add(conflict.pair)

    @cached_property
    def arc_index(self) -> dict[tuple[int, int], int]:
        """Maps (tail, head) to the arc's index."""
        return {(a.tail, a.head): i for i, a in enumerate(self.arcs)}

    @cached_property
    def weights(self) -> tuple[int, ...]:
        """Arc weights in arc-index order."""
        return tuple(a.weight for a in self.arcs)

    @cached_property
    def heads(self) -> tuple[int, ...]:
        """Arc heads in arc-index order."""
        return tuple(a.head for a in self.arcs)

    @cached_property
    def tails(self) -> tuple[int, ...]:
        """Arc tails in arc-index order."""
        return tuple(a.tail for a in self.arcs)

    @cached_property
    def outgoing(self) -> tuple[tuple[int, ...], ...]:
        """Arc indices leaving each vertex, in arc-index order."""
        out: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for i, arc in enumerate(self.arcs):
            out[arc.tail].append(i)
        return tuple(tuple(x) for x in out)

    @cached_property
    def incoming(self) -> tuple[tuple[int, ...], ...]:
        """Arc indices entering each vertex, in arc-index order."""
        inc: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for i, arc in enumerate(self.arcs):
            inc[arc.head].append(i)
        return tuple(tuple(x) for x in inc)

    @cached_property
    def conflict_indices(self) -> tuple[int, ...]:
        """0 .. len(conflicts)-1; every violated_conflicts set shares these objects."""
        return tuple(range(len(self.conflicts)))

    @cached_property
    def penalty_total(self) -> int:
        """Sum of all conflict penalties: the penalty of a path using no conflict arc."""
        return sum(c.penalty for c in self.conflicts)

    @cached_property
    def conflicts_of_arc(self) -> tuple[tuple[int, ...], ...]:
        """Conflict indices that mention each arc."""
        table: list[list[int]] = [[] for _ in self.arcs]
        for k, c in enumerate(self.conflicts):
            table[c.arc_a].append(k)
            table[c.arc_b].append(k)
        return tuple(tuple(x) for x in table)


@dataclass(frozen=True, slots=True)
class PathSolution:
    """A simple source-to-sink path together with its evaluated costs."""

    vertices: tuple[int, ...]
    arc_indices: tuple[int, ...]
    arc_cost: int
    penalty_cost: int
    violated_conflicts: frozenset[int]

    @property
    def objective(self) -> int:
        return self.arc_cost + self.penalty_cost


@dataclass(frozen=True)
class SelectionViolation:
    """Structured rejection from validate_selection.

    kind is "flow_imbalance" (with the offending vertex) or "cycle"
    (with the vertex set of a cycle, witnessing a violated subtour
    elimination inequality: the selection has >= |cycle| arcs inside it).
    """

    kind: str
    vertex: int | None = None
    cycle: frozenset[int] | None = None


def conflict_penalty_term(x_a: int, x_b: int, penalty: int) -> int:
    """Penalty charged for one conflict given the two arc flags.

    Equals penalty * (2*x_a*x_b - x_a - x_b + 1): the linearised form of
    penalty * (1 - XOR(x_a, x_b)).  Full penalty for both-or-neither,
    zero when exactly one arc is used.
    """
    return penalty * (2 * x_a * x_b - x_a - x_b + 1)


def evaluate(instance: Instance, path: Sequence[int]) -> PathSolution:
    """Evaluate a vertex sequence as a simple source-to-sink path.

    Raises MalformedPathError if the sequence does not start at the
    source, end at the sink, repeats a vertex, or uses a missing arc.
    """
    verts = tuple(path)
    if len(verts) < 2:
        raise MalformedPathError(f"path needs at least two vertices, got {len(verts)}")
    if verts[0] != instance.source:
        raise MalformedPathError(
            f"path starts at {verts[0]}, not at source {instance.source}"
        )
    if verts[-1] != instance.sink:
        raise MalformedPathError(
            f"path ends at {verts[-1]}, not at sink {instance.sink}"
        )
    if len(set(verts)) != len(verts):
        raise MalformedPathError("path revisits a vertex")
    lookup = instance.arc_index
    arc_ids = []
    arc_cost = 0
    for tail, head in zip(verts, verts[1:]):
        idx = lookup.get((tail, head))
        if idx is None:
            raise MalformedPathError(f"no arc ({tail}, {head}) in the instance")
        arc_ids.append(idx)
        arc_cost += instance.arcs[idx].weight
    satisfied, relief = satisfied_conflicts(instance, set(arc_ids), arc_ids)
    # Every conflict without exactly one arc on the path is violated.  The
    # set holds the instance's shared index objects, and frozenset() sizes
    # its table from the set's count.
    violated = set(instance.conflict_indices)
    violated -= satisfied
    return PathSolution(
        vertices=verts,
        arc_indices=tuple(arc_ids),
        arc_cost=arc_cost,
        penalty_cost=instance.penalty_total - relief,
        violated_conflicts=frozenset(violated),
    )


def satisfied_conflicts(
    instance: Instance, used: Container[int], arcs: Iterable[int]
) -> tuple[set[int], int]:
    """Conflicts mentioning one of arcs that have exactly one arc in used.

    Returns their indices and their penalty sum.  A path's penalty is
    instance.penalty_total minus that sum over the path's own arcs, and a
    change of arcs moves it only through the conflicts of the arcs that
    change.
    """
    conflicts = instance.conflicts
    table = instance.conflicts_of_arc
    found: set[int] = set()
    relief = 0
    for a in arcs:
        for k in table[a]:
            c = conflicts[k]
            if (c.arc_a in used) != (c.arc_b in used) and k not in found:
                found.add(k)
                relief += c.penalty
    return found, relief


def validate_selection(
    instance: Instance, arc_flags: Sequence[int]
) -> Union[PathSolution, SelectionViolation]:
    """Check whether binary arc flags encode exactly one simple s-t path.

    Returns the evaluated PathSolution on acceptance.  On rejection
    returns a SelectionViolation: either a flow imbalance at a named
    vertex, or a cycle witness (a vertex set violating the subtour
    elimination inequality).
    """
    if len(arc_flags) != len(instance.arcs):
        raise ValueError("arc flag count does not match the instance")
    selected = [i for i, f in enumerate(arc_flags) if f]
    n = instance.vertex_count
    out_deg = [0] * n
    in_deg = [0] * n
    for i in selected:
        out_deg[instance.arcs[i].tail] += 1
        in_deg[instance.arcs[i].head] += 1

    def required(v: int) -> int:
        if v == instance.source:
            return 1
        if v == instance.sink:
            return -1
        return 0

    check_order = [instance.source, instance.sink] + [
        v for v in range(n) if v not in (instance.source, instance.sink)
    ]
    for v in check_order:
        if out_deg[v] - in_deg[v] != required(v):
            return SelectionViolation(kind="flow_imbalance", vertex=v)

    out_sel: list[list[int]] = [[] for _ in range(n)]
    for i in selected:
        out_sel[instance.arcs[i].tail].append(i)

    used = [False] * len(instance.arcs)

    def walk(start: int, stop_at_sink: bool) -> Union[list[int], SelectionViolation]:
        # Follows unused selected arcs (smallest index first) from start;
        # either terminates cleanly or returns a cycle witness.
        seq = [start]
        position = {start: 0}
        current = start
        while True:
            if stop_at_sink and current == instance.sink:
                return seq
            nxt = None
            for i in out_sel[current]:
                if not used[i]:
                    nxt = i
                    break
            if nxt is None:
                return seq
            used[nxt] = True
            current = instance.arcs[nxt].head
            if current in position:
                return SelectionViolation(
                    kind="cycle", cycle=frozenset(seq[position[current]:])
                )
            position[current] = len(seq)
            seq.append(current)

    outcome = walk(instance.source, stop_at_sink=True)
    if isinstance(outcome, SelectionViolation):
        return outcome
    main_path = outcome
    if main_path[-1] != instance.sink or sum(used) != len(selected):
        # Balanced leftovers necessarily contain a cycle; walk one out.
        for v in range(n):
            if any(not used[i] for i in out_sel[v]):
                leftover = walk(v, stop_at_sink=False)
                if isinstance(leftover, SelectionViolation):
                    return leftover
        # Unreachable when the balance checks above passed.
        raise AssertionError("balanced selection without a traceable cycle")
    return evaluate(instance, main_path)
