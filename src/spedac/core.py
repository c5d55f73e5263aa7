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
    """A simple source-to-sink path together with its evaluated costs.

    It keeps the satisfied conflicts (exactly one arc on the path), which
    are few, and the instance's conflict count; every other conflict is
    violated.
    """

    vertices: tuple[int, ...]
    arc_indices: tuple[int, ...]
    arc_cost: int
    penalty_cost: int
    satisfied_conflicts: tuple[int, ...]  # ascending
    conflict_count: int

    @property
    def objective(self) -> int:
        return self.arc_cost + self.penalty_cost

    @property
    def violated_conflicts(self) -> frozenset[int]:
        """Conflicts with both arcs or neither arc on the path."""
        return frozenset(range(self.conflict_count)).difference(self.satisfied_conflicts)


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
    return PathSolution(
        vertices=verts,
        arc_indices=tuple(arc_ids),
        arc_cost=arc_cost,
        penalty_cost=instance.penalty_total - relief,
        satisfied_conflicts=tuple(sorted(satisfied)),
        conflict_count=len(instance.conflicts),
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
    source, sink, n = instance.source, instance.sink, instance.vertex_count
    # excess: out - in - the required +1 at the source / -1 at the sink.
    excess = [0] * n
    excess[source], excess[sink] = -1, 1
    heads: list[list[int]] = [[] for _ in range(n)]  # of selected out-arcs
    for arc, flag in zip(instance.arcs, arc_flags):
        if flag:
            excess[arc.tail] += 1
            excess[arc.head] -= 1
            heads[arc.tail].append(arc.head)
    for v in (source, sink, *range(n)):
        if excess[v]:
            return SelectionViolation(kind="flow_imbalance", vertex=v)

    # Now a walk never gets stuck.  Before a walk, every vertex other
    # than the source and the sink has as many unused out-arcs as unused
    # in-arcs: all of them are balanced before the first walk, and the
    # first walk, when it reaches the sink, has used a simple source-sink
    # path, which leaves the unused arcs balanced everywhere.  A vertex
    # the walk enters for the first time, other than stop, has had none
    # of its out-arcs used by the walk and one in-arc just used, so an
    # out-arc is left.  The second walk has no stop: it returns a cycle.
    def walk(start: int, stop: int | None) -> Union[list[int], SelectionViolation]:
        # Follows unused arcs, smallest index first, until it reaches
        # stop or repeats a vertex, which closes the returned cycle.
        seq, position = [start], {start: 0}
        while seq[-1] != stop:
            v = heads[seq[-1]].pop(0)
            if v in position:
                return SelectionViolation(kind="cycle", cycle=frozenset(seq[position[v]:]))
            position[v] = len(seq)
            seq.append(v)
        return seq

    path = walk(source, sink)
    if isinstance(path, SelectionViolation):
        return path
    leftover = next((v for v in range(n) if heads[v]), None)
    if leftover is not None:
        return walk(leftover, None)
    return evaluate(instance, path)
