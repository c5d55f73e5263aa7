"""Shared fixtures: the hand-checked seven-vertex instance and oracles."""

from __future__ import annotations

from itertools import permutations

import pytest

from spedac import ArcRecord, ConflictRecord, Instance


def build_golden(penalty: int = 10) -> Instance:
    """Seven-vertex instance with three conflict pairs, checked by hand.

    Arc list (index: tail head weight):
      0: 0 1 3    1: 0 2 1    2: 1 3 1    3: 1 4 2
      4: 2 1 1    5: 2 3 4    6: 2 5 3    7: 3 4 2
      8: 3 5 4    9: 3 6 2   10: 4 6 1   11: 5 6 3
    Conflicts pair arcs (0,9), (2,6), (3,10).  With every penalty at 10
    the unique optimum is the path 0,1,3,4,6: arc cost 7, penalty 0,
    since each conflict pair has exactly one arc on that path.  There
    are 12 simple 0-to-6 paths and the conflict-blind shortest distance
    is 5 (e.g. 0,2,1,3,6), whose sole violated conflict (the "neither"
    state of pair 2) prices it at 15 overall.
    """
    arcs = (
        ArcRecord(0, 1, 3),
        ArcRecord(0, 2, 1),
        ArcRecord(1, 3, 1),
        ArcRecord(1, 4, 2),
        ArcRecord(2, 1, 1),
        ArcRecord(2, 3, 4),
        ArcRecord(2, 5, 3),
        ArcRecord(3, 4, 2),
        ArcRecord(3, 5, 4),
        ArcRecord(3, 6, 2),
        ArcRecord(4, 6, 1),
        ArcRecord(5, 6, 3),
    )
    conflicts = (
        ConflictRecord(0, 9, penalty),
        ConflictRecord(2, 6, penalty),
        ConflictRecord(3, 10, penalty),
    )
    return Instance(
        vertex_count=7, arcs=arcs, conflicts=conflicts, source=0, sink=6
    )


def build_chain(n: int) -> Instance:
    """Path graph 0 -> 1 -> ... -> n-1 with one both-used conflict."""
    arcs = tuple(ArcRecord(i, i + 1, 1 + i % 7) for i in range(n - 1))
    return Instance(
        vertex_count=n,
        arcs=arcs,
        conflicts=(ConflictRecord(0, n - 2, 9),),
        source=0,
        sink=n - 1,
    )


def permutation_paths(instance: Instance) -> set[tuple[int, ...]]:
    """Simple source-sink paths found by brute permutation of the inner
    vertices; an enumerator independent of the package's DFS."""
    inner = [
        v
        for v in range(instance.vertex_count)
        if v not in (instance.source, instance.sink)
    ]
    lookup = instance.arc_index
    found: set[tuple[int, ...]] = set()
    for size in range(len(inner) + 1):
        for combo in permutations(inner, size):
            verts = (instance.source, *combo, instance.sink)
            if all((a, b) in lookup for a, b in zip(verts, verts[1:])):
                found.add(verts)
    return found


@pytest.fixture
def golden() -> Instance:
    return build_golden()


@pytest.fixture
def golden_builder():
    return build_golden


@pytest.fixture
def permutation_enumerator():
    return permutation_paths


@pytest.fixture
def chain_builder():
    return build_chain
