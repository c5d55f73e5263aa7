"""Benchmark instance generators: uniform random and small-world digraphs.

Both families share the same conflict/penalty machinery: the number of
conflicts is floor((r/2) * m * (m-1)) for realized arc count m, pairs
are sampled uniformly without replacement, and weights/penalties are
uniform integers.  Each random quantity draws from its own substream of
the seed (arcs, weights, conflicts, penalties), so e.g. changing the
penalty range never perturbs the sampled topology.  Counts are computed
in exact decimal arithmetic so grid parameters such as 1e-3 can never be
off by one through binary floating point.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .core import ArcRecord, ConflictRecord, Instance, InvariantError
from .solvers import shortest_path_vertices

_RETRIES = 100  # arc draws before a configuration is reported unsatisfiable


class UnsatisfiableConfigError(RuntimeError):
    """No instance satisfying the configuration could be produced."""


def _exact(value: float | int | str) -> Fraction:
    # str() of a float is its shortest decimal representation, which is
    # the number the user actually wrote (0.1, 1e-3, ...).
    return Fraction(str(value))


def arc_count(n: int, d: float) -> int:
    """Target arc count round(d * n * (n-1)); exact on the usual grids."""
    return int(round(_exact(d) * n * (n - 1)))


def conflict_count(r: float, m: int) -> int:
    """Conflict count floor((r/2) * m * (m-1)) for realized arc count m."""
    return int(math.floor(_exact(r) / 2 * m * (m - 1)))


def ring_degree(n: int, k: float) -> int:
    """Ring-lattice degree: k*n rounded to the nearest even integer, ties upward."""
    half = int(math.floor(_exact(k) * n / 2 + Fraction(1, 2)))
    return 2 * half


@dataclass(frozen=True)
class RandomConfig:
    """Uniform random family: n vertices, arc density d, conflict ratio r."""

    n: int
    d: float
    r: float
    penalty_range: tuple[int, int] = (25, 125)
    weight_range: tuple[int, int] = (1, 100)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 2:
            raise InvariantError(f"n must be at least 2, got {self.n}")
        if not 0 < self.d <= 1:
            raise InvariantError(f"density d must be in (0, 1], got {self.d}")
        if self.r < 0:
            raise InvariantError(f"conflict ratio r must be non-negative, got {self.r}")
        _check_range("penalty_range", self.penalty_range, minimum=1)
        _check_range("weight_range", self.weight_range, minimum=0)
        if arc_count(self.n, self.d) < 1:
            raise InvariantError(
                f"d={self.d} yields no arcs for n={self.n}"
            )


@dataclass(frozen=True)
class SmallWorldConfig:
    """Small-world family: ring lattice of mean degree k*n, rewired with probability beta."""

    n: int
    k: float
    beta: float = 0.5
    r: float = 0.0
    penalty_range: tuple[int, int] = (1, 20)
    weight_range: tuple[int, int] = (1, 100)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 3:
            raise InvariantError(f"n must be at least 3, got {self.n}")
        if not 0 <= self.beta <= 1:
            raise InvariantError(f"beta must be in [0, 1], got {self.beta}")
        if self.r < 0:
            raise InvariantError(f"conflict ratio r must be non-negative, got {self.r}")
        _check_range("penalty_range", self.penalty_range, minimum=1)
        _check_range("weight_range", self.weight_range, minimum=0)
        degree = ring_degree(self.n, self.k)
        if degree < 2:
            raise InvariantError(
                f"k={self.k} rounds to ring degree {degree}; need at least 2"
            )
        if degree > self.n - 1:
            raise InvariantError(
                f"k={self.k} rounds to ring degree {degree}, too dense for n={self.n}"
            )


def _check_range(name: str, bounds: tuple[int, int], minimum: int) -> None:
    lo, hi = bounds
    if not (isinstance(lo, int) and isinstance(hi, int)):
        raise InvariantError(f"{name} must be a pair of integers, got {bounds!r}")
    if lo < minimum or hi < lo:
        raise InvariantError(
            f"{name} must satisfy {minimum} <= lo <= hi, got {bounds!r}"
        )


def _stream(seed: int, label: str, attempt: int | None = None) -> random.Random:
    # Independent, reproducible substreams keyed by purpose.
    suffix = "" if attempt is None else f"/{attempt}"
    return random.Random(f"spedac/{seed}/{label}{suffix}")


def _decode_ordered_pair(q: int, n: int) -> tuple[int, int]:
    # q indexes the n*(n-1) ordered vertex pairs without the diagonal.
    tail, rem = divmod(q, n - 1)
    head = rem if rem < tail else rem + 1
    return tail, head


def _decode_unordered_pair(q: int, m: int) -> tuple[int, int]:
    # q indexes the m*(m-1)/2 unordered index pairs {i < j}, row-major in i.
    total = m * (m - 1) // 2
    from_end = total - 1 - q
    b = (math.isqrt(8 * from_end + 1) - 1) // 2
    i = m - 2 - b
    j = (m - 1) - (from_end - b * (b + 1) // 2)
    return i, j


def _generate(
    config: RandomConfig | SmallWorldConfig, label: str,
    draw: Callable[[random.Random], list[tuple[int, int]]],
) -> Instance:
    # Both generators: draw(rng) gives one attempt's arcs as ordered vertex
    # pairs from the attempt's own substream.  Arc order, weights, conflict
    # pairs and penalties come from substreams that do not depend on the
    # attempt.  Arcs that cannot reach the sink are drawn again.
    n, r, seed = config.n, config.r, config.seed
    for attempt in range(_RETRIES):
        pairs = sorted(draw(_stream(seed, label, attempt)))
        m = len(pairs)
        weight_rng = _stream(seed, "weights")
        arcs = tuple(
            ArcRecord(tail, head, weight_rng.randint(*config.weight_range))
            for tail, head in pairs
        )
        c = conflict_count(r, m)
        max_pairs = m * (m - 1) // 2
        if c > max_pairs:
            raise UnsatisfiableConfigError(
                f"r={r} asks for {c} conflicts but only {max_pairs} arc pairs exist"
            )
        conflict_rng = _stream(seed, "conflicts")
        chosen = sorted(
            _decode_unordered_pair(q, m)
            for q in conflict_rng.sample(range(max_pairs), c)
        )
        penalty_rng = _stream(seed, "penalties")
        conflicts = tuple(
            ConflictRecord(a, b, penalty_rng.randint(*config.penalty_range))
            for a, b in chosen
        )
        instance = Instance(
            vertex_count=n, arcs=arcs, conflicts=conflicts, source=0, sink=n - 1
        )
        if shortest_path_vertices(instance) is not None:
            return instance
    if isinstance(config, RandomConfig):
        attempts = f"arc samples (n={n}, d={config.d})"
    else:
        attempts = f"rewiring passes (n={n}, k={config.k})"
    raise UnsatisfiableConfigError(f"sink unreachable after {_RETRIES} {attempts}")


def generate_random(config: RandomConfig) -> Instance:
    """Uniform random digraph with round(d*n*(n-1)) arcs, source 0, sink n-1.

    Arc sets unable to reach the sink are rejected and resampled from a
    fresh substream; after 100 rejections the configuration is
    reported unsatisfiable.
    """
    n = config.n
    m = arc_count(n, config.d)
    return _generate(config, "arcs", lambda rng: [
        _decode_ordered_pair(q, n) for q in rng.sample(range(n * (n - 1)), m)
    ])


def _ring_pairs(n: int, degree: int) -> list[tuple[int, int]]:
    # Two opposed directed arcs per undirected lattice edge, built in
    # ring order so the rewiring pass is reproducible.
    pairs: list[tuple[int, int]] = []
    for i in range(n):
        for off in range(1, degree // 2 + 1):
            j = (i + off) % n
            pairs.append((i, j))
            pairs.append((j, i))
    return pairs


def generate_small_world(config: SmallWorldConfig) -> Instance:
    """Rewired ring lattice with n * ring_degree(n, k) directed arcs.

    Each directed arc is independently rewired with probability beta by
    redirecting its head to a uniformly random vertex; self-loops and
    duplicate ordered pairs are rejected with up to n resamples, after
    which the arc keeps its original head.  The arc count is therefore
    preserved exactly.  beta=0 returns the unmodified lattice.
    """
    n = config.n
    base = _ring_pairs(n, ring_degree(n, config.k))

    def rewire(rng: random.Random) -> list[tuple[int, int]]:
        pairs = list(base)
        arc_set = set(pairs)
        for idx in range(len(pairs)):
            if rng.random() >= config.beta:
                continue
            tail, head = pairs[idx]
            for _ in range(n):
                candidate = rng.randrange(n)
                if candidate != tail and (tail, candidate) not in arc_set:
                    arc_set.remove((tail, head))
                    arc_set.add((tail, candidate))
                    pairs[idx] = (tail, candidate)
                    break
        return pairs

    return _generate(config, "rewire", rewire)


def parse_profile(text: str) -> dict[str, str]:
    """Parse a key=value profile ('#' comments and blank lines ignored)."""
    values: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"profile line {line_no}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values
