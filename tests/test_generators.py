"""Instance generators: counts, substreams, rewiring, failure modes."""

from __future__ import annotations

import hashlib
import math
from itertools import combinations

import pytest

from spedac import (
    Instance,
    InvariantError,
    RandomConfig,
    SmallWorldConfig,
    UnsatisfiableConfigError,
    arc_count,
    conflict_count,
    generate_random,
    generate_small_world,
    parse_profile,
    render_instance,
    ring_degree,
)
from spedac.generators import _decode_ordered_pair, _decode_unordered_pair


def _check_instance_shape(instance: Instance) -> None:
    assert instance.source == 0
    assert instance.sink == instance.vertex_count - 1
    pairs = [(a.tail, a.head) for a in instance.arcs]
    assert pairs == sorted(pairs)
    assert len(set(pairs)) == len(pairs)
    assert all(c.arc_a < c.arc_b for c in instance.conflicts)


# --- count formulas -------------------------------------------------------

def test_arc_count_is_exact_on_decimal_grid():
    assert arc_count(100, 0.1) == 990
    assert arc_count(100, 0.2) == 1980
    assert arc_count(300, 0.3) == 26910
    assert arc_count(7, 0.29) == round(0.29 * 42)


def test_conflict_count_is_exact_on_decimal_grid():
    # floor((r/2) m (m-1)) computed with integer arithmetic as the oracle.
    assert conflict_count(1e-3, 990) == (990 * 989) // 2000
    assert conflict_count(1e-3, 990) == 489
    assert conflict_count(1e-4, 3980) == (3980 * 3979) // 20000
    assert conflict_count(0.0, 990) == 0
    # 1e-5 on a big family must not round through float error.
    m = 59880
    assert conflict_count(1e-5, m) == (m * (m - 1)) // 200000


def test_ring_degree_rounds_to_nearest_even_ties_up():
    assert ring_degree(100, 0.15) == 16  # k*n = 15, tie goes up
    assert ring_degree(100, 0.3) == 30
    assert ring_degree(100, 0.13) == 14  # k*n = 13, tie goes up
    assert ring_degree(10, 0.45) == 4  # 4.5 is nearer 4 than 6
    assert ring_degree(10, 0.58) == 6


# --- index decoders -------------------------------------------------------

def test_ordered_pair_decode_is_a_bijection():
    for n in (2, 3, 5, 9):
        seen = [_decode_ordered_pair(q, n) for q in range(n * (n - 1))]
        assert len(set(seen)) == n * (n - 1)
        assert all(t != h and 0 <= t < n and 0 <= h < n for t, h in seen)


def test_unordered_pair_decode_is_a_bijection():
    for m in (2, 3, 7, 12):
        total = m * (m - 1) // 2
        seen = [_decode_unordered_pair(q, m) for q in range(total)]
        assert seen == sorted(set(seen))
        assert set(seen) == set(combinations(range(m), 2))


# --- uniform random family ------------------------------------------------

def test_generate_random_counts_and_shape():
    instance = generate_random(RandomConfig(n=100, d=0.1, r=1e-3, seed=0))
    assert instance.vertex_count == 100
    assert len(instance.arcs) == 990
    assert len(instance.conflicts) == 489
    _check_instance_shape(instance)
    for arc in instance.arcs:
        assert 1 <= arc.weight <= 100
    for conflict in instance.conflicts:
        assert 25 <= conflict.penalty <= 125


def test_generate_random_is_deterministic():
    config = RandomConfig(n=40, d=0.2, r=2e-3, seed=17)
    assert generate_random(config) == generate_random(config)


def test_generate_random_seeds_differ():
    a = generate_random(RandomConfig(n=40, d=0.2, r=2e-3, seed=0))
    b = generate_random(RandomConfig(n=40, d=0.2, r=2e-3, seed=1))
    assert a != b


def test_substreams_are_independent():
    # Changing only the penalty range must keep the topology, the
    # weights, and the sampled conflict pairs all identical.
    base = generate_random(RandomConfig(n=30, d=0.25, r=3e-3, seed=4))
    wide = generate_random(
        RandomConfig(n=30, d=0.25, r=3e-3, seed=4, penalty_range=(1, 9999))
    )
    assert wide.arcs == base.arcs
    assert [c.pair for c in wide.conflicts] == [c.pair for c in base.conflicts]
    assert any(ry.penalty != rx.penalty for rx, ry in zip(base.conflicts, wide.conflicts))
    # Likewise a weight change must not move the arc pairs or conflicts.
    heavy = generate_random(
        RandomConfig(n=30, d=0.25, r=3e-3, seed=4, weight_range=(500, 900))
    )
    assert [(a.tail, a.head) for a in heavy.arcs] == [
        (a.tail, a.head) for a in base.arcs
    ]
    assert [c.pair for c in heavy.conflicts] == [c.pair for c in base.conflicts]
    assert [c.penalty for c in heavy.conflicts] == [c.penalty for c in base.conflicts]


def test_generate_random_rejects_impossible_conflict_ratio():
    with pytest.raises(UnsatisfiableConfigError, match="arc pairs exist"):
        generate_random(RandomConfig(n=10, d=0.2, r=3.0, seed=0))


def test_generate_random_retry_exhaustion():
    # Two arcs on 200 vertices miss the sink in all 100 draws.
    with pytest.raises(UnsatisfiableConfigError, match="sink unreachable after 100 arc samples"):
        generate_random(RandomConfig(n=200, d=5e-5, r=0.0, seed=0))


def test_conflict_count_error_comes_before_retry_exhaustion():
    # Two arcs on 200 vertices miss the sink in all 100 samples, and r=3
    # asks for more conflicts than the single arc pair allows.
    with pytest.raises(UnsatisfiableConfigError, match="arc pairs exist"):
        generate_random(RandomConfig(n=200, d=5e-5, r=3.0, seed=0))


def test_random_config_validation():
    with pytest.raises(InvariantError, match="n must be"):
        RandomConfig(n=1, d=0.5, r=0.0)
    with pytest.raises(InvariantError, match="density"):
        RandomConfig(n=10, d=0.0, r=0.0)
    with pytest.raises(InvariantError, match="density"):
        RandomConfig(n=10, d=1.2, r=0.0)
    with pytest.raises(InvariantError, match="ratio"):
        RandomConfig(n=10, d=0.5, r=-0.1)
    with pytest.raises(InvariantError, match="penalty_range"):
        RandomConfig(n=10, d=0.5, r=0.0, penalty_range=(0, 5))
    with pytest.raises(InvariantError, match="weight_range"):
        RandomConfig(n=10, d=0.5, r=0.0, weight_range=(9, 3))
    with pytest.raises(InvariantError, match="no arcs"):
        RandomConfig(n=2, d=0.2, r=0.0)


# --- small-world family ---------------------------------------------------

def test_small_world_beta_zero_is_the_ring_lattice():
    n, k = 12, 0.34  # degree 4
    instance = generate_small_world(SmallWorldConfig(n=n, k=k, beta=0.0, seed=3))
    expected = set()
    for i in range(n):
        for off in (1, 2):
            expected.add((i, (i + off) % n))
            expected.add(((i + off) % n, i))
    assert {(a.tail, a.head) for a in instance.arcs} == expected
    assert len(instance.arcs) == n * ring_degree(n, k)


def test_small_world_counts_and_shape():
    instance = generate_small_world(
        SmallWorldConfig(n=100, k=0.15, beta=0.5, r=1e-4, seed=0)
    )
    m = 100 * 16
    assert len(instance.arcs) == m
    assert len(instance.conflicts) == conflict_count(1e-4, m)
    _check_instance_shape(instance)
    for conflict in instance.conflicts:
        assert 1 <= conflict.penalty <= 20


def test_small_world_rewiring_preserves_arc_count_and_moves_arcs():
    ring = generate_small_world(SmallWorldConfig(n=60, k=0.1, beta=0.0, seed=2))
    rewired = generate_small_world(SmallWorldConfig(n=60, k=0.1, beta=0.7, seed=2))
    assert len(rewired.arcs) == len(ring.arcs)
    ring_pairs = {(a.tail, a.head) for a in ring.arcs}
    rewired_pairs = {(a.tail, a.head) for a in rewired.arcs}
    assert rewired_pairs != ring_pairs
    assert all(t != h for t, h in rewired_pairs)
    moved = len(rewired_pairs - ring_pairs)
    assert moved > len(ring.arcs) // 4  # beta=0.7 rewires most arcs


def test_small_world_is_deterministic():
    config = SmallWorldConfig(n=50, k=0.12, beta=0.4, r=5e-4, seed=21)
    assert generate_small_world(config) == generate_small_world(config)


def test_small_world_config_validation():
    with pytest.raises(InvariantError, match="beta"):
        SmallWorldConfig(n=20, k=0.2, beta=1.5)
    with pytest.raises(InvariantError, match="at least 2"):
        SmallWorldConfig(n=20, k=0.01)
    with pytest.raises(InvariantError, match="too dense"):
        SmallWorldConfig(n=10, k=0.99)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "make, field",
    [
        (lambda v: RandomConfig(n=10, d=0.5, r=v), "conflict ratio r"),
        (lambda v: SmallWorldConfig(n=10, k=0.3, r=v), "conflict ratio r"),
        (lambda v: SmallWorldConfig(n=10, k=v), "k"),
    ],
    ids=["random-r", "small-world-r", "small-world-k"],
)
def test_configs_reject_non_finite_parameters(make, field, value):
    # A non-finite r or k used to construct, then fail inside the exact
    # count arithmetic with "Invalid literal for Fraction".
    with pytest.raises(InvariantError, match=f"^{field} must be finite"):
        make(value)


# --- profile files --------------------------------------------------------

def test_parse_profile_values_and_comments():
    text = """
    # generation profile
    n = 100
    d=0.1   # density
    r=1e-3

    seed=7
    """
    assert parse_profile(text) == {"n": "100", "d": "0.1", "r": "1e-3", "seed": "7"}


def test_parse_profile_rejects_bare_words():
    with pytest.raises(ValueError, match="line 2"):
        parse_profile("n=5\nbogus\n")


# --- pinned bytes -----------------------------------------------------------

@pytest.mark.parametrize(
    "config, digest",
    [
        # The first five arc samples of this config cannot reach the sink,
        # so the retry path is part of what is pinned.
        (
            RandomConfig(n=30, d=0.05, r=5e-3, seed=0),
            "24336eab1aef118cbf74c29f63509e80451cf3384e9c7b158f7c371174b904a6",
        ),
        (
            RandomConfig(n=40, d=0.1, r=1e-3, seed=3),
            "77ca12f73df9180022e40db03a7943ed52ddea2aa84925ac5866f527ec36c711",
        ),
        (
            SmallWorldConfig(n=40, k=0.1, beta=0.5, r=1e-3, seed=0),
            "ccdd7c879ab1f4dfa1b736b10f0b791308acf070516d7e2d117577016119a4e2",
        ),
        (
            SmallWorldConfig(n=50, k=0.08, beta=0.2, r=5e-4, seed=7),
            "9e77b9e4054e19c462bc96ce2db8b15d1f70a31a3c5562b7b3820d4378d39f9c",
        ),
    ],
)
def test_generated_instance_bytes_are_pinned(config, digest):
    generate = generate_random if isinstance(config, RandomConfig) else generate_small_world
    text = render_instance(generate(config))
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest
