"""Frontier-structure tests: every structure must drive a peeling-like
loop to completion, returning exactly the active vertices with induced
degree <= k at each round, under random monotone decrements."""
import numpy as np
import pytest

from repro.bucket import make_structure
from repro.bucket.hbs import HBS, _split_sizes
from repro.bucket.interface import ACTIVE, PEELED

# "hbs" is the HBS alone; the engine runs it only inside "adaptive".
STRUCTURES = ["scan_all", "single", "fixed", "hbs", "adaptive"]


def _make(name: str, n: int):
    return HBS(n) if name == "hbs" else make_structure(name, n)


def _drive(structure_name: str, deg0: np.ndarray, seed: int = 0) -> None:
    """Reference harness simulating the engine's usage pattern."""
    n = len(deg0)
    rng = np.random.default_rng(seed)
    deg = deg0.astype(np.int64).copy()
    state = np.zeros(n, dtype=np.int8)
    s = _make(structure_name, n)
    s.build(np.arange(n, dtype=np.int64), deg)
    k = 0
    remaining = n
    guard = 0
    while remaining > 0:
        guard += 1
        assert guard < 10 * (int(deg0.max()) + 2), "structure failed to drain"
        f, _ = s.next_frontier(k, deg, state)
        expected = np.flatnonzero((state == ACTIVE) & (deg <= k))
        assert sorted(f.tolist()) == sorted(expected.tolist()), (
            structure_name, k, sorted(f.tolist()), sorted(expected.tolist())
        )
        state[f] = PEELED
        remaining -= len(f)
        # Simulate subround decrements: random actives lose degree; the
        # engine peels mid-round drops itself (they bypass the structure).
        active = np.flatnonzero(state == ACTIVE)
        if len(active):
            hit = active[rng.random(len(active)) < 0.3]
            deg[hit] -= rng.integers(1, 3, len(hit))
            s.on_decrement(hit, deg)
            dropped = hit[deg[hit] <= k]
            state[dropped] = PEELED
            remaining -= len(dropped)
        k += 1


@pytest.mark.parametrize("structure", STRUCTURES)
@pytest.mark.parametrize(
    "dist,seed",
    [("uniform", 1), ("uniform", 2), ("powerlaw", 3), ("tight", 4), ("hcns", 5)],
)
def test_structure_drains_correctly(structure, dist, seed):
    rng = np.random.default_rng(seed)
    n = 400
    if dist == "uniform":
        deg0 = rng.integers(0, 60, n)
    elif dist == "powerlaw":
        deg0 = np.minimum((1.0 / rng.random(n) ** 0.7).astype(np.int64), 500)
    elif dist == "tight":
        deg0 = rng.integers(3, 6, n)
    else:  # hcns-like: one vertex per value + a heavy tail
        deg0 = np.concatenate([np.arange(n // 2), np.full(n - n // 2, n // 2)])
    _drive(structure, deg0, seed)


@pytest.mark.parametrize("structure", STRUCTURES)
def test_structure_all_zero_degrees(structure):
    _drive(structure, np.zeros(50, dtype=np.int64))


@pytest.mark.parametrize("structure", STRUCTURES)
def test_structure_single_vertex(structure):
    _drive(structure, np.array([7]))


def test_split_sizes_binary_decomposition():
    assert _split_sizes(1) == [1]
    assert _split_sizes(8) == [1] * 8
    assert _split_sizes(16) == [1] * 8 + [8]
    assert _split_sizes(24) == [1] * 8 + [8, 8]
    assert _split_sizes(100) == [1] * 8 + [8, 16, 32, 36]
    for length in range(1, 300):
        assert sum(_split_sizes(length)) == length


def test_fixed_counts_moves():
    n = 100
    deg = np.full(n, 10, dtype=np.int64)
    s = make_structure("fixed", n)
    state = np.zeros(n, dtype=np.int8)
    s.build(np.arange(n), deg)
    s.next_frontier(0, deg, state)  # triggers rebuild
    deg[:50] = 5
    s.on_decrement(np.arange(50), deg)
    assert s.moves == 50


def test_hbs_counts_redistribution_and_stale():
    n = 64
    deg = np.arange(n, dtype=np.int64)
    s = HBS(n)
    state = np.zeros(n, dtype=np.int8)
    s.build(np.arange(n), deg)
    total = 0
    for k in range(n):
        f, _ = s.next_frontier(k, deg, state)
        state[f] = PEELED
        total += len(f)
    assert total == n
    assert s.redistributed > 0  # range buckets were split at least once


def test_adaptive_switches_at_theta():
    from repro.bucket.single import SingleBucket

    n = 60
    deg = np.full(n, 40, dtype=np.int64)
    s = make_structure("adaptive", n)
    state = np.zeros(n, dtype=np.int8)
    s.build(np.arange(n), deg)
    for k in range(16):
        s.next_frontier(k, deg, state)
        assert isinstance(s.inner, SingleBucket)
    s.next_frontier(16, deg, state)
    assert isinstance(s.inner, HBS)


def test_scan_all_charges_n_per_round():
    n = 30
    deg = np.full(n, 3, dtype=np.int64)
    s = make_structure("scan_all", n)
    state = np.zeros(n, dtype=np.int8)
    s.build(np.arange(n), deg)
    _, cost = s.next_frontier(0, deg, state)
    assert cost == n
