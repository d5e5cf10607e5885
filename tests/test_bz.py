"""BZ sequential algorithm and the coreness verifier."""
import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import generators as gen
import repro.seq.bz as bz_mod
from repro.graphs.csr import BLOCK, build_csr, edge_array, from_edge_list
from repro.graphs.suite import SUITE, load_graph
from repro.seq.bz import bz_kcore, verify_coreness


def _reference_peeling(g):
    """Independent O(n^2)-ish reference: repeatedly peel min degrees."""
    deg = g.degrees().astype(np.int64)
    alive = np.ones(g.n, dtype=bool)
    core = np.zeros(g.n, dtype=np.int64)
    k = 0
    while alive.any():
        while True:
            f = np.flatnonzero(alive & (deg <= k))
            if len(f) == 0:
                break
            core[f] = k
            alive[f] = False
            for v in f:
                for u in g.neighbors(v):
                    if alive[u]:
                        deg[u] -= 1
        k += 1
    return core


@pytest.mark.parametrize(
    "maker",
    [
        lambda: gen.grid_2d(9, 9),
        lambda: gen.honeycomb(8, 8),
        lambda: gen.chung_lu(300, 8, seed=1),
        lambda: gen.barabasi_albert(200, 3, seed=2),
        lambda: gen.hcns(25),
        lambda: gen.cube_3d(5),
        lambda: gen.knn_graph(150, 3, seed=4),
    ],
    ids=["grid", "honeycomb", "chung_lu", "ba", "hcns", "cube", "knn"],
)
def test_bz_matches_reference(maker):
    g = maker()
    res = bz_kcore(g)
    assert np.array_equal(res.core, _reference_peeling(g))
    assert res.work > g.n + g.m_directed  # touches every vertex and edge


@pytest.mark.parametrize("graph", list(SUITE))
def test_bz_matches_networkx_on_suite(graph):
    """BZ and the engine's plain config are both level-synchronous
    peels, so the suite's ground truth is checked against networkx's
    own k-core algorithm."""
    g = load_graph(graph, "mini")
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(edge_array(g).tolist())
    want = nx.core_number(h)
    assert bz_kcore(g).core.tolist() == [want[v] for v in range(g.n)]


def test_bz_empty_and_singleton():
    g = from_edge_list(np.empty((0, 2)), n=3)
    assert bz_kcore(g).core.tolist() == [0, 0, 0]


def test_bz_clique():
    n = 12
    src, dst = np.meshgrid(np.arange(n), np.arange(n))
    g = build_csr(n, src.ravel(), dst.ravel())
    assert (bz_kcore(g).core == n - 1).all()


def test_verifier_accepts_truth():
    g = gen.chung_lu(400, 10, seed=9)
    assert verify_coreness(g, bz_kcore(g).core)


def test_verifier_accepts_deflation_fixpoints():
    """All-zeros is a (deflated) h-fixpoint and passes — harmless: the
    verifier only needs to reject *inflations*, the only error direction
    a missed peel can produce (see seq/bz.py docstring)."""
    g = gen.grid_2d(6, 6)
    assert verify_coreness(g, np.zeros(g.n, dtype=np.int64))


def test_verifier_rejects_inflation():
    """Sampling errors only inflate coreness; any inflation must fail."""
    g = gen.chung_lu(400, 10, seed=9)
    c = bz_kcore(g).core
    bad = c.copy()
    bad[np.argmax(c)] += 1
    assert not verify_coreness(g, bad)


def test_verifier_rejects_uniform_inflation():
    g = gen.grid_2d(8, 8)
    c = bz_kcore(g).core + 1
    assert not verify_coreness(g, c)


def test_verifier_rejects_negative():
    g = gen.grid_2d(4, 4)
    c = bz_kcore(g).core
    c[0] = -1
    assert not verify_coreness(g, c)


def _h_index_fixpoint(g, core) -> bool:
    """Reference: h(v) == core(v) at every vertex, with h computed one
    vertex at a time from its sorted neighbor cores."""
    if np.any(core < 0):
        return False
    for v in range(g.n):
        nbr = sorted(core[g.adj[g.indptr[v] : g.indptr[v + 1]]], reverse=True)
        h = max([0] + [i + 1 for i, c in enumerate(nbr) if c >= i + 1])
        if h != core[v]:
            return False
    return True


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 25),
    edges=st.lists(st.tuples(st.integers(0, 24), st.integers(0, 24)), max_size=120),
    seed=st.integers(0, 2**16),
)
def test_verifier_matches_h_index_reference(n, edges, seed):
    """The two-count check decides exactly the per-vertex h-index
    fixpoint, on true, capped, lowered, perturbed and random
    assignments."""
    arr = np.array([(a % n, b % n) for a, b in edges], dtype=np.int64).reshape(-1, 2)
    g = from_edge_list(arr, n=n)
    rng = np.random.default_rng(seed)
    core = bz_kcore(g).core
    kmax = int(core.max())
    perturbed = core.copy()
    idx = rng.integers(0, n, rng.integers(1, 4))
    perturbed[idx] = np.maximum(0, perturbed[idx] + rng.choice([-2, -1, 1, 2], len(idx)))
    # One vertex one below its coreness: only the count of neighbors
    # above it shows the error.
    lowered = core.copy()
    lowered[rng.integers(0, n)] -= 1
    for a in (
        core,
        np.maximum(lowered, 0),
        np.minimum(core, rng.integers(0, kmax + 2)),
        perturbed,
        rng.integers(-1, kmax + 3, n),
    ):
        assert verify_coreness(g, a) == _h_index_fixpoint(g, a)


# --------------------------------------------- blocked coreness check
def _assignments(g, rng):
    """True coreness, +1 everywhere, all zeros, the top vertex +1, one
    vertex -1 and a random perturbation."""
    core = bz_kcore(g).core
    top = core.copy()
    top[np.argmax(core)] += 1
    lowered = core.copy()
    lowered[rng.integers(0, g.n)] -= 1
    perturbed = core.copy()
    idx = rng.integers(0, g.n, 20)
    perturbed[idx] = np.maximum(0, perturbed[idx] + rng.choice([-1, 1], 20))
    return [core, core + 1, np.zeros(g.n, dtype=np.int64), top,
            np.maximum(lowered, 0), perturbed]


def _assert_verifies_like_reference(g, seed=0):
    rng = np.random.default_rng(seed)
    verdicts = []
    for a in _assignments(g, rng):
        got = verify_coreness(g, a)
        assert got == _h_index_fixpoint(g, a)
        verdicts.append(got)
    assert verdicts[:3] == [True, False, True]


@pytest.mark.parametrize("m_directed", [BLOCK - 2, BLOCK, BLOCK + 2])
def test_verifier_block_sized_edge_counts(m_directed):
    """A graph of exactly ``m_directed`` directed edges: the edges fill
    one block, fall two short of it or spill two into the next."""
    rng = np.random.default_rng(m_directed)
    n = 1500
    lo, hi = np.triu_indices(n, 1)
    pick = rng.choice(len(lo), m_directed // 2, replace=False)
    g = build_csr(n, lo[pick], hi[pick])
    assert g.m_directed == m_directed
    _assert_verifies_like_reference(g, m_directed)


@pytest.mark.parametrize("offset", [0, 1, 2])
def test_verifier_block_cut_at_and_inside_a_list(offset):
    """A star, then disjoint 4-cliques (3 edges per list): the cut at
    edge BLOCK falls on a vertex boundary or 1 or 2 edges into a list."""
    d = next(d for d in range(3, 6) if (BLOCK - 2 * d) % 3 == offset)
    src, dst = [np.zeros(d, dtype=np.int64)], [np.arange(1, d + 1)]
    a, b = np.triu_indices(4, 1)
    for v in range(d + 1, d + 1 + 4 * (BLOCK // 12 + 10), 4):
        src.append(v + a)
        dst.append(v + b)
    src, dst = np.concatenate(src), np.concatenate(dst)
    g = build_csr(int(dst.max()) + 1, src, dst)
    assert BLOCK - g.indptr[np.searchsorted(g.indptr, BLOCK, side="right") - 1] == offset
    _assert_verifies_like_reference(g, offset)


def test_verifier_hub_spanning_blocks():
    """A hub whose list is over three blocks long, with a dense core
    beside it."""
    rng = np.random.default_rng(3)
    n = 3 * BLOCK + 8
    hub = n // 3
    leaves = np.delete(np.arange(n), hub)
    core = rng.choice(n, 60, replace=False)
    a, b = np.triu_indices(60, 1)
    src = np.concatenate([np.full(n - 1, hub), core[a], rng.integers(0, n, 4000)])
    dst = np.concatenate([leaves, core[b], rng.integers(0, n, 4000)])
    g = build_csr(n, src, dst)
    assert g.degrees()[hub] == n - 1
    _assert_verifies_like_reference(g)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 25),
    edges=st.lists(st.tuples(st.integers(0, 24), st.integers(0, 24)), max_size=120),
    block=st.integers(1, 9),
    seed=st.integers(0, 2**16),
)
def test_verifier_any_block_size(n, edges, block, seed):
    """With tiny blocks every vertex list meets a block boundary."""
    arr = np.array([(a % n, b % n) for a, b in edges], dtype=np.int64).reshape(-1, 2)
    g = from_edge_list(arr, n=n)
    rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bz_mod, "BLOCK", block)
        for a in _assignments(g, rng) + [rng.integers(-1, 4, n)]:
            assert verify_coreness(g, a) == _h_index_fixpoint(g, a)
