"""CSR construction/invariant tests."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graphs.csr as csr_mod
from repro.graphs.csr import (
    BLOCK, CSR, build_csr, csr_from_codes, edge_array, from_edge_list,
    gather_neighbors, pair_codes,
)
from repro.graphs.generators import chung_lu, hcns
from repro.graphs.suite import SUITE


def test_build_simple_triangle():
    g = build_csr(3, np.array([0, 1, 2]), np.array([1, 2, 0]))
    assert g.n == 3 and g.m == 3 and g.m_directed == 6
    assert sorted(g.neighbors(0).tolist()) == [1, 2]
    g.validate()


def test_self_loops_dropped():
    g = build_csr(3, np.array([0, 1, 1]), np.array([0, 1, 2]))
    assert g.m == 1
    g.validate()


def test_duplicate_and_reverse_edges_collapse():
    g = build_csr(2, np.array([0, 1, 0, 0]), np.array([1, 0, 1, 1]))
    assert g.m == 1 and g.m_directed == 2
    g.validate()


def test_degrees_match_indptr():
    g = build_csr(4, np.array([0, 0, 0]), np.array([1, 2, 3]))
    assert g.degrees().tolist() == [3, 1, 1, 1]


def test_empty_graph():
    g = from_edge_list(np.empty((0, 2)), n=5)
    assert g.n == 5 and g.m == 0
    assert g.degrees().tolist() == [0] * 5


def test_from_edge_list_infers_n():
    g = from_edge_list(np.array([[0, 7]]))
    assert g.n == 8


def test_edge_array_round_trip():
    g = build_csr(5, np.array([0, 1, 2, 3]), np.array([1, 2, 3, 4]))
    arr = edge_array(g)
    g2 = from_edge_list(arr, n=5)
    assert np.array_equal(g.indptr, g2.indptr)
    assert np.array_equal(g.adj, g2.adj)


def test_gather_neighbors_matches_slices():
    g = build_csr(6, np.array([0, 0, 1, 2, 4]), np.array([1, 2, 3, 3, 5]))
    f = np.array([0, 3, 5])
    got = gather_neighbors(g.indptr, g.adj, f)
    expect = np.concatenate([g.neighbors(v) for v in f])
    assert np.array_equal(got, expect)


def test_gather_neighbors_empty_frontier():
    g = build_csr(3, np.array([0]), np.array([1]))
    assert len(gather_neighbors(g.indptr, g.adj, np.empty(0, dtype=np.int64))) == 0


def _edges(pairs):
    arr = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return arr[:, 0], arr[:, 1]


def test_build_csr_zero_vertices():
    g = build_csr(0, *_edges([]))
    assert g.n == 0 and g.m == 0
    assert g.indptr.tolist() == [0]
    assert g.indptr.dtype == np.int64 and g.adj.dtype == np.int64
    g.validate()


def test_build_csr_one_vertex():
    g = build_csr(1, *_edges([]))
    assert g.indptr.tolist() == [0, 0] and g.m == 0
    g.validate()


def test_build_csr_only_self_loops():
    g = build_csr(4, *_edges([(0, 0), (2, 2), (2, 2), (3, 3)]))
    assert g.indptr.tolist() == [0, 0, 0, 0, 0]
    assert len(g.adj) == 0
    g.validate()


def test_build_csr_duplicate_and_reversed_edges():
    g = build_csr(4, *_edges([(2, 0), (0, 2), (2, 0), (3, 1), (1, 3), (1, 1), (0, 3)]))
    assert g.indptr.tolist() == [0, 2, 3, 4, 6]
    # Neighbor lists come out sorted by target.
    assert g.adj.tolist() == [2, 3, 3, 0, 0, 1]
    g.validate()


def test_build_csr_last_vertex_isolated():
    g = build_csr(5, *_edges([(0, 1)]))
    assert g.indptr.tolist() == [0, 1, 2, 2, 2, 2]
    assert g.degrees().tolist() == [1, 1, 0, 0, 0]


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 30), st.integers(0, 30)), min_size=0, max_size=200
    )
)
def test_build_csr_invariants_hold(edges):
    arr = np.array(edges, dtype=np.int64).reshape(-1, 2)
    g = from_edge_list(arr, n=31)
    g.validate()
    # Undirected edge count equals the distinct non-loop pair count.
    pairs = {(min(a, b), max(a, b)) for a, b in edges if a != b}
    assert g.m == len(pairs)


# ------------------------------------------------ blocked build kernel
def _unique_csr(n, src, dst):
    """Reference build: ``np.unique`` of both directions' pair codes."""
    src, dst = np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    code = np.unique(np.concatenate([src * n + dst, dst * n + src]))
    a, b = np.divmod(code, n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(a, minlength=n), out=indptr[1:])
    return indptr, b


def _assert_builds_like_unique(n, src, dst):
    g = build_csr(n, src, dst)
    indptr, adj = _unique_csr(n, src, dst)
    assert g.indptr.dtype == np.int64 and g.adj.dtype == np.int64
    assert np.array_equal(g.indptr, indptr) and np.array_equal(g.adj, adj)
    return g


@pytest.mark.parametrize("count", [BLOCK - 1, BLOCK, BLOCK + 1])
def test_build_csr_block_sized_edge_counts(count):
    """``count`` distinct pairs, randomly oriented, with no loop or
    duplicate: the raw edges and the distinct pairs both fill one block,
    fall one short of it or spill one into the next."""
    rng = np.random.default_rng(count)
    n = 400
    lo, hi = np.triu_indices(n, 1)
    pick = rng.choice(len(lo), count, replace=False)
    flip = rng.random(count) < 0.5
    src = np.where(flip, hi[pick], lo[pick])
    dst = np.where(flip, lo[pick], hi[pick])
    assert _assert_builds_like_unique(n, src, dst).m == count


def test_build_csr_hub_spanning_blocks():
    """A hub adjacent to every other vertex: its list is over three
    blocks long, in the raw edges and in the CSR."""
    rng = np.random.default_rng(7)
    n = 3 * BLOCK + 8
    hub = n // 2
    leaves = np.delete(np.arange(n), hub)
    src = np.concatenate([np.full(n - 1, hub), rng.integers(0, n, 5000)])
    dst = np.concatenate([leaves, rng.integers(0, n, 5000)])
    order = rng.permutation(len(src))
    g = _assert_builds_like_unique(n, src[order], dst[order])
    assert g.degrees()[hub] == n - 1


def test_build_csr_loops_and_duplicates_across_blocks():
    """Self-loops on both sides of each block boundary, and duplicates
    and reversals of an edge placed in other blocks than the edge."""
    rng = np.random.default_rng(11)
    n = 3000
    src = rng.integers(0, n, 3 * BLOCK)
    dst = rng.integers(0, n, 3 * BLOCK)
    for b in (BLOCK, 2 * BLOCK):
        src[b - 1 : b + 1] = dst[b - 1 : b + 1]
    src[BLOCK + 1], dst[BLOCK + 1] = dst[BLOCK - 2], src[BLOCK - 2]  # reversed
    src[2 * BLOCK + 5], dst[2 * BLOCK + 5] = src[3], dst[3]  # duplicate
    src[-1], dst[-1] = dst[3], src[3]
    _assert_builds_like_unique(n, src, dst)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 40),
    edges=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=150),
    block=st.integers(1, 9),
)
def test_build_csr_any_block_size(n, edges, block):
    """With tiny blocks every kind of edge falls on a block boundary."""
    arr = np.array([(a % n, b % n) for a, b in edges], dtype=np.int64).reshape(-1, 2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(csr_mod, "BLOCK", block)
        _assert_builds_like_unique(n, arr[:, 0], arr[:, 1])


@pytest.mark.parametrize("count", [BLOCK - 1, BLOCK, BLOCK + 1])
def test_csr_from_codes_matches_decoded_pairs(count):
    """``count`` codes, with self-loop codes (two just before the block
    boundary) and duplicate codes (the last one in the next block when
    there is one), build the CSR that ``build_csr`` builds from the
    decoded pairs."""
    rng = np.random.default_rng(count)
    n = 300
    lo = rng.integers(0, n - 1, count)
    hi = rng.integers(lo + 1, n)
    code = lo * n + hi
    code[rng.random(count) < 0.05] = -1
    code[BLOCK - 2 : BLOCK] = -1
    code[BLOCK // 2] = code[-1] = code[BLOCK - 3]
    assert len(np.unique(code)) < count - 1
    src = np.where(code < 0, 0, code // n)
    dst = np.where(code < 0, 0, code % n)
    g = csr_from_codes(n, lambda: code.copy())
    ref = _assert_builds_like_unique(n, src, dst)
    assert np.array_equal(g.indptr, ref.indptr) and np.array_equal(g.adj, ref.adj)
    assert np.array_equal(pair_codes(n, dst, src), code)


@pytest.mark.parametrize(
    "build",
    [lambda: chung_lu(20_000, 30, seed=3), SUITE["EH"].bench, lambda: hcns(300)],
    ids=["chung_lu", "bench_EH", "hcns"],
)
def test_chung_lu_build_peak_is_a_small_multiple_of_its_csr(build):
    """The traced peak of generating and building a Chung-Lu graph, a
    planted-core graph (``suite._cored``) and HCNS stays within 2x the
    CSR's bytes: only the pair-code buffer and the distinct pairs live
    beside the output, never raw (src, dst) arrays."""
    import tracemalloc

    tracemalloc.start()
    try:
        g = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * (g.indptr.nbytes + g.adj.nbytes)
