"""CSR construction/invariant tests."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.csr import CSR, build_csr, edge_array, from_edge_list, gather_neighbors


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
