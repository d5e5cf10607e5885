"""Structural-property tests for every graph-family generator."""
import numpy as np
import pytest

from repro.graphs import generators as gen
from repro.graphs.csr import BLOCK
from repro.seq.bz import bz_kcore


# ------------------------------------------------------------- chung_lu
def test_chung_lu_deterministic():
    a = gen.chung_lu(500, 8, seed=3)
    b = gen.chung_lu(500, 8, seed=3)
    assert np.array_equal(a.indptr, b.indptr) and np.array_equal(a.adj, b.adj)


def test_chung_lu_seed_changes_graph():
    a = gen.chung_lu(500, 8, seed=3)
    b = gen.chung_lu(500, 8, seed=4)
    assert not (len(a.adj) == len(b.adj) and np.array_equal(a.adj, b.adj))


def test_chung_lu_avg_degree_close_to_target():
    g = gen.chung_lu(2000, 10, seed=1)
    avg = 2 * g.m / g.n
    assert 5 <= avg <= 10.5  # dedupe removes some mass


def test_chung_lu_power_law_has_hubs():
    g = gen.chung_lu(3000, 10, exponent=2.0, seed=2)
    d = g.degrees()
    assert d.max() > 20 * d.mean()


def test_chung_lu_heavier_tail_bigger_hub():
    d19 = gen.chung_lu(3000, 10, exponent=1.9, seed=2).degrees().max()
    d30 = gen.chung_lu(3000, 10, exponent=3.0, seed=2).degrees().max()
    assert d19 > d30


@pytest.mark.parametrize("n", [1, 2, 7, 1000, 40_000])
def test_inverse_cdf_matches_searchsorted(n):
    """Heavy-tailed weights, some zero (repeated cdf values), and draws
    that hit cdf values exactly."""
    rng = np.random.default_rng(n)
    w = rng.pareto(1.1, n) * (rng.random(n) < 0.8)
    w[-1] += 1.0
    cdf = np.cumsum(w)
    cdf /= cdf[-1]
    x = np.concatenate([rng.random(20_000), [0.0, np.nextafter(1.0, 0.0)], cdf[:-1]])
    assert np.array_equal(gen._inverse_cdf(cdf, _Keys(x), len(x)), np.searchsorted(cdf, x))
    assert len(gen._inverse_cdf(cdf, _Keys(x), 0)) == 0


class _Keys:
    """Hands out fixed keys in order, as ``Generator.random(size)`` does."""

    def __init__(self, x):
        self.x, self.i = x, 0

    def random(self, size):
        self.i += size
        return self.x[self.i - size : self.i]


@pytest.mark.parametrize("m", [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
def test_inverse_cdf_draws_one_stream(m):
    """Drawing the keys a block at a time is the same stream as one
    ``rng.random(m)``, and leaves the generator where that call would."""
    cdf = np.cumsum(np.arange(1, 301) ** -1.2)
    cdf /= cdf[-1]
    a, b = np.random.default_rng(m), np.random.default_rng(m)
    got = gen._inverse_cdf(cdf, a, m)
    assert np.array_equal(got, np.searchsorted(cdf, b.random(m)))
    assert a.random() == b.random()


# --------------------------------------------------------- planted core
def test_planted_core_raises_kmax():
    base = gen.chung_lu(2000, 6, seed=5)
    boosted = gen.planted_core(base, 100, 60, seed=5)
    assert bz_kcore(boosted).core.max() > bz_kcore(base).core.max() + 5
    boosted.validate()


def test_planted_core_is_one_build_of_both_edge_sets():
    """``planted_core`` of a ``chung_lu`` graph equals one ``build_csr``
    of the raw Chung-Lu draws and the planted edges (how the suite
    builds its web graphs)."""
    from repro.graphs.csr import build_csr

    two = gen.planted_core(gen.chung_lu(2000, 6, seed=5), 100, 60, seed=5)
    src, dst = gen.chung_lu_edges(2000, 6, seed=5)
    psrc, pdst = gen.planted_edges(2000, 100, 60, seed=5)
    one = build_csr(2000, np.concatenate([src, psrc]), np.concatenate([dst, pdst]))
    assert np.array_equal(one.indptr, two.indptr) and np.array_equal(one.adj, two.adj)


# ------------------------------------------------------------------ BA
def test_barabasi_albert_structure():
    g = gen.barabasi_albert(800, 5, seed=7)
    g.validate()
    # Attachment gives every non-seed vertex degree >= m0 (dedupe can
    # shave a little; allow a small deficit on few vertices).
    d = g.degrees()
    assert (d[6:] >= 3).all()
    assert d.max() > 30  # preferential attachment creates hubs


def test_barabasi_albert_coreness_bounded_by_m0():
    g = gen.barabasi_albert(500, 4, seed=8)
    assert bz_kcore(g).core.max() <= 4


# ------------------------------------------------------------- lattices
def test_grid_2d_degrees_and_coreness():
    g = gen.grid_2d(15, 15)
    d = g.degrees()
    assert d.min() == 2 and d.max() == 4
    c = bz_kcore(g).core
    assert c.max() == 2 and (c == 2).all()  # whole grid is the 2-core


def test_grid_degraded_is_road_like():
    g = gen.grid_2d(30, 30, drop_prob=0.12, diag_prob=0.05, seed=1)
    g.validate()
    assert bz_kcore(g).core.max() <= 4


def test_cube_3d_structure():
    g = gen.cube_3d(6)
    assert g.n == 216
    d = g.degrees()
    assert d.min() == 3 and d.max() == 6
    assert bz_kcore(g).core.max() == 3


def test_honeycomb_structure():
    g = gen.honeycomb(12, 12)
    assert g.degrees().max() <= 3
    assert bz_kcore(g).core.max() == 2


def test_honeycomb_holes_reduce_size():
    full = gen.honeycomb(20, 20)
    holed = gen.honeycomb(20, 20, hole_prob=0.1, seed=3)
    assert holed.m < full.m


# ----------------------------------------------------------------- hcns
@pytest.mark.parametrize("kmax", [10, 40, 80])
def test_hcns_exact_coreness_sequence(kmax):
    g = gen.hcns(kmax)
    c = bz_kcore(g).core
    assert c.max() == kmax
    # Exactly one vertex with coreness i for 1 <= i < kmax.
    hist = np.bincount(c)
    assert (hist[1:kmax] == 1).all()
    # The clique members all have coreness kmax.
    assert hist[kmax] == kmax + 1
    assert g.n == 2 * kmax


# ------------------------------------------------------------------ kNN
def _brute_knn(pts, k):
    n = len(pts)
    out = np.empty((n, k), dtype=np.int64)
    for i in range(n):
        d = ((pts - pts[i]) ** 2).sum(axis=1)
        d[i] = np.inf
        out[i] = np.argpartition(d, k - 1)[:k]
    return out


# (2000, 20 clusters, seed 4) leaves one point unresolved by its cell's
# 3^d box, so that case runs the ring expansion past ring 1.
@pytest.mark.parametrize(
    "dims,clusters,n,seed",
    [(2, 0, 300, 11), (2, 5, 300, 11), (3, 0, 300, 11), (2, 20, 2000, 4)],
    ids=["2-0", "2-5", "3-0", "2-20"],
)
def test_knn_graph_exact_vs_brute_force(dims, clusters, n, seed):
    k = 4
    g = gen.knn_graph(n, k, dims=dims, clusters=clusters, seed=seed)
    pts = gen._knn_points(n, dims, clusters=clusters, seed=seed)
    brute = _brute_knn(pts, k)
    # The symmetrized edge set must equal the symmetrized brute-force set.
    src = np.repeat(np.arange(n), k)
    expect_edges = {(min(a, b), max(a, b)) for a, b in zip(src, brute.ravel())}
    got_edges = set()
    for v in range(g.n):
        for u in g.neighbors(v):
            got_edges.add((min(v, int(u)), max(v, int(u))))
    assert got_edges == expect_edges, expect_edges ^ got_edges


def test_knn_graph_min_degree_k():
    g = gen.knn_graph(500, 5, seed=12)
    assert g.degrees().min() >= 5  # symmetrization only adds edges


def test_knn_requires_enough_points():
    with pytest.raises(ValueError, match="n must exceed k "):
        gen.knn_graph(5, 5, seed=1)
    # n = k + 1 is enough: every point's k nearest are all the others.
    assert gen.knn_graph(6, 5, seed=1).degrees().tolist() == [5] * 6
