"""Structural-property tests for every graph-family generator."""
import numpy as np
import pytest

from repro.graphs import generators as gen
from repro.graphs.csr import BLOCK, pair_codes
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
    assert np.array_equal(_drawn(cdf, _Keys(x), len(x)), np.searchsorted(cdf, x))
    assert len(_drawn(cdf, _Keys(x), 0)) == 0


def _drawn(cdf, rng, m):
    """All of ``_inverse_cdf``'s blocks, joined."""
    return np.concatenate([np.empty(0, dtype=np.int64), *gen._inverse_cdf(cdf, rng, m)])


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
    got = _drawn(cdf, a, m)
    assert np.array_equal(got, np.searchsorted(cdf, b.random(m)))
    assert a.random() == b.random()


# --------------------------------------------------------- planted core
def test_planted_core_raises_kmax():
    base = gen.chung_lu(2000, 6, seed=5)
    boosted = gen.planted_core(base, 100, 60, seed=5)
    assert bz_kcore(boosted).core.max() > bz_kcore(base).core.max() + 5
    boosted.validate()


def test_planted_core_is_one_build_of_both_edge_sets():
    """``planted_core`` of a ``chung_lu`` graph equals one build of the
    pair-code buffer that holds the Chung-Lu draws and then the planted
    edges (how the suite builds its web graphs)."""
    from repro.graphs.suite import _cl_core

    two = gen.planted_core(gen.chung_lu(2000, 6, seed=5), 100, 60, seed=5)
    one = _cl_core(2000, 6, 2.3, 5, 100, 60, frac=0.05)()
    assert np.array_equal(one.indptr, two.indptr) and np.array_equal(one.adj, two.adj)


@pytest.mark.parametrize("m", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
def test_chung_lu_codes_are_the_permuted_draws(m):
    """The buffer holds, position by position, the pair codes of the
    draws of both endpoint arrays then permuted by ``rng.permutation(n)``,
    with the extra edges after them. The draws end one short of, on or
    one past a block boundary, or three into a third block, so the
    remap's last block is partial, full or one entry long."""
    n = 500
    exponent, frac = 2.1, 0.05
    rng = np.random.default_rng(9)
    w = (np.arange(n) + 2.0) ** (-1.0 / (exponent - 1.0))
    w = np.minimum(w, w.sum() * frac)
    cdf = np.cumsum(w)
    cdf /= cdf[-1]
    src = np.searchsorted(cdf, rng.random(m))
    dst = np.searchsorted(cdf, rng.random(m))
    perm = rng.permutation(n)
    extra = (np.array([3, 7, 7]), np.array([3, 2, 9]))
    want = np.concatenate([
        pair_codes(n, perm[src], perm[dst]), pair_codes(n, *extra),
    ])
    assert (want == -1).any()
    got = gen.chung_lu_codes(
        n, 2 * m / n, exponent, seed=9, max_weight_frac=frac, extra=extra
    )
    assert np.array_equal(got, want)


# ------------------------------------------------------------------ BA
def test_barabasi_albert_structure():
    g = gen.barabasi_albert(800, 5, seed=7)
    g.validate()
    # Attachment gives every non-seed vertex degree >= m0 (dedupe can
    # shave a little; allow a small deficit on few vertices).
    d = g.degrees()
    assert (d[6:] >= 3).all()
    assert d.max() > 30  # preferential attachment creates hubs


def _barabasi_albert_loop(n, m0, seed):
    """Reference: the per-vertex attachment loop, as (src, dst) arrays."""
    rng = np.random.default_rng(seed)
    pool = [x for v in range(1, m0 + 1) for x in (v, 0)]
    src, dst = list(range(1, m0 + 1)), [0] * m0
    for v in range(m0 + 1, n):
        targets = np.array(pool)[rng.integers(0, len(pool), m0)].tolist()
        src += [v] * m0
        dst += targets
        pool += targets + [v] * m0
    return np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)


@pytest.mark.parametrize("n,m0,seed", [(800, 5, 7), (200, 3, 2), (5, 1, 0), (2, 1, 3)])
def test_barabasi_albert_codes_match_the_per_vertex_loop(n, m0, seed):
    """The buffer holds, position by position, the pair codes of the
    per-vertex loop's attachments, with the extra edges after them."""
    extra = (np.array([0, 1]), np.array([n - 1, 1]))
    want = np.concatenate([
        pair_codes(n, *_barabasi_albert_loop(n, m0, seed)), pair_codes(n, *extra),
    ])
    assert np.array_equal(gen.barabasi_albert_codes(n, m0, seed=seed, extra=extra), want)


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
