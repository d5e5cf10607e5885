"""Deterministic synthetic generators for the paper's 25 graph families.

The paper evaluates on real graphs up to 226B edges (social, web, road,
k-NN, meshes, lattices, and adversarial synthetics). We reproduce each
*family* at laptop scale with generators that preserve the structural
property the paper's evaluation exercises:

- ``chung_lu``       power-law social/web graphs (hub contention)
- ``planted_core``   dense ER core overlay (drives k_max up: web graphs)
- ``grid_2d``        GRID lattice and (degraded) road networks (high rho)
- ``cube_3d``        CUBE lattice
- ``honeycomb``      degree-3 meshes, TRCE/BBL analogues (high rho)
- ``knn_graph``      exact k-NN on 2D/3D points via cell buckets
- ``hcns``           one vertex per coreness value + clique (k_max stress)
- ``barabasi_albert``HPL power-law graph

All generators take an integer ``seed`` and are deterministic in it.
"""
from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.graphs.csr import BLOCK, CSR, build_csr, csr_from_codes, pair_codes


# ---------------------------------------------------------------------------
# Power-law families


def chung_lu(
    n: int,
    avg_deg: float,
    exponent: float = 2.3,
    *,
    seed: int = 0,
    max_weight_frac: float = 0.05,
) -> CSR:
    """Chung–Lu power-law graph with ~n*avg_deg/2 undirected edges.

    Expected degree of rank-i vertex is proportional to
    ``(i + i0)^(-1/(exponent-1))``; endpoints of each edge are sampled
    independently proportional to the weights (duplicate edges and
    self-loops are dropped, so realized average degree is slightly
    below ``avg_deg``). ``max_weight_frac`` caps any single vertex's
    share of the weight mass so hubs are heavy but not degenerate.
    Built by ``csr_from_codes`` from ``chung_lu_codes``, so the draws
    are never held as (src, dst) arrays.
    """
    return csr_from_codes(
        n,
        lambda: chung_lu_codes(
            n, avg_deg, exponent, seed=seed, max_weight_frac=max_weight_frac
        ),
    )


def chung_lu_codes(
    n: int,
    avg_deg: float,
    exponent: float = 2.3,
    *,
    seed: int = 0,
    max_weight_frac: float = 0.05,
    extra: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """The pair codes (``csr.pair_codes``) of ``chung_lu``'s draws,
    loops and duplicates included, followed by those of the ``extra``
    (src, dst) edges, in one buffer.

    The ``src`` keys fill the buffer; the ``dst`` keys are drawn a
    block at a time and encoded in place against them, as ``src * n +
    dst``. The vertex permutation is drawn after all the keys, so each
    block is then decoded, permuted and encoded as pair codes. The RNG
    stream is that of drawing both endpoint arrays and permuting them."""
    rng = np.random.default_rng(seed)
    gamma = 1.0 / (exponent - 1.0)
    i0 = 2.0
    w = (np.arange(n, dtype=np.float64) + i0) ** (-gamma)
    w = np.minimum(w, w.sum() * max_weight_frac)
    cdf = np.cumsum(w)
    cdf /= cdf[-1]
    m = int(n * avg_deg / 2)
    code = _code_buffer(n, m, extra)
    for b, s in enumerate(_inverse_cdf(cdf, rng, m)):
        code[b * BLOCK : b * BLOCK + len(s)] = s
    for b, d in enumerate(_inverse_cdf(cdf, rng, m)):
        c = code[b * BLOCK : b * BLOCK + len(d)]
        c *= n
        c += d
    # Shuffle vertex ids so hubs are not contiguous low ids.
    perm = rng.permutation(n)
    for i in range(0, m, BLOCK):
        c = code[i : min(i + BLOCK, m)]
        s, d = np.divmod(c, n)
        pair_codes(n, perm[s], perm[d], out=c)
    return code


def _code_buffer(
    n: int, m: int, extra: tuple[np.ndarray, np.ndarray] | None
) -> np.ndarray:
    """An int64 buffer of ``m`` slots for a generator's draws, followed
    by the pair codes of the ``extra`` (src, dst) edges, if any."""
    k = 0 if extra is None else len(extra[0])
    code = np.empty(m + k, dtype=np.int64)
    if k:
        pair_codes(n, *extra, out=code[m:])
    return code


def _inverse_cdf(
    cdf: np.ndarray, rng: np.random.Generator, m: int
) -> Iterator[np.ndarray]:
    """``np.searchsorted(cdf, rng.random(m))`` for a ``cdf`` ending at 1,
    through a guide table (Chen & Asau, 1974), yielded ``BLOCK``
    entries at a time.

    ``searchsorted`` bisects the whole ``cdf`` for each random key, a
    cache miss per step. A table of K = 2^b equal slices of [0, 1)
    (x * K is exact) narrows each answer to a few entries, which a
    vectorized bisection then settles. The keys are drawn one block
    per yielded block, the same stream as one ``rng.random(m)``."""
    k = 1 << (2 * len(cdf)).bit_length()
    table = np.searchsorted(cdf, np.arange(k + 1) / k)
    for i in range(0, m, BLOCK):
        x = rng.random(min(BLOCK, m - i))
        j = (x * k).astype(np.int64)
        lo, hi = table[j], table[j + 1]
        for _ in range(int((hi - lo).max(initial=0)).bit_length()):
            mid = (lo + hi) >> 1
            below = cdf[mid] < x
            lo = np.where(below, mid + 1, lo)
            hi = np.where(below, hi, mid)
        yield lo


def planted_core(
    base: CSR, core_size: int, core_avg_deg: float, *, seed: int = 0
) -> CSR:
    """Overlay a dense ER subgraph on ``core_size`` random vertices.

    Raises the graph's k_max to roughly ``core_avg_deg/2`` (the ER
    core's degeneracy), reproducing the very dense cores of web graphs
    (EH/SD/CW/HL*) and HPL relative to plain power-law graphs.

    The suite builds these graphs in one build of both edge sets' pair
    codes (``suite._cored``); this two-build form is the reference the
    tests compare that against.
    """
    from repro.graphs.csr import edge_array

    src, dst = planted_edges(base.n, core_size, core_avg_deg, seed=seed)
    old = edge_array(base)
    return build_csr(
        base.n, np.concatenate([old[:, 0], src]), np.concatenate([old[:, 1], dst])
    )


def planted_edges(
    n: int, core_size: int, core_avg_deg: float, *, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """The (src, dst) edges ``planted_core`` overlays on an n-vertex
    graph. A build reads only the set of undirected pairs, so building
    their pair codes together with a base graph's raw ones (the
    ``extra`` of ``chung_lu_codes`` and ``barabasi_albert_codes``)
    gives ``planted_core`` of that graph in one build."""
    rng = np.random.default_rng(seed)
    members = rng.choice(n, size=core_size, replace=False)
    m_extra = int(core_size * core_avg_deg / 2)
    src = members[rng.integers(0, core_size, m_extra)]
    dst = members[rng.integers(0, core_size, m_extra)]
    return src, dst


def barabasi_albert(n: int, m0: int, *, seed: int = 0) -> CSR:
    """Barabási–Albert preferential attachment (HPL family).

    Each new vertex attaches ``m0`` edges to targets drawn uniformly
    from the endpoint list of existing edges (the standard linear
    preferential-attachment trick).

    The suite's HPL graph is ``suite._cored`` of the
    ``barabasi_albert_codes``; tests use this built form as a reference.
    """
    return csr_from_codes(n, lambda: barabasi_albert_codes(n, m0, seed=seed))


def barabasi_albert_codes(
    n: int,
    m0: int,
    *,
    seed: int = 0,
    extra: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """The pair codes of ``barabasi_albert``'s attachments, duplicates
    included, followed by those of the ``extra`` (src, dst) edges."""
    rng = np.random.default_rng(seed)
    assert n > m0 >= 1
    # Endpoint pool: every inserted edge contributes both endpoints. The
    # seed star on vertices 0..m0 puts its pairs (v, 0) first; then each
    # new vertex v puts its m0 targets, then m0 copies of v, which are
    # known up front.
    pool = np.empty(2 * (n - m0) * m0, dtype=np.int64)
    pool[: 2 * m0 : 2] = np.arange(1, m0 + 1)
    pool[1 : 2 * m0 : 2] = 0
    new = pool[2 * m0 :].reshape(n - m0 - 1, 2, m0)
    new[:, 1, :] = np.arange(m0 + 1, n)[:, None]
    for pool_len in range(2 * m0, len(pool), 2 * m0):
        pool[pool_len : pool_len + m0] = pool[rng.integers(0, pool_len, m0)]
    m = (n - m0) * m0
    code = _code_buffer(n, m, extra)
    # Every attachment (target, v) has target < v: its pair code is
    # target * n + v, written in place without block temporaries.
    code[:m0] = pool[: 2 * m0 : 2]  # the seed star's pairs (0, v)
    drawn = code[m0:m].reshape(n - m0 - 1, m0)
    np.multiply(new[:, 0, :], n, out=drawn)
    drawn += new[:, 1, :]
    return code


# ---------------------------------------------------------------------------
# Lattice families


def grid_2d(
    rows: int,
    cols: int,
    *,
    drop_prob: float = 0.0,
    diag_prob: float = 0.0,
    seed: int = 0,
) -> CSR:
    """2D 4-neighbor lattice; optionally degrade into a road network.

    ``drop_prob`` removes a fraction of lattice edges and ``diag_prob``
    adds that fraction of diagonal shortcuts — with both nonzero the
    result resembles OSM road networks (k_max 3–4, long cascades).
    """
    rng = np.random.default_rng(seed)
    n = rows * cols
    vid = np.arange(n, dtype=np.int64).reshape(rows, cols)
    right = np.column_stack([vid[:, :-1].ravel(), vid[:, 1:].ravel()])
    down = np.column_stack([vid[:-1, :].ravel(), vid[1:, :].ravel()])
    edges = np.concatenate([right, down])
    if drop_prob > 0:
        edges = edges[rng.random(len(edges)) >= drop_prob]
    if diag_prob > 0:
        diag = np.column_stack([vid[:-1, :-1].ravel(), vid[1:, 1:].ravel()])
        diag = diag[rng.random(len(diag)) < diag_prob]
        edges = np.concatenate([edges, diag])
    return build_csr(n, edges[:, 0], edges[:, 1])


def cube_3d(side: int) -> CSR:
    """3D 6-neighbor lattice (the CUBE graph, k_max = 3)."""
    n = side**3
    vid = np.arange(n, dtype=np.int64).reshape(side, side, side)
    ex = np.column_stack([vid[:-1, :, :].ravel(), vid[1:, :, :].ravel()])
    ey = np.column_stack([vid[:, :-1, :].ravel(), vid[:, 1:, :].ravel()])
    ez = np.column_stack([vid[:, :, :-1].ravel(), vid[:, :, 1:].ravel()])
    edges = np.concatenate([ex, ey, ez])
    return build_csr(n, edges[:, 0], edges[:, 1])


def honeycomb(
    rows: int, cols: int, *, hole_prob: float = 0.0, seed: int = 0
) -> CSR:
    """Brick-wall (hexagonal) lattice: interior degree 3, k_max = 2.

    TRCE/BBL analogue: sparse mesh with very long peeling cascades.
    ``hole_prob`` deletes random vertices to emulate the holes in the
    simulation meshes.
    """
    rng = np.random.default_rng(seed)
    n = rows * cols
    vid = np.arange(n, dtype=np.int64).reshape(rows, cols)
    right = np.column_stack([vid[:, :-1].ravel(), vid[:, 1:].ravel()])
    # Vertical edges only where (row+col) is even -> brick wall.
    r, c = np.meshgrid(np.arange(rows - 1), np.arange(cols), indexing="ij")
    keep = ((r + c) % 2) == 0
    down = np.column_stack([vid[:-1, :][keep], vid[1:, :][keep]])
    edges = np.concatenate([right, down])
    if hole_prob > 0:
        alive = rng.random(n) >= hole_prob
        edges = edges[alive[edges[:, 0]] & alive[edges[:, 1]]]
    return build_csr(n, edges[:, 0], edges[:, 1])


# ---------------------------------------------------------------------------
# k-NN family


def _knn_points(
    n: int, dims: int, *, clusters: int = 0, seed: int = 0
) -> np.ndarray:
    """Random points in [0,1]^dims; optionally a Gaussian-mixture
    (clustered, like GPS traces) instead of uniform."""
    rng = np.random.default_rng(seed)
    if clusters <= 0:
        return rng.random((n, dims))
    centers = rng.random((clusters, dims))
    which = rng.integers(0, clusters, n)
    pts = centers[which] + rng.normal(0, 0.02, (n, dims))
    return np.clip(pts, 0.0, 1.0)


def knn_graph(
    n: int,
    k: int,
    *,
    dims: int = 2,
    clusters: int = 0,
    seed: int = 0,
) -> CSR:
    """Exact k-nearest-neighbor graph on random points, symmetrized.

    Uses a uniform cell grid as the spatial index. Ring r scans, for
    every point not yet resolved, the box of cells within r of its own
    cell: the points of one cell share that box and one distance block.
    A point is resolved when its k-th distance is within the box's cover
    radius (its distance to the nearest box face inside the domain, inf
    once the box is the whole domain); the rest go on to ring r + 1.
    This is the substrate the paper's k-NN datasets (CH5/GL*/COS5) need.
    """
    pts = _knn_points(n, dims, clusters=clusters, seed=seed)
    side = max(1, int((n / max(2 * k, 8)) ** (1.0 / dims)))
    cw = 1.0 / side
    cell = np.clip((pts / cw).astype(np.int64), 0, side - 1)
    flat = cell[:, 0].copy()
    for d in range(1, dims):
        flat = flat * side + cell[:, d]
    order = np.argsort(flat, kind="stable")
    # Cell c holds the points order[start[c] : start[c + 1]].
    start = np.searchsorted(flat[order], np.arange(side**dims + 1))

    def box_members(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """The points of the cells lo..hi, in cell order. The cells of a
        box row (the last coordinate varies) are one slice of ``order``."""
        f = np.zeros(1, dtype=np.int64)
        for d in range(dims - 1):
            f = (f[:, None] * side + np.arange(lo[d], hi[d] + 1)).ravel()
        f = f * side
        return np.concatenate([order[start[c + lo[-1]] : start[c + hi[-1] + 1]] for c in f])

    dst = np.empty((n, k), dtype=np.int64)
    todo = order  # the unresolved points, grouped by cell
    ring = 1
    while len(todo):
        p = pts[todo]
        lo = np.maximum(cell[todo] - ring, 0)
        hi = np.minimum(cell[todo] + ring, side - 1)
        cover = np.minimum(
            np.where(lo > 0, p - lo * cw, np.inf).min(axis=1),
            np.where(hi < side - 1, (hi + 1) * cw - p, np.inf).min(axis=1),
        )
        done = np.zeros(len(todo), dtype=bool)
        bounds = np.flatnonzero(np.diff(flat[todo], prepend=-1, append=-1))
        for s, e in zip(bounds[:-1], bounds[1:]):
            cand = box_members(lo[s], hi[s])
            if len(cand) <= k:
                if cover[s] == np.inf:
                    raise ValueError("n must exceed k for a k-NN graph")
                continue
            pc = pts[cand]
            d2 = sum((pc[:, d] - p[s:e, d, None]) ** 2 for d in range(dims))
            d2[cand[None, :] == todo[s:e, None]] = np.inf
            idx = np.argpartition(d2, k - 1, axis=1)[:, :k]
            kth = np.sqrt(d2[np.arange(e - s), idx[:, -1]])  # the partition's k-th
            dst[todo[s:e]] = cand[idx]
            done[s:e] = kth <= cover[s:e]
        todo = todo[~done]
        ring += 1
    src = np.repeat(np.arange(n, dtype=np.int64), k)
    return build_csr(n, src, dst.ravel())


# ---------------------------------------------------------------------------
# Adversarial synthetics


def hcns(k_max: int) -> CSR:
    """High-coreness synthetic (HCNS, Sec. 6.1.1).

    A (k_max+1)-clique (coreness k_max) plus chain vertices u_1..u_{k_max-1}
    where u_i has exactly i edges into the clique, so u_i has coreness
    exactly i and is the only vertex peeled in round i. This yields
    rho = k_max and n = 2*k_max, stressing the bucketing structure.
    Built by ``csr_from_codes`` from the edges' pair codes, written
    straight into one buffer.
    """
    return csr_from_codes(2 * k_max, lambda: _hcns_codes(k_max))


def _hcns_codes(k_max: int) -> np.ndarray:
    """The pair codes of ``hcns(k_max)``'s edges, written directly: a
    clique pair (j, i) has j < i, and a chain vertex has a higher id
    than every clique vertex."""
    c = k_max + 1  # clique size
    n = c + (k_max - 1)
    t = c * (c - 1) // 2  # clique edges
    code = np.empty(t + k_max * (k_max - 1) // 2, dtype=np.int64)
    # Clique pair (j, i) for j < i sits at i(i-1)/2 + j.
    hi = np.repeat(np.arange(c), np.arange(c))
    np.subtract(np.arange(t), hi * (hi - 1) // 2, out=code[:t])
    code[:t] *= n
    code[:t] += hi
    e = t
    for i in range(1, k_max):
        u = k_max + i  # chain vertex with target coreness i
        # Round-robin attachment keeps clique degrees balanced.
        targets = (np.arange(i) * 7 + i) % (k_max + 1)
        targets = np.unique(targets)
        # Ensure exactly i distinct targets.
        extra = 0
        while len(targets) < i:
            cand = (targets[-1] + 1 + extra) % (k_max + 1)
            if cand not in targets:
                targets = np.append(targets, cand)
            extra += 1
        np.add(targets[:i] * n, u, out=code[e : e + i])
        e += i
    return code
