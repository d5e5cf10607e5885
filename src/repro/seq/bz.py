"""Batagelj–Zaversnik (BZ) sequential k-core decomposition.

BZ [Batagelj & Zaversnik 2003] is the O(n+m) sequential baseline the
paper compares against (the "BZ" column of Table 2): vertices are
bucket-sorted by degree and peeled in nondecreasing degree order,
swapping neighbors across bucket boundaries as their induced degrees
drop. It doubles as the ground truth for every parallel variant.
The peel is a scalar loop over ``memoryview``s of the NumPy arrays, and
its operation count has the closed form ``3n + m_directed + 2 * moves``.

``verify_coreness`` checks the local h-index fixpoint characterization
of coreness in O(n + m), with two neighbor counts per vertex. Peeling
errors introduced by the sampling scheme can only *inflate* coreness
values (a missed peel keeps a vertex active longer), and any assignment
f with f(v) > kappa(v) somewhere violates the fixpoint property (the set
{v : f(v) >= k} would induce a subgraph of min degree >= k). The engine
uses this check to make sampling Las Vegas (Sec. 4.1.4), for full runs
and for runs stopped at a k'-core: on failure it restarts without
sampling.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.csr import CSR


@dataclass
class BZResult:
    """Coreness plus the operation count used for simulated-time reporting."""

    core: np.ndarray
    work: int  # unit-weighted operation count (vertex touches + edge ops)


def bz_kcore(g: CSR) -> BZResult:
    """Exact coreness for every vertex via the BZ peeling order."""
    n = g.n
    deg = g.degrees().astype(np.int64)
    if n == 0:
        return BZResult(core=np.empty(0, dtype=np.int64), work=0)
    md = int(deg.max())
    # bin_start[d] = index in `vert` of the first vertex with degree d.
    counts = np.bincount(deg, minlength=md + 1)
    bin_start = np.zeros(md + 2, dtype=np.int64)
    np.cumsum(counts, out=bin_start[1:])
    vert_a = np.argsort(deg, kind="stable").astype(np.int64)
    pos_a = np.empty(n, dtype=np.int64)
    pos_a[vert_a] = np.arange(n)
    # Scalar loop over zero-copy memoryviews: each step touches one or
    # two entries, where NumPy's per-call cost would dominate.
    vert, pos = memoryview(vert_a), memoryview(pos_a)
    bins = memoryview(bin_start[:-1].copy())  # start of each degree bucket
    dm = memoryview(deg)
    indptr, adj = memoryview(g.indptr), memoryview(g.adj)
    moves = 0
    for i in range(n):
        v = vert[i]
        dv = dm[v]
        for u in adj[indptr[v] : indptr[v + 1]]:
            du = dm[u]
            if du > dv:
                # Swap u with the first vertex of its bucket, then
                # shrink the bucket: u now lives in bucket du-1.
                pu = pos[u]
                pw = bins[du]
                w = vert[pw]
                if u != w:
                    vert[pu], vert[pw] = w, u
                    pos[u], pos[w] = pw, pu
                bins[du] = pw + 1
                dm[u] = du - 1
                moves += 1
    # Bucket-sort init touches every vertex twice; the peel touches
    # each vertex once, each directed edge once and each move twice.
    return BZResult(core=deg, work=3 * n + g.m_directed + 2 * moves)


def verify_coreness(g: CSR, core: np.ndarray) -> bool:
    """True iff ``core`` satisfies the h-index fixpoint at every vertex.

    h(v) = max k such that v has at least k neighbors with core >= k.
    h(v) == core(v) exactly when v has at least core(v) neighbors with
    core >= core(v) and at most core(v) with core >= core(v) + 1, so two
    counts per vertex, one pass over the directed edges, decide it.

    The true coreness is the *maximal* fixpoint of h (Lü et al., Nat.
    Commun. 2016): for any fixpoint f, the set {v : f(v) >= k} induces
    min degree >= k, so f <= kappa pointwise. Deflated fixpoints (e.g.
    all zeros) also pass, which is harmless: a missed peel keeps a
    vertex active longer and can only *inflate* recorded coreness, and
    every inflation violates the fixpoint, so the check certifies a
    peeling run. Capping commutes with h, so min(kappa, k') is a
    fixpoint too, and the check certifies a run stopped before round k'
    as well.
    """
    n = g.n
    if n == 0:
        return True
    core = np.asarray(core, dtype=np.int64)
    if np.any(core < 0):
        return False
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(g.indptr))
    gap = core[g.adj] - core[src]  # neighbor's core minus its source's
    at_least = np.bincount(src[gap >= 0], minlength=n)
    above = np.bincount(src[gap > 0], minlength=n)
    return bool(np.all(at_least >= core) and np.all(above <= core))
