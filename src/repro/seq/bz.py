"""Batagelj–Zaversnik (BZ) sequential k-core decomposition.

BZ [Batagelj & Zaversnik 2003] is the O(n+m) sequential baseline the
paper compares against (the "BZ" column of Table 2): vertices are
peeled in nondecreasing order of their induced degree, and each peel
lowers its live neighbors' degrees. It doubles as the ground truth for
every parallel variant.

The peel here is level-synchronous and vectorized: at level k it
removes every live vertex of degree <= k at once, gathers the removed
vertices' live neighbors, decrements them with one ``np.unique`` and
repeats on those whose degree fell to k or below; when none did, k
jumps to the least live degree. Every vertex removed at level k has
coreness k, the order BZ's bucket sort gives. BZ's operation count
does not depend on that order: a bucket move lowers one degree by one,
from d(v) to core(v), so there are ``m_directed - sum(core)`` moves and
the count is ``3n + m_directed + 2 * moves`` in closed form.

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

from repro.graphs.csr import BLOCK, CSR, gather_neighbors


@dataclass
class BZResult:
    """Coreness plus the operation count used for simulated-time reporting."""

    core: np.ndarray
    work: int  # unit-weighted operation count (vertex touches + edge ops)


def bz_kcore(g: CSR) -> BZResult:
    """Exact coreness for every vertex, peeled level by level.

    Each pass of the loop is one level's subround, and a level with no
    live vertex of degree <= k is skipped to the least live degree, so
    the loop runs once per subround, never per vertex or edge. The work
    is BZ's: the bucket-sort init touches every vertex twice, the peel
    touches each vertex once, each directed edge once and each of the
    ``m_directed - sum(core)`` bucket moves twice.
    """
    deg = g.degrees()
    core = np.zeros(g.n, dtype=np.int64)
    alive = np.ones(g.n, dtype=bool)
    live = np.arange(g.n, dtype=np.int64)
    k = 0
    frontier = live[deg <= k]
    while True:
        if len(frontier) == 0:
            live = live[alive[live]]
            if len(live) == 0:
                break
            k = max(k + 1, int(deg[live].min()))
            frontier = live[deg[live] <= k]
        core[frontier] = k
        alive[frontier] = False
        nbrs = gather_neighbors(g.indptr, g.adj, frontier)
        ids, cts = np.unique(nbrs[alive[nbrs]], return_counts=True)
        deg[ids] -= cts
        frontier = ids[deg[ids] <= k]
    moves = g.m_directed - int(core.sum())
    return BZResult(core=core, work=3 * g.n + g.m_directed + 2 * moves)


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
    indptr = g.indptr
    # A block runs from the first vertex whose list starts at or after a
    # multiple of BLOCK to the next such vertex, so a hub whose list is
    # longer than a block ends a block of its own.
    cuts = np.unique(np.searchsorted(indptr, np.arange(0, g.m_directed + 1, BLOCK)))
    for v0, v1 in zip(cuts, np.append(cuts[1:], n)):
        e = indptr[v0 : v1 + 1]
        own = core[v0:v1]
        gap = core[g.adj[e[0] : e[-1]]] - np.repeat(own, np.diff(e))
        # Per-vertex counts from prefix sums of the two per-edge tests.
        at = e - e[0]
        at_least = np.concatenate(([0], np.cumsum(gap >= 0)))[at]
        above = np.concatenate(([0], np.cumsum(gap > 0)))[at]
        if np.any(np.diff(at_least) < own) or np.any(np.diff(above) > own):
            return False
    return True
