"""Compressed-sparse-row graph representation.

The machine simulator (``repro.simcpu``) and the sequential baselines
operate on CSR arrays. Graphs are undirected and simple: every edge is
stored in both directions, self-loops and duplicate edges are removed
at construction time.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CSR:
    """An undirected simple graph in CSR form.

    Attributes:
        indptr: int64 array of length n+1; neighbors of v live in
            ``adj[indptr[v]:indptr[v+1]]``.
        adj: int32/int64 array of directed-edge targets (each undirected
            edge appears twice).
    """

    indptr: np.ndarray
    adj: np.ndarray

    @property
    def n(self) -> int:
        """Number of vertices."""
        return len(self.indptr) - 1

    @property
    def m_directed(self) -> int:
        """Number of directed edges (2x the undirected edge count)."""
        return len(self.adj)

    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return self.m_directed // 2

    def degrees(self) -> np.ndarray:
        """Degree of every vertex, as int64."""
        return np.diff(self.indptr).astype(np.int64)

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbor list of vertex v (a CSR slice, do not mutate)."""
        return self.adj[self.indptr[v] : self.indptr[v + 1]]

    def validate(self) -> None:
        """Assert structural invariants (symmetric, simple, sorted)."""
        assert self.indptr[0] == 0 and self.indptr[-1] == len(self.adj)
        assert np.all(np.diff(self.indptr) >= 0)
        if self.m_directed == 0:
            return
        assert self.adj.min() >= 0 and self.adj.max() < self.n
        src = np.repeat(np.arange(self.n), np.diff(self.indptr))
        assert not np.any(src == self.adj), "self-loop found"
        # Symmetry: the multiset of (src,dst) equals the multiset of
        # (dst,src). Sorted-pair comparison catches asymmetric edges.
        fwd = src.astype(np.int64) * self.n + self.adj
        bwd = self.adj.astype(np.int64) * self.n + src
        assert np.array_equal(np.sort(fwd), np.sort(bwd)), "not symmetric"
        assert len(np.unique(fwd)) == len(fwd), "duplicate edge found"


def build_csr(n: int, src: np.ndarray, dst: np.ndarray) -> CSR:
    """Build a simple undirected CSR from directed edge arrays.

    The input is treated as a set of (possibly directed, possibly
    duplicated) edges; the output contains each undirected edge exactly
    once in each direction, with self-loops dropped.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    # Symmetrize then dedupe on the encoded pair; the sorted codes are
    # already in (source, target) order, which is the CSR layout.
    code = np.unique(np.concatenate([src * n + dst, dst * n + src]))
    a, b = np.divmod(code, n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(a, minlength=n), out=indptr[1:])
    return CSR(indptr=indptr, adj=b)


def from_edge_list(edges: np.ndarray, n: int | None = None) -> CSR:
    """Build a CSR from an (e, 2) edge array; infers n if not given."""
    edges = np.asarray(edges, dtype=np.int64)
    if edges.size == 0:
        return CSR(indptr=np.zeros((n or 0) + 1, dtype=np.int64), adj=np.empty(0, dtype=np.int64))
    if n is None:
        n = int(edges.max()) + 1
    return build_csr(n, edges[:, 0], edges[:, 1])


def gather_neighbors(
    indptr: np.ndarray, adj: np.ndarray, frontier: np.ndarray
) -> np.ndarray:
    """Concatenate the adjacency lists of ``frontier`` (vectorized)."""
    starts = indptr[frontier]
    cnts = indptr[frontier + 1] - starts
    total = int(cnts.sum())
    if total == 0:
        return np.empty(0, dtype=adj.dtype)
    ends = np.cumsum(cnts)
    idx = np.arange(total) - np.repeat(ends - cnts, cnts) + np.repeat(starts, cnts)
    return adj[idx]


def edge_array(g: CSR) -> np.ndarray:
    """Return the (m_directed, 2) directed edge array of a CSR graph."""
    src = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(g.indptr))
    return np.column_stack([src, g.adj.astype(np.int64)])
