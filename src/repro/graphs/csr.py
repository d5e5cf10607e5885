"""Compressed-sparse-row graph representation.

The machine simulator (``repro.simcpu``) and the sequential baselines
operate on CSR arrays. Graphs are undirected and simple: every edge is
stored in both directions, self-loops and duplicate edges are removed
at construction time.

Every graph is built by one core, ``csr_from_codes``, from a buffer of
canonical pair codes (``min * n + max``, -1 for a self-loop) that the
core owns and frees before allocating the output. ``build_csr`` encodes
(src, dst) edge arrays into such a buffer; the Chung–Lu, planted-core,
Barabási–Albert and HCNS generators write their edges into one
directly, so no raw edge arrays live through the build.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# Edges per step of the blocked kernels (graph build, Chung-Lu draws,
# coreness check): their temporaries stay cache-sized.
BLOCK = 1 << 15


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
    once in each direction, with self-loops dropped. It is
    ``csr_from_codes`` of the edges' ``pair_codes``.
    """
    src, dst = np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)
    return csr_from_codes(n, lambda: pair_codes(n, src, dst))


def csr_from_codes(n: int, codes: Callable[[], np.ndarray]) -> CSR:
    """Build the CSR of the int64 pair codes that ``codes()`` returns.

    Each code is an edge's canonical ``lo * n + hi`` (lo < hi), or -1
    for a self-loop (see ``pair_codes``); duplicates are allowed. The
    buffer is taken from a call, not an argument, so that this function
    holds its only reference: an argument would stay on the caller's
    stack through the whole build. The codes are sorted in place (-1
    sorts before every pair), and the buffer is freed once the distinct
    pairs are copied out, before ``adj`` is allocated. The pairs are
    then expanded into the directed codes ``v * n + u``: the canonical
    half is already sorted, the swapped half ``hi * n + lo`` is sorted
    in place, and one merge of the two runs gives the CSR order.
    Swapping runs over blocks of ``BLOCK`` edges, so no step holds a
    temporary larger than a block beside the codes and the output.
    """
    code = codes()
    code.sort()
    code = code[np.searchsorted(code, 0) :]
    first = np.empty(len(code), dtype=bool)
    first[:1] = True
    np.not_equal(code[1:], code[:-1], out=first[1:])
    pairs = code[first]
    del code, first
    m = len(pairs)
    adj = np.empty(2 * m, dtype=np.int64)
    adj[:m] = pairs
    del pairs
    for i in range(0, m, BLOCK):
        j = min(i + BLOCK, m)
        lo, hi = np.divmod(adj[i:j], n)
        np.multiply(hi, n, out=adj[m + i : m + j])
        adj[m + i : m + j] += lo
    adj[m:].sort()
    adj.sort(kind="stable")  # a merge of the two sorted runs
    indptr = np.searchsorted(adj, np.arange(n + 1, dtype=np.int64) * n)
    np.remainder(adj, n, out=adj)
    return CSR(indptr=indptr, adj=adj)


def pair_codes(
    n: int, src: np.ndarray, dst: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """The canonical code ``min * n + max`` of every int64 edge, -1 for
    a self-loop, computed ``BLOCK`` edges at a time into ``out`` (a new
    array if None; it may be ``src`` or ``dst`` itself). In a function
    of its own, so that no view of a block outlives the call."""
    code = np.empty(len(src), dtype=np.int64) if out is None else out
    for i in range(0, len(code), BLOCK):
        s, d = src[i : i + BLOCK], dst[i : i + BLOCK]
        lo, hi = np.minimum(s, d), np.maximum(s, d)
        c = code[i : i + BLOCK]
        np.multiply(lo, n, out=c)
        c += hi
        c[lo == hi] = -1
    return code


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
