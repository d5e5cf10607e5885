"""Julienne-style fixed-b bucketing (paper Sec. 5.1).

Every b rounds, BUILDBUCKETS scans the active (overflow) set and
distributes vertices with induced degree in [k, k+b) into b single-key
buckets; the rest stay in the overflow set. DECREASEKEY moves a vertex
whenever its degree crosses a bucket boundary; moves use lazy deletion
(a vertex may have stale copies in higher buckets, filtered at
extraction). Total structure cost per vertex is O(d(v)/b + b).
"""
from __future__ import annotations

import numpy as np

from repro.bucket.interface import ACTIVE, MOVE_WEIGHT, FrontierStructure

# Bucket count b (Julienne uses 16; so does the paper's ours without HBS).
B = 16


class FixedBuckets(FrontierStructure):
    """B single-key buckets + overflow set, rebuilt every B rounds."""

    def __init__(self, n: int):
        super().__init__(n)
        self.kbase = 0
        self.overflow = np.empty(0, dtype=np.int64)
        self.buckets: list[list[np.ndarray]] = [[] for _ in range(B)]
        self.built = False

    def build(self, ids: np.ndarray, deg: np.ndarray) -> float:
        self.overflow = np.asarray(ids, dtype=np.int64).copy()
        self.built = False
        return 0.0

    def _rebuild(self, k: int, deg: np.ndarray, state: np.ndarray) -> float:
        """Scan the overflow set; fill buckets for rounds [k, k+B)."""
        self.kbase = k
        a = self.overflow
        cost = float(len(a))
        self.scanned += len(a)
        alive = state[a] == ACTIVE
        a = a[alive]
        d = deg[a]
        in_range = d < k + B
        self.buckets = [[] for _ in range(B)]
        ranged = a[in_range]
        slot = np.maximum(deg[ranged] - k, 0)
        for j in range(B):
            members = ranged[slot == j]
            if len(members):
                self.buckets[j].append(members)
        self.overflow = a[~in_range]
        self.built = True
        return cost

    def next_frontier(self, k, deg, state):
        cost = 0.0
        if not self.built or k >= self.kbase + B:
            cost += self._rebuild(k, deg, state)
        j = k - self.kbase
        parts = self.buckets[j]
        self.buckets[j] = []
        if not parts:
            return np.empty(0, dtype=np.int64), cost
        cand = np.unique(np.concatenate(parts))
        cost += float(len(cand))
        self.scanned += len(cand)
        valid = (state[cand] == ACTIVE) & (deg[cand] <= k)
        self.stale_filtered += int((~valid).sum())
        return cand[valid], cost

    def on_decrement(self, ids, deg) -> float:
        """Move vertices whose new degree lands in the bucket range."""
        if not self.built:
            return 0.0
        ids = np.asarray(ids, dtype=np.int64)
        d = deg[ids]
        in_range = d < self.kbase + B
        movers = ids[in_range]
        if len(movers) == 0:
            return 0.0
        slot = np.clip(deg[movers] - self.kbase, 0, B - 1)
        for j in np.unique(slot):
            self.buckets[int(j)].append(movers[slot == j])
        self.moves += len(movers)
        return MOVE_WEIGHT * len(movers)
