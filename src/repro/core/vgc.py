"""Vertical granularity control (Sec. 4.2) in the dataflow layer.

The shared-memory VGC chains cascading peels inside one subround via
per-vertex local queues, cutting the number of subrounds (global
synchronizations) from rho to rho'. The dataflow analogue: vertices are
hash-partitioned into blocks; each subround broadcasts the frontier
with the degree and peel state, and a ``mapInPandas`` over
``spark.range(n_blocks)`` runs the *local cascade* of each block's
seeds — peeling any chain that stays inside the block (bounded by the
simulator's local queue cap ``VGC_QUEUE``) — while decrements to
vertices of other blocks are emitted as messages and collected at the
subround boundary. A subround is therefore one Spark job, and the
number of Spark iterations is the dataflow rho', directly comparable to
the paper's Fig. 7. Rounds whose frontier is empty run no Spark job.

Correctness: within a block the cascade is a legal sequential schedule;
cross-block decrements are deferred to the barrier, which is exactly
the offline subround semantics for those edges. Degree state is
authoritative on the driver and broadcast each subround (test-scale
graphs; benchmark scale runs on the machine simulator).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.graphs.csr import CSR, gather_neighbors
from repro.simcpu.engine import VGC_QUEUE

_ACTIVE, _QUEUED, _PEELED = 0, 1, 2


@dataclass
class VgcDataflowStats:
    rounds: int = 0
    subrounds: int = 0
    subrounds_per_round: list = field(default_factory=list)


def _cascade_block(
    seeds: np.ndarray,
    my_block: int,
    indptr: np.ndarray,
    adj: np.ndarray,
    deg: np.ndarray,
    state: np.ndarray,
    block_of: np.ndarray,
    k: int,
) -> pd.DataFrame:
    """Per-seed bounded local cascades for one block's frontier slice.

    Returns rows (id, kind): kind 0 = peeled in this block's cascades,
    kind 1 = cross-block decrement message (one row per decrement;
    in-block decrements are re-derived by the driver from the peel set,
    so they are *not* messaged — that would double-count them).
    """
    deg = deg.copy()  # block-local view; the driver re-derives updates
    peeled: list[int] = []
    msgs: list[int] = []
    for seed in seeds:
        queue = [int(seed)]
        enqueued = 1
        qi = 0
        while qi < len(queue):
            v = queue[qi]
            qi += 1
            peeled.append(v)
            for u in adj[indptr[v] : indptr[v + 1]]:
                u = int(u)
                if state[u] != _ACTIVE:
                    continue
                if block_of[u] != my_block:
                    msgs.append(u)  # cross-block: defer to the barrier
                    continue
                deg[u] -= 1
                if deg[u] <= k and enqueued < VGC_QUEUE:
                    state[u] = _PEELED
                    queue.append(u)
                    enqueued += 1
                # Queue full: u stays active; the driver's frontier
                # recomputation picks it up next subround.
    return pd.DataFrame(
        {
            "id": peeled + msgs,
            "kind": [0] * len(peeled) + [1] * len(msgs),
        }
    )


def kcore_dataflow_vgc(
    spark: SparkSession,
    g: CSR,
    *,
    n_blocks: int = 8,
    max_iterations: int = 10_000,
) -> tuple[np.ndarray, VgcDataflowStats]:
    """Exact coreness via block-local VGC cascades; returns (core, stats).

    ``stats.subrounds`` is the dataflow rho' — the number of Spark
    message exchanges — to compare against the plain framework's rho.
    """
    n = g.n
    sc = spark.sparkContext
    bc_graph = sc.broadcast((g.indptr, g.adj))
    block_of = (np.arange(n, dtype=np.int64) % n_blocks).astype(np.int64)
    bc_block = sc.broadcast(block_of)
    # One task runs every block's cascade: a task per block would start a
    # Python worker per block, each holding its own NumPy and pandas.
    blocks = spark.range(n_blocks, numPartitions=1)
    deg = g.degrees().astype(np.int64)
    state = np.zeros(n, dtype=np.int8)
    core = np.zeros(n, dtype=np.int64)
    stats = VgcDataflowStats()
    remaining = n
    k = 0
    iters = 0
    while remaining > 0:
        frontier = np.flatnonzero((state == _ACTIVE) & (deg <= k)).astype(np.int64)
        sub = 0
        while len(frontier):
            iters += 1
            sub += 1
            if iters > max_iterations:
                raise RuntimeError("vgc dataflow exceeded iteration budget")
            core[frontier] = k
            state[frontier] = _PEELED
            remaining -= len(frontier)
            bc_sub = sc.broadcast((frontier, deg, state))
            kk = int(k)

            def run_blocks(batches):
                front, dg, st = bc_sub.value
                ip, aj = bc_graph.value
                blk = bc_block.value
                for pdf in batches:
                    for b in pdf["id"]:
                        yield _cascade_block(
                            front[blk[front] == b], int(b), ip, aj, dg, st.copy(),
                            blk, kk,
                        )

            out = blocks.mapInPandas(run_blocks, schema="id long, kind int").toPandas()
            peeled = out.loc[out["kind"] == 0, "id"].to_numpy(np.int64)
            msgs = out.loc[out["kind"] == 1, "id"].to_numpy(np.int64)
            # Chained peels: record and account for them.
            chained = peeled[state[peeled] != _PEELED]
            core[chained] = k
            state[chained] = _PEELED
            remaining -= len(chained)
            # Apply in-block decrements implied by the peels, then the
            # cross-block / spilled messages.
            nbrs = gather_neighbors(g.indptr, g.adj, peeled)
            in_block_dec = nbrs[
                (block_of[nbrs] == block_of[np.repeat(
                    peeled, np.diff(g.indptr)[peeled]
                )])
                & (state[nbrs] == _ACTIVE)
            ]
            dec = np.concatenate([in_block_dec, msgs[state[msgs] == _ACTIVE]])
            if len(dec):
                uts, cts = np.unique(dec, return_counts=True)
                deg[uts] -= cts
            frontier = np.flatnonzero((state == _ACTIVE) & (deg <= k)).astype(
                np.int64
            )
            bc_sub.destroy()
        stats.rounds += 1
        stats.subrounds += sub
        stats.subrounds_per_round.append(sub)
        k += 1
        if k > n + 2:
            raise RuntimeError("vgc dataflow failed to terminate")
    return core, stats
