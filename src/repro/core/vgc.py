"""Vertical granularity control (Sec. 4.2) in the dataflow layer.

The shared-memory VGC chains cascading peels inside one subround via
per-vertex local queues, cutting the number of subrounds (global
synchronizations) from rho to rho'. The dataflow analogue: vertices are
hash-partitioned into blocks; each subround broadcasts the frontier
with the degree and peel state, and one Python task
(``parallelize(range(n_blocks), 1).flatMap``) runs the *local cascade*
of each block's seeds — peeling any chain that stays inside the block
(bounded by the simulator's local queue cap ``VGC_QUEUE``) — while
decrements to vertices of other blocks are emitted as messages and
collected at the subround boundary. A subround is therefore one Spark
job, and the number of Spark iterations is the dataflow rho', directly
comparable to the paper's Fig. 7. Rounds whose frontier is empty run no
Spark job.

The task is a plain RDD closure rather than a pandas UDF, whose Python
worker imports pandas, pyarrow and the UDF's module (0.65 s cold) to
cascade a few hundred vertices: on 4 vCPUs a subround of the
``dataflow-small`` benchmark's mesh took 0.43-0.55 s as a
``mapInPandas`` job and takes 0.19-0.29 s as this task.

Correctness: within a block the cascade is a legal sequential schedule;
cross-block decrements are deferred to the barrier, which is exactly
the offline subround semantics for those edges. Degree state is
authoritative on the driver and broadcast each subround (test-scale
graphs; benchmark scale runs on the machine simulator).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from pyspark.sql import SparkSession

from repro.graphs.csr import CSR, gather_neighbors
from repro.simcpu.engine import VGC_QUEUE

_ACTIVE, _QUEUED, _PEELED = 0, 1, 2


@dataclass
class VgcDataflowStats:
    rounds: int = 0
    subrounds: int = 0
    subrounds_per_round: list = field(default_factory=list)


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
    # Python worker per block.
    blocks = sc.parallelize(range(n_blocks), 1)
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

            def run_block(b):
                """Per-seed bounded local cascades of block ``b``'s
                frontier slice; returns (peeled ids, cross-block
                decrement messages, one per decrement). In-block
                decrements are re-derived by the driver from the peel
                set, so they are not messaged: that would count them
                twice. A closure over broadcasts, arrays and ints only,
                so it is pickled by value and a worker imports no repro
                module, pandas or pyarrow to run it."""
                front, dg, st = bc_sub.value
                ip, aj = bc_graph.value
                blk = bc_block.value
                dg, st = dg.copy(), st.copy()  # block-local views
                peeled, msgs = [], []
                for seed in front[blk[front] == b]:
                    queue = [int(seed)]
                    qi = 0
                    while qi < len(queue):
                        v = queue[qi]
                        qi += 1
                        peeled.append(v)
                        for u in aj[ip[v] : ip[v + 1]]:
                            u = int(u)
                            if st[u] != _ACTIVE:
                                continue
                            if blk[u] != b:
                                msgs.append(u)  # cross-block: defer to the barrier
                                continue
                            dg[u] -= 1
                            if dg[u] <= kk and len(queue) < VGC_QUEUE:
                                st[u] = _PEELED
                                queue.append(u)
                            # Queue full: u stays active; the driver's
                            # frontier recomputation picks it up next
                            # subround.
                return peeled, msgs

            # flatMap yields each block's (peeled, msgs) pair as two items.
            out = blocks.flatMap(run_block).collect()
            peeled = np.array([v for ids in out[0::2] for v in ids], dtype=np.int64)
            msgs = np.array([u for ids in out[1::2] for u in ids], dtype=np.int64)
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
