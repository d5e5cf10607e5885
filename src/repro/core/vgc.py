"""Vertical granularity control (Sec. 4.2) in the dataflow layer.

The shared-memory VGC chains cascading peels inside one subround via
per-vertex local queues, cutting the number of subrounds (global
synchronizations) from rho to rho'. The dataflow analogue: vertex u is
in block u % n_blocks, and each subround one Python task
(``parallelize(range(n_blocks), 1).flatMap``) runs the *local cascade*
of each block's seeds, chaining any vertex whose degree, decremented by
the block's own peels, falls to k (bounded by the simulator's local
queue cap ``VGC_QUEUE``). The task returns the ids it chained. The
queue decides only which vertices the subround peels; the driver then
applies the framework's decrement rule (Alg. 1): each peeled vertex
decrements each neighbour once. The loop is the framework's ``drive``,
whose barrier here reads the least active degree from the arrays: a
subround is one Spark job, so the number of Spark iterations is the
dataflow rho', directly comparable to the paper's Fig. 7, and empty
rounds are skipped, as for the SQL programs.

The task is a plain RDD closure over the arrays (adjacency, frontier,
degree and coreness), shipped with the task, rather than a pandas
UDF, whose Python worker imports pandas, pyarrow and the UDF's module
(0.65 s cold) to cascade a few hundred vertices: on 4 vCPUs a subround
of the ``dataflow-small`` benchmark's mesh took 0.43-0.55 s as a
``mapInPandas`` job and takes 0.19-0.29 s as this task.

Correctness: within a block the cascade is a legal sequential schedule;
decrements from other blocks are applied at the barrier, which is
exactly the offline subround semantics for those edges. Degree state is
authoritative on the driver (test-scale graphs; benchmark scale runs on
the machine simulator).
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import SparkSession

from repro.core.framework import DataflowStats, PeelStep, drive
from repro.graphs.csr import CSR, gather_neighbors
from repro.simcpu.engine import VGC_QUEUE


def kcore_dataflow_vgc(
    spark: SparkSession, g: CSR, *, n_blocks: int = 8
) -> tuple[np.ndarray, DataflowStats]:
    """Exact coreness via block-local VGC cascades; returns (core, stats).

    ``stats.subrounds`` is the dataflow rho' — the number of Spark
    jobs — to compare against the plain framework's rho.
    """
    indptr, adj = g.indptr, g.adj
    # One task runs every block's cascade: a task per block would start a
    # Python worker per block.
    blocks = spark.sparkContext.parallelize(range(n_blocks), 1)
    deg = g.degrees().astype(np.int64)
    core = np.full(g.n, -1, dtype=np.int64)  # -1 while active, as in Alg. 1

    def peel(_, k: int, probe: tuple) -> None:
        frontier = np.flatnonzero((core == -1) & (deg <= k))
        core[frontier] = k

        def run_block(b):
            """Per-seed bounded local cascades of block ``b``'s frontier
            slice; returns the ids they chained. A closure over arrays
            and ints only, so it is pickled by value and a worker
            imports no repro module, pandas or pyarrow to run it. It
            works on the task's own copies of the arrays; the blocks
            share them, but each reads and writes only its own
            vertices' entries."""
            chained = []
            for seed in frontier[frontier % n_blocks == b]:
                queue = [int(seed)]
                for v in queue:  # FIFO: iterating a list visits what is appended
                    for u in adj[indptr[v] : indptr[v + 1]]:
                        u = int(u)
                        if core[u] != -1 or u % n_blocks != b:
                            continue
                        deg[u] -= 1
                        if deg[u] <= k and len(queue) < VGC_QUEUE:
                            core[u] = k
                            queue.append(u)
                        # Queue full: u stays active; the barrier's
                        # probe finds it, and it peels next subround.
                chained += queue[1:]
            return chained

        chained = np.array(blocks.flatMap(run_block).collect(), dtype=np.int64)
        core[chained] = k
        peeled = np.concatenate([frontier, chained])
        np.subtract.at(deg, gather_neighbors(indptr, adj, peeled), 1)

    def barrier(_) -> tuple[None, tuple]:
        """The least active degree, both the next round and the least
        frontier degree; no Spark job."""
        active = deg[core == -1]
        least = int(active.min()) if len(active) else None
        return None, (least, least)

    stats = DataflowStats()
    drive(None, PeelStep(peel, barrier), stats)
    return core, stats
