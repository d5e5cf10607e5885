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
decrements each neighbour once, and the next frontier is recomputed. A
subround is therefore one Spark job, and the number of Spark iterations
is the dataflow rho', directly comparable to the paper's Fig. 7. Rounds
whose frontier is empty run no Spark job.

The task is a plain RDD closure over the arrays (adjacency, frontier,
degree and peel state), shipped with the task, rather than a pandas
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

from repro.core.framework import MAX_SUBROUNDS, DataflowStats
from repro.graphs.csr import CSR, gather_neighbors
from repro.simcpu.engine import VGC_QUEUE

_ACTIVE, _PEELED = 0, 1


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
    state = np.zeros(g.n, dtype=np.int8)
    core = np.zeros(g.n, dtype=np.int64)
    stats = DataflowStats()
    k = 0
    while (state == _ACTIVE).any():
        frontier = np.flatnonzero((state == _ACTIVE) & (deg <= k))
        sub = 0
        while len(frontier):
            sub += 1
            if stats.subrounds + sub > MAX_SUBROUNDS:
                raise RuntimeError("vgc dataflow exceeded iteration budget")
            state[frontier] = _PEELED

            def run_block(b):
                """Per-seed bounded local cascades of block ``b``'s
                frontier slice; returns the ids they chained. A closure
                over arrays and ints only, so it is pickled by value
                and a worker imports no repro module, pandas or pyarrow
                to run it. It works on the task's own copies of the
                arrays; the blocks share them, but each reads and writes
                only its own vertices' entries."""
                chained = []
                for seed in frontier[frontier % n_blocks == b]:
                    queue = [int(seed)]
                    qi = 0
                    while qi < len(queue):
                        v = queue[qi]
                        qi += 1
                        for u in adj[indptr[v] : indptr[v + 1]]:
                            u = int(u)
                            if state[u] != _ACTIVE or u % n_blocks != b:
                                continue
                            deg[u] -= 1
                            if deg[u] <= k and len(queue) < VGC_QUEUE:
                                state[u] = _PEELED
                                queue.append(u)
                            # Queue full: u stays active; the driver's
                            # frontier recomputation picks it up next
                            # subround.
                    chained += queue[1:]
                return chained

            chained = np.array(blocks.flatMap(run_block).collect(), dtype=np.int64)
            state[chained] = _PEELED
            peeled = np.concatenate([frontier, chained])
            core[peeled] = k
            np.subtract.at(deg, gather_neighbors(indptr, adj, peeled), 1)
            frontier = np.flatnonzero((state == _ACTIVE) & (deg <= k))
        stats.rounds += 1
        stats.subrounds += sub
        stats.subrounds_per_round.append(sub)
        k += 1
    return core, stats
