"""Maximum k'-core subgraph (paper Appendix B / Fig. 12).

Given k', iteratively delete vertices with induced degree < k' until
none remain; the survivors form the maximum k'-core subgraph. The
paper adapts its framework (online peel + VGC + sampling) to this
problem and compares against Galois [60], an asynchronous
worklist-based system.

We implement:

- ``kcore_subgraph``        ours-adapted: the engine's own round loop
  (``_Engine.run(stop_at_k=k')``) with OURS's online peel, VGC local
  queues, sampling (validated at the end of each round) and adaptive
  HBS, stopped before round k' on the machine simulator's cost model.
  A sampled run whose survivors fail the k'-core check reruns without
  sampling (Las Vegas).
- ``kcore_subgraph_galois`` the Galois-like baseline: an asynchronous
  worklist — no subround barriers (no omega per subround), but every
  activated task pays Galois's per-activity worklist overhead and full
  atomic contention on high-degree vertices (no sampling). This models
  the system the paper measured; Galois itself is closed-source-ish
  C++ we cannot run here (substitution documented in DESIGN.md).
- ``kcore_subgraph_dataflow`` a DataFrame fixpoint (filter + histogram
  loop) used for oracle checking in tests.

All three return the same exact membership mask.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.bucket.interface import PEELED
from repro.graphs.csr import CSR
from repro.simcpu.configs import OURS, REGISTRY
from repro.simcpu.engine import AlgoConfig, _Engine
from repro.simcpu.machine import MachineConfig
from repro.simcpu.metrics import RunMetrics

# Galois's per-activity worklist overhead, in cost-model units.
T_TASK = 12.0


def _survivors(
    g: CSR, kprime: int, algo: AlgoConfig, machine: MachineConfig
) -> tuple[np.ndarray, RunMetrics]:
    """Peel rounds 0..k'-1 of ``algo``; the unpeeled vertices are the
    maximum k'-core. Returns (membership mask, metrics)."""
    eng = _Engine(g, algo, machine, collect=False)
    _, met = eng.run(stop_at_k=kprime)
    return eng.state != PEELED, met


def kcore_subgraph(
    g: CSR,
    kprime: int,
    *,
    machine: MachineConfig | None = None,
    vgc: bool = True,
    sampling: bool = True,
) -> tuple[np.ndarray, RunMetrics]:
    """Ours-adapted max k'-core (membership mask, metrics)."""
    machine = machine or MachineConfig()
    algo = replace(OURS, name="ours-subgraph", vgc=vgc, sampling=sampling)
    member, met = _survivors(g, kprime, algo, machine)
    if sampling:
        # Las Vegas check: survivors must all have >= k' surviving
        # neighbors; otherwise rerun without sampling.
        if not _is_kcore(g, member, kprime):
            member, met = _survivors(
                g, kprime, replace(algo, sampling=False), machine
            )
            met.restarts = 1
    return member, met


def kcore_subgraph_galois(
    g: CSR, kprime: int, *, machine: MachineConfig | None = None
) -> tuple[np.ndarray, RunMetrics]:
    """Galois-like asynchronous worklist baseline.

    Executes the same peeling (so the mask is exact), but the cost
    model has no subround syncs: time = work/P + per-activity worklist
    overhead (T_TASK per processed vertex) + full contention serialized
    on the hottest location (no sampling)."""
    machine = machine or MachineConfig()
    member, met = _survivors(g, kprime, REGISTRY["plain"], machine)
    # Re-price: remove the per-subround omega charges, add worklist
    # overhead per activation and keep the serialized contention.
    n_activated = int((~member).sum())
    met.t_par_units += n_activated * T_TASK / machine.p
    met.t_par_units -= met.rho * machine.omega  # async: no barriers
    met.algo = "galois"
    return member, met


def _is_kcore(g: CSR, member: np.ndarray, kprime: int) -> bool:
    """Every member has >= k' member neighbors (the sampling recovery
    check). Only members are checked: sampling can delay a vertex's
    peel, never advance it, so a failure always leaves a member short
    of neighbors."""
    if not member.any():
        return True
    src = np.repeat(np.arange(g.n), np.diff(g.indptr))
    both = member[src] & member[g.adj]
    deg_in = np.bincount(src[both], minlength=g.n)
    return bool((deg_in[member] >= kprime).all())


def kcore_subgraph_dataflow(
    spark: SparkSession, edges: DataFrame, kprime: int, *, max_iterations: int = 2000
) -> DataFrame:
    """DataFrame fixpoint: drop vertices with degree < k' until stable.
    Returns the (id) DataFrame of the maximum k'-core members."""
    live = edges.select("src", "dst").localCheckpoint()
    for _ in range(max_iterations):
        deg = live.groupBy("src").agg(F.count("*").alias("deg"))
        keep = deg.where(F.col("deg") >= kprime).select("src").localCheckpoint()
        nxt = (
            live.join(keep, "src")
            .join(keep.withColumnRenamed("src", "dst"), "dst")
            .select("src", "dst")
            .localCheckpoint()
        )
        if nxt.count() == live.count():
            return keep.select(F.col("src").alias("id"))
        live = nxt
    raise RuntimeError("k-core subgraph fixpoint did not converge")
