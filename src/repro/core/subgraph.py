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
- ``kcore_subgraph_dataflow`` the same fixpoint as a Spark DataFrame
  program on the framework's driver (``core/framework.drive``), used
  for oracle checking in tests.

All three return the same exact membership mask.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.bucket.interface import PEELED
from repro.core.framework import ACTIVE, DataflowStats, PeelStep, drive, union_messages
from repro.graphs.csr import CSR
from repro.graphs.spark_graph import ADJACENCY
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
    eng = _Engine(g, algo, machine)
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
    spark: SparkSession, edges: DataFrame, kprime: int
) -> tuple[DataFrame, DataflowStats]:
    """The framework's driver run as a fixpoint: one round, k' - 1, whose
    subrounds peel every active vertex of degree < k' until none is
    left. Returns ((id) DataFrame of the maximum k'-core members,
    stats); like ``kcore_dataflow`` it sees only the vertices of the
    edge list, so isolated ones are missing from the 0-core."""
    state = spark.sql(f"SELECT id, deg, -1 AS core, nbrs FROM ({ADJACENCY})", edges=edges)
    stats = DataflowStats()

    def peel(state: DataFrame, k: int, probe: tuple) -> DataFrame:
        f = f"{ACTIVE} AND deg < {kprime}"
        grouped = union_messages(["deg", "core", "nbrs", f"{f} AS f"], f)
        return spark.sql(
            f"SELECT id, deg - c AS deg, IF(f, {k}, core) AS core, nbrs FROM ({grouped})",
            state=state,
        )

    step = PeelStep(peel, f"IF(deg < {kprime}, {kprime - 1}, NULL)", "deg")
    state, _ = drive(state, step, stats)
    return state.where(ACTIVE).select("id"), stats
