"""Maximum k'-core subgraph (paper Appendix B / Fig. 12).

Given k', iteratively delete vertices with induced degree < k' until
none remain; the survivors form the maximum k'-core subgraph. The
paper adapts its framework (online peel + VGC + sampling) to this
problem and compares against Galois [60], an asynchronous
worklist-based system.

- ours-adapted is the engine itself: ``run_kcore(g, OURS,
  stop_at_k=k')`` stops before round k' and caps coreness at k', so
  ``core >= k'`` is the k'-core. Its Las Vegas check is the one of a
  full run, on the capped coreness.
- ``kcore_subgraph_galois`` the Galois-like baseline: an asynchronous
  worklist — no subround barriers (no omega per subround), but every
  activated task pays Galois's per-activity worklist overhead and full
  atomic contention on high-degree vertices (no sampling). This models
  the system the paper measured; Galois itself is closed-source-ish
  C++ we cannot run here (substitution documented in DESIGN.md).
- ``kcore_subgraph_dataflow`` the same fixpoint as a Spark DataFrame
  program on the framework's driver (``core/framework.drive``), used
  for oracle checking in tests.

All three return the same exact membership, isolated vertices included.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.core.framework import ACTIVE, DataflowStats, PeelStep, drive, observed, union_messages
from repro.graphs.csr import CSR
from repro.graphs.spark_graph import ADJACENCY
from repro.simcpu.configs import REGISTRY
from repro.simcpu.engine import run_kcore
from repro.simcpu.machine import MachineConfig
from repro.simcpu.metrics import RunMetrics

# Galois's per-activity worklist overhead, in cost-model units.
T_TASK = 12.0


def kcore_subgraph_galois(g: CSR, kprime: int) -> tuple[np.ndarray, RunMetrics]:
    """Galois-like asynchronous worklist baseline.

    Executes the same peeling (so the mask is exact), but the cost
    model has no subround syncs: time = work/P + per-activity worklist
    overhead (T_TASK per processed vertex) + full contention serialized
    on the hottest location (no sampling)."""
    machine = MachineConfig()
    core, met = run_kcore(g, REGISTRY["plain"], machine, stop_at_k=kprime)
    member = core >= kprime
    # Re-price: remove the per-subround omega charges, add worklist
    # overhead per activation and keep the serialized contention.
    n_activated = int((~member).sum())
    met.t_par_units += n_activated * T_TASK / machine.p
    met.t_par_units -= met.rho * machine.omega  # async: no barriers
    met.algo = "galois"
    return member, met


def kcore_subgraph_dataflow(
    spark: SparkSession, edges: DataFrame, kprime: int, *, n: int
) -> tuple[DataFrame, DataflowStats]:
    """The framework's driver run as a fixpoint: one round, k' - 1, whose
    subrounds peel every active vertex of degree < k' until none is
    left. Returns ((id) DataFrame of the maximum k'-core members of the
    vertices 0..n-1, stats)."""
    # One (id, NULL) row per vertex puts the isolated ones in the state:
    # ADJACENCY counts and collects dst, which skips the NULLs.
    edges = edges.unionByName(spark.range(n).selectExpr("id AS src", "NULL AS dst"))
    state = spark.sql(f"SELECT id, deg, -1 AS core, nbrs FROM ({ADJACENCY})", edges=edges)
    stats = DataflowStats()

    def peel(state: DataFrame, k: int, probe: tuple) -> DataFrame:
        f = f"{ACTIVE} AND deg < {kprime}"
        grouped = union_messages(["deg", "core", "nbrs", f"{f} AS f"], f)
        return spark.sql(
            f"SELECT id, deg - c AS deg, IF(f, {k}, core) AS core, nbrs FROM ({grouped})",
            state=state,
        )

    step = PeelStep(peel, observed(f"IF(deg < {kprime}, {kprime - 1}, NULL)", "deg"))
    state, _ = drive(state, step, stats)
    return state.where(ACTIVE).select("id"), stats
