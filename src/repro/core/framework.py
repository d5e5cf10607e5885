"""Alg. 1 (work-efficient peeling framework) as a Spark DataFrame program.

The offline peel of a subround is Julienne's histogram-based Alg. 2 in
Catalyst terms, done as one shuffle:

    msgs  = edges SEMI JOIN broadcast(frontier) ON src     -- removals
    state = (state UNION msgs) GROUPBY id                  -- HISTOGRAM
            -> core = k on the frontier, deg -= count      -- batch apply

The active set is the rows with ``core == -1``; the per-round
refinement (line 9 of Alg. 1) is the frontier filter itself. Every
subround ends in ``localCheckpoint()`` followed by one probe aggregate
over the checkpointed state, which returns the minimum degree of the
active vertices and so whether the frontier at k is empty. When it is,
the round ends and the next one starts at k = max(k + 1, min active
degree): empty buckets are skipped, as Julienne's GetNextBucket does,
and cost no Spark job. A subround is thus one shuffle plus one probe:
4 Spark jobs under adaptive execution (the frontier broadcast, the
shuffle's map stage, the checkpoint and the probe), plus 3 per call
(the degree count's two stages and the first probe).

With ``bucket_width`` b the candidate pool of Julienne's fixed-b
bucketing is a boolean ``pool`` column of the state: every b rounds the
step that opens a round rebuilds it (active vertices with deg < k + b)
in the same select, and between rebuilds DecreaseKey sets it on every
decremented vertex, so a vertex that falls into the pool's range is
still peeled in the correct round. Frontiers are drawn from the pool.
The column keeps the bucket structure's semantics and its rebuild
count; it saves no scan, since every step rewrites the whole state.

The same round/subround driver (``drive``) runs the sampling program
(``core/sampling.py``) with its own peel step. Returns exact coreness;
every subround is a few Spark jobs, so use test-scale graphs (the
machine simulator covers benchmark scale).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from pyspark.sql import DataFrame, Row, SparkSession
from pyspark.sql import functions as F

from repro.graphs.spark_graph import degrees


# Every expression below is Spark SQL text: one Py4J call builds it,
# where a Column tree costs one per node (a third of a warm call's time
# on the 100-vertex test mesh).
ACTIVE = "core = -1"  # the rows not yet peeled


@dataclass
class DataflowStats:
    """Execution-structure measurements of a dataflow run."""

    rounds: int = 0
    subrounds: int = 0
    subrounds_per_round: list = field(default_factory=list)
    pool_builds: int = 0


@dataclass
class PeelStep:
    """What a program plugs into ``drive``.

    ``peel(state, k, probe)`` runs one subround on a checkpointed state
    and returns the next one, checkpointed. Over active rows, ``next_k``
    is a lower bound on the first round that can peel or validate the
    row, and ``frontier_deg`` the degree at which the row joins a
    frontier (null while it cannot). The probe is the row (min next_k, min
    frontier_deg, *``extra`` aggregates); ``settle(state, k, probe)``,
    called before each subround and at the round's end, may return a
    new checkpointed state (the driver probes it again), or None.
    """

    peel: Callable[[DataFrame, int, Row], DataFrame]
    next_k: str
    frontier_deg: str
    extra: tuple[str, ...] = ()
    settle: Callable[[DataFrame, int, Row], DataFrame | None] | None = None


def drive(state: DataFrame, step: PeelStep, stats, max_iterations: int) -> DataFrame:
    """The round/subround loop of Alg. 1 over a checkpointed ``state``
    with columns id, deg, core (-1 while active), ...; records rounds
    and subrounds in ``stats`` and returns the final state. Each probe
    is one Spark job: the state is read as one partition, as the last
    stage of a global aggregate is anyway."""

    def probe():
        return state.coalesce(1).selectExpr(
            f"min(CASE WHEN {ACTIVE} THEN {step.next_k} END)",
            f"min(CASE WHEN {ACTIVE} THEN {step.frontier_deg} END)",
            *step.extra,
        ).first()

    row = probe()
    k = -1
    iters = 0
    while row[0] is not None:
        k = max(k + 1, row[0])
        sub = 0
        while True:
            settled = step.settle(state, k, row) if step.settle else None
            if settled is not None:
                state = settled
            elif row[1] is None or row[1] > k:  # the frontier at k is empty
                break
            else:
                iters += 1
                if iters > max_iterations:
                    raise RuntimeError("dataflow peeling exceeded iteration budget")
                sub += 1
                state = step.peel(state, k, row)
            row = probe()
        stats.rounds += 1
        stats.subrounds += sub
        stats.subrounds_per_round.append(sub)
    return state


def union_messages(state: DataFrame, msgs: DataFrame, cols: list[str]) -> DataFrame:
    """The state rows, with ``cols`` (SQL expressions, named) and a zero
    ``c``, stacked on one row per message in ``msgs`` (its ``dst`` column
    is the id the message goes to: c = 1), grouped by id: ``c`` is the
    message count, the other columns the state row's values."""
    rows = state.selectExpr("id", f"struct({', '.join(cols)}) AS s", "0 AS c")
    msgs = msgs.selectExpr("dst AS id", "NULL AS s", "1 AS c")
    grouped = rows.unionByName(msgs).groupBy("id").agg(F.expr("max(s)"), F.expr("sum(c)"))
    return grouped.toDF("id", "s", "c").selectExpr("id", "s.*", "c")


def frontier_edges(edges: DataFrame, state: DataFrame, frontier: str) -> DataFrame:
    """The (src, dst) edges out of the ``frontier`` rows of ``state``.

    A semi join: an inner join's size estimate is the product of its
    sides, and a checkpoint carries its plan's estimate into the next
    subround, so with one the estimate grew without bound."""
    frontier = F.broadcast(state.where(frontier).selectExpr("id AS src"))
    return edges.join(frontier, "src", "left_semi")


def kcore_dataflow(
    spark: SparkSession,
    edges: DataFrame,
    *,
    bucket_width: int = 1,
    max_iterations: int = 10_000,
) -> tuple[DataFrame, DataflowStats]:
    """Exact k-core decomposition of a symmetric edge DataFrame.

    Returns ((id, coreness) DataFrame, stats). ``bucket_width`` = 1 is
    the plain single-bucket framework (its pool is rebuilt every round);
    > 1 is the Julienne-style pool.
    """
    assert bucket_width >= 1
    edges = edges.select("src", "dst")
    state = degrees(edges).selectExpr("id", "deg", "-1 AS core", "false AS pool").localCheckpoint()
    stats = DataflowStats()
    pool_base = None

    def rebuild(k: int) -> bool:
        return pool_base is None or k >= pool_base + bucket_width

    def peel(state: DataFrame, k: int, probe: Row) -> DataFrame:
        nonlocal pool_base
        f = f"{ACTIVE} AND deg <= {k} AND (pool OR {rebuild(k)})"
        grouped = union_messages(
            state, frontier_edges(edges, state, f), ["deg", "core", "pool", f"{f} AS f"]
        )
        if rebuild(k):
            pool_base = k
            stats.pool_builds += 1
            pool = f"deg - c < {k + bucket_width}"
        else:
            pool = "pool OR c > 0"  # DecreaseKey: decremented vertices (re)enter the pool
        return grouped.selectExpr(
            "id",
            "deg - c AS deg",
            f"IF(f, {k}, core) AS core",  # set coreness of the frontier (line 7 of Alg. 1)
            f"{pool} AS pool",
        ).localCheckpoint()

    state = drive(state, PeelStep(peel, "deg", "deg"), stats, max_iterations)
    return state.selectExpr("id", "core AS coreness"), stats
