"""Alg. 1 (work-efficient peeling framework) as a Spark DataFrame program.

Every vertex row of the state holds its own out-edges (``nbrs``), as a
Pregel vertex does, so the only thing a subround shuffles is its
messages. The offline peel of a subround is Julienne's histogram-based
Alg. 2 in Catalyst terms, done as one SQL statement with one shuffle:

    msgs  = explode(nbrs) of the frontier rows of state   -- removals
    state = (state UNION msgs) GROUPBY id                  -- HISTOGRAM
            -> core = k on the frontier, deg -= count      -- batch apply

The active set is the rows with ``core == -1``; the per-round
refinement (line 9 of Alg. 1) is the frontier filter itself. The one
initial ``GROUP BY src`` builds the state from the edges; nothing reads
the edges after it. ``observed`` checkpoints each step's output with
``localCheckpoint()`` and reads the probe from that job through an
observed aggregate: the minimum degree of the active vertices, and so
whether the frontier at k is empty. When it is, the round ends and the
next one starts at k = max(k + 1, min active degree): empty buckets are
skipped, as Julienne's GetNextBucket does, and cost no Spark job. A
subround is thus 2 Spark jobs under adaptive execution (the shuffle's
map stage and the checkpoint), plus 2 per call (the same two for the
initial state).

``bucket_width`` b only counts the rebuilds of Julienne's fixed-b
bucketing, once every b rounds (``pool_builds``). A pool of the active
vertices with deg < k + b, rebuilt then and joined by every decremented
vertex between rebuilds, always holds the whole frontier {active,
deg <= k}, and every step rewrites the whole state, so a pool column
would neither change a frontier nor save a scan.

``drive``, the one round/subround loop of ``core/``, also runs the
sampling program, the k'-core subgraph fixpoint and dataflow VGC, whose
barrier reads numpy arrays in no Spark job. Returns exact
coreness; every subround is two Spark jobs, so use test-scale graphs
(the machine simulator covers benchmark scale).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from pyspark.sql import DataFrame, Observation, SparkSession
from pyspark.sql import functions as F

from repro.graphs.spark_graph import ADJACENCY


# Every expression below is Spark SQL text, and each step is one
# statement: one Py4J call builds it, where a Column tree costs one per
# node (a third of a warm call's time on the 100-vertex test mesh).
ACTIVE = "core = -1"  # the rows not yet peeled
# A run of more subrounds than this is a bug, not a big graph: every
# dataflow program is meant for test-scale graphs.
MAX_SUBROUNDS = 10_000


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

    ``barrier(state)`` materializes a state and returns it with its
    probe (least next_k, least frontier_deg, *extras) over active rows:
    ``next_k`` bounds the first round that can peel or validate the
    row, and ``frontier_deg`` is the degree at which it joins a frontier
    (None while it cannot). ``peel(state, k, probe)`` runs one subround
    and returns the next state; ``settle(state, k, probe)``, called
    before each subround and at the round's end, may return a new state
    (the driver passes it through the barrier), or None.
    """

    peel: Callable[[object, int, tuple], object]
    barrier: Callable[[object], tuple[object, tuple]]
    settle: Callable[[object, int, tuple], object | None] | None = None


def observed(next_k: str, frontier_deg: str, *extra: str) -> Callable:
    """A SQL program's barrier: one Spark job checkpoints the state and
    computes its probe from SQL expressions as observed metrics."""
    probes = [
        F.expr(f"{e} AS p{i}")
        for i, e in enumerate((
            f"min(CASE WHEN {ACTIVE} THEN {next_k} END)",
            f"min(CASE WHEN {ACTIVE} THEN {frontier_deg} END)",
            *extra,
        ))
    ]

    def barrier(df: DataFrame) -> tuple[DataFrame, tuple]:
        obs = Observation()
        df = df.observe(obs, *probes).localCheckpoint()
        metrics = obs.get
        return df, tuple(metrics[f"p{i}"] for i in range(len(probes)))

    return barrier


def drive(state, step: PeelStep, stats) -> tuple[object, tuple]:
    """The round/subround loop of Alg. 1 over an initial ``state``;
    records rounds and subrounds in ``stats`` and returns the final
    state, materialized, and its probe."""
    state, row = step.barrier(state)
    k = -1
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
                sub += 1
                if stats.subrounds + sub > MAX_SUBROUNDS:
                    raise RuntimeError("dataflow peeling exceeded iteration budget")
                state = step.peel(state, k, row)
            state, row = step.barrier(state)
        stats.rounds += 1
        stats.subrounds += sub
        stats.subrounds_per_round.append(sub)
    return state, row


def union_messages(cols: list[str], senders: str, dst: str = "nbrs", keep: str = "true") -> str:
    """SQL over the view ``{state}``: its rows, with ``cols`` (SQL
    expressions, named) and a zero ``c``, stacked on one row per message
    and grouped by id. Every row matching ``senders`` sends one message
    to each id of the array ``dst``, and a message (``src``, ``dst``) is
    kept where ``keep`` holds; ``c`` is the count of kept messages, the
    other columns are the state row's values."""
    return f"""SELECT id, s.*, c FROM (
  SELECT id, max(s) AS s, sum(c) AS c FROM (
    SELECT id, struct({', '.join(cols)}) AS s, 0 AS c FROM {{state}}
    UNION ALL
    SELECT dst, NULL, 1 FROM (
      SELECT id AS src, explode({dst}) AS dst FROM {{state}} WHERE {senders}
    ) WHERE {keep}
  ) GROUP BY id
)"""


def kcore_dataflow(
    spark: SparkSession,
    edges: DataFrame,
    *,
    bucket_width: int = 1,
) -> tuple[DataFrame, DataflowStats]:
    """Exact k-core decomposition of a symmetric edge DataFrame.

    Returns ((id, coreness) DataFrame, stats). ``bucket_width`` = 1 is
    the plain single-bucket framework (its pool is rebuilt every round);
    > 1 counts the rebuilds of the Julienne-style pool.
    """
    assert bucket_width >= 1
    state = spark.sql(f"SELECT id, deg, -1 AS core, nbrs FROM ({ADJACENCY})", edges=edges)
    stats = DataflowStats()
    pool_base = None

    def peel(state: DataFrame, k: int, probe: tuple) -> DataFrame:
        nonlocal pool_base
        if pool_base is None or k >= pool_base + bucket_width:
            pool_base = k
            stats.pool_builds += 1
        f = f"{ACTIVE} AND deg <= {k}"
        grouped = union_messages(["deg", "core", "nbrs", f"{f} AS f"], f)
        return spark.sql(
            f"SELECT id, deg - c AS deg,"
            f" IF(f, {k}, core) AS core,"  # set coreness of the frontier (line 7 of Alg. 1)
            f" nbrs FROM ({grouped})",
            state=state,
        )

    state, _ = drive(state, PeelStep(peel, observed("deg", "deg")), stats)
    return state.selectExpr("id", "core AS coreness"), stats
