"""The sampling scheme (Sec. 4.1) in the dataflow layer.

In the shared-memory algorithm, sampling replaces atomic degree
decrements on a high-degree vertex with probabilistic increments of a
sample counter, cutting per-location contention from O(d(v)) to
O(kappa(v) + log n). The dataflow analogue of contention is *shuffle
skew*: the histogram `groupBy(dst).count()` of the peel has hot keys
exactly at high-degree vertices. Here each (src, dst) removal message
addressed to a sample-mode vertex is kept only with probability
``rate`` (a deterministic per-edge Bernoulli via ``xxhash64``), so the
hot keys receive O(mu) rows per resample epoch instead of O(d(v)).

State columns per vertex: deg (stale while sampled), core, smode, rate,
cnt, mx (the most messages the vertex received in one subround) and
nbrs (its adjacency list). The run uses the round/subround driver of
``core/framework.py`` with its own peel step: the removal messages are
routed by the destination's sampler (the probe lists the sampled
vertices, whose rates enter the statement as a map literal) into
sampled hits (cnt += hits) and plain decrements, in the same
one-shuffle histogram as the framework. Between subrounds, vertices
with cnt >= mu are resampled, and each round ends with Validate, whose
resampled vertices may extend the round. Resampling recounts the true
induced degree from the adjacency lists of the active set (Alg. 5's
Resample). mu, the threshold and Validate are the engine's
(``simcpu.engine.sampler`` and ``validated``). A subround or a resample
is one SQL statement and 2 Spark jobs, and a call 2 more; the closing
max(mx) is one more aggregate of the last probe, not a job of its own.

Rounds are skipped as in the framework, but a jump must not pass a
sampled vertex's Validate point: for it the next round is bounded by
the smallest k at which Validate rejects it,
min(ceil(r*deg), ceil(deg - 4*cnt/rate)). Neither deg nor cnt of a
sampled vertex changes in a round without subrounds, so every skipped
round is one in which Validate would have rejected nothing.

The run records the max per-destination message count per subround with
and without sampling — the measured skew-reduction, Table/Fig. 11's
dataflow counterpart. Correctness is exact on the tested graphs and is
asserted against BZ in tests (the whp argument of Thm. 4.2).
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame, SparkSession

from repro.core.framework import ACTIVE, DataflowStats, PeelStep, drive, observed, union_messages
from repro.graphs.spark_graph import ADJACENCY
from repro.simcpu.configs import REGISTRY
from repro.simcpu.engine import AlgoConfig, sampler, validated


@dataclass
class SamplingDataflowStats(DataflowStats):
    resamples: int = 0
    max_dst_messages: int = 0  # max rows per destination in one subround
    mu: int = 0  # samples per resample epoch (``engine.sampler``)


# The state columns a step carries through its shuffle.
CARRIED = ["deg", "core", "smode", "rate", "cnt", "mx", "nbrs"]


def _double(x: float) -> str:
    """``x`` as a Spark SQL DOUBLE literal (a bare 0.1 is a DECIMAL)."""
    return f"{float(x)!r}D"


def _set_sampler(rows: str, k: int, mu: int, r: float, threshold: int) -> str:
    """Vectorized SetSampler over the ``rows`` (a SQL query) flagged
    ``reset``: a query for the new state. The rate is clipped at 1, as
    in the engine."""
    on = f"(reset AND deg * {_double(r)} > {k} AND deg > {threshold})"
    return (
        f"SELECT id, deg, core, IF(reset, {on}, smode) AS smode,"
        f" IF({on}, least(1.0D, {_double(mu)} / ({_double(1.0 - r)} * deg)), rate) AS rate,"
        f" IF(reset, 0, cnt) AS cnt, mx, nbrs FROM ({rows})"
    )


def kcore_dataflow_sampling(
    spark: SparkSession,
    edges: DataFrame,
    *,
    n: int,
    algo: AlgoConfig = REGISTRY["sample"],
) -> tuple[DataFrame, SamplingDataflowStats]:
    """k-core with the sampling scheme over DataFrame ops.

    ``n`` is the number of vertices, isolated ones included, as in the
    CSR the edges came from; with ``algo`` it sets the sampler, as in
    the engine. A config with sampling off, such as ``REGISTRY["plain"]``,
    runs the identical loop without sampling, for the skew comparison.
    Returns ((id, coreness), stats).
    """
    mu, threshold = sampler(algo, n)
    r = _double(algo.sample_r)
    rows = (
        "SELECT id, deg, -1 AS core, false AS smode, 0.0D AS rate, 0 AS cnt,"
        f" CAST(0 AS BIGINT) AS mx, nbrs, {algo.sampling} AS reset FROM ({ADJACENCY})"
    )
    state = spark.sql(_set_sampler(rows, 0, mu, algo.sample_r, threshold), edges=edges)
    stats = SamplingDataflowStats(mu=mu)
    subround_id = 0

    def peel(state: DataFrame, k: int, probe: tuple) -> DataFrame:
        nonlocal subround_id
        subround_id += 1
        f = f"{ACTIVE} AND NOT smode AND deg <= {k}"
        keep = "true"
        if probe[2]:
            # Route per destination's sampler mode: a message to a
            # sampled vertex is kept with probability its rate. The
            # sampled (id, rate) pairs come from the probe, as a map
            # literal.
            rates = ", ".join(f"{v.id}L, {_double(v.rate)}" for v in probe[2])
            coin = f"pmod(xxhash64(src, dst, {subround_id}, {algo.seed}), 1000000) / 1000000D"
            keep = f"coalesce({coin} < try_element_at(map({rates}), dst), true)"
        grouped = union_messages([*CARRIED, f"{f} AS f"], f, keep=keep)
        return spark.sql(
            f"SELECT id, IF(smode, deg, deg - c) AS deg, IF(f, {k}, core) AS core, smode,"
            " rate, IF(smode, cnt + c, cnt) AS cnt, greatest(mx, c) AS mx, nbrs"
            f" FROM ({grouped})",
            state=state,
        )

    # The smallest k at which Validate rejects a sampled vertex; the
    # 1e-6 keeps the second term a lower bound under rounding.
    validate_k = f"least(ceil(deg * {r}), ceil(deg - 4.0D * cnt / rate - 1e-6D))"
    extra = (
        # The active sampled vertices, for routing, resampling and Validate.
        f"collect_list(CASE WHEN {ACTIVE} AND smode THEN struct(id, deg, rate, cnt) END)",
        "max(mx)",
    )

    def settle(state: DataFrame, k: int, probe: tuple) -> DataFrame | None:
        # Vertices with enough samples: recount + resample.
        ids = [v.id for v in probe[2] if v.cnt >= mu]
        if not ids and (probe[1] is None or probe[1] > k):
            # Validate (Alg. 5) at the END of round k, as the engine
            # does: a sampled vertex whose true degree fell to k
            # during this round is peeled in it, not a round late
            # (Sec. 4.1.2/4.1.4). Failures get resampled (recounted).
            # Python's float arithmetic here is Spark's double's.
            ids = [
                v.id for v in probe[2]
                if not validated(v.deg, v.cnt, v.rate, k, algo.sample_r)
            ]
        if not ids:
            return None
        stats.resamples += len(ids)
        return _resample(state, ids, k, mu, algo.sample_r, threshold)

    barrier = observed(f"IF(smode, {validate_k}, deg)", "IF(smode, NULL, deg)", *extra)
    state, probe = drive(state, PeelStep(peel, barrier, settle), stats)
    stats.max_dst_messages = int(probe[3] or 0)
    return state.selectExpr("id", "core AS coreness"), stats


def _resample(state, ids, k, mu, r, threshold):
    """Recount the true induced degree of the vertices ``ids``, reset
    their samplers (Alg. 5 Resample)."""
    # One message from each active vertex to each of its neighbours
    # among the targets: the count is the target's true induced degree.
    listed = ",".join(map(str, ids))
    reset = f"id IN ({listed})"
    grouped = union_messages(
        [*CARRIED, f"{reset} AS reset"], ACTIVE, f"filter(nbrs, x -> x IN ({listed}))"
    )
    rows = (
        "SELECT id, IF(reset, c, deg) AS deg, core, smode AND NOT reset AS smode,"
        f" rate, cnt, mx, nbrs, reset FROM ({grouped})"
    )
    return state.sparkSession.sql(_set_sampler(rows, k, mu, r, threshold), state=state)
