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
cnt, mx (the most messages the vertex received in one subround). The
run uses the round/subround driver of ``core/framework.py`` with its
own peel step: the removal messages are routed by the destination's
sampler (the probe lists the sampled vertices, which are broadcast as
an inline table) into sampled hits (cnt += hits) and plain decrements,
in the same one-shuffle histogram as the framework. Between subrounds,
vertices with cnt >= mu are resampled, and each round ends with
Validate, whose resampled vertices may extend the round. Resampling
recounts the true induced degree with a join against the active set
(Alg. 5's Resample).

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

from dataclasses import dataclass, field
import math

from pyspark.sql import DataFrame, Row, SparkSession
from pyspark.sql import functions as F

from repro.core.framework import ACTIVE, PeelStep, drive, frontier_edges, union_messages
from repro.graphs.spark_graph import degrees


@dataclass
class SamplingDataflowStats:
    rounds: int = 0
    subrounds: int = 0
    subrounds_per_round: list = field(default_factory=list)
    resamples: int = 0
    max_dst_messages: int = 0  # max rows per destination in one subround
    mu: int = 0  # samples per resample epoch: 4 * sample_c * ln n


def _double(x: float) -> str:
    """``x`` as a Spark SQL DOUBLE literal (a bare 0.1 is a DECIMAL)."""
    return f"{float(x)!r}D"


def _set_sampler(state: DataFrame, k: int, mu: int, r: float, threshold: int):
    """Vectorized SetSampler over rows flagged ``reset``."""
    on = f"(reset AND deg * {_double(r)} > {k} AND deg > {threshold})"
    return state.selectExpr(
        "id",
        "deg",
        "core",
        f"IF(reset, {on}, smode) AS smode",
        f"IF({on}, {_double(mu)} / ({_double(1.0 - r)} * deg), rate) AS rate",
        "IF(reset, 0, cnt) AS cnt",
        "mx",
    )


def kcore_dataflow_sampling(
    spark: SparkSession,
    edges: DataFrame,
    *,
    n: int,
    sample_c: float = 2.5,
    sample_r: float = 0.1,
    threshold: int = 0,
    seed: int = 42,
    enable: bool = True,
    max_iterations: int = 10_000,
) -> tuple[DataFrame, SamplingDataflowStats]:
    """k-core with the sampling scheme over DataFrame ops.

    ``n`` is the number of vertices, isolated ones included, as in the
    CSR the edges came from; it sets mu, as in the engine.
    ``enable=False`` runs the identical loop without sampling, for the
    skew comparison. Returns ((id, coreness), stats).
    """
    edges = edges.select("src", "dst")
    mu = math.ceil(4 * sample_c * math.log(max(n, 2)))
    threshold = threshold or max(64, 2 * mu)
    r = _double(sample_r)
    state = degrees(edges).selectExpr(
        "id", "deg", "-1 AS core", "false AS smode", "0.0D AS rate", "0 AS cnt",
        "CAST(0 AS BIGINT) AS mx", "true AS reset",
    )
    if enable:
        state = _set_sampler(state, 0, mu, sample_r, threshold)
    state = state.drop("reset").localCheckpoint()
    stats = SamplingDataflowStats(mu=mu)
    subround_id = 0

    def peel(state: DataFrame, k: int, probe: Row) -> DataFrame:
        nonlocal subround_id
        subround_id += 1
        f = f"{ACTIVE} AND NOT smode AND deg <= {k}"
        msgs = frontier_edges(edges, state, f)
        if probe[2]:
            # Route per destination's sampler mode. The sampled (id,
            # rate) pairs come from the probe, as an inline table (a
            # DataFrame built from Python rows needs a Python worker):
            # a join with the state itself would multiply the size
            # estimate by the state's every subround (see
            # frontier_edges).
            rows = ", ".join(f"({v.id}, {_double(v.rate)})" for v in probe[2])
            sampled = spark.sql(f"SELECT * FROM VALUES {rows} AS t(dst, p)")
            coin = f"pmod(xxhash64(src, dst, {subround_id}, {seed}), 1000000) / 1000000D"
            msgs = msgs.join(F.broadcast(sampled), "dst", "left").where(
                f"p IS NULL OR {coin} < p"
            )
        grouped = union_messages(
            state, msgs, ["deg", "core", "smode", "rate", "cnt", "mx", f"{f} AS f"]
        )
        return grouped.selectExpr(
            "id",
            "IF(smode, deg, deg - c) AS deg",
            f"IF(f, {k}, core) AS core",
            "smode",
            "rate",
            "IF(smode, cnt + c, cnt) AS cnt",
            "greatest(mx, c) AS mx",
        ).localCheckpoint()

    # The smallest k at which Validate rejects a sampled vertex; the
    # 1e-6 keeps the second term a lower bound under rounding.
    validate_k = f"least(ceil(deg * {r}), ceil(deg - 4.0D * cnt / rate - 1e-6D))"
    # The active sampled vertices, for routing, resampling and Validate.
    extra = (
        f"collect_list(CASE WHEN {ACTIVE} AND smode THEN struct(id, deg, rate, cnt) END)",
    )

    def settle(state: DataFrame, k: int, probe: Row) -> DataFrame | None:
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
                if not (v.deg * sample_r > k and v.cnt < v.rate * (v.deg - k) / 4.0)
            ]
        if not ids:
            return None
        stats.resamples += len(ids)
        return _resample(edges, state, ids, k, mu, sample_r, threshold)

    step = PeelStep(
        peel, f"IF(smode, {validate_k}, deg)", "IF(smode, NULL, deg)", extra, settle
    )
    state = drive(state, step, stats, max_iterations)
    stats.max_dst_messages = int(state.selectExpr("max(mx)").first()[0] or 0)
    return state.selectExpr("id", "core AS coreness"), stats


def _resample(edges, state, ids, k, mu, r, threshold):
    """Recount the true induced degree of the vertices ``ids``, reset
    their samplers (Alg. 5 Resample)."""
    # One message per edge from a target to an active vertex, sent back
    # to the target: the count is the target's true induced degree.
    listed = ",".join(map(str, ids))
    live = F.broadcast(state.where(ACTIVE).selectExpr("id AS dst"))
    back = edges.where(f"src IN ({listed})").join(live, "dst", "left_semi")
    back = back.selectExpr("src AS dst")
    reset = f"id IN ({listed})"
    state = union_messages(state, back, ["deg", "core", "smode", "rate", "cnt", "mx"]).selectExpr(
        "id",
        f"IF({reset}, c, deg) AS deg",
        "core",
        f"smode AND NOT {reset} AS smode",
        "rate",
        "cnt",
        "mx",
        f"{reset} AS reset",
    )
    return _set_sampler(state, k, mu, r, threshold).localCheckpoint()
