"""Dataflow (Spark) implementations of the paper's algorithms:
framework (Alg. 1 offline), VGC block cascades, sampling. Results are
checked against BZ through the DuckDB oracle.

A ``kcore_dataflow`` or ``kcore_dataflow_sampling`` subround costs 2
Spark jobs (plus 2 per call; ``test_kcore_dataflow_jobs_per_subround``
and ``test_sampling_dataflow_jobs_per_subround`` gate it) and about
0.2 s of driver/scheduler time in a warm session on 4 vCPUs, so these
integration tests use tiny graphs with a few dozen subrounds at most;
benchmark-scale behaviour is covered by the machine simulator.

``PINNED`` and ``SAMPLING_PINNED`` fix the execution structure (rounds,
subrounds per round, pool rebuilds, resamples, skew) of each call, so a
change of the schedule fails even where the coreness stays exact."""
from dataclasses import replace

import numpy as np
import pandas as pd
import pytest

from repro.graphs import generators as gen
from repro.graphs.csr import build_csr, edge_array
from repro.graphs.spark_graph import edges_to_df
from repro.oracle import assert_equivalent
from repro.seq.bz import bz_kcore
from repro.simcpu.configs import REGISTRY


def _expected_df(g):
    """BZ coreness for the non-isolated vertices, as a pandas table the
    oracle can treat as ground truth."""
    core = bz_kcore(g).core
    deg = g.degrees()
    ids = np.flatnonzero(deg > 0)
    return pd.DataFrame({"id": ids, "coreness": core[ids]})


GRAPHS = {
    "mesh": lambda: gen.honeycomb(10, 10, hole_prob=0.08, seed=1),
    "social": lambda: gen.chung_lu(150, 6, seed=2),
    "hcns": lambda: gen.hcns(8),
    "knn": lambda: gen.knn_graph(120, 3, seed=3),
}


def _stats(rounds, per_round, **kw):
    from repro.core.framework import DataflowStats
    from repro.core.sampling import SamplingDataflowStats

    cls = SamplingDataflowStats if "mu" in kw else DataflowStats
    return cls(rounds=rounds, subrounds=sum(per_round), subrounds_per_round=per_round, **kw)


# (graph, bucket_width) -> the DataflowStats of kcore_dataflow.
PINNED = {
    ("gaps", 1): _stats(2, [1, 1], pool_builds=2),
    ("gaps", 4): _stats(2, [1, 1], pool_builds=1),
    ("mesh", 1): _stats(2, [2, 4], pool_builds=2),
    ("mesh", 4): _stats(2, [2, 4], pool_builds=1),
    ("social", 1): _stats(5, [2, 2, 4, 6, 7], pool_builds=5),
    ("social", 4): _stats(5, [2, 2, 4, 6, 7], pool_builds=2),
    ("hcns", 1): _stats(8, [1] * 8, pool_builds=8),
    ("hcns", 4): _stats(8, [1] * 8, pool_builds=2),
    ("knn", 1): _stats(1, [3], pool_builds=1),
    ("knn", 4): _stats(1, [3], pool_builds=1),
}

# case -> the SamplingDataflowStats of kcore_dataflow_sampling.
SAMPLING_PINNED = {
    "hub": _stats(2, [2, 1], resamples=2, max_dst_messages=81, mu=61),
    "hub-off": _stats(2, [2, 1], resamples=0, max_dst_messages=400, mu=61),
    "social-t8": _stats(5, [2, 2, 4, 6, 7], resamples=23, max_dst_messages=6, mu=51),
    "stars": _stats(1, [3], resamples=64, max_dst_messages=130, mu=99),
}


@pytest.fixture(scope="module")
def graph_and_truth():
    out = {}
    for name, mk in GRAPHS.items():
        g = mk()
        out[name] = (g, _expected_df(g))
    return out


@pytest.mark.parametrize("name", list(GRAPHS))
def test_kcore_dataflow_oracle(spark, graph_and_truth, name):
    from repro.core.framework import kcore_dataflow

    g, expected = graph_and_truth[name]
    result, stats = kcore_dataflow(spark, edges_to_df(spark, g))
    assert_equivalent(result, "SELECT id, coreness FROM expected", expected=expected)
    assert stats.rounds >= 1 and stats.subrounds >= 1
    assert stats == PINNED[name, 1]


def test_kcore_dataflow_bucketed_oracle(spark, graph_and_truth):
    """Julienne-style pooled frontiers (bucket_width=4) stay exact and
    rebuild the pool ~4x less often than there are rounds."""
    from repro.core.framework import kcore_dataflow

    g, expected = graph_and_truth["hcns"]
    result, stats = kcore_dataflow(spark, edges_to_df(spark, g), bucket_width=4)
    assert_equivalent(result, "SELECT id, coreness FROM expected", expected=expected)
    assert stats.pool_builds <= stats.rounds / 2
    assert stats == PINNED["hcns", 4]


@pytest.mark.parametrize("name", ["social", "knn"])
def test_kcore_dataflow_bucketed_stats_pinned(spark, graph_and_truth, name):
    """The pooled frontiers on the graphs no other test runs at
    bucket_width=4 keep their pinned schedule and stay exact."""
    from repro.core.framework import kcore_dataflow

    g, expected = graph_and_truth[name]
    result, stats = kcore_dataflow(spark, edges_to_df(spark, g), bucket_width=4)
    assert_equivalent(result, "SELECT id, coreness FROM expected", expected=expected)
    assert stats == PINNED[name, 4]


def _gaps():
    """A 4-clique (coreness 3) and 6 disjoint edges (coreness 1): the
    round for k = 2 is empty."""
    a, b = np.meshgrid(np.arange(4), np.arange(4))
    pairs = np.arange(4, 16).reshape(-1, 2)
    return build_csr(
        16,
        np.concatenate([a[a < b], pairs[:, 0]]),
        np.concatenate([b[a < b], pairs[:, 1]]),
    )


@pytest.mark.parametrize("bucket_width", [1, 4])
@pytest.mark.parametrize("name", ["gaps", "mesh"])
def test_kcore_dataflow_jobs_per_subround(spark, name, bucket_width):
    """A subround is one shuffle whose checkpoint job also computes the
    probe, and empty rounds are skipped: exactly 2 Spark jobs per
    subround plus 2 per call, and one round per distinct coreness
    value."""
    from repro.core.framework import kcore_dataflow

    g = _gaps() if name == "gaps" else GRAPHS[name]()
    edges = edges_to_df(spark, g)
    sc = spark.sparkContext
    group = f"jobs-gate-{name}-{bucket_width}"
    sc.setJobGroup(group, group)
    try:
        result, stats = kcore_dataflow(spark, edges, bucket_width=bucket_width)
    finally:
        sc.setJobGroup("", "")
    jobs = len(sc.statusTracker().getJobIdsForGroup(group))
    expected = _expected_df(g)
    assert_equivalent(result, "SELECT id, coreness FROM expected", expected=expected)
    assert jobs == 2 * stats.subrounds + 2
    assert stats.rounds == expected["coreness"].nunique()
    assert stats == PINNED[name, bucket_width]


def test_sampling_dataflow_jobs_per_subround(spark, graph_and_truth):
    """The sampling program shares the driver: on the mesh, which
    samples no vertex and so never resamples, exactly 2 Spark jobs per
    subround plus 2 per call, the closing max(mx) included."""
    from repro.core.sampling import kcore_dataflow_sampling

    g, expected = graph_and_truth["mesh"]
    edges = edges_to_df(spark, g)
    sc = spark.sparkContext
    group = "sampling-jobs-gate-mesh"
    sc.setJobGroup(group, group)
    try:
        result, stats = kcore_dataflow_sampling(spark, edges, n=g.n)
    finally:
        sc.setJobGroup("", "")
    jobs = len(sc.statusTracker().getJobIdsForGroup(group))
    assert_equivalent(result, "SELECT id, coreness FROM expected", expected=expected)
    assert stats.resamples == 0
    assert jobs == 2 * stats.subrounds + 2


@pytest.mark.parametrize("name", ["mesh", "hcns"])
def test_vgc_dataflow_exact(spark, graph_and_truth, name):
    from repro.core.vgc import kcore_dataflow_vgc

    g, _ = graph_and_truth[name]
    core, stats = kcore_dataflow_vgc(spark, g, n_blocks=4)
    assert np.array_equal(core, bz_kcore(g).core)


def test_vgc_dataflow_reduces_subrounds(spark):
    from repro.core.framework import kcore_dataflow
    from repro.core.vgc import kcore_dataflow_vgc

    g = gen.grid_2d(16, 16)
    truth = bz_kcore(g).core
    _, plain = kcore_dataflow(spark, edges_to_df(spark, g))
    core, vgc = kcore_dataflow_vgc(spark, g, n_blocks=4)
    assert np.array_equal(core, truth)
    assert vgc.subrounds < plain.subrounds


VGC_CASES = {
    # name: (graph, n_blocks, subrounds_per_round or None)
    "mesh": (GRAPHS["mesh"], 4, None),
    "hcns": (GRAPHS["hcns"], 4, None),
    "gaps": (_gaps, 4, [1, 1]),
    "grid": (lambda: gen.grid_2d(16, 16), 4, [8]),
    # One block: in round 1 the cascade from each end stops at the local
    # queue cap (VGC_QUEUE = 128 vertices) before the two meet, so the
    # middle 44 vertices take a second subround.
    "path": (lambda: build_csr(300, np.arange(299), np.arange(1, 300)), 1, [2]),
}


@pytest.mark.parametrize("name", list(VGC_CASES))
def test_vgc_dataflow_one_job_per_subround(spark, name):
    """A VGC subround is one Spark job (all blocks' cascades in one task),
    and empty rounds are skipped: one round per distinct coreness
    value."""
    from repro.core.vgc import kcore_dataflow_vgc

    mk, n_blocks, per_round = VGC_CASES[name]
    g = mk()
    sc = spark.sparkContext
    group = f"vgc-jobs-gate-{name}"
    sc.setJobGroup(group, group)
    try:
        core, stats = kcore_dataflow_vgc(spark, g, n_blocks=n_blocks)
    finally:
        sc.setJobGroup("", "")
    assert np.array_equal(core, bz_kcore(g).core)
    assert len(sc.statusTracker().getJobIdsForGroup(group)) == stats.subrounds
    assert stats.rounds == len(np.unique(core))
    if per_round is not None:
        assert stats.subrounds_per_round == per_round


def _hub_graph():
    """Two 400-leaf hubs + a 10-clique: triggers sample mode."""
    src, dst = [], []
    for h in (0, 1):
        src += [h] * 400
        dst += list(range(12, 412))
    cl = np.arange(2, 12)
    a, b = np.meshgrid(cl, cl)
    m = a < b
    src += list(a[m]) + [0, 1]
    dst += list(b[m]) + [2, 3]
    return build_csr(412, np.array(src), np.array(dst))


def test_sampling_dataflow_exact_and_reduces_skew(spark):
    from repro.core.sampling import kcore_dataflow_sampling

    g = _hub_graph()
    expected = _expected_df(g)
    edges = edges_to_df(spark, g)
    sample = replace(REGISTRY["sample"], seed=3)
    res_s, st_s = kcore_dataflow_sampling(spark, edges, n=g.n, algo=sample)
    assert_equivalent(res_s, "SELECT id, coreness FROM expected", expected=expected)
    res_p, st_p = kcore_dataflow_sampling(spark, edges, n=g.n, algo=REGISTRY["plain"])
    assert_equivalent(res_p, "SELECT id, coreness FROM expected", expected=expected)
    assert st_s.resamples > 0
    # The dataflow contention analogue: hot-key rows in the histogram
    # shuffle drop by an order of magnitude under sampling.
    assert st_s.max_dst_messages < st_p.max_dst_messages / 3
    assert st_s == SAMPLING_PINNED["hub"]
    assert st_p == SAMPLING_PINNED["hub-off"]


def test_sampling_dataflow_counts_isolated_vertices(spark):
    """The hub graph plus 600 isolated vertices: mu comes from all 1012
    vertices, as in the engine, and the coreness stays exact."""
    from repro.core.sampling import kcore_dataflow_sampling
    from repro.simcpu.engine import sampler

    hub = _hub_graph()
    e = edge_array(hub)
    g = build_csr(hub.n + 600, e[:, 0], e[:, 1])
    res, st = kcore_dataflow_sampling(spark, edges_to_df(spark, g), n=g.n)
    assert_equivalent(res, "SELECT id, coreness FROM expected", expected=_expected_df(g))
    assert st.mu == sampler(REGISTRY["sample"], g.n)[0]
    assert st.resamples > 0


def test_sampling_dataflow_peels_hubs_in_their_round(spark):
    """64 disjoint 300-leaf stars at the defaults: every hub is sampled
    (mu = 99 < 300). All leaves go in round 1; a hub whose sample count
    stays below mu must still be caught by round 1's closing Validate
    and get coreness 1, not 2."""
    from repro.core.sampling import kcore_dataflow_sampling

    hubs = np.arange(64) * 301
    g = build_csr(
        64 * 301, np.repeat(hubs, 300), (hubs[:, None] + np.arange(1, 301)).ravel()
    )
    res, st = kcore_dataflow_sampling(spark, edges_to_df(spark, g), n=g.n)
    assert_equivalent(res, "SELECT id, coreness FROM expected", expected=_expected_df(g))
    assert st.resamples > 0
    assert st == SAMPLING_PINNED["stars"]


def test_sampling_dataflow_round_jumps_stay_exact(spark, graph_and_truth):
    """With threshold 8 the social graph's vertices of degree > 8 start
    in sample mode, so round jumps are bounded by Validate points and
    Validate rejects vertices in four rounds (k = 1..4); coreness stays
    exact."""
    from repro.core.sampling import kcore_dataflow_sampling

    g, expected = graph_and_truth["social"]
    algo = replace(REGISTRY["sample"], sample_threshold=8)
    res, st = kcore_dataflow_sampling(spark, edges_to_df(spark, g), n=g.n, algo=algo)
    assert_equivalent(res, "SELECT id, coreness FROM expected", expected=expected)
    assert st.resamples > 0
    assert st == SAMPLING_PINNED["social-t8"]


def test_sampling_dataflow_sampler_matches_engine(spark, graph_and_truth):
    """SetSampler's SQL gives every vertex the engine's sampler mode and
    rate, the rate clipped at 1: at threshold 8 on the social graph an
    unclipped rate mu / ((1 - r) * deg) would exceed 1 for every sampled
    vertex."""
    from repro.core.sampling import _set_sampler
    from repro.graphs.spark_graph import ADJACENCY
    from repro.simcpu.engine import _Engine, sampler
    from repro.simcpu.machine import MachineConfig

    g, _ = graph_and_truth["social"]
    algo = replace(REGISTRY["sample"], sample_threshold=8)
    mu, threshold = sampler(algo, g.n)
    rows = (
        "SELECT id, deg, -1 AS core, false AS smode, 0.0D AS rate, 0 AS cnt,"
        f" CAST(0 AS BIGINT) AS mx, nbrs, true AS reset FROM ({ADJACENCY})"
    )
    got = (
        spark.sql(_set_sampler(rows, 0, mu, algo.sample_r, threshold), edges=edges_to_df(spark, g))
        .select("id", "smode", "rate")
        .toPandas()
        .sort_values("id")
    )
    eng = _Engine(g, [algo], MachineConfig())
    eng._set_sampler(np.arange(g.n, dtype=np.int64), 0)
    ids = got["id"].to_numpy()
    assert got["smode"].any()
    assert np.array_equal(got["smode"].to_numpy(), eng.smode[ids])
    assert np.array_equal(got["rate"].to_numpy(), eng.srate[ids])
