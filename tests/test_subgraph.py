"""Maximum k'-core subgraph (Appendix B): ours-adapted (``run_kcore``
stopped at k'), the Galois-like baseline, and the dataflow fixpoint all
agree with coreness >= k'."""
import numpy as np
import pytest

from repro.core.subgraph import kcore_subgraph_dataflow, kcore_subgraph_galois
from repro.graphs import generators as gen
from repro.graphs.spark_graph import edges_to_df
from repro.graphs.suite import load_graph
from repro.seq.bz import bz_kcore
from repro.simcpu.configs import OURS, REGISTRY
from repro.simcpu.engine import run_kcore


@pytest.fixture(scope="module")
def hub_graph():
    g = gen.planted_core(gen.chung_lu(1500, 10, seed=4), 100, 60, seed=4)
    return g, bz_kcore(g).core


def _subgraph(g, k, algo=OURS):
    core, met = run_kcore(g, algo, stop_at_k=k)
    return core >= k, met


@pytest.mark.parametrize("k", [1, 2, 4, 8, 16, 25])
def test_subgraph_matches_coreness(hub_graph, k):
    g, core = hub_graph
    mask, met = _subgraph(g, k)
    assert np.array_equal(mask, core >= k)
    assert met.rounds <= k


@pytest.mark.parametrize("k", [2, 8, 25])
def test_galois_baseline_same_result(hub_graph, k):
    g, core = hub_graph
    mask, met = kcore_subgraph_galois(g, k)
    assert np.array_equal(mask, core >= k)
    assert met.algo == "galois"
    assert met.t_par_units > 0


@pytest.mark.parametrize("which", ["hub", "TW"])
def test_subgraph_above_kmax_is_the_full_run(hub_graph, which):
    """k' = k_max + 1 peels everything, through the engine's one round
    loop: the metrics equal a full ``run_kcore`` of the same config."""
    g = hub_graph[0] if which == "hub" else load_graph("TW", "mini")
    core, full = run_kcore(g, OURS)
    _, sub = _subgraph(g, int(core.max()) + 1)
    for f in ("rounds", "rho", "work", "t_par_units", "resamples", "validations"):
        assert getattr(sub, f) == getattr(full, f), f


def test_empty_core(hub_graph):
    g, core = hub_graph
    kbig = int(core.max()) + 1
    mask, _ = _subgraph(g, kbig)
    assert not mask.any()


def test_k_zero_keeps_everything(hub_graph):
    g, core = hub_graph
    mask, _ = _subgraph(g, 0)
    assert mask.all()


@pytest.mark.parametrize("k", [0, 1, 2, 6, "k_max", "k_max+1"])
def test_subgraph_dataflow(spark, hub_graph, k):
    """The fixpoint on the framework's driver is exact from the whole
    graph (k' = 0, the hub graph's 29 isolated vertices included) down
    to the empty core (k' = k_max + 1), and runs as one round: 2 Spark
    jobs per subround plus 2 per call."""
    g, core = hub_graph
    k = {"k_max": int(core.max()), "k_max+1": int(core.max()) + 1}.get(k, k)
    edges = edges_to_df(spark, g)
    sc = spark.sparkContext
    group = f"subgraph-jobs-gate-{k}"
    sc.setJobGroup(group, group)
    try:
        ids, stats = kcore_subgraph_dataflow(spark, edges, k, n=g.n)
    finally:
        sc.setJobGroup("", "")
    jobs = len(sc.statusTracker().getJobIdsForGroup(group))
    assert set(ids.toPandas()["id"]) == set(np.flatnonzero(core >= k))
    assert jobs == 2 * stats.subrounds + 2
    assert stats.rounds == (stats.subrounds > 0)


def test_variants_without_techniques(hub_graph):
    g, core = hub_graph
    for name in ("hbs", "vgc+hbs", "sample+hbs", "ours"):
        mask, _ = _subgraph(g, 6, REGISTRY[name])
        assert np.array_equal(mask, core >= 6), name
