"""Experiment-harness tests at mini scale: runner fan-out, table/fig
computations, and the structural claims the tables must exhibit."""
from dataclasses import replace

import numpy as np
import pandas as pd
import pytest

from repro.tables import figs, report, table3
from repro.tables.artifacts import ARTIFACTS, build
from repro.tables.runner import algo_registry, group_cells, run_cells

MINI = {"scale": "mini"}


def test_algo_registry_complete():
    reg = algo_registry()
    for name in (
        "ours", "plain", "julienne", "park", "pkc",
        "vgc", "sample", "hbs", "vgc+sample+hbs",
        "buckets-single", "buckets-fixed", "buckets-adaptive",
        "ours-novgc-f16", "ours-vgc-f16", "ours-nosample",
    ):
        assert name in reg, name


def test_algo_registry_defines_each_config_once():
    """Table names that denote the same algorithm share one object."""
    reg = algo_registry()
    assert len(reg) == 18
    assert len({id(c) for c in reg.values()}) == 13
    # No two distinct objects describe the same algorithm.
    assert len({replace(c, name="") for c in reg.values()}) == 13
    for alias, name in (
        ("vgc+sample+hbs", "ours"),
        ("buckets-adaptive", "ours"),
        ("buckets-single", "vgc+sample"),
        ("buckets-fixed", "ours-vgc-f16"),
        ("ours-nosample", "vgc+hbs"),
    ):
        assert reg[alias] is reg[name], alias


def test_run_cells_basic(spark):
    cells = [
        {"graph": "GRID", "algo": a, "scale": "mini"}
        for a in ("plain", "ours", "bz")
    ]
    df = run_cells(spark, cells)
    assert len(df) == 3
    assert set(df.algo) == {"plain", "ours", "bz"}
    assert (df.kmax == 2).all()
    assert (df.t_par > 0).all()


def test_group_cells_dedups_aliases_within_one_graph():
    cells = [
        {"graph": "GRID", "algo": a, "scale": "mini"}
        for a in ("ours", "vgc+sample+hbs", "buckets-adaptive", "plain")
    ]
    ids, groups = group_cells(cells)
    assert ids == [0, 0, 0, 1]
    assert groups == {("GRID", "mini"): [(0, "ours"), (1, "plain")]}


def test_group_cells_splits_scales():
    ids, groups = group_cells(
        [{"graph": "GRID", "algo": "ours", "scale": s} for s in ("mini", "bench")]
    )
    assert ids == [0, 1]
    assert groups == {("GRID", "mini"): [(0, "ours")], ("GRID", "bench"): [(1, "ours")]}


def test_group_cells_bz_and_unknown_key_to_themselves():
    algos = ["bz", "no-such-algo", "plain", "bz", "no-such-algo"]
    ids, groups = group_cells([{"graph": "GRID", "algo": a} for a in algos])
    assert ids == [0, 1, 2, 0, 1]
    assert groups == {("GRID", "bench"): [(0, "bz"), (1, "no-such-algo"), (2, "plain")]}


def test_aliases_run_once(spark):
    """Names bound to one configuration are simulated once and returned
    under each requested name; the fan-out runs one task per graph."""
    algos = ["ours", "vgc+sample+hbs", "buckets-adaptive", "plain"]
    cells = [{"graph": "GRID", "algo": a, "scale": "mini"} for a in algos]
    cells.append({"graph": "CUBE", "algo": "plain", "scale": "mini"})
    ids, groups = group_cells(cells)
    assert len(set(ids)) == 3 and len(groups) == 2
    sc = spark.sparkContext
    group = "aliases-run-once"
    sc.setJobGroup(group, group)
    try:
        df = run_cells(spark, cells)
    finally:
        sc.setJobGroup("", "")
    assert list(df.algo) == [*algos, "plain"]
    assert list(df.graph) == ["GRID"] * 4 + ["CUBE"]
    rows = df.drop(columns="algo")
    for i in range(1, 3):
        pd.testing.assert_series_equal(rows.iloc[i], rows.iloc[0], check_names=False)
    assert not rows.iloc[3].equals(rows.iloc[0])
    # The fan-out is the group's last stage: one task per graph.
    st = sc.statusTracker()
    stages = [
        st.getStageInfo(s)
        for j in st.getJobIdsForGroup(group)
        for s in st.getJobInfo(j).stageIds
    ]
    assert max(stages, key=lambda s: s.stageId).numTasks == 2


def test_shared_sweep_matches_each_artifact_alone(spark):
    kw = {"graphs": ["GRID", "TW", "HCNS"], "scale": "mini"}
    together = build(spark, **kw)
    assert list(together) == list(ARTIFACTS)
    for name in ARTIFACTS:
        pd.testing.assert_frame_equal(together[name], build(spark, [name], **kw)[name])
    committed = {p.name for p in report.RESULTS.glob("*.csv")}
    assert {*ARTIFACTS, "fig12.csv"} == committed


def _mini(spark, name: str, graphs: list[str]) -> pd.DataFrame:
    return build(spark, [name], graphs=graphs, scale="mini")[name]


def test_run_cells_names_failing_cell(spark):
    cells = [
        {"graph": "GRID", "algo": "plain", "scale": "mini"},
        {"graph": "GRID", "algo": "no-such-algo", "scale": "mini"},
    ]
    with pytest.raises(Exception) as err:
        run_cells(spark, cells)
    assert "cell (graph='GRID', algo='no-such-algo', scale='mini') failed" in str(err.value)


def test_table2_mini(spark):
    df = _mini(spark, "table2.csv", ["GRID", "TW"])
    assert set(df.graph) == {"GRID", "TW"}
    row = df[df.graph == "TW"].iloc[0]
    assert row["spd"] > 0 and row["paper_par"] == 2.72


def test_table3_mini(spark):
    df = _mini(spark, "table3.csv", ["GRID"])
    row = df.iloc[0]
    norms = [row[f"norm_{a}"] for a in table3.COMBOS]
    assert min(norms) == 1.0
    # VGC must beat plain on the grid at any scale.
    assert row["vgc"] < row["plain"]


def test_paper_table3_numbers_cover_suite():
    from repro.graphs.suite import SUITE

    assert set(table3.PAPER_TABLE3) == set(SUITE)
    assert all(len(v) == 8 for v in table3.PAPER_TABLE3.values())


def test_fig7_mini(spark):
    df = _mini(spark, "fig7.csv", ["GRID", "TRCE"])
    assert (df.rho_vgc <= df.rho).all()
    assert (df[df.graph == "GRID"].reduction > 2).all()


def test_fig8_mini(spark):
    df = _mini(spark, "fig8.csv", ["HCNS"])
    assert {"one_bucket", "16_buckets", "hbs"} <= set(df.columns)
    assert (df.hbs > 0).all()


def test_fig9_mini(spark):
    df = _mini(spark, "fig9.csv", ["GRID", "TW"])
    # VGC only improves the burdened span (Sec. 4.2 analysis).
    assert (df.bspan_speedup_vgc >= df.bspan_speedup_novgc * 0.99).all()
    # Ours (online) beats offline Julienne on burdened span everywhere.
    assert (df.bspan_speedup_novgc > 1).all()


def test_fig11_mini(spark):
    df = _mini(spark, "fig11.csv", ["TW", "HCNS"])
    assert set(df.graph) == {"TW", "HCNS"}
    assert (df.with_sampling > 0).all()


def test_fig12_mini():
    df = figs.fig12_subgraph(graphs=["TW"], ks=[2, 4], scale="mini")
    assert len(df) == 2
    assert (df.core_size > 0).all()
    assert (df.ours > 0).all() and (df.galois > 0).all()


def test_fig12_checks_both_k_cores_against_bz(monkeypatch):
    """Ours and the Galois baseline run one engine, so agreeing with each
    other proves nothing: the same wrong k-core from both must raise."""
    import repro.core.subgraph as subgraph

    run = figs.run_kcore

    def run_kcore(g, algo, machine=None, *, stop_at_k):
        core, met = run(g, algo, machine, stop_at_k=stop_at_k)
        core = core.copy()
        core[np.argmin(core)] = stop_at_k  # a vertex of coreness < k joins
        return core, met

    monkeypatch.setattr(figs, "run_kcore", run_kcore)
    monkeypatch.setattr(subgraph, "run_kcore", run_kcore)
    with pytest.raises(RuntimeError, match=r"'TW' \(mini\), k=4: the ours 4-core differs"):
        figs.fig12_subgraph(graphs=["TW"], ks=[4], scale="mini")
