"""Experiment-harness tests at mini scale: runner fan-out, table/fig
computations, and the structural claims the tables must exhibit."""
import numpy as np
import pytest

from repro.simcpu.machine import MachineConfig
from repro.tables import figs, table2, table3
from repro.tables.runner import algo_registry, run_cells

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


def test_run_cells_collect_subrounds(spark):
    import json

    df = run_cells(
        spark,
        [{"graph": "CUBE", "algo": "plain", "scale": "mini"}],
        collect_subrounds=True,
    )
    subs = json.loads(df.subrounds_json.iloc[0])
    assert sum(subs) == df.rho.iloc[0]


def test_run_cells_names_failing_cell(spark):
    cells = [
        {"graph": "GRID", "algo": "plain", "scale": "mini"},
        {"graph": "GRID", "algo": "no-such-algo", "scale": "mini"},
    ]
    with pytest.raises(Exception) as err:
        run_cells(spark, cells)
    assert "cell (graph='GRID', algo='no-such-algo', scale='mini') failed" in str(err.value)


def test_table2_mini(spark):
    df = table2.compute(spark, graphs=["GRID", "TW"], scale="mini")
    assert set(df.graph) == {"GRID", "TW"}
    row = df[df.graph == "TW"].iloc[0]
    assert row["spd"] > 0 and row["paper_par"] == 2.72
    text = table2.render(df)
    assert "GRID" in text and "best" in text


def test_table3_mini(spark):
    df = table3.compute(spark, graphs=["GRID"], scale="mini")
    row = df.iloc[0]
    norms = [row[f"norm_{a}"] for a in table3.COMBOS]
    assert min(norms) == 1.0
    # VGC must beat plain on the grid at any scale.
    assert row["vgc"] < row["plain"]
    assert "plain" in table3.render(df)


def test_paper_table3_numbers_cover_suite():
    from repro.graphs.suite import SUITE

    assert set(table3.PAPER_TABLE3) == set(SUITE)
    assert all(len(v) == 8 for v in table3.PAPER_TABLE3.values())


def test_fig7_mini(spark):
    df = figs.fig7_subrounds(spark, graphs=["GRID", "TRCE"], scale="mini")
    assert (df.rho_vgc <= df.rho).all()
    assert (df[df.graph == "GRID"].reduction > 2).all()


def test_fig8_mini(spark):
    df = figs.fig8_buckets(spark, graphs=["HCNS"], scale="mini")
    assert {"one_bucket", "16_buckets", "hbs"} <= set(df.columns)
    assert (df.hbs > 0).all()


def test_fig9_mini(spark):
    df = figs.fig9_burdened_span(spark, graphs=["GRID", "TW"], scale="mini")
    # VGC only improves the burdened span (Sec. 4.2 analysis).
    assert (df.bspan_speedup_vgc >= df.bspan_speedup_novgc * 0.99).all()
    # Ours (online) beats offline Julienne on burdened span everywhere.
    assert (df.bspan_speedup_novgc > 1).all()


def test_fig11_mini(spark):
    df = figs.fig11_sampling(spark, graphs=["TW", "HCNS"], scale="mini")
    assert set(df.graph) == {"TW", "HCNS"}
    assert (df.with_sampling > 0).all()


def test_fig12_mini():
    df = figs.fig12_subgraph(graphs=["TW"], ks=[2, 4], scale="mini")
    assert len(df) == 2
    assert (df.core_size > 0).all()
    assert (df.ours > 0).all() and (df.galois > 0).all()


def test_machine_override_plumbed(spark):
    slow = MachineConfig(omega=5000.0)
    fast = MachineConfig(omega=50.0)
    a = run_cells(spark, [{"graph": "GRID", "algo": "plain", "scale": "mini"}], slow)
    b = run_cells(spark, [{"graph": "GRID", "algo": "plain", "scale": "mini"}], fast)
    assert a.t_par.iloc[0] > b.t_par.iloc[0]
