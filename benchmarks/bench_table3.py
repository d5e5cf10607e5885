"""Benchmark for Table 3: all 8 {VGC, sampling, HBS} combinations on
every suite graph, from the shared sweep; writes results/table3.csv."""
import pytest


@pytest.mark.benchmark(group="table3")
def test_bench_table3(benchmark, save_artifact):
    df = benchmark.pedantic(save_artifact, args=("table3.csv",), rounds=1, iterations=1)
    by = df.set_index("graph")
    # Paper shapes: VGC dominates on lattice/mesh graphs, sampling on
    # hub-heavy dense graphs, and the full design is never far from the
    # per-graph best combination.
    assert by.loc["GRID", "vgc"] < by.loc["GRID", "plain"] / 2
    assert by.loc["TW", "sample"] < by.loc["TW", "plain"]
    assert (df["norm_vgc+sample+hbs"] < 2.2).all()
