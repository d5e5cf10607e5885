"""Spark DataFrame graph ops, checked against the DuckDB oracle."""
import numpy as np
import pytest

from repro.graphs import generators as gen
from repro.graphs.csr import edge_array, from_edge_list
from repro.graphs.spark_graph import ADJACENCY, edges_to_df
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def sym(spark):
    # Duplicates, a reversed pair and a self-loop, which the CSR drops.
    g = from_edge_list(np.array([[0, 1], [0, 1], [1, 0], [2, 3], [3, 2], [3, 3], [2, 0]]))
    return edges_to_df(spark, g)


def test_degrees_oracle(spark, sym):
    assert_equivalent(
        spark.sql(ADJACENCY, edges=sym).select("id", "deg"),
        "SELECT src AS id, count(*) AS deg FROM sym GROUP BY src",
        sym=sym,
    )


def test_degrees_match_csr(spark):
    g = gen.chung_lu(400, 8, seed=3)
    df = edges_to_df(spark, g)
    got = spark.sql(ADJACENCY, edges=df).toPandas().set_index("id")
    d = g.degrees()
    for vid, row in got.iterrows():
        assert d[vid] == row["deg"]
        assert sorted(row["nbrs"]) == sorted(g.adj[g.indptr[vid] : g.indptr[vid + 1]])
    # Vertices missing from the edge list are exactly the isolated ones.
    assert set(got.index) == set(np.flatnonzero(d > 0))


def test_edges_round_trip(spark):
    g = gen.honeycomb(10, 10, hole_prob=0.1, seed=2)
    pdf = edges_to_df(spark, g).toPandas()
    assert list(pdf.columns) == ["src", "dst"]
    assert np.array_equal(pdf.to_numpy(np.int64), edge_array(g))
