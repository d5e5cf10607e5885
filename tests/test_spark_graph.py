"""Spark DataFrame graph ops, checked against the DuckDB oracle."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro import synth_data
from repro.graphs import generators as gen
from repro.graphs.spark_graph import (
    ADJACENCY,
    bipartite_edges_from_lineitem,
    df_to_csr,
    edges_to_df,
    symmetrize,
)
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def raw_edges(spark):
    pdf = pd.DataFrame(
        {"src": [0, 0, 1, 2, 3, 3, 2], "dst": [1, 1, 0, 3, 2, 3, 0]}
    )
    return spark.createDataFrame(pdf)


def test_symmetrize_oracle(spark, raw_edges):
    sym = symmetrize(raw_edges)
    assert_equivalent(
        sym,
        """
        WITH two_way AS (
          SELECT src, dst FROM e UNION ALL SELECT dst, src FROM e
        )
        SELECT DISTINCT src, dst FROM two_way WHERE src <> dst
        """,
        e=raw_edges,
    )


def test_degrees_oracle(spark, raw_edges):
    sym = symmetrize(raw_edges)
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
    df = edges_to_df(spark, g)
    g2 = df_to_csr(df, n=g.n)
    assert np.array_equal(g.indptr, g2.indptr)
    assert np.array_equal(g.adj, g2.adj)


def test_bipartite_from_lineitem_oracle(spark):
    li = synth_data.lineitem(spark, sf=0.001, seed=0)
    edges = bipartite_edges_from_lineitem(li)
    n_orders = li.agg(F.max("l_orderkey")).collect()[0][0]
    assert_equivalent(
        edges,
        f"""
        SELECT DISTINCT l_orderkey - 1 AS src,
               l_partkey - 1 + {n_orders} AS dst
        FROM li
        """,
        li=li,
    )


def test_bipartite_layers_agree(spark):
    """Spark bipartite edges == numpy bipartite_from_lineitem CSR."""
    li = synth_data.lineitem(spark, sf=0.001, seed=1)
    li_pdf = li.toPandas()
    g_np = gen.bipartite_from_lineitem(li_pdf)
    g_spark = df_to_csr(symmetrize(bipartite_edges_from_lineitem(li)), n=g_np.n)
    assert np.array_equal(g_np.indptr, g_spark.indptr)
    assert np.array_equal(g_np.adj, g_spark.adj)
