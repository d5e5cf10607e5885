"""Spark DataFrame graph operations (Catalyst layer).

The dataflow implementations of the paper's algorithms operate on an
edge DataFrame with columns ``src``/``dst`` containing *both*
directions of every undirected edge (the same convention as the CSR
layer). All operations here are pure DataFrame/Spark-SQL transforms.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.graphs.csr import CSR, edge_array


def edges_to_df(spark: SparkSession, g: CSR) -> DataFrame:
    """Directed edge DataFrame (both directions) from a CSR graph."""
    arr = edge_array(g)
    pdf = pd.DataFrame({"src": arr[:, 0], "dst": arr[:, 1]})
    return spark.createDataFrame(pdf)


def symmetrize(edges: DataFrame) -> DataFrame:
    """Make an arbitrary (src, dst) edge list undirected and simple:
    drop self-loops, add reverse edges, dedupe."""
    fwd = edges.select("src", "dst")
    bwd = edges.select(F.col("dst").alias("src"), F.col("src").alias("dst"))
    return fwd.unionByName(bwd).where(F.col("src") != F.col("dst")).distinct()


# Spark SQL over a symmetric edge list ``{edges}``: one row (id, deg,
# nbrs) per vertex appearing in it as ``src``, with its degree and its
# neighbours. A row with a NULL ``dst`` adds its ``src`` and no edge.
ADJACENCY = (
    "SELECT src AS id, count(dst) AS deg, collect_list(dst) AS nbrs FROM {edges} GROUP BY src"
)


def bipartite_edges_from_lineitem(li: DataFrame) -> DataFrame:
    """Directed (one-way) order–part bipartite edges from TPC-H-lite
    lineitem: order keys map to ids [0, max_orderkey), part keys to
    [max_orderkey, ...) — the same mapping as
    ``generators.bipartite_from_lineitem`` so the two layers agree."""
    n_orders = li.agg(F.max("l_orderkey")).collect()[0][0]
    return (
        li.select(
            (F.col("l_orderkey") - 1).alias("src"),
            (F.col("l_partkey") - 1 + F.lit(n_orders)).alias("dst"),
        )
        .distinct()
    )


def df_to_csr(edges: DataFrame, n: int | None = None) -> CSR:
    """Collect a (possibly one-way) edge DataFrame into a CSR graph."""
    pdf = edges.select("src", "dst").toPandas()
    from repro.graphs.csr import from_edge_list

    arr = np.column_stack(
        [pdf["src"].to_numpy(np.int64), pdf["dst"].to_numpy(np.int64)]
    )
    return from_edge_list(arr, n)
