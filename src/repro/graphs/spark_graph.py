"""Spark DataFrame graph operations (Catalyst layer).

The dataflow implementations of the paper's algorithms operate on an
edge DataFrame with columns ``src``/``dst`` containing *both*
directions of every undirected edge (the same convention as the CSR
layer). All operations here are pure DataFrame/Spark-SQL transforms.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.graphs.csr import CSR, edge_array


def edges_to_df(spark: SparkSession, g: CSR) -> DataFrame:
    """Directed edge DataFrame (both directions) from a CSR graph."""
    arr = edge_array(g)
    pdf = pd.DataFrame({"src": arr[:, 0], "dst": arr[:, 1]})
    return spark.createDataFrame(pdf)


# Spark SQL over a symmetric edge list ``{edges}``: one row (id, deg,
# nbrs) per vertex appearing in it as ``src``, with its degree and its
# neighbours. A row with a NULL ``dst`` adds its ``src`` and no edge.
ADJACENCY = (
    "SELECT src AS id, count(dst) AS deg, collect_list(dst) AS nbrs FROM {edges} GROUP BY src"
)

