"""The SparkSession used by ``python -m repro.tables`` and the results check."""
from __future__ import annotations

import os

from pyspark.sql import SparkSession


def get_spark(app: str) -> SparkSession:
    """SparkSession for a job: under spark-submit this picks up the
    submitted config; standalone it falls back to local[*]."""
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        "--master local[*] --driver-memory 8g "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    s = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", "16")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s
