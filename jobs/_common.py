"""Shared glue for spark-submit job entrypoints."""
from __future__ import annotations

import pathlib

from repro.tables.session import get_spark  # noqa: F401

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"


def save(df, name: str) -> None:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / name
    df.to_csv(path, index=False)
    print(f"\n[saved {path}]")
