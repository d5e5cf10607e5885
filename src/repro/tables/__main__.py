"""Regenerate every artifact: ``results/*.csv`` and EXPERIMENTS.md.

    python -m repro.tables

Prints each table as it is written. ``python -m repro.tables.check``
writes the same files into a temporary directory and diffs them
against the committed ones.
"""
from __future__ import annotations

from repro.tables import report
from repro.tables.artifacts import write
from repro.tables.session import get_spark


def main() -> None:
    spark = get_spark("tables")
    try:
        frames = write(spark, report.RESULTS, report.ROOT / "EXPERIMENTS.md")
    finally:
        spark.stop()
    for name, df in frames.items():
        print(f"\n== {name}")
        print(df.to_string(index=False))
        print(f"\n[saved {report.RESULTS / name}]")
    print(f"wrote {report.ROOT / 'EXPERIMENTS.md'}")


if __name__ == "__main__":
    main()
