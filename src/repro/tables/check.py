"""Byte-identity check of the committed results.

    python -m repro.tables.check

Regenerates all ``results/*.csv`` into a temporary directory through the
same ``compute``/``fig*`` functions and ``to_csv(index=False)`` calls
the benchmarks use, renders EXPERIMENTS.md from them, and compares each
file byte-for-byte with the committed one. ``results/`` is never
written. Exits 1 if any file differs, so a change meant to leave the
model alone (a host-side speedup, a refactor) can prove that it does.
"""
from __future__ import annotations

import pathlib
import sys
import tempfile
import time

from repro.tables import figs, report, table2, table3
from repro.tables.session import get_spark

ARTIFACTS = {
    "table2.csv": table2.compute,
    "table3.csv": table3.compute,
    "fig7.csv": figs.fig7_subrounds,
    "fig8.csv": figs.fig8_buckets,
    "fig9.csv": figs.fig9_burdened_span,
    "fig11.csv": figs.fig11_sampling,
    "fig12.csv": lambda spark: figs.fig12_subgraph(),
}


def differing(expected: pathlib.Path, got: pathlib.Path, names: list[str]) -> list[str]:
    """Names whose bytes differ between the two directories (a file
    missing on either side counts as different)."""
    out = []
    for name in names:
        a, b = expected / name, got / name
        if not (a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()):
            out.append(name)
    return out


def main() -> int:
    spark = get_spark("results-check")
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp)
        for name, compute in ARTIFACTS.items():
            t0 = time.perf_counter()
            compute(spark).to_csv(out / name, index=False)
            print(f"regenerated {name} in {time.perf_counter() - t0:.1f} s")
        (out / "EXPERIMENTS.md").write_text(report.render(out))
        bad = differing(report.RESULTS, out, list(ARTIFACTS))
        bad += differing(report.ROOT, out, ["EXPERIMENTS.md"])
    spark.stop()
    for name in [*ARTIFACTS, "EXPERIMENTS.md"]:
        print(f"{'DIFFERS  ' if name in bad else 'identical'} {name}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
