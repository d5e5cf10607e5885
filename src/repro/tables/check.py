"""Byte-identity check of the committed results.

    python -m repro.tables.check

Writes all ``results/*.csv`` and EXPERIMENTS.md into a temporary
directory through ``artifacts.write`` — the same code
``python -m repro.tables`` writes the committed files with — and
compares each file byte-for-byte with the committed one. ``results/``
is never written. Exits 1 if any file differs, so a change meant to
leave the model alone (a host-side speedup, a refactor) can prove that
it does.
"""
from __future__ import annotations

import pathlib
import sys
import tempfile
import time

from repro.tables import report
from repro.tables.artifacts import write
from repro.tables.session import get_spark


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
        t0 = time.perf_counter()
        names = list(write(spark, out, out / "EXPERIMENTS.md"))
        print(f"regenerated {len(names)} artifacts in {time.perf_counter() - t0:.1f} s")
        bad = differing(report.RESULTS, out, names)
        bad += differing(report.ROOT, out, ["EXPERIMENTS.md"])
    spark.stop()
    for name in [*names, "EXPERIMENTS.md"]:
        print(f"{'DIFFERS  ' if name in bad else 'identical'} {name}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
