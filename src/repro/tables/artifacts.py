"""Every ``results/*.csv`` artifact, built from one deduplicated sweep.

``ARTIFACTS`` declares each Spark artifact once: its default graphs, the
runner names one graph's row reads, and the function that makes that
row. ``sweep`` requests the union of their cells in a single
``run_cells`` call, so a configuration that several tables name
differently is simulated once, and ``tabulate`` makes each artifact
from its rows. Fig. 12 runs driver-side
(``figs.fig12_subgraph``); ``write`` adds it and renders EXPERIMENTS.md.
"""
from __future__ import annotations

import pathlib
from collections.abc import Callable, Iterable
from dataclasses import dataclass

import pandas as pd
from pyspark.sql import SparkSession

from repro.graphs.suite import REPRESENTATIVE, SAMPLING_GRAPHS, SUITE
from repro.tables import figs, report, table2, table3
from repro.tables.runner import run_cells


@dataclass(frozen=True)
class Artifact:
    graphs: list[str]
    algos: list[str]
    row: Callable[[str, pd.DataFrame], dict]


ARTIFACTS = {
    "table2.csv": Artifact(list(SUITE), table2.ALGOS, table2.row),
    "table3.csv": Artifact(list(SUITE), table3.COMBOS, table3.row),
    "fig7.csv": Artifact(REPRESENTATIVE, ["plain", "vgc"], figs.fig7_row),
    "fig8.csv": Artifact(
        REPRESENTATIVE,
        ["buckets-single", "buckets-fixed", "buckets-adaptive"],
        figs.fig8_row,
    ),
    "fig9.csv": Artifact(
        list(SUITE), ["julienne", "ours-novgc-f16", "ours-vgc-f16"], figs.fig9_row
    ),
    "fig11.csv": Artifact(SAMPLING_GRAPHS, ["ours", "ours-nosample"], figs.fig11_row),
}


def sweep(
    spark: SparkSession,
    names: Iterable[str] = tuple(ARTIFACTS),
    *,
    graphs: list[str] | None = None,
    scale: str = "bench",
) -> pd.DataFrame:
    """The ``run_cells`` frame of every cell the named artifacts read on
    ``graphs`` (else each artifact's own), from one call. Raises, naming
    each cell, if any row's coreness is inexact."""
    cells = dict.fromkeys(
        (g, a) for name in names for g in graphs or ARTIFACTS[name].graphs
        for a in ARTIFACTS[name].algos
    )
    raw = run_cells(spark, [{"graph": g, "algo": a, "scale": scale} for g, a in cells])
    bad = raw[~raw.exact]
    if len(bad):
        where = ", ".join(
            f"cell (graph={g!r}, algo={a!r}, scale={s!r})"
            for g, a, s in zip(bad.graph, bad.algo, bad.scale)
        )
        raise RuntimeError(f"inexact coreness: {where}")
    return raw


def tabulate(
    raw: pd.DataFrame,
    names: Iterable[str] = tuple(ARTIFACTS),
    *,
    graphs: list[str] | None = None,
) -> dict[str, pd.DataFrame]:
    """Name -> frame for each named artifact, one row per graph, from
    the rows of ``sweep``."""
    by_graph = {g: sub.set_index("algo") for g, sub in raw.groupby("graph")}
    return {
        name: pd.DataFrame(
            [ARTIFACTS[name].row(g, by_graph[g]) for g in graphs or ARTIFACTS[name].graphs]
        )
        for name in names
    }


def build(
    spark: SparkSession,
    names: Iterable[str] = tuple(ARTIFACTS),
    *,
    graphs: list[str] | None = None,
    scale: str = "bench",
) -> dict[str, pd.DataFrame]:
    """``tabulate`` of one ``sweep``."""
    names = list(names)
    raw = sweep(spark, names, graphs=graphs, scale=scale)
    return tabulate(raw, names, graphs=graphs)


def write(
    spark: SparkSession, results: pathlib.Path, experiments: pathlib.Path
) -> dict[str, pd.DataFrame]:
    """Build all seven artifacts, write each as ``results/<name>`` and
    EXPERIMENTS.md (rendered from them) as ``experiments``; returns the
    frames."""
    frames = build(spark)
    frames["fig12.csv"] = figs.fig12_subgraph()
    results.mkdir(exist_ok=True)
    for name, df in frames.items():
        df.to_csv(results / name, index=False)
    experiments.write_text(report.render(results))
    return frames
