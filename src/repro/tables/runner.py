"""Spark fan-out of simulation cells.

A *cell* is one (graph, algorithm, scale) triple. Cells whose names
bind to the same ``REGISTRY`` configuration on the same graph and scale
(Table 2's ``ours`` is Table 3's ``vgc+sample+hbs``) are one *task*,
simulated once. Tasks are distributed over the cluster with
``applyInPandas``: each generates its graph (deterministic seed, cached
per executor process), runs the machine simulator, and returns one
metrics row. The driver gets back a pandas frame with one row per
requested cell, under the name that was requested — the raw material
for every table.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.simcpu.configs import REGISTRY
from repro.simcpu.machine import MachineConfig

_SCHEMA = (
    "task long, graph string, algo string, scale string, n long, m long, "
    "kmax long, rounds long, rho long, work double, t_par double, "
    "t_seq double, bspan double, max_contention long, max_chain long, "
    "restarts long, n_sampled long, resamples long, scanned long, moves long"
)


def algo_registry() -> dict:
    """Name -> AlgoConfig for every algorithm a table can request."""
    return dict(REGISTRY)


def run_cells(
    spark: SparkSession,
    cells: list[dict],
    machine: MachineConfig | None = None,
) -> pd.DataFrame:
    """Execute cells in parallel, each distinct one once; returns one
    metrics row per requested cell, in request order."""
    machine = machine or MachineConfig()
    pdf = pd.DataFrame(cells)
    if "scale" not in pdf:
        pdf["scale"] = "bench"
    # bz and unknown names key to themselves, so an unknown name still
    # gets its own task and fails under its own name.
    tasks: dict = {}
    pdf["task"] = [
        tasks.setdefault((g, s, REGISTRY.get(a, a)), len(tasks))
        for g, s, a in zip(pdf["graph"], pdf["scale"], pdf["algo"])
    ]
    cdf = spark.createDataFrame(pdf.drop_duplicates("task"))

    def _run(part: pd.DataFrame) -> pd.DataFrame:
        # Imports inside the task: executed on executor python workers.
        from repro.graphs.suite import load_graph
        from repro.seq.bz import bz_kcore
        from repro.simcpu.engine import run_kcore
        from repro.simcpu.metrics import RunMetrics

        def _cell(row) -> dict:
            g = load_graph(row["graph"], row["scale"])
            if row["algo"] == "bz":
                res = bz_kcore(g)
                t = res.work * machine.t_op
                met = RunMetrics(
                    kmax=int(res.core.max()), work=res.work,
                    t_par_units=t, t_seq_units=t,
                )
            else:
                _, met = run_kcore(g, REGISTRY[row["algo"]], machine)
            return {
                "task": row["task"],
                "graph": row["graph"],
                "algo": row["algo"],
                "scale": row["scale"],
                "n": g.n,
                "m": g.m,
                "kmax": met.kmax,
                "rounds": met.rounds,
                "rho": met.rho,
                "work": float(met.work),
                "t_par": met.t_par_seconds(machine),
                "t_seq": met.t_seq_seconds(machine),
                "bspan": float(met.bspan_units),
                "max_contention": met.max_contention,
                "max_chain": met.max_chain,
                "restarts": met.restarts,
                "n_sampled": met.n_sampled,
                "resamples": met.resamples,
                "scanned": met.structure.get("scanned", 0),
                "moves": met.structure.get("moves", 0),
            }

        out = []
        for _, row in part.iterrows():
            try:
                out.append(_cell(row))
            except Exception as e:
                raise RuntimeError(
                    f"cell (graph={row['graph']!r}, algo={row['algo']!r}, "
                    f"scale={row['scale']!r}) failed: {e!r}"
                ) from e
        return pd.DataFrame(out)

    done = (
        cdf.repartition(max(len(tasks), 1), "task")
        .groupBy("task")
        .applyInPandas(lambda _, p: _run(p), schema=_SCHEMA)
        .toPandas()
        .set_index("task")
    )
    out = done.loc[pdf["task"]].reset_index(drop=True)
    out["algo"] = pdf["algo"]
    return out
