"""Spark fan-out of simulation cells.

A *cell* is one (graph, algorithm, scale) triple. Cells whose names
bind to the same ``REGISTRY`` configuration on the same graph and scale
(Table 2's ``ours`` is Table 3's ``vgc+sample+hbs``) are one distinct
cell, simulated once. The distinct cells are grouped by (graph, scale),
and each group is one Spark task: it generates its graph (deterministic
seed) once per sweep, runs the machine simulator on each of its cells in
request order, and returns one metrics row per cell. The driver gets
back a pandas frame with one row per requested cell, under the name that
was requested — the raw material for every table.

The fan-out runs on the RDD layer, not on DataFrames: it maps opaque
Python calls, so Catalyst has no plan to optimise, and a session's first
SQL Python UDF is slow to start (on 4 vCPUs, after a SparkContext
restart, a no-op ``mapInPandas`` over 4 partitions took 1.9–2.5 s and a
no-op RDD ``map`` 0.3–0.4 s).
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.simcpu.configs import REGISTRY
from repro.simcpu.machine import MachineConfig


def algo_registry() -> dict:
    """Name -> AlgoConfig for every algorithm a table can request."""
    return dict(REGISTRY)


def group_cells(cells: list[dict]) -> tuple[list[int], dict]:
    """Deduplicate requested cells and group them by graph.

    A cell keys by (graph, scale, the ``REGISTRY`` object its name binds
    to; ``scale`` defaults to ``bench``). ``bz`` and unknown names key to
    themselves, so an unknown name still gets its own cell and fails
    under its own name. Returns the distinct-cell id of each requested
    cell, and ``{(graph, scale): [(id, first requested name), ...]}``,
    both in request order.
    """
    ids: dict = {}
    groups: dict = {}
    out = []
    for c in cells:
        g, s, a = c["graph"], c.get("scale", "bench"), c["algo"]
        key = (g, s, REGISTRY.get(a, a))
        if key not in ids:
            ids[key] = len(ids)
            groups.setdefault((g, s), []).append((ids[key], a))
        out.append(ids[key])
    return out, groups


def run_cells(
    spark: SparkSession,
    cells: list[dict],
    machine: MachineConfig | None = None,
) -> pd.DataFrame:
    """Execute cells in parallel, one Spark task per (graph, scale) and
    each distinct cell once; returns one metrics row per requested cell,
    in request order."""
    machine = machine or MachineConfig()
    ids, groups = group_cells(cells)

    def _run_group(group) -> list[dict]:
        # A closure, pickled by value, with its imports inside, so a
        # worker never imports this module and with it pandas and
        # pyspark.sql: a module-level task cost each of 4 workers
        # ~57 MiB and the ``sim`` benchmark sweep ~1 s.
        from repro.graphs.suite import load_graph
        from repro.seq.bz import bz_kcore
        from repro.simcpu.engine import run_kcore
        from repro.simcpu.metrics import RunMetrics

        (graph, scale), todo = group
        out = []
        for task, algo in todo:
            try:
                g = load_graph(graph, scale)  # cached: generated once per task
                if algo == "bz":
                    res = bz_kcore(g)
                    t = res.work * machine.t_op
                    met = RunMetrics(
                        kmax=int(res.core.max()), work=res.work,
                        t_par_units=t, t_seq_units=t,
                    )
                else:
                    _, met = run_kcore(g, REGISTRY[algo], machine)
                out.append({
                    "task": task,
                    "graph": graph,
                    "algo": algo,
                    "scale": scale,
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
                })
            except Exception as e:
                raise RuntimeError(
                    f"cell (graph={graph!r}, algo={algo!r}, scale={scale!r}) "
                    f"failed: {e!r}"
                ) from e
        return out

    rows = (
        spark.sparkContext.parallelize(list(groups.items()), len(groups))
        .flatMap(_run_group)
        .collect()
    )
    out = pd.DataFrame(rows).set_index("task").loc[ids].reset_index(drop=True)
    out["algo"] = [c["algo"] for c in cells]
    return out
