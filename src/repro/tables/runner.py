"""Spark fan-out of simulation cells.

A *cell* is one (graph, algorithm, scale) triple. Cells whose names
bind to the same ``REGISTRY`` configuration on the same graph and scale
(Table 2's ``ours`` is Table 3's ``vgc+sample+hbs``) are one distinct
cell. The distinct cells are grouped by (graph, scale), and each group
is one Spark task: it generates its graph (deterministic seed) once per
sweep and returns one metrics row per distinct cell, in request order.
Inside the task, distinct cells whose configs share an engine
``class_key`` (equal but for the bucket structure and the online or
offline peel) are one execution, ``engine.run_class``. The task forks
one child process per class after its first, which runs
``engine.run_class`` on the graph it inherited copy-on-write and pipes
back the pickled result, so a task's classes use the cores that its
Spark job's shorter tasks leave idle; the task itself runs ``bz`` (first,
when the group has it) and its first class, then reads and reaps its
children in request order, and kills and reaps them if it raises.
Each row certifies and times itself: ``exact`` (its coreness equals
BZ's, or passes ``verify_coreness`` when the group has no ``bz`` cell),
``wall_s`` (host seconds of the execution that produced it, shared by
the members of a class) and ``gen_s`` (host seconds the task spent
loading its graph). The driver gets back a pandas frame with one row
per requested cell, under the name that was requested — the raw
material for every table.

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


def run_cells(spark: SparkSession, cells: list[dict]) -> pd.DataFrame:
    """Execute cells in parallel, one Spark task per (graph, scale) and
    each class of distinct cells once; returns one metrics row per
    requested cell, in request order."""
    machine = MachineConfig()
    ids, groups = group_cells(cells)

    def _run_group(group) -> list[dict]:
        # A closure, pickled by value, with its imports inside, so a
        # worker never imports this module and with it pandas and
        # pyspark.sql: a module-level task cost each of 4 workers
        # ~57 MiB and the ``sim`` benchmark sweep ~1 s.
        import os
        import pickle
        import signal
        import time

        import numpy as np

        from repro.graphs.suite import load_graph
        from repro.seq.bz import bz_kcore, verify_coreness
        from repro.simcpu.engine import class_key, run_class
        from repro.simcpu.metrics import RunMetrics

        (graph, scale), todo = group

        def failed(names, e):
            where = ", ".join(
                f"cell (graph={graph!r}, algo={a!r}, scale={scale!r})" for a in names
            )
            return RuntimeError(f"{where} failed: {e!r}")

        t0 = time.perf_counter()
        try:
            g = load_graph(graph, scale)  # cached: generated once per task
        except Exception as e:
            raise failed([a for _, a in todo], e) from e
        gen_s = time.perf_counter() - t0

        def execute(key, names):
            t0 = time.perf_counter()
            if key == "bz":
                res = bz_kcore(g)
                core, t = res.core, res.work * machine.t_op
                mets = [RunMetrics(
                    kmax=int(core.max()), work=res.work,
                    t_par_units=t, t_seq_units=t,
                )]
            else:
                core, mets = run_class(g, [REGISTRY[a] for a in names], machine)
            return core, mets, time.perf_counter() - t0

        def fork(key, names):
            """Run ``execute`` in a child; return (pid, its result pipe)."""
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:  # the child: never returns into the task
                status = 1
                try:
                    os.close(r)
                    try:
                        out = (None, execute(key, names))
                    except Exception as e:
                        out = (e, None)
                    with os.fdopen(w, "wb") as f:
                        f.write(pickle.dumps(out, pickle.HIGHEST_PROTOCOL))
                    status = 0
                finally:
                    os._exit(status)
            os.close(w)
            return pid, os.fdopen(r, "rb")

        def join(key):
            """The result of a forked class, once its child is reaped."""
            pid, f = children[key]
            data = f.read()
            f.close()
            _, status = os.waitpid(pid, 0)
            del children[key]
            if not data:
                code = os.waitstatus_to_exitcode(status)
                raise RuntimeError(f"child exited with status {code} and no result")
            err, out = pickle.loads(data)
            if err is not None:
                raise err
            return out

        # One execution per class; bz first, so the others check against
        # it. The task runs bz and its first class, and forks the rest.
        runs: dict = {}
        for task, algo in todo:
            key = class_key(REGISTRY[algo]) if algo in REGISTRY else algo
            runs.setdefault(key, []).append((task, algo))
        order = sorted(runs, key=lambda key: key != "bz")
        children: dict = {}
        truth = None
        done = {}  # key -> (metrics, wall_s, exact)
        try:
            for key in [key for key in order if key != "bz"][1:]:
                names = [a for _, a in runs[key]]
                try:
                    children[key] = fork(key, names)
                except OSError as e:
                    raise failed(names, e) from e
            for key in order:
                names = [a for _, a in runs[key]]
                try:
                    core, mets, wall_s = (
                        join(key) if key in children else execute(key, names)
                    )
                    if truth is None:
                        exact = bool(verify_coreness(g, core))
                    else:
                        exact = bool(np.array_equal(core, truth))
                except Exception as e:
                    raise failed(names, e) from e
                if key == "bz":
                    truth = core
                done[key] = mets, wall_s, exact
        finally:  # on a raise, no child is left running
            for pid, f in children.values():
                f.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        rows = {}
        for key in order:
            mets, wall_s, exact = done[key]
            for (task, algo), met in zip(runs[key], mets):
                rows[task] = {
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
                    "exact": exact,
                    "wall_s": wall_s,
                    "gen_s": gen_s,
                }
        return [rows[task] for task, _ in todo]

    rows = (
        spark.sparkContext.parallelize(list(groups.items()), len(groups))
        .flatMap(_run_group)
        .collect()
    )
    out = pd.DataFrame(rows).set_index("task").loc[ids].reset_index(drop=True)
    out["algo"] = [c["algo"] for c in cells]
    return out
