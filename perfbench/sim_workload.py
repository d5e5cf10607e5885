"""The simulator workload: ``run_cells`` sweeps over fixed suite graphs.

The graphs stay the suite's fixed analogues, because the committed
``results/table2.csv`` and ``results/table3.csv`` are defined on them,
and the cells go to the fan-out in one fixed order. A seeded order was
tried: it changes which cells share a Spark task and a Python worker
(and so its ``load_graph`` cache), and that moved the sweep's length by
about 15% from seed to seed, more than the benchmark's bound allows.

The traced run executes the same cells in this process, through the
functions ``run_cells`` calls, with a span around each layer call.

The module has the interface ``run.py`` expects of a workload:
``setup``, ``run_pass`` and ``traced``.
"""
from __future__ import annotations

import csv
import dataclasses
import time

import numpy as np

# (graphs, algorithms) groups; the sweep runs every pair in each group.
GROUPS = [
    # Lattices: k_max <= 3 and no hubs, so the VGC/PKC local search
    # carries the time. Every name the tables give these configurations
    # is here, as the tables run them: ours = vgc+sample+hbs =
    # buckets-adaptive and vgc+hbs = ours-nosample. Many cells of
    # similar cost also keep the sweep's length from hanging on which
    # cells share a task.
    (
        ["TRCE", "BBL"],
        ["plain", "julienne", "pkc", "vgc", "vgc+hbs", "ours", "vgc+sample+hbs",
         "vgc+sample", "ours-vgc-f16", "buckets-adaptive", "ours-nosample"],
    ),
    # Hubs, k_max in the hundreds and no local search: generation, BZ,
    # sampling, the batch peel and HBS buckets carry the time.
    (
        ["EH", "HCNS"],
        ["bz", "plain", "julienne", "park", "sample", "sample+hbs"],
    ),
]
GRAPHS = [g for graphs, _ in GROUPS for g in graphs]

# Committed Table 2 columns per runner algorithm: csv column -> row field.
_TABLE2 = {
    "plain": {"seq": "t_seq", "rho": "rho"},
    "bz": {"bz": "t_seq"},
    "julienne": {"julienne": "t_par"},
    "park": {"park": "t_par"},
    "pkc": {"pkc": "t_par"},
    "ours": {"par": "t_par", "kmax": "kmax", "n": "n", "m": "m"},
}


def cells() -> list[dict]:
    return [{"graph": g, "algo": a} for graphs, algos in GROUPS
            for g in graphs for a in algos]


def committed(root) -> dict:
    """(graph, algo) -> {row field: committed value}, read-only, from
    results/table2.csv and results/table3.csv (table 3 holds one
    ``t_par`` column per technique combination)."""
    out: dict = {}
    with open(root / "results" / "table2.csv", newline="") as f:
        for row in csv.DictReader(f):
            for algo, cols in _TABLE2.items():
                exp = out.setdefault((row["graph"], algo), {})
                for col, field in cols.items():
                    exp[field] = float(row[col])
    with open(root / "results" / "table3.csv", newline="") as f:
        for row in csv.DictReader(f):
            for col, val in row.items():
                if col != "graph" and not col.startswith("norm_"):
                    out.setdefault((row["graph"], col), {})["t_par"] = float(val)
    return out


def check_row(row: dict, expected: dict, bz_kmax: int) -> list[str]:
    """Reasons one simulated row is wrong; empty when it is right."""
    bad = []
    if int(row["kmax"]) != bz_kmax:
        bad.append(f"kmax {int(row['kmax'])} != BZ {bz_kmax}")
    for field, want in expected.items():
        if float(row[field]) != want:
            bad.append(f"{field} {row[field]!r} != committed {want!r}")
    return bad


def bz_kmax_by_graph(rows: list[dict]) -> dict:
    """k_max from BZ per graph: from the sweep's own ``bz`` cells where
    it has them, else computed here."""
    from repro.graphs.suite import load_graph
    from repro.seq.bz import bz_kcore

    out = {r["graph"]: int(r["kmax"]) for r in rows if r["algo"] == "bz"}
    for g in GRAPHS:
        if g not in out:
            out[g] = int(bz_kcore(load_graph(g)).core.max())
    return out


def setup(seed: int, root) -> dict:
    """The committed results the rows are checked against. The seed
    draws nothing here: the graphs and the cell order are fixed."""
    return {"expected": committed(root), "bz_kmax": None}


def _sweep(spark):
    """One cold sweep; returns (host seconds, rows as dicts). A sweep
    that raises returns no rows, so every cell counts as failed."""
    from repro.tables.runner import run_cells

    todo = cells()
    t0 = time.perf_counter()
    try:
        rows = run_cells(spark, todo).to_dict("records")
    except Exception as e:  # one failing cell aborts the whole Spark job
        print(f"# sweep failed: {type(e).__name__}: {e}", flush=True)
        rows = []
    return time.perf_counter() - t0, rows


def run_pass(spark, ctx: dict, pass_idx: int, failures):
    """Run and check one sweep; returns (host seconds, operations, rows).
    BZ's k_max per graph comes from the first sweep that has it."""
    wall, rows = _sweep(spark)
    if ctx["bz_kmax"] is None or any(r["algo"] == "bz" for r in rows):
        ctx["bz_kmax"] = bz_kmax_by_graph(rows)
    check_rows(rows, ctx["expected"], ctx["bz_kmax"], failures)
    return wall, len(cells()), rows


def traced(spark, ctx: dict, tracer, failures) -> tuple[int, dict]:
    """One untraced sweep for the fan-out's length, then the same cells
    in this process with spans; returns (operations, per-layer metrics)."""
    from session import nproc

    wall, ops, rows = run_pass(spark, ctx, 0, failures)
    with tracer.span("pass", workload="sim"):
        recs = traced_run(tracer, ctx["expected"], failures)
    return ops + len(recs), layer_metrics(tracer, recs, wall, rows, nproc())


def check_rows(rows, expected, bz_kmax, failures) -> None:
    """Append a named failure per wrong or missing row."""
    seen = {(r["graph"], r["algo"]): r for r in rows}
    for c in cells():
        g, a = c["graph"], c["algo"]
        row = seen.get((g, a))
        why = (
            ["missing from the sweep"]
            if row is None
            else check_row(row, expected.get((g, a), {}), bz_kmax[g])
        )
        if why:
            failures.append(("sim", g, a, "; ".join(why)))


def distinct_cells(todo: list[dict]) -> int:
    """Cells that differ in (graph, configuration without its name)."""
    from repro.tables.runner import algo_registry

    reg = algo_registry()
    return len(
        {
            (c["graph"], "bz" if c["algo"] == "bz"
             else dataclasses.replace(reg[c["algo"]], name=""))
            for c in todo
        }
    )


class _TimedStructure:
    """Frontier structure that adds its call time to an accumulator."""

    def __init__(self, inner, acc: dict):
        self._inner = inner
        self._acc = acc

    def _timed(self, fn, *args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._acc["s"] += time.perf_counter() - t0
            self._acc["calls"] += 1

    def build(self, ids, deg):
        return self._timed(self._inner.build, ids, deg)

    def next_frontier(self, k, deg, state):
        return self._timed(self._inner.next_frontier, k, deg, state)

    def on_decrement(self, ids, deg):
        return self._timed(self._inner.on_decrement, ids, deg)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def traced_run(tracer, expected: dict, failures) -> list[dict]:
    """Run the sweep's cells in this process with spans; assert exact
    coreness for every cell. Returns one record per cell."""
    import repro.seq.bz as bz_mod
    import repro.simcpu.engine as engine
    from repro.graphs.suite import load_graph
    from repro.simcpu.machine import MachineConfig
    from repro.tables.runner import algo_registry

    reg = algo_registry()
    machine = MachineConfig()
    orig_make, orig_verify = engine.make_structure, bz_mod.verify_coreness
    acc = {"s": 0.0, "calls": 0}

    def make_structure(name, n, **kw):
        return _TimedStructure(orig_make(name, n, **kw), acc)

    def verify_coreness(g, core):
        with tracer.span("seq.verify"):
            return orig_verify(g, core)

    engine.make_structure = make_structure
    bz_mod.verify_coreness = verify_coreness
    load_graph.cache_clear()
    truth: dict = {}
    out = []
    try:
        for c in cells():
            g_key, algo = c["graph"], c["algo"]
            with tracer.span("tables.cell", graph=g_key, algo=algo):
                with tracer.span("graphs.load_graph", graph=g_key):
                    g = load_graph(g_key)
                if algo == "bz":
                    with tracer.span("seq.bz", graph=g_key):
                        res = bz_mod.bz_kcore(g)
                    core = res.core
                    t = machine.seconds(res.work * machine.t_op)
                    row = {"kmax": int(core.max()), "rho": 0, "t_par": t,
                           "t_seq": t, "n": g.n, "m": g.m, "work": float(res.work)}
                    rec = {"path": "bz", "rounds": 0, "resamples": 0, "restarts": 0,
                           "scanned": 0, "moves": 0}
                    truth.setdefault(g_key, core)
                else:
                    cfg = reg[algo]
                    path = "local" if (cfg.vgc or cfg.local_buffer) else "batch"
                    acc["s"], acc["calls"] = 0.0, 0
                    with tracer.span("simcpu.run_kcore", graph=g_key, algo=algo,
                                     path=path) as sp:
                        core, met = engine.run_kcore(g, cfg, machine)
                    sp["attrs"].update(bucket_s=acc["s"], bucket_calls=acc["calls"])
                    row = {"kmax": met.kmax, "rho": met.rho,
                           "t_par": met.t_par_seconds(machine),
                           "t_seq": met.t_seq_seconds(machine),
                           "n": g.n, "m": g.m, "work": float(met.work)}
                    rec = {"path": path, "rounds": met.rounds,
                           "resamples": met.resamples, "restarts": met.restarts,
                           "scanned": met.structure.get("scanned", 0),
                           "moves": met.structure.get("moves", 0)}
            if g_key not in truth:
                with tracer.span("check.bz", graph=g_key):
                    truth[g_key] = bz_mod.bz_kcore(g).core
            why = check_row(row, expected.get((g_key, algo), {}),
                            int(truth[g_key].max()))
            if not np.array_equal(core, truth[g_key]):
                why.insert(0, "coreness differs from BZ")
            if why:
                failures.append(("sim", g_key, algo, "; ".join(why)))
            out.append({"graph": g_key, "algo": algo, "m": g.m, **row, **rec})
    finally:
        engine.make_structure = orig_make
        bz_mod.verify_coreness = orig_verify
    return out


def layer_metrics(tracer, recs: list[dict], sweep_wall: float, sweep_rows,
                  workers: int) -> dict:
    """Per-layer numbers of one traced run (host seconds and counts).
    ``simcpu`` times are self times: bucket and verify time excluded."""
    verify_in = {}
    for s in tracer.spans:
        if s["name"] == "seq.verify" and s["parent"] is not None:
            verify_in[s["parent"]] = verify_in.get(s["parent"], 0.0) + s["end"] - s["start"]
    kernels = [s for s in tracer.spans if s["name"] == "simcpu.run_kcore"]
    self_s = {"local": 0.0, "batch": 0.0}
    for s in kernels:
        self_s[s["attrs"]["path"]] += (
            s["end"] - s["start"] - s["attrs"]["bucket_s"] - verify_in.get(s["id"], 0.0)
        )
    work = {p: sum(r["work"] for r in recs if r["path"] == p) for p in ("local", "batch")}
    cell_s = tracer.durations("tables.cell")
    loaded = {r["graph"]: r["m"] for r in recs}
    return {
        "graphs.load_graph_s": tracer.total("graphs.load_graph"),
        "graphs.edges": float(sum(loaded.values())),
        "seq.bz_s": tracer.total("seq.bz"),
        "seq.verify_s": tracer.total("seq.verify"),
        "simcpu.local_s": self_s["local"],
        "simcpu.batch_s": self_s["batch"],
        "simcpu.local_ns_per_unit": (
            self_s["local"] * 1e9 / work["local"] if work["local"] else 0.0
        ),
        "simcpu.batch_ns_per_unit": (
            self_s["batch"] * 1e9 / work["batch"] if work["batch"] else 0.0
        ),
        # RunMetrics.work plus BZ work of the untraced sweep.
        "simcpu.units_per_s": sum(r["work"] for r in sweep_rows) / sweep_wall,
        "simcpu.subrounds": float(sum(r["rho"] for r in recs)),
        "simcpu.rounds": float(sum(r["rounds"] for r in recs)),
        "simcpu.resamples": float(sum(r["resamples"] for r in recs)),
        "simcpu.restarts": float(sum(r["restarts"] for r in recs)),
        "bucket.s": sum(s["attrs"]["bucket_s"] for s in kernels),
        "bucket.calls": float(sum(s["attrs"]["bucket_calls"] for s in kernels)),
        "bucket.scanned": float(sum(r["scanned"] for r in recs)),
        "bucket.moves": float(sum(r["moves"] for r in recs)),
        "tables.cells": float(len(recs)),
        "tables.distinct_cells": float(distinct_cells(cells())),
        "tables.cell_s_p50": float(np.median(cell_s)),
        "tables.cell_s_max": float(max(cell_s)),
        "tables.sweep_s": sweep_wall,
        "tables.traced_s": float(sum(cell_s)),
        "tables.parallel_eff": float(sum(cell_s)) / (sweep_wall * workers),
    }
