"""The ``dataflow-small`` workload: the Spark DataFrame k-core programs
of ``repro.core`` on small graphs drawn from the seed, each result
checked against BZ through ``repro.oracle``.

Two graphs, each chosen for one dataflow cost:
- ``mesh``: holed honeycombs, whose rounds take several subrounds
  (run through the VGC program);
- ``gaps``: a clique and disjoint edges, so round 2 is empty (run
  through the plain framework, at bucket width 1 and 4, which still
  spend jobs on it).

The sampling program (``kcore_dataflow_sampling``) is not run: on hub
graphs it is meant for (a star of 300 leaves at its defaults) it peels
a sampled hub a round late and returns a coreness that BZ does not.

Every call gets its own Spark job group, so the jobs it ran are counted
from the status tracker.

The module has the interface ``run.py`` expects of a workload:
``setup``, ``run_pass`` and ``traced``.
"""
from __future__ import annotations

import contextlib
import time

import numpy as np
import pandas as pd

# (metric name, program, graph); the name becomes core.<name>_s.
CALLS = [
    ("dataflow_gaps", "dataflow", "gaps"),
    ("dataflow4_gaps", "dataflow4", "gaps"),
    ("vgc_mesh", "vgc", "mesh"),
]

# The mesh: copies of one holed honeycomb, whose peeling cascades run
# over several VGC subrounds.
MESH = dict(rows=4, cols=10, hole_prob=0.08, seed=901)
MESH_COPIES = 4


def _shuffled(n: int, src, dst, rng):
    from repro.graphs.csr import build_csr

    perm = rng.permutation(n)
    return build_csr(n, perm[src], perm[dst])


def _mesh(seed: int):
    """``MESH_COPIES`` disjoint copies of the ``MESH`` honeycomb, labels
    shuffled. VGC's blocks are labels mod ``n_blocks``, so the labels
    set how far a cascade runs inside a block: one copy alone took five
    or six subrounds in all, depending on them. A round of the union
    lasts as long as its slowest copy, so the seed moves the work
    little. A seeded hole pattern (one 2x5 honeycomb) moved the VGC
    call's time threefold from seed to seed."""
    from repro.graphs import generators as gen

    g = gen.honeycomb(MESH["rows"], MESH["cols"], hole_prob=MESH["hole_prob"],
                      seed=MESH["seed"])
    src = np.repeat(np.arange(g.n), np.diff(g.indptr))
    keep = src < g.adj
    offs = np.arange(MESH_COPIES)[:, None] * g.n
    n = MESH_COPIES * g.n
    return _shuffled(n, (src[keep] + offs).ravel(), (g.adj[keep] + offs).ravel(),
                     np.random.default_rng([seed, 1]))


def _gaps(seed: int):
    """A 4-clique (coreness 3) and 6 disjoint edges (coreness 1), with
    labels shuffled: round 2 is empty."""
    n = 16
    a, b = np.meshgrid(np.arange(4), np.arange(4))
    pairs = np.arange(4, n).reshape(-1, 2)
    src = np.concatenate([a[a < b], pairs[:, 0]])
    dst = np.concatenate([b[a < b], pairs[:, 1]])
    return _shuffled(n, src, dst, np.random.default_rng([seed, 2]))


def setup(seed: int, root) -> dict:
    """The seeded graphs and their BZ coreness."""
    gs = graphs(seed)
    return {"graphs": gs, "expected": truths(gs)}


def graphs(seed: int) -> dict:
    return {
        "mesh": _mesh(seed),
        "gaps": _gaps(seed),
    }


def truths(gs: dict) -> dict:
    """BZ coreness of the non-isolated vertices, per graph, as the
    (id, coreness) table the oracle compares against."""
    from repro.seq.bz import bz_kcore

    out = {}
    for name, g in gs.items():
        core = bz_kcore(g).core
        ids = np.flatnonzero(g.degrees() > 0)
        out[name] = pd.DataFrame({"id": ids, "coreness": core[ids]})
    return out


def _run(spark, program: str, g):
    """(result as a DataFrame or coreness array, stats) of one call."""
    from repro.core.framework import kcore_dataflow
    from repro.core.vgc import kcore_dataflow_vgc
    from repro.graphs.spark_graph import edges_to_df

    if program == "dataflow":
        return kcore_dataflow(spark, edges_to_df(spark, g))
    if program == "dataflow4":
        return kcore_dataflow(spark, edges_to_df(spark, g), bucket_width=4)
    if program == "vgc":
        return kcore_dataflow_vgc(spark, g, n_blocks=4)
    raise ValueError(program)


def run_pass(spark, ctx: dict, pass_idx: int, failures, tracer=None):
    """All calls once, each followed by its oracle check; returns
    (host seconds, operations, one record per call). Failures are
    appended named by (workload, graph, program)."""
    from repro.oracle import assert_equivalent

    gs, expected = ctx["graphs"], ctx["expected"]
    sc = spark.sparkContext
    tracker = sc.statusTracker()

    def span(name, **attrs):
        return tracer.span(name, **attrs) if tracer else contextlib.nullcontext()

    recs = []
    t_pass = time.perf_counter()
    for name, program, gname in CALLS:
        g = gs[gname]
        group = f"p{pass_idx}-{name}"
        rec = {"name": name, "jobs": 0, "rounds": 0, "subrounds": 0,
               "s": 0.0, "oracle_s": 0.0}
        try:
            sc.setJobGroup(group, name)
            t0 = time.perf_counter()
            with span("core." + program, graph=gname, call=name) as sp:
                result, stats = _run(spark, program, g)
            rec["s"] = time.perf_counter() - t0
            rec["jobs"] = len(tracker.getJobIdsForGroup(group))
            rec["rounds"], rec["subrounds"] = stats.rounds, stats.subrounds
            if tracer:
                sp["attrs"].update(jobs=rec["jobs"], rounds=stats.rounds,
                                   subrounds=stats.subrounds)
            sc.setJobGroup(group + "-oracle", name + " oracle")
            t0 = time.perf_counter()
            with span("oracle", graph=gname, call=name):
                if isinstance(result, np.ndarray):
                    ids = expected[gname]["id"].to_numpy()
                    result = spark.createDataFrame(
                        pd.DataFrame({"id": ids, "coreness": result[ids]})
                    )
                assert_equivalent(
                    result, "SELECT id, coreness FROM expected",
                    expected=expected[gname],
                )
            rec["oracle_s"] = time.perf_counter() - t0
        except Exception as e:  # a failed call is counted, the pass goes on
            why = " ".join(str(e).split())[:200]
            failures.append(("dataflow-small", gname, name, f"{type(e).__name__}: {why}"))
        recs.append(rec)
    return time.perf_counter() - t_pass, len(CALLS), recs


def traced(spark, ctx: dict, tracer, failures) -> tuple[int, dict]:
    """One pass with spans; returns (operations, per-layer metrics)."""
    with tracer.span("pass", workload="dataflow-small"):
        _, ops, recs = run_pass(spark, ctx, 0, failures, tracer)
    return ops, layer_metrics(recs)


def layer_metrics(recs: list[dict]) -> dict:
    jobs = sum(r["jobs"] for r in recs)
    sub = sum(r["subrounds"] for r in recs)
    secs = sum(r["s"] for r in recs)
    out = {
        "core.jobs": float(jobs),
        "core.rounds": float(sum(r["rounds"] for r in recs)),
        "core.subrounds": float(sub),
        "core.jobs_per_subround": jobs / sub if sub else 0.0,
        "core.s_per_subround": secs / sub if sub else 0.0,
        "oracle.s": float(sum(r["oracle_s"] for r in recs)),
    }
    for r in recs:
        out[f"core.{r['name']}_s"] = r["s"]
    return out
