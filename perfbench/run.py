"""Host-time benchmark of the k-core reproduction.

    python3 perfbench/run.py --workload sim --seed 1 --seconds 20 --trace 0

Workloads: ``sim`` (a ``run_cells`` sweep of the machine simulator over
lattice and hub graphs) and ``dataflow-small`` (the Spark DataFrame
programs of ``repro.core``). Everything is timed in host seconds; the simulated
seconds are outputs that are checked against the committed
``results/*.csv``, never metrics.

With ``--trace 0`` the run starts one Spark session cold (its time is
the per-layer ``spark.setup_cold_s``), runs one untimed warm-up pass,
then repeats passes until ``--seconds`` have gone by. Before each pass it restarts the SparkContext, so every pass
meets fresh Python workers with empty ``load_graph`` caches, as a table
job does. It reports medians:
- ``setup_s``: a restarted session's start, until a trivial SQL job and
  a trivial Python job have finished (at least two restarts a run). The
  cold start, from process start through the JVM launch, is one sample
  a run and costs ~15 s on 4 vCPUs, so it is the per-layer
  ``spark.setup_cold_s``;
- ``wall_s``: the pass's workload body;
- ``peak_rss_mb``: summed VmHWM of this process and the Python workers
  at the end of the pass (the JVM's is the per-layer
  ``spark.jvm_rss_mb``).

With ``--trace 1`` the run makes one pass the same way, then repeats
the workload with spans around each layer call, writes the spans to
``.perfbench/spans-<workload>-seed<seed>.jsonl`` and reports the
per-layer numbers. On ``sim`` the traced cells run in this process,
through the functions ``run_cells`` calls.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. A failed operation (one that raises, a
coreness that is not exact, or a simulated row that disagrees with the
committed results) is named on its own line before it.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import session  # noqa: E402

# --workload -> the module that runs it; each has setup(seed, root),
# run_pass(spark, ctx, i, failures) and traced(spark, ctx, tracer, failures).
WORKLOADS = {"sim": "sim_workload", "dataflow-small": "dataflow_workload"}
MIN_SETUPS = 2
MAX_PASSES = 20

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER = {
    "spark.setup_cold_s": "s",
    "spark.jvm_rss_mb": "MiB",
    "graphs.load_graph_s": "s",
    "graphs.edges": "count",
    "seq.bz_s": "s",
    "seq.verify_s": "s",
    "simcpu.local_s": "s",
    "simcpu.batch_s": "s",
    "simcpu.local_ns_per_unit": "ns",
    "simcpu.batch_ns_per_unit": "ns",
    "simcpu.units_per_s": "1/s",
    "simcpu.subrounds": "count",
    "simcpu.rounds": "count",
    "simcpu.resamples": "count",
    "simcpu.restarts": "count",
    "bucket.s": "s",
    "bucket.calls": "count",
    "bucket.scanned": "count",
    "bucket.moves": "count",
    "tables.cells": "count",
    "tables.distinct_cells": "count",
    "tables.cell_s_p50": "s",
    "tables.cell_s_max": "s",
    "tables.sweep_s": "s",
    "tables.traced_s": "s",
    "tables.parallel_eff": "ratio",
    "core.jobs": "count",
    "core.rounds": "count",
    "core.subrounds": "count",
    "core.jobs_per_subround": "ratio",
    "core.s_per_subround": "s",
    "core.dataflow_gaps_s": "s",
    "core.dataflow4_gaps_s": "s",
    "core.vgc_mesh_s": "s",
    "oracle.s": "s",
}


def warmup(wl, spark, ctx: dict) -> None:
    """Untimed: one whole pass, so no timed pass carries the JVM's first
    compile of its Spark paths. A first pass took 5-25% (``sim``) and up
    to 50% (``dataflow-small``) longer than the next on 4 vCPUs, even
    after a smaller warm-up. Its failures are not counted: every timed
    pass runs and checks the same operations on the same inputs."""
    wl.run_pass(spark, ctx, "warm", [])


def restart(spark):
    """Stop ``spark``; return (new session, seconds its start took)."""
    spark.stop()
    return session.timed_start()


def untraced(wl, ctx: dict, seconds: float, failures: list) -> tuple[dict, int]:
    setups, walls, rss = [], [], []
    attempted = 0
    spark, _ = session.timed_start(since=T_START)
    try:
        warmup(wl, spark, ctx)
        t_budget = time.perf_counter()
        for i in range(MAX_PASSES):
            spark, s = restart(spark)
            setups.append(s)
            wall, ops, _ = wl.run_pass(spark, ctx, i, failures)
            attempted += ops
            walls.append(wall)
            rss.append(session.tree_peak_rss_mb()["python"])
            if time.perf_counter() - t_budget >= seconds:
                break
        while len(setups) < MIN_SETUPS:
            spark, s = restart(spark)
            setups.append(s)
    finally:
        session.shutdown(spark)
    print(f"# passes {len(walls)} wall_s {walls} setup_s {setups}", flush=True)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(rss),
    }, attempted


def traced(wl, ctx: dict, trace_id: str, provenance: dict,
           failures: list) -> tuple[dict, int]:
    from spans import Tracer

    tracer = Tracer(trace_id)
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    spark, cold = session.timed_start(since=T_START)
    metrics["spark.setup_cold_s"] = cold
    try:
        warmup(wl, spark, ctx)
        spark, _ = restart(spark)
        attempted, layers = wl.traced(spark, ctx, tracer, failures)
        metrics["spark.jvm_rss_mb"] = session.tree_peak_rss_mb()["jvm"]
    finally:
        session.shutdown(spark)
    metrics.update(layers)
    path = session.OUT / f"spans-{trace_id}.jsonl"
    tracer.dump(path, {"provenance": provenance, "metrics": metrics})
    print(f"# spans {path}")
    return metrics, attempted


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)
    if not (session.SRC / "repro").is_dir():
        print(f"perfbench: no package at {session.SRC / 'repro'}", file=sys.stderr)
        return 2
    session.configure()
    failures: list = []
    wl = importlib.import_module(WORKLOADS[args.workload])
    ctx = wl.setup(args.seed, session.ROOT)
    provenance = session.provenance(args.workload, args.seed, args.seconds, args.trace)
    print("# provenance " + json.dumps(provenance))
    if args.trace:
        trace_id = f"{args.workload}-seed{args.seed}"
        metrics, attempted = traced(wl, ctx, trace_id, provenance, failures)
        units = PER_LAYER
    else:
        metrics, attempted = untraced(wl, ctx, args.seconds, failures)
        units = END_TO_END
    for w, g, a, why in failures:
        print(f"FAILED {w} {g} {a}: {why}")
    failed = len(failures)
    print(f"# failed_frac {failed / attempted} ({failed}/{attempted})")
    for name, value in metrics.items():
        print(f"# {name} = {value} {units[name]}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    k: {"value": v, "unit": units[k]} for k, v in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
