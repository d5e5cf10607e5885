"""Record end-to-end host times of a change and its parent in ``BENCH_<label>.json``.

    python scripts/record_bench.py LABEL PARENT_CHECKOUT CHANGE_CHECKOUT

``PARENT_CHECKOUT`` and ``CHANGE_CHECKOUT`` are git clones of the
parent commit and of the change, side by side in one directory; the
script refuses two checkouts whose parent directories differ, since
where a checkout sits has moved ``dataflow-small``'s ``peak_rss_mb``
by about 2% for one and the same commit.
``BENCHMARK.json`` is read from the change checkout. The script runs
each measurement as a pair, one run on each checkout, and alternates
which checkout runs first from one pair to the next, so that host load
which changes over the recording falls on both sides alike. It runs:
- ``perfbench/run.py --workload W --trace 0``, ten pairs for each
  workload ``BENCHMARK.json`` declares, for its ``run_seconds``;
- ``perfbench/run.py --workload W --trace 1``, one pair for each
  workload, keeping its per-layer metrics (one traced pass; no median);
- ``python -m repro.tables.check``, five pairs, timing each run's wall
  clock; a run that finds a differing file stops the script;
- ``figs.fig12_subgraph()``, three pairs, each call timed inside a fresh
  Python process (graph generation included, imports excluded): Fig. 12
  runs on the driver, outside the ``check`` sweep's Spark fan-out.

While each untraced ``perfbench`` run and each ``tables.check`` run goes
on, a thread sums the ``Pss`` of the run's Python processes (the run's
own process and every Python descendant, Spark workers and the children
they fork included; the JVM is left out) from ``/proc/<pid>/smaps_rollup``
every 50 ms, and keeps the run's peak: ``tree_pss_mb`` per workload and
``tables_check_pss_mb``. ``perfbench``'s ``peak_rss_mb`` reads the
processes still alive at the end of a pass, so it never counts a child
that has exited; this peak does.

For each checkout it writes the median of its runs of each number, the
samples, the number of usable CPUs and the checkout's git SHA to
``BENCH_<label>.json`` in the current directory. The file holds
exactly the two records its verdict was computed from, each tagged with
its ``role`` (``parent`` or ``change``); recording again replaces the
file. For each workload and end-to-end metric of
``BENCHMARK.json`` it also writes a ``verdict``: both medians, their
ratio against the metric's bound, the number of pairs the change wins
(ties count for neither side) and the interquartile range of the
parent's runs, from which a no-regression verdict can be read, and
``gain_met``, whether the change wins at least 9 pairs in 10 and its
median beats the parent's by more than that IQR. ``tables.check``'s
wall clock, Fig. 12's seconds and the two PSS peaks get the same
verdict, with no bound.
"""
from __future__ import annotations

import json
import os
import pathlib
import statistics
import subprocess
import sys
import threading
import time

# Alternating pairs per measurement: a verdict on the benchmark's
# end-to-end metrics needs ten; the slower whole-table check gets a
# verdict from five, and Fig. 12 gets one from three.
PERFBENCH_PAIRS = 10
CHECK_PAIRS = 5
RUNS = 3
# The whole-table check's wall clock, judged like an end-to-end metric.
TABLES_CHECK = {"name": "tables_check_s", "unit": "s", "better": "lower", "bound": None}
FIG12 = {"name": "fig12_s", "unit": "s", "better": "lower", "bound": None}
TREE_PSS = {"name": "tree_pss_mb", "unit": "MiB", "better": "lower", "bound": None}
TABLES_CHECK_PSS = {
    "name": "tables_check_pss_mb", "unit": "MiB", "better": "lower", "bound": None,
}
# Seconds between two samples of a run's summed PSS.
PSS_PERIOD = 0.05


def _git(root: pathlib.Path, *args: str) -> str:
    try:
        return subprocess.run(
            ["git", "-C", str(root), *args], capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _summary(samples: list[float]) -> dict:
    return {"median": statistics.median(samples), "samples": samples}


def _pairs(roots: list[pathlib.Path], n: int, run) -> dict:
    """``run(root)`` for each root in ``n`` pairs, the first root of the
    pair alternating; returns each root's ``n`` results in order."""
    out = {root: [] for root in roots}
    for i in range(n):
        for root in roots[i % 2 :] + roots[: i % 2]:
            out[root].append(run(root))
    return out


def _python_tree_pss_mb(root_pid: int) -> float:
    """Summed ``Pss`` (MiB) of the Python processes among ``root_pid``
    and its descendants; processes that exit while being read count 0."""
    children: dict = {}
    comm = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            stat = pathlib.Path(f"/proc/{d}/stat").read_text()
        except OSError:
            continue
        # "pid (comm) state ppid ...": comm may hold spaces and parens.
        comm[int(d)] = stat[stat.index("(") + 1 : stat.rindex(")")]
        ppid = int(stat[stat.rindex(")") + 2 :].split()[1])
        children.setdefault(ppid, []).append(int(d))
    kib = 0
    todo = [root_pid]
    while todo:
        pid = todo.pop()
        todo += children.get(pid, [])
        if not comm.get(pid, "").startswith("python"):
            continue
        try:
            rollup = pathlib.Path(f"/proc/{pid}/smaps_rollup").read_text()
        except OSError:
            continue
        kib += next(
            (int(line.split()[1]) for line in rollup.splitlines() if line.startswith("Pss:")), 0
        )
    return kib / 1024


def _run_sampled(cmd: list[str], cwd: pathlib.Path, env=None) -> tuple[str, float]:
    """Run ``cmd`` to completion; return its stdout and the peak summed
    PSS (MiB) of its Python processes, sampled every ``PSS_PERIOD``."""
    proc = subprocess.Popen(
        cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    stop = threading.Event()
    peak = [0.0]

    def sample():
        while not stop.wait(PSS_PERIOD):
            peak[0] = max(peak[0], _python_tree_pss_mb(proc.pid))

    sampler = threading.Thread(target=sample)
    sampler.start()
    try:
        out, err = proc.communicate()
    finally:
        stop.set()
        sampler.join()
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, cmd, out, err)
    return out, peak[0]


def _run_perfbench(root: pathlib.Path, workload: str, seconds: float, trace: int) -> dict:
    """The JSON summary line of one ``perfbench/run.py`` run, with the
    run's peak summed Python PSS as ``tree_pss_mb``."""
    out, pss = _run_sampled(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root,
    )
    return {**json.loads(out.strip().splitlines()[-1]), "tree_pss_mb": pss}


def perfbench(
    roots: list[pathlib.Path], workload: str, seconds: float, metrics: list[str]
) -> dict:
    """Per root: end-to-end ``metrics`` and ``tree_pss_mb`` (median and
    samples) and failure counts of ``PERFBENCH_PAIRS`` runs, and the
    per-layer metrics of one traced run."""
    runs = _pairs(
        roots, PERFBENCH_PAIRS, lambda root: _run_perfbench(root, workload, seconds, 0)
    )
    traced = _pairs(roots, 1, lambda root: _run_perfbench(root, workload, seconds, 1))
    out = {}
    for root in roots:
        rs = runs[root]
        res = {m: _summary([r["metrics"][m]["value"] for r in rs]) for m in metrics}
        res["tree_pss_mb"] = _summary([r["tree_pss_mb"] for r in rs])
        res["failed"] = [r["failed"] for r in rs]
        res["attempted"] = [r["attempted"] for r in rs]
        (t,) = traced[root]
        res["per_layer"] = {k: v["value"] for k, v in t["metrics"].items()}
        res["per_layer_failed"] = t["failed"]
        out[root] = res
    return out


def verdict(parent: dict, change: dict, metric: dict) -> dict:
    """The pairwise comparison of one end-to-end ``metric`` (an entry of
    ``BENCHMARK.json``'s ``end_to_end``) between the ``parent``'s and
    the ``change``'s ``_summary`` of the same alternating pairs."""
    sign = 1 if metric["better"] == "lower" else -1
    pairs = list(zip(parent["samples"], change["samples"]))
    q1, _, q3 = statistics.quantiles(parent["samples"], n=4)
    wins = sum(sign * (c - p) < 0 for p, c in pairs)
    return {
        "better": metric["better"],
        "bound": metric["bound"],
        "parent_median": parent["median"],
        "change_median": change["median"],
        "ratio": change["median"] / parent["median"],
        "pairs": len(pairs),
        "change_wins": wins,
        "parent_wins": sum(sign * (c - p) > 0 for p, c in pairs),
        "parent_iqr": q3 - q1,
        # A gain: the change wins at least 9 pairs in 10, and its median
        # beats the parent's by more than the parent's IQR.
        "gain_met": wins >= 0.9 * len(pairs)
        and sign * (parent["median"] - change["median"]) > q3 - q1,
    }


def _tables_check(root: pathlib.Path) -> tuple[float, float]:
    """Wall seconds and peak summed Python PSS (MiB) of one byte-identity
    check of ``root``'s results/."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    t0 = time.perf_counter()
    _, pss = _run_sampled([sys.executable, "-m", "repro.tables.check"], cwd=root, env=env)
    return time.perf_counter() - t0, pss


def _fig12(root: pathlib.Path) -> float:
    """Seconds of one ``figs.fig12_subgraph()`` call in ``root``'s code."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    code = (
        "import time\n"
        "from repro.tables import figs\n"
        "t0 = time.perf_counter()\n"
        "figs.fig12_subgraph()\n"
        "print(time.perf_counter() - t0)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(
            "usage: python scripts/record_bench.py LABEL PARENT_CHECKOUT CHANGE_CHECKOUT",
            file=sys.stderr,
        )
        return 2
    label, roots = argv[0], [pathlib.Path(a).resolve() for a in argv[1:]]
    if roots[0].parent != roots[1].parent or roots[0] == roots[1]:
        print(
            f"record_bench: {roots[0]} and {roots[1]} must be two checkouts in the "
            "same directory",
            file=sys.stderr,
        )
        return 2
    spec = json.loads((roots[1] / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    benches = {
        w["name"]: perfbench(roots, w["name"], spec["run_seconds"], [m["name"] for m in metrics])
        for w in spec["workloads"]
    }
    checks = _pairs(roots, CHECK_PAIRS, _tables_check)
    check = {  # per metric, per root: the summary of its check runs
        m["name"]: {root: _summary([run[i] for run in checks[root]]) for root in roots}
        for i, m in enumerate((TABLES_CHECK, TABLES_CHECK_PSS))
    }
    fig12 = {root: _summary(runs) for root, runs in _pairs(roots, RUNS, _fig12).items()}
    path = pathlib.Path(f"BENCH_{label}.json")
    records = [
        {
            "role": role,
            "git_sha": _git(root, "rev-parse", "HEAD"),
            # False when src/ or perfbench/ differ from the recorded SHA.
            "clean": _git(root, "status", "--porcelain", "--", "src", "perfbench") == "",
            "nproc": len(os.sched_getaffinity(0)),
            "runs": {"perfbench": PERFBENCH_PAIRS, "tables_check": CHECK_PAIRS,
                     "fig12": RUNS},
            "perfbench": {name: res[root] for name, res in benches.items()},
            **{name: res[root] for name, res in check.items()},
            "fig12_s": fig12[root],
        }
        for role, root in zip(("parent", "change"), roots)
    ]
    verdicts = {
        name: {m["name"]: verdict(res[roots[0]][m["name"]], res[roots[1]][m["name"]], m)
               for m in [*metrics, TREE_PSS]}
        for name, res in benches.items()
    }
    verdicts["tables.check"] = {
        m["name"]: verdict(check[m["name"]][roots[0]], check[m["name"]][roots[1]], m)
        for m in (TABLES_CHECK, TABLES_CHECK_PSS)
    }
    verdicts["fig12"] = {FIG12["name"]: verdict(fig12[roots[0]], fig12[roots[1]], FIG12)}
    path.write_text(
        json.dumps({"label": label, "records": records, "verdict": verdicts}, indent=2) + "\n"
    )
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
