"""Record end-to-end host times of one checkout in ``BENCH_<label>.json``.

    python scripts/record_bench.py LABEL

From the checkout that holds this script, it runs, one after another:
- ``perfbench/run.py --workload W --trace 0`` three times for each
  workload ``BENCHMARK.json`` declares, for its ``run_seconds``;
- ``perfbench/run.py --workload W --trace 1`` once for each workload,
  keeping its per-layer metrics (one traced pass; no median);
- ``python -m repro.tables.check`` three times, timing each run's wall
  clock; a run that finds a differing file stops the script.

It writes the median of the three runs of each number, the samples, the
number of usable CPUs and the checkout's git SHA to ``BENCH_<label>.json``
in the current directory. The file keeps one record per git SHA, so
running the script from two checkouts (a parent commit and a change) with
the same label puts their numbers side by side.
"""
from __future__ import annotations

import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUNS = 3
PERFBENCH_METRICS = ("wall_s", "setup_s", "peak_rss_mb")


def _git(*args: str) -> str:
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _summary(samples: list[float]) -> dict:
    return {"median": statistics.median(samples), "samples": samples}


def _run_perfbench(workload: str, seconds: float, trace: int) -> dict:
    """The JSON summary line of one ``perfbench/run.py`` run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def perfbench(workload: str, seconds: float) -> dict:
    """Median end-to-end metrics and failure counts of ``RUNS`` runs,
    and the per-layer metrics of one traced run."""
    runs = [_run_perfbench(workload, seconds, 0) for _ in range(RUNS)]
    out = {m: _summary([r["metrics"][m]["value"] for r in runs]) for m in PERFBENCH_METRICS}
    out["failed"] = [r["failed"] for r in runs]
    out["attempted"] = [r["attempted"] for r in runs]
    traced = _run_perfbench(workload, seconds, 1)
    out["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
    out["per_layer_failed"] = traced["failed"]
    return out


def tables_check() -> dict:
    """Median wall seconds of ``RUNS`` byte-identity checks of results/."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    walls = []
    for _ in range(RUNS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "repro.tables.check"],
            cwd=ROOT, env=env, capture_output=True, text=True, check=True,
        )
        walls.append(time.perf_counter() - t0)
    return _summary(walls)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python scripts/record_bench.py LABEL", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = {
        "git_sha": _git("rev-parse", "HEAD"),
        # False when src/ or perfbench/ differ from the recorded SHA.
        "clean": _git("status", "--porcelain", "--", "src", "perfbench") == "",
        "nproc": len(os.sched_getaffinity(0)),
        "runs": RUNS,
        "perfbench": {
            w["name"]: perfbench(w["name"], spec["run_seconds"])
            for w in spec["workloads"]
        },
        "tables_check_s": tables_check(),
    }
    path = pathlib.Path(f"BENCH_{argv[0]}.json")
    records = json.loads(path.read_text())["records"] if path.exists() else []
    records = [r for r in records if r["git_sha"] != record["git_sha"]] + [record]
    path.write_text(json.dumps({"label": argv[0], "records": records}, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
