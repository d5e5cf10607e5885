"""Spark session, environment and process bookkeeping for the benchmark.

Everything the benchmark fixes about the Spark target lives here: the
master (``local[N]`` with N = the CPUs this process may run on), the
driver memory, the shuffle partitions and the Arrow setting. It also
keeps every file Spark, the JVM and Python write inside ``.perfbench/``
at the checkout root, and reads the peak resident memory of the
benchmark's own process tree from ``/proc``.
"""
from __future__ import annotations

import os
import pathlib
import shlex
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
TMP = OUT / "tmp"

# Fixed by the benchmark, not inherited from conftest.py (64) or
# jobs/_common.py (16): one value for every workload and every commit.
SHUFFLE_PARTITIONS = 16
DRIVER_MEMORY = "2g"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def configure() -> None:
    """Point imports, temporary files and the JVM launch at this checkout.

    Must run before ``pyspark`` is imported: the submit arguments are
    read when the JVM starts, and the Python workers inherit
    ``PYTHONPATH`` from it.
    """
    TMP.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(SRC))
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    os.environ["TMPDIR"] = str(TMP)
    java_opts = f"-XX:-UsePerfData -Djava.io.tmpdir={TMP}"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{nproc()}]",
            f"--driver-memory {DRIVER_MEMORY}",
            f"--driver-java-options {shlex.quote(java_opts)}",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            f"--conf spark.local.dir={shlex.quote(str(TMP))}",
            f"--conf spark.sql.warehouse.dir={shlex.quote(str(TMP / 'warehouse'))}",
            "pyspark-shell",
        ]
    )


def start():
    """Start (or restart) the session and run one trivial SQL job and one
    trivial Python job, which starts the Python workers."""
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", SHUFFLE_PARTITIONS)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    spark.range(1).count()
    n = nproc()
    spark.sparkContext.parallelize(range(n), n).map(lambda x: x).count()
    return spark


def timed_start(since: float | None = None):
    """(session, seconds from ``since``, default now, to a finished start)."""
    t0 = time.perf_counter() if since is None else since
    spark = start()
    return spark, time.perf_counter() - t0


def shutdown(spark) -> None:
    """Stop the session, then the JVM, and wait until it has exited."""
    from pyspark import SparkContext

    spark.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the gateway server exits on EOF
        proc.wait(timeout=60)


def tree_peak_rss_mb(pid: int | None = None) -> dict:
    """Summed VmHWM, in MiB, over ``pid`` and its live descendants, split
    into ``python`` (this driver and the Python workers) and ``jvm``.

    A sum of per-process peaks, so pages shared after fork count once
    per process; it compares runs, it does not size a machine. The JVM
    is kept apart because its resident heap follows garbage-collection
    timing more than the program.
    """
    pid = os.getpid() if pid is None else pid
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(entry))
    total_kb = {"python": 0, "jvm": 0}
    stack = [pid]
    while stack:
        p = stack.pop()
        try:
            with open(f"/proc/{p}/status") as f:
                status = dict(line.split(":", 1) for line in f if ":" in line)
        except OSError:
            continue
        if "VmHWM" in status:
            kind = "jvm" if status["Name"].strip() == "java" else "python"
            total_kb[kind] += int(status["VmHWM"].split()[0])
        stack.extend(children.get(p, []))
    return {k: v / 1024.0 for k, v in total_kb.items()}


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git;
    "unknown" outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy
    import pyspark

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": nproc(),
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "pyspark": pyspark.__version__,
        "numpy": numpy.__version__,
        "shuffle_partitions": SHUFFLE_PARTITIONS,
        "driver_memory": DRIVER_MEMORY,
    }
