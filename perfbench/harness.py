"""Run plumbing shared by every workload: Spark session, operation ledger,
tracing spans with Spark job groups, memory high-water marks, digests.

Nothing here knows about a particular workload; ``workloads.py`` drives
the calls into ``repro.*`` and ``checks.py`` verifies their outputs.
"""
from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent  # the checkout
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"  # Spark local dirs, JVM and Python temp files


def driver_memory() -> str:
    """Same rule as the Tier-1 command: half of MemTotal in GiB, 2g..8g."""
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    g = int(line.split()[1]) // 2097152
                    return f"{min(8, max(2, g))}g"
    except OSError:
        pass
    return "2g"


def local_threads() -> int:
    return len(os.sched_getaffinity(0))


def start_spark():
    """One local SparkSession with the test fixture's settings.

    64 shuffle partitions, Arrow on, broadcast joins off, UI off; the
    master runs ``nproc`` threads. Everything JVM-side that writes files
    is pointed inside the checkout.
    """
    SCRATCH.mkdir(exist_ok=True)
    tmp = str(SCRATCH)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    os.environ["SPARK_LOCAL_DIRS"] = tmp
    os.environ["TMPDIR"] = tmp
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{local_threads()}] "
        f"--driver-memory {driver_memory()} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false "
        f"--conf spark.driver.extraJavaOptions='{java_opts}' "
        "pyspark-shell"
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.warehouse.dir", str(SCRATCH / "warehouse"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM process to end."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    if proc is not None:
        if proc.stdin:
            proc.stdin.close()  # the launcher exits when its stdin closes
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)


def _vm_hwm_kb(pid: int | str) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb(spark) -> tuple[float, float]:
    """High-water RSS of this Python driver and of the Spark JVM, in MB.

    Only the first is a metric: the JVM's swings by a third between runs
    of one workload (G1 sizes the heap by GC timing), so it is reported
    in the run's details instead."""
    py_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    jvm_pid = spark.sparkContext._jvm.java.lang.ProcessHandle.current().pid()
    return py_kb / 1024.0, _vm_hwm_kb(jvm_pid) / 1024.0


_TICKS = os.sysconf("SC_CLK_TCK")


def tree_cpu_s() -> float:
    """CPU seconds (user + system) spent so far by this process and every
    process below it: the Spark JVM, its Python daemon and workers.
    Descendants that have exited count through their parents' cutime and
    cstime."""
    children: dict[int, list[int]] = {}
    ticks: dict[int, int] = {}
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat") as f:
                stat = f.read()
        except OSError:  # the process ended meanwhile
            continue
        # after "pid (comm) ": state, ppid, ... utime, stime, cutime, cstime
        fields = stat[stat.rindex(")") + 2:].split()
        pid = int(entry.name)
        children.setdefault(int(fields[1]), []).append(pid)
        ticks[pid] = sum(int(x) for x in fields[11:15])
    total, todo = 0, [os.getpid()]
    while todo:
        pid = todo.pop()
        total += ticks.get(pid, 0)
        todo.extend(children.get(pid, ()))
    return total / _TICKS


class Stopwatch:
    """Wall seconds and process-tree CPU seconds of a block."""

    def __enter__(self):
        self._wall, self._cpu = time.perf_counter(), tree_cpu_s()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self._wall
        self.cpu = tree_cpu_s() - self._cpu


def median(xs: list[float]) -> float:
    if not xs:
        raise ValueError("no samples")
    return float(statistics.median(xs))


def digest_frames(frames: dict) -> str:
    """Content digest of named pandas frames, stable across processes."""
    import pandas as pd

    h = hashlib.sha256()
    for name in sorted(frames):
        df = frames[name]
        h.update(name.encode())
        h.update("\x1f".join(map(str, df.columns)).encode())
        h.update(pd.util.hash_pandas_object(df, index=False).to_numpy().tobytes())
    return h.hexdigest()[:16]


def digest_rows(rows) -> str:
    h = hashlib.sha256()
    for r in sorted(rows):
        h.update(repr(r).encode())
    return h.hexdigest()[:16]


@dataclass
class Ledger:
    """Counts every operation a run attempts: layer calls, queries,
    recommendations and checks. An operation that raises is counted as
    failed and re-raised; a check that fails also marks the run wrong."""

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    failures: list[str] = field(default_factory=list)

    @contextmanager
    def op(self, name: str):
        self.attempted += 1
        try:
            yield
        except Exception as e:
            self.failed += 1
            self.failures.append(f"{name}: {type(e).__name__}: {e}")
            raise

    def timed(self, name: str, fn, *args, **kwargs):
        """(result, seconds) of one operation."""
        with self.op(name):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            return out, time.perf_counter() - t0

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.correct = False
            self.failures.append(f"check {name} failed {detail}".rstrip())


class Tracer:
    """Spans around layer calls, each in its own Spark job group.

    ``span(layer, name)`` times the body and afterwards reads, from the
    status tracker, the tasks the group's jobs actually ran (stages that
    Spark skipped because their shuffle output was reused count zero).
    Spans are kept in memory; ``seconds`` and ``tasks`` sum them by layer.
    """

    def __init__(self, spark, ledger: Ledger):
        self.sc = spark.sparkContext
        self.ledger = ledger
        self.spans: list[dict] = []
        self._n = 0

    def _tasks(self, group: str) -> int:
        st = self.sc.statusTracker()
        n = 0
        for jid in st.getJobIdsForGroup(group):
            job = st.getJobInfo(jid)
            for sid in job.stageIds if job else ():
                stage = st.getStageInfo(sid)
                if stage is not None:
                    n += stage.numCompletedTasks
        return n

    @contextmanager
    def span(self, layer: str, name: str):
        self._n += 1
        group = f"perfbench-{self._n}"
        self.sc.setJobGroup(group, f"{layer}.{name}")
        rec = {"layer": layer, "name": name, "start": time.perf_counter()}
        try:
            with self.ledger.op(f"{layer}.{name}"):
                yield rec
        finally:
            rec["end"] = time.perf_counter()
            rec["tasks"] = self._tasks(group)
            self.sc.setJobGroup("perfbench-idle", "between spans")
            self.spans.append(rec)

    def durations(self, layer: str, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans
                if s["layer"] == layer and s["name"] == name]

    def seconds(self, layer: str, name: str) -> float:
        return sum(self.durations(layer, name))

    def tasks(self, layer: str) -> int:
        return sum(s["tasks"] for s in self.spans if s["layer"] == layer)


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def emit(ledger: Ledger, metrics: dict, info: dict) -> None:
    """Print the run's details, then the result object as the last line."""
    print(json.dumps({"info": info, "failures": ledger.failures}, default=str))
    sys.stdout.flush()
    print(json.dumps({
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
