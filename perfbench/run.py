"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout: the program is imported from ``src/``.
With ``--trace 0`` the last stdout line holds the end-to-end metrics of
the workload; with ``--trace 1`` it holds the per-layer metrics of a
separate traced pass over every part, the same for each workload. Both
sets of names are those ``BENCHMARK.json`` lists; a run that measured
others exits with code 1. The line before it carries the run's details:
input and output digests, round counts, check results.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys
import time

T0 = time.perf_counter()

from harness import (  # noqa: E402
    ROOT, SCRATCH, SRC, Ledger, Stopwatch, Tracer, emit, median, metric, peak_rss_mb,
    start_spark, stop_spark, tree_cpu_s,
)

SETUP_REPEATS = 3


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def manifest_metrics(trace: int) -> set[str]:
    """The metric names BENCHMARK.json promises for this kind of run."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in manifest["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    ledger = Ledger()
    spark = start_spark()
    try:
        session_s, session_cpu_s = time.perf_counter() - T0, tree_cpu_s()
        classes = workloads.TRACED if args.trace else workloads.WORKLOADS[args.workload]
        parts = [cls(spark, ledger) for cls in classes]
        gens = []
        for _ in range(1 if args.trace else SETUP_REPEATS):  # setup_s is untraced
            with Stopwatch() as sw:
                for part in parts:
                    part.generate(args.seed)
            gens.append(sw)
        with Stopwatch() as warm:
            for part in parts:
                part.warm_up(args.seed)
        info = {"workload": args.workload, "seed": args.seed, "session_s": session_s,
                "warm_up_s": warm.wall, "generate_s": [g.wall for g in gens],
                "setup_wall_s": session_s + warm.wall + median([g.wall for g in gens]),
                "setup_cpu_s": session_cpu_s + warm.cpu + median([g.cpu for g in gens])}
        metrics: dict[str, dict] = {}
        t0 = time.perf_counter()
        for part in parts:
            name = type(part).__name__.lower()
            info[name] = part.info()
            if args.trace:
                tracer = Tracer(spark, ledger)
                part_metrics = part.trace(tracer)
                info.setdefault("spans", []).extend(
                    (s["layer"], s["name"], round(s["end"] - s["start"], 4), s["tasks"])
                    for s in tracer.spans)
            else:
                part_metrics, info[f"{name}_run"] = part.run(args.seconds / len(parts))
            # parts of one workload report disjoint end-to-end metrics;
            # per-layer metrics of a layer several parts use add up
            for key, m in part_metrics.items():
                if key in metrics:
                    m = metric(metrics[key]["value"] + m["value"], m["unit"])
                metrics[key] = m
        if not args.trace:
            # CPU seconds, like every timing metric: on a shared host the
            # wall clock of one run moves with other tenants' load
            metrics["setup_s"] = metric(info["setup_cpu_s"], "s")
            py_mb, info["jvm_peak_rss_mb"] = peak_rss_mb(spark)
            metrics["driver_peak_rss_mb"] = metric(py_mb, "MB")
        info["measured_s"] = time.perf_counter() - t0
    finally:
        stop_spark(spark)
        shutil.rmtree(SCRATCH, ignore_errors=True)
    info["total_s"] = time.perf_counter() - T0
    want = manifest_metrics(args.trace)
    if set(metrics) != want:
        print(f"perfbench: metrics differ from BENCHMARK.json: missing "
              f"{sorted(want - set(metrics))}, extra {sorted(set(metrics) - want)}",
              file=sys.stderr)
        return 1
    emit(ledger, metrics, info)
    return 0


if __name__ == "__main__":
    sys.exit(main())
