"""One round of one workload, in a fresh interpreter.

    python bench/worker.py ROOT WORKLOAD SEED [--trace] [--check] [--setup-only]

Set-up imports krpoly and builds the seeded inputs, then prints ``ready``
so the parent can time it.  The timed phase runs every item once, with
the operator caches cold.  After it, ``--check`` runs each item's oracle
check, and ``--trace`` derives the per-layer metrics from the spans.  The
last line printed is the round's result as JSON.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import workloads
from speed import SpeedProbe
from tracing import Tracer, cache_stats, layer_metrics


def assert_cold_caches():
    """Every operator cache still in krpoly.patterns must be empty."""
    from krpoly import patterns

    for name, obj in vars(patterns).items():
        if hasattr(obj, "cache_info") and obj.cache_info().currsize:
            raise RuntimeError(f"patterns.{name} holds entries before the timed phase")


def run_items(workload, items, ctx, probe):
    """The timed phase: outputs (None where an item raised) and, per item,
    (start, end, seconds the speed probe took inside it).

    In-process workloads are sampled by a timer, so long items are covered.
    A workload that runs subprocesses is sampled between items here and on
    a timer inside each subprocess, so two probes never share the CPU.
    """
    outputs, times = [], []
    clock = time.perf_counter
    probe.sample()
    if workload.in_process:
        probe.start_timer()
    try:
        for item in items:
            probe.maybe_sample()
            spent = probe.spent
            start = clock()
            try:
                out = workload.run(item, ctx)
            except Exception:
                traceback.print_exc()
                out = None
            end = clock()
            times.append((start, end, probe.spent - spent))
            outputs.append(out)
    finally:
        probe.stop_timer()
    probe.sample()
    return outputs, times


def failed_units(workload, items, weights, outputs, ctx):
    """Units that raised, or that fail their oracle check or stored checksum."""
    failed = 0
    for item, weight, out in zip(items, weights, outputs):
        if out is None:
            failed += weight
            continue
        try:
            failed += min(weight, workload.check(item, out, ctx))
        except Exception:
            traceback.print_exc()
            failed += weight
    return failed


def setup(workload_name, seed):
    workload = workloads.WORKLOADS[workload_name]
    items = workload.make_inputs(seed)
    return workload, items, [workload.weight(item) for item in items]


def round_result(workload, items, weights, ctx, probe, tracer, check):
    try:
        outputs, times = run_items(workload, items, ctx, probe)
        item_s = [(end - start - spent) * probe.scale(start, end) for start, end, spent in times]
        cache = cache_stats()
        who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
        rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
        stdout_bytes = sum(len(v) for v in ctx.get("stdout", {}).values())
        result = {
            "wall_s": sum(item_s),
            "raw_wall_s": sum(end - start - spent for start, end, spent in times),
            "item_ms": [s * 1000.0 for s in item_s],
            "attempted": sum(weights),
            "failed": sum(w for w, o in zip(weights, outputs) if o is None),
            "rss_mb": rss_mb,
            "checksum": hashlib.sha256(repr(outputs).encode()).hexdigest(),
            # counts that tracing must not change
            "counts": {"cache": cache, "stdout_bytes": stdout_bytes},
        }
        if tracer:
            layers = traced_layers(tracer, workload.name, items, times, cache, stdout_bytes, ctx)
            # span times in reference seconds, at the round's mean speed
            factor = result["wall_s"] / result["raw_wall_s"]
            result["layers"] = {
                k: v * factor if k.endswith("_s") else v for k, v in layers.items()
            }
        if check:
            result["failed"] = failed_units(workload, items, weights, outputs, ctx)
    finally:
        shutil.rmtree(ctx["workdir"], ignore_errors=True)
    return result


def traced_layers(tracer, workload_name, items, times, cache, stdout_bytes, ctx):
    cli_times = {}
    if workload_name == "cli":
        # each command ran in its own traced interpreter: graft its spans
        # under a span for the command and sum its operator-cache counters
        cache = {"entries": 0, "hits": 0, "misses": 0}
        for item, (start, end, _) in zip(items, times):
            command = item[1][0]
            cli_times[command] = cli_times.get(command, 0.0) + (end - start)
            child = ctx["children"][item[0]]
            tracer.graft(f"cli.{command}", start, end, child["spans"])
            for key in cache:
                cache[key] += (child["cache"] or {}).get(key, 0)
    return layer_metrics(tracer.spans, cache, cli_times, stdout_bytes)


def main(argv):
    root, workload_name, seed = argv[0], argv[1], int(argv[2])
    flags = set(argv[3:])
    workload, items, weights = setup(workload_name, seed)
    tracer = Tracer() if "--trace" in flags else None
    if tracer:
        tracer.install()
    assert_cold_caches()
    print("ready", flush=True)
    probe = SpeedProbe()
    result = {}
    if "--setup-only" not in flags:
        workdir = Path(root) / ".bench_work" / f"{workload_name}-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        ctx = {"root": root, "workdir": workdir, "probe": probe, "trace": bool(tracer)}
        result = round_result(workload, items, weights, ctx, probe, tracer, "--check" in flags)
    if tracer:
        out = Path(root) / ".bench_work" / f"spans-{workload_name}-seed{seed}.json"
        out.write_text(json.dumps(tracer.spans), encoding="utf-8")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
