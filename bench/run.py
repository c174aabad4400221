"""krpoly benchmark: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (BENCHMARK.json says why each was chosen, layers.json which
layer metric should move which end-to-end metric):
  paths         global_energy of seeded 8-fold elements at n=5
  sparse_pairs  rmatrix + local_energy on seeded pairs at n=8
  exhaustive    oracles, graph, regularity and perfectness on whole crystals
  cli           krpoly subcommands as subprocesses, one at a time

Each round is a fresh interpreter (worker.py), so every timed phase starts
with cold operator caches, as a user's script or CLI call does.  All of
them run on one CPU.  Rounds repeat until --seconds is used up (at least
MIN_ROUNDS); times and rates are medians over rounds, latency percentiles
are over the items, each item taken at its median over the rounds.  Times
are reference seconds (speed.py): raw seconds corrected for the host's
speed at the time.  Set-up
(interpreter start, import, input generation) is timed from spawn until
the worker reports ready, scaled by the speed this process measures just
before, over at least SETUP_SAMPLES interpreters.  The first round also
runs the correctness gate; later rounds must reproduce its output checksum
and counters.

End-to-end metrics (--trace 0), per workload:
  setup_s, wall_s (timed phase), items_per_s, latency_p50_ms and
  latency_p95_ms (per item: path, pair, verification job, command),
  peak_rss_mb (worker, or the largest subprocess for cli).
Failed items (raised, wrong exit code, disagreeing with an oracle or a
stored checksum) are reported as ``failed`` out of ``attempted``.

With --trace 1 each round is an untraced interpreter followed by a traced
one, which records spans around krpoly's public functions (tracing.py)
and yields the per-layer metrics.  Tracing must not change the output
checksum or the operator-cache counters, and count metrics must repeat
exactly across traced rounds.  Spans are written to
.bench_work/spans-WORKLOAD-seedN.json.

The last stdout line is the JSON result; the line before it records the
Python version, CPU count, git SHA (if the checkout has .git) and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from speed import WINDOW, SpeedProbe, compute_loop

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("paths", "sparse_pairs", "exhaustive", "cli")
MIN_ROUNDS = 3
SETUP_SAMPLES = 9
ROUND_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH_DIR)])
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload, seed, *flags):
    """One worker interpreter; its result dict plus the measured ``setup_s``."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), str(ROOT), workload, str(seed), *flags]
    # only the compute part: the memory walk's cache state in this mostly
    # idle process varies from spawn to spawn
    probe = SpeedProbe(compute_loop)
    for _ in range(WINDOW):
        probe.sample()
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
    killer = threading.Timer(ROUND_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest, _ = proc.communicate()
    finally:
        killer.cancel()
        proc.kill()
        proc.wait()
    if proc.returncode != 0 or ready.strip() != "ready":
        raise BenchError(f"worker {workload} {' '.join(flags)} exited with {proc.returncode}")
    result = json.loads(rest.splitlines()[-1])
    result["setup_s"] = setup_s * probe.scale(start)
    result["raw_setup_s"] = setup_s
    return result


def run_rounds(workload, seed, seconds, flag_sets, min_rounds):
    """Repeat the flag sets (one interpreter each) until ``seconds`` is used up."""
    rounds = []
    begin = time.perf_counter()
    durations = []
    while True:
        start = time.perf_counter()
        group = [spawn(workload, seed, *flags) for flags in flag_sets(len(rounds) == 0)]
        rounds.append(group)
        durations.append(time.perf_counter() - start)
        elapsed = time.perf_counter() - begin
        if len(rounds) >= min_rounds and elapsed + statistics.median(durations) > seconds:
            return rounds


def setup_times(workload, seed, rounds):
    times = [r["setup_s"] for group in rounds for r in group]
    while len(times) < SETUP_SAMPLES:
        times.append(spawn(workload, seed, "--setup-only")["setup_s"])
    return statistics.median(times)


def consistent(results, key):
    return all(r[key] == results[0][key] for r in results)


def plain_run(workload, seed, seconds):
    rounds = run_rounds(
        workload, seed, seconds, lambda first: [["--check"] if first else []], MIN_ROUNDS
    )
    results = [group[0] for group in rounds]
    walls = [r["wall_s"] for r in results]
    # every round runs the same items: each item's median over the rounds,
    # then percentiles over the items
    item_ms = [statistics.median(ms) for ms in zip(*(r["item_ms"] for r in results))]
    metrics = {
        "setup_s": setup_times(workload, seed, rounds),
        "wall_s": statistics.median(walls),
        "items_per_s": statistics.median(r["attempted"] / r["wall_s"] for r in results),
        "latency_p50_ms": statistics.median(item_ms),
        "latency_p95_ms": statistics.quantiles(item_ms, n=100, method="inclusive")[94],
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in results),
    }
    correct = consistent(results, "checksum") and consistent(results, "counts")
    return results, metrics, correct


def traced_run(workload, seed, seconds):
    rounds = run_rounds(
        workload, seed, seconds, lambda first: [["--check"] if first else [], ["--trace"]], 1
    )
    plain = [group[0] for group in rounds]
    traced = [group[1] for group in rounds]
    # tracing must leave the outputs and the work done unchanged
    correct = consistent(plain + traced, "checksum") and consistent(plain + traced, "counts")
    units = declared_units("per_layer")
    metrics = {}
    for name, unit in units.items():
        if name == "trace.overhead_frac":
            continue
        values = [r["layers"][name] for r in traced]
        if unit == "s":
            metrics[name] = statistics.median(values)
        else:
            correct = correct and all(v == values[0] for v in values)
            metrics[name] = values[0]
    metrics["trace.overhead_frac"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in plain)
        - 1.0
    )
    return plain + traced, metrics, correct


def declared_units(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def git_sha():
    """Commit of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "krpoly" / "__init__.py").is_file():
        sys.stderr.write(f"krpoly sources not found under {ROOT / 'src'}\n")
        return 2
    # one CPU for this process and every interpreter it starts, so the
    # speed probe measures the CPU the timed work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        run = traced_run if args.trace else plain_run
        results, metrics, correct = run(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    section = "per_layer" if args.trace else "end_to_end"
    units = declared_units(section)
    if set(units) != set(metrics):
        sys.stderr.write(f"metrics {sorted(metrics)} differ from {section} {sorted(units)}\n")
        return 1
    failed = sum(r["failed"] for r in results)
    meta = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "interpreters": len(results),
        "raw_wall_s": statistics.median(r["raw_wall_s"] for r in results),
        "raw_setup_s": statistics.median(r["raw_setup_s"] for r in results),
    }
    print(json.dumps({"run": meta}))
    print(
        json.dumps(
            {
                "correct": correct and failed == 0,
                "attempted": sum(r["attempted"] for r in results),
                "failed": failed,
                "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
