"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import itertools
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import workloads  # noqa: E402
import worker  # noqa: E402
from krpoly import KRParams, enumerate_crystal, patterns, validate_pattern  # noqa: E402

SEEDED = ("paths", "sparse_pairs", "cli")


def operator_caches():
    return [obj for obj in vars(patterns).values() if hasattr(obj, "cache_info")]


def listed_shapes():
    shapes = set(workloads.WORKLOADS["paths"].shapes)
    shapes |= {p for pair in workloads.WORKLOADS["sparse_pairs"].shapes for p in pair}
    shapes |= {p for _, group in workloads.Cli.seeded.values() for p in group}
    return sorted(shapes, key=lambda p: (p.n, p.r, p.s))


def staircase_max(rows, params):
    """Largest sum over every monotone staircase, by brute force."""
    nrows, ncols = params.num_rows, params.num_cols
    best = 0
    for downs in itertools.combinations(range(nrows + ncols - 2), nrows - 1):
        qi = pi = 0
        total = rows[0][0]
        for step in range(nrows + ncols - 2):
            if step in downs:
                qi += 1
            else:
                pi += 1
            total += rows[qi][pi]
        best = max(best, total)
    return best


def run_worker(workload, seed, *flags):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), str(ROOT), workload, str(seed), *flags],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={"PYTHONPATH": f"{ROOT / 'src'}:{BENCH_DIR}", "PYTHONHASHSEED": "0"},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "ready"
    return json.loads(lines[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    w = workloads.WORKLOADS[name]
    assert w.make_inputs(7) == w.make_inputs(7)


@pytest.mark.parametrize("name", SEEDED)
def test_different_seed_gives_different_inputs(name):
    w = workloads.WORKLOADS[name]
    assert w.make_inputs(1) != w.make_inputs(2)


def test_exhaustive_inputs_are_whole_crystals_for_every_seed():
    w = workloads.WORKLOADS["exhaustive"]
    assert w.make_inputs(1) == w.make_inputs(2)


@pytest.mark.parametrize("params", listed_shapes(), ids=lambda p: f"B{p.r},{p.s}n{p.n}")
def test_sampler_yields_valid_patterns_of_the_shape(params):
    rng = random.Random(0)
    seen = set()
    for _ in range(200):
        b = workloads.sample_pattern(rng, params)
        assert b.params == params
        assert len(b.rows) == params.num_rows
        assert all(len(row) == params.num_cols and min(row) >= 0 for row in b.rows)
        assert staircase_max(b.rows, params) <= params.s
        assert validate_pattern(b.rows, params) == b
        seen.add(b)
    assert len(seen) > 1


@pytest.mark.parametrize("name", SEEDED)
def test_inputs_use_every_listed_shape_equally(name):
    items = workloads.WORKLOADS[name].make_inputs(3)
    if name == "cli":
        for key, (_, shapes) in workloads.Cli.seeded.items():
            (dicts,) = [item[2] for item in items if item[0] == key]
            assert [(d["n"], d["r"], d["s"]) for d in dicts] == [(p.n, p.r, p.s) for p in shapes]
        return
    w = workloads.WORKLOADS[name]
    xs = [item[0] for item in items] if name == "paths" else items
    if name == "paths":
        got = [b.params for x in xs for b in x.factors]
    else:
        got = [tuple(b.params for b in x.factors) for x in xs]
    counts = {shape: got.count(shape) for shape in w.shapes}
    assert sum(counts.values()) == len(got)
    assert len(set(counts.values())) == 1


def test_crystal_size_matches_enumeration():
    for params in [KRParams(3, 2, 2), KRParams(4, 2, 3), KRParams(5, 3, 2), KRParams(6, 3, 3)]:
        assert workloads._crystal_size(params) == len(enumerate_crystal(params))
    assert workloads._crystal_size(KRParams(8, 4, 3)) == 116_424


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_input_generation_calls_no_operator_and_leaves_caches_cold(name, monkeypatch):
    for cache in operator_caches():
        cache.cache_clear()

    def forbidden(*args, **kwargs):
        raise AssertionError("input generation called a crystal operator")

    for attr, obj in list(vars(patterns).items()):
        if hasattr(obj, "cache_info"):
            monkeypatch.setattr(patterns, attr, forbidden)
    worker.setup(name, 5)
    monkeypatch.undo()
    assert all(cache.cache_info().currsize == 0 for cache in operator_caches())
    worker.assert_cold_caches()


def test_cold_cache_guard_rejects_a_warm_cache():
    patterns.zero_pattern(KRParams(3, 1, 1)).phi(1)
    with pytest.raises(RuntimeError):
        worker.assert_cold_caches()


def _outputs(name, items):
    w = workloads.WORKLOADS[name]
    return [w.run(item, {}) for item in items]


@pytest.mark.parametrize("name", ["paths", "sparse_pairs", "exhaustive"])
def test_perturbed_output_counts_as_failed(name):
    w = workloads.WORKLOADS[name]
    items = w.make_inputs(4)[:3]
    weights = [w.weight(item) for item in items]
    outputs = _outputs(name, items)
    assert worker.failed_units(w, items, weights, outputs, {}) == 0
    bad = list(outputs)
    if name == "paths":
        bad[1] = bad[1] - 1
    elif name == "sparse_pairs":
        bad[1] = (bad[1][0], bad[1][1] - 1)
    else:
        bad[1] = bad[1][:2] + (bad[1][2] + 1,)
    assert worker.failed_units(w, items, weights, bad, {}) > 0
    assert worker.failed_units(w, items, weights, [None] + outputs[1:], {}) == weights[0]


def test_cli_output_with_another_digest_or_exit_code_fails():
    w = workloads.WORKLOADS["cli"]
    (item,) = [i for i in w.make_inputs(1) if i[0] == "verify"]
    good = ("verify", 0, 1, workloads.EXPECTED["cli"]["verify"])
    assert w.check(item, good, {}) == 0
    assert w.check(item, good[:3] + ("0" * 64,), {}) == 1
    assert w.check(item, ("verify", 1) + good[2:], {}) == 1


def test_rounds_repeat_checksums_and_tracing_changes_no_count():
    first = run_worker("sparse_pairs", 11, "--check")
    again = run_worker("sparse_pairs", 11)
    traced = run_worker("sparse_pairs", 11, "--trace")
    assert first["failed"] == 0
    assert first["checksum"] == again["checksum"] == traced["checksum"]
    assert first["counts"] == again["counts"] == traced["counts"]
    assert first["counts"]["cache"]["entries"] == traced["layers"]["patterns.op_cache_entries"]
    assert traced["layers"]["rmatrix.calls"] >= len(first["item_ms"])
    assert traced["layers"]["energy.global_rmatrix_calls"] == 0



def test_layer_map_names_only_declared_metrics_and_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    layers = json.loads((BENCH_DIR / "layers.json").read_text(encoding="utf-8"))
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert [entry["metric"] for entry in layers["layers"]] == per_layer
    assert list(layers["workloads"]) == [w["name"] for w in spec["workloads"]]
    end_to_end = {m["name"] for m in spec["end_to_end"]} | {"*"}
    names = set(layers["workloads"]) | {"*"}
    for entry in layers["layers"] + layers["planned_changes"]:
        for metric, workload in entry["moves"] + entry.get("still", []):
            assert metric in end_to_end and workload in names
        assert set(entry.get("layers", [])) <= set(per_layer)
