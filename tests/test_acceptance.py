"""Acceptance suite: one test per criterion, each printing a summary line.

Run with `pytest tests/test_acceptance.py -v -s`.  Exact integer equality
throughout; sweeps are exhaustive at the stated desk-scale bounds.
"""

import math
import time

import pytest

from krpoly import (
    KRParams,
    check_perfect,
    eps_profile,
    highest_weight_elements,
    is_classical_hw,
    rmatrix_on_hw,
)
from krpoly.graph import build_graph
from krpoly.perfect import DominantWeight, ground_state_path
from krpoly.rmatrix import hw_support, rmatrix
from krpoly.verify import run_suite

from conftest import all_params, product_elements


def _report(number, title, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} [{title}]: PASS{suffix}")


def _run_checks(checks):
    failed = [c for c in checks if not c.ok]
    assert not failed, "; ".join(f"{c.name}: {c.detail}" for c in failed[:5])
    return len(checks)


GOLDEN_LEFT = {
    (((0,), (0,)), 1, ((0,), (1,))),
    (((0,), (1,)), 1, ((0,), (2,))),
    (((0,), (2,)), 1, ((0,), (3,))),
    (((0,), (3,)), 1, ((1,), (3,))),
    (((1,), (0,)), 1, ((1,), (1,))),
    (((1,), (1,)), 1, ((1,), (2,))),
    (((1,), (3,)), 0, ((1,), (2,))),
    (((1,), (2,)), 0, ((1,), (1,))),
    (((1,), (1,)), 0, ((1,), (0,))),
    (((1,), (0,)), 0, ((0,), (0,))),
    (((0,), (3,)), 0, ((0,), (2,))),
    (((0,), (2,)), 0, ((0,), (1,))),
}

GOLDEN_RIGHT = {
    (((0,), (0,)), 1, ((0,), (1,))),
    (((0,), (1,)), 1, ((1,), (1,))),
    (((1,), (1,)), 1, ((2,), (1,))),
    (((2,), (1,)), 1, ((3,), (1,))),
    (((1,), (0,)), 1, ((2,), (0,))),
    (((2,), (0,)), 1, ((3,), (0,))),
    (((3,), (1,)), 0, ((3,), (0,))),
    (((3,), (0,)), 0, ((2,), (0,))),
    (((2,), (0,)), 0, ((1,), (0,))),
    (((1,), (0,)), 0, ((0,), (0,))),
    (((2,), (1,)), 0, ((1,), (1,))),
    (((1,), (1,)), 0, ((0,), (1,))),
}


def _edge_set(graph):
    out = set()
    for a, l, b in graph.edges:
        va, vb = graph.vertices[a], graph.vertices[b]
        out.add(
            (
                tuple(f.rows[0] for f in va.factors),
                l,
                tuple(f.rows[0] for f in vb.factors),
            )
        )
    return out


def test_criterion_1_golden_graphs():
    start = time.monotonic()
    p11, p13 = KRParams(1, 1, 1), KRParams(1, 1, 3)
    left = build_graph(product_elements(p11, p13), range(2))
    right = build_graph(product_elements(p13, p11), range(2))
    assert len(left.vertices) == len(right.vertices) == 8
    assert len(left.edges) == len(right.edges) == 12
    assert _edge_set(left) == GOLDEN_LEFT
    assert _edge_set(right) == GOLDEN_RIGHT
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(1, "golden graphs", f"{elapsed:.3f}s")


def test_criterion_2_rank_one_closed_formulas():
    checked = 0
    for s1 in range(1, 5):
        for s2 in range(s1, 5):
            for x in product_elements(KRParams(1, 1, s1), KRParams(1, 1, s2)):
                a = x.factors[0].rows[0][0]
                b = x.factors[1].rows[0][0]
                if a + b <= s1:
                    want = (a, b)
                elif a + b <= s2:
                    want = (2 * a - s1 + b, s1 - a)
                else:
                    want = (a + s2 - s1, s1 - s2 + b)
                image = rmatrix(x)
                assert (
                    image.factors[0].rows[0][0],
                    image.factors[1].rows[0][0],
                ) == want
                checked += 1
    _report(2, "rank-one R-matrix formulas", f"{checked} elements")


def test_criterion_3_rmatrix_vs_oracle():
    total = 0
    for n in (1, 2, 3):
        total += _run_checks(run_suite("rmatrix", n, 3))
    _report(3, "R-matrix equals the isomorphism walked from 0 (x) 0", f"{total} products")


def test_criterion_4_shape_law():
    checked = 0
    for n in range(1, 6):
        for params1 in all_params(n, 3):
            for params2 in all_params(n, 3):
                forward = highest_weight_elements(params1, params2)
                backward = highest_weight_elements(params2, params1)
                by_weight = {y.classical_weight(): y for y in backward}
                assert len(by_weight) == len(backward)
                cells, _ = hw_support(params1, params2)
                for x in forward:
                    y = rmatrix_on_hw(x)
                    assert y.factors[1].total() == 0
                    assert is_classical_hw(y)
                    for p, q in cells:
                        assert y.factors[0].a(p, q) == x.factors[0].a(p, q)
                    assert by_weight[x.classical_weight()] == y
                    assert rmatrix(x) == y
                    checked += 1
    _report(4, "shape law on highest weight elements", f"{checked} elements")


def test_criterion_5_energy_closed_form():
    total = 0
    for n in (1, 2, 3):
        total += _run_checks(run_suite("energy", n, 3))
    _report(5, "energy closed form equals recursion oracle", f"{total} products")


def test_criterion_6_hw_census():
    checked = 0
    for n in range(1, 5):
        for params1 in all_params(n, 3):
            for params2 in all_params(n, 3):
                cells, bound = hw_support(params1, params2)
                k = len(cells) - 1
                expected = math.comb(bound + k + 1, k + 1)
                assert len(highest_weight_elements(params1, params2)) == expected
                scan = sum(
                    1 for x in product_elements(params1, params2) if is_classical_hw(x)
                )
                assert scan == expected
                checked += 1
    _report(6, "highest weight census", f"{checked} products")


def test_criterion_7_perfectness():
    count = 0
    for n in range(1, 5):
        for level in range(1, 4):
            for r in range(1, n + 1):
                report = check_perfect(KRParams(n, r, level))
                assert report.ok, report.violations[:3]
                count += 1
    _report(7, "perfectness with explicit distinguished elements", f"{count} crystals")


def test_criterion_8_ground_state_path():
    n = 3
    params = KRParams(n, n, 3)
    weight = DominantWeight((1, 0, 2, 0))
    path = ground_state_path(weight, params, 50)
    for k in range(50):
        expected = tuple(weight.coeffs[(t + k * n) % (n + 1)] for t in range(n + 1))
        assert path.weights[k].coeffs == expected
        assert path.elements[k].rows == (expected[:n],)
        assert eps_profile(path.elements[k]) == path.weights[k].rotate(n).coeffs
    assert path.period == n + 1
    _report(8, "ground-state path", "50 steps, period 4")


def test_criterion_9_structural_invariants():
    total = 0
    for n in range(1, 5):
        total += _run_checks(run_suite("ops", n, 2))
        total += _run_checks(run_suite("nakajima", n, 2))
        if n >= 2:
            total += _run_checks(run_suite("regular", n, 2))
    _report(9, "structural invariant suite", f"{total} checks")


def test_criterion_10_cardinality_oracle():
    total = 0
    for n in range(1, 5):
        total += _run_checks(run_suite("cardinality", n, 3))
    _report(10, "cardinality against tableau counts", f"{total} crystals")
