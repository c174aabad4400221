import importlib
import math
import random
from collections import Counter

import pytest

from krpoly import (
    KRParams,
    NotHighestWeight,
    OracleFailure,
    SizeLimitExceeded,
    enumerate_crystal,
    highest_weight_elements,
    is_classical_hw,
    local_energy_oracle,
    rmatrix_on_hw,
    rmatrix_oracle,
    to_highest_weight,
)
from krpoly.rmatrix import hw_support, rmatrix

from conftest import (
    all_params,
    cell,
    hw_element,
    pair,
    pat,
    product_elements,
    random_element,
    swap_at,
)


def test_hw_elements_rank_one_example():
    hw = highest_weight_elements(KRParams(1, 1, 1), KRParams(1, 1, 3))
    assert hw == [
        pair(cell(1, 1, 0), cell(1, 3, 0)),
        pair(cell(1, 1, 1), cell(1, 3, 0)),
    ]


def test_hw_support_and_bound():
    cells, bound = hw_support(KRParams(7, 4, 2), KRParams(7, 5, 3))
    assert cells == ((4, 5), (3, 6), (2, 7))
    assert bound == 2
    cells2, _ = hw_support(KRParams(7, 5, 3), KRParams(7, 4, 2))
    assert cells2 == cells  # classification is symmetric in min/max


def test_hw_census_matches_binomial_and_scan():
    for params1 in all_params(3, 2):
        for params2 in all_params(3, 2):
            hw = highest_weight_elements(params1, params2)
            _, bound = hw_support(params1, params2)
            k = len(hw_support(params1, params2)[0]) - 1
            assert len(hw) == math.comb(bound + k + 1, k + 1)
            scanned = [x for x in product_elements(params1, params2) if is_classical_hw(x)]
            assert sorted(hw, key=lambda x: x.sort_key()) == scanned


def test_rmatrix_on_hw_keeps_entries_and_swaps_shapes():
    p1, p2 = KRParams(7, 4, 2), KRParams(7, 5, 3)
    x = hw_element(p1, p2, (2, 1, 1))
    y = rmatrix_on_hw(x)
    assert y.factors[0].params == p2
    assert y.factors[1].params == p1
    assert y.factors[1].total() == 0
    for (p, q) in hw_support(p1, p2)[0]:
        assert y.factors[0].a(p, q) == x.factors[0].a(p, q)
    assert y.factors[0].rows == ((0, 0, 0, 2, 0), (0, 0, 1, 0, 0), (0, 1, 0, 0, 0))
    assert is_classical_hw(y)
    assert y.classical_weight() == x.classical_weight()


def test_rmatrix_on_hw_rejects_non_hw():
    x = pair(cell(1, 1, 0), cell(1, 3, 1))
    with pytest.raises(NotHighestWeight):
        rmatrix_on_hw(x)


OFF_DIAGONAL = pair(pat(3, 2, 2, [[1, 0], [0, 0]]), pat(3, 2, 1, [[0, 0], [0, 0]]))


@pytest.mark.parametrize(
    "x, message",
    [
        (pair(cell(1, 1, 0), cell(1, 3, 1)), "second factor of a highest weight element"),
        (OFF_DIAGONAL, r"entry off the anti-diagonal at \(1, 2\)"),
    ],
)
def test_rmatrix_on_hw_rejects_forged_hw(monkeypatch, x, message):
    # no real element reaches these checks: a classical highest weight
    # element has a zero second factor and lives on the anti-diagonal
    module = importlib.import_module("krpoly.rmatrix")
    monkeypatch.setattr(module, "is_classical_hw", lambda x: True)
    with pytest.raises(NotHighestWeight, match=message):
        rmatrix_on_hw(x)


def test_generator_is_fixed():
    x = pair(cell(1, 1, 0), cell(1, 3, 0))
    assert rmatrix(x) == pair(cell(1, 3, 0), cell(1, 1, 0))


def test_rank_one_closed_formulas():
    # three regimes depending on where A+B sits relative to s1 <= s2
    for s1 in range(1, 4):
        for s2 in range(s1, 4):
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
                got = (image.factors[0].rows[0][0], image.factors[1].rows[0][0])
                assert got == want


def test_transport_reaches_hw_with_smallest_colors():
    x = pair(cell(1, 1, 1), cell(1, 3, 3))
    hw, word = to_highest_weight(x)
    assert is_classical_hw(hw)
    assert word == (1, 1, 1, 1)


def test_oracle_agrees_with_transport_and_involutes():
    for params1 in all_params(2, 2):
        for params2 in all_params(2, 2):
            oracle = rmatrix_oracle(params1, params2)
            reverse = rmatrix_oracle(params2, params1)
            for x, y in oracle.items():
                assert rmatrix(x) == y
                assert reverse[y] == x
                assert x.affine_weight() == y.affine_weight()


def test_rmatrix_commutes_with_all_operators():
    params1, params2 = KRParams(2, 1, 2), KRParams(2, 2, 1)
    for x in product_elements(params1, params2):
        y = rmatrix(x)
        for l in range(3):
            fx = x.f(l)
            fy = y.f(l)
            assert (fx is None) == (fy is None)
            if fx is not None:
                assert rmatrix(fx) == fy


def single_step_raise(x):
    """Reference: one raising step at a time, smallest raisable color first."""
    word = []
    while True:
        for l in range(1, x.n + 1):
            if x.eps(l) > 0:
                x = x.e(l)
                word.append(l)
                break
        else:
            return x, tuple(word)


def test_whole_string_raising_matches_single_steps():
    rng = random.Random(7)
    crystals = [enumerate_crystal(p) for p in all_params(4, 2)]
    for _ in range(200):
        x = pair(rng.choice(rng.choice(crystals)), rng.choice(rng.choice(crystals)))
        hw, word = to_highest_weight(x)
        ref_hw, ref_word = single_step_raise(x)
        assert hw == ref_hw
        assert len(word) == len(ref_word)
        assert Counter(word) == Counter(ref_word)


def test_yang_baxter_on_triples():
    rng = random.Random(4)
    shapes = all_params(4, 3)
    for _ in range(150):
        x = random_element(rng, shapes, 3)
        left = swap_at(swap_at(swap_at(x, 0), 1), 0)
        right = swap_at(swap_at(swap_at(x, 1), 0), 1)
        assert left == right
        assert [b.params for b in left.factors] == [b.params for b in reversed(x.factors)]


def test_failed_transport_replay_raises_typed_error(monkeypatch):
    module = importlib.import_module("krpoly.rmatrix")
    # the trivial component's highest weight element: f_1 kills it
    trivial = pair(cell(1, 1, 1), cell(1, 1, 0))
    monkeypatch.setattr(module, "rmatrix_on_hw", lambda hw: trivial)
    with pytest.raises(OracleFailure, match="transport word"):
        rmatrix(pair(cell(1, 1, 1), cell(1, 1, 1)))


@pytest.mark.parametrize("oracle", [rmatrix_oracle, local_energy_oracle])
def test_oracles_cap_the_product_by_default(oracle):
    # 4116 elements per factor: each is enumerable, the 16.9M-element product is not
    params = KRParams(6, 3, 3)
    with pytest.raises(SizeLimitExceeded):
        oracle(params, params)
