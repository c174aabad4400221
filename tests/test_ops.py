import random

import pytest

from krpoly import IndexOutOfRange, KRParams, enumerate_crystal, pivot, zero_pattern
from krpoly.verify import brute_pivot, string_eps, string_phi

from conftest import all_params, cell


def test_phi_eps_single_cell_chain():
    # B^{1,3} at n=1: the 1-string runs 0 -> 1 -> 2 -> 3
    two = cell(1, 3, 2)
    assert two.phi(1) == 1 and two.phi(0) == 2
    assert two.eps(1) == 2 and two.eps(0) == 1


def test_zero_pattern_statistics():
    for params in all_params(3, 3):
        zero = zero_pattern(params)
        for l in range(params.n + 1):
            assert zero.phi(l) == (params.s if l == params.r else 0)
            assert zero.eps(l) == (params.s if l == 0 else 0)


def test_operator_examples():
    assert cell(1, 3, 2).f(1) == cell(1, 3, 3)
    assert cell(1, 3, 3).f(1) is None
    assert cell(1, 3, 3).f(0) == cell(1, 3, 2)
    assert cell(1, 3, 0).e(1) is None
    three = zero_pattern(KRParams(1, 1, 3))
    assert three.eps(0) == 3
    assert three.e(0) == cell(1, 3, 1)
    for params in all_params(3, 2):
        lowered = zero_pattern(params).f(params.r)
        assert lowered.a(params.r, params.r) == 1
        assert lowered.total() == 1


def test_string_statistics_and_partial_inverse():
    for params in all_params(3, 2):
        for b in enumerate_crystal(params):
            for l in range(params.n + 1):
                assert b.phi(l) == string_phi(b, l)
                assert b.eps(l) == string_eps(b, l)
                fb = b.f(l)
                if fb is not None:
                    fb.validate()
                    assert fb.e(l) == b
                eb = b.e(l)
                if eb is not None:
                    eb.validate()
                    assert eb.f(l) == b


def test_string_length_is_phi_plus_eps():
    for params in all_params(3, 2):
        for b in enumerate_crystal(params):
            for l in range(params.n + 1):
                top = b
                while top.e(l) is not None:
                    top = top.e(l)
                length = 0
                walk = top
                while walk.f(l) is not None:
                    walk = walk.f(l)
                    length += 1
                assert length == b.phi(l) + b.eps(l)


def test_pivot_requires_matching_side():
    b = zero_pattern(KRParams(3, 2, 1))
    for l in (2, 0, 4):  # l == r, then outside 1..n
        with pytest.raises(IndexOutOfRange):
            pivot(b, l)


def test_pivot_on_constant_objective_picks_extremes():
    zero = zero_pattern(KRParams(3, 2, 1))
    assert pivot(zero, 3) == (1, 2)  # (p_+, q_+)
    assert pivot(zero, 1) == (2, 3)  # (q_-, p_-)


def test_pivot_matches_brute_force_exhaustively():
    for params in all_params(3, 2):
        for b in enumerate_crystal(params):
            for l in range(1, params.n + 1):
                if l == params.r:
                    continue
                assert pivot(b, l) == brute_pivot(b, l)


def test_pivot_order_on_random_patterns():
    rng = random.Random(7)
    pools = {params: enumerate_crystal(params) for params in all_params(4, 2)}
    for _ in range(1000):
        params = rng.choice(list(pools))
        b = rng.choice(pools[params])
        for l in range(1, params.n + 1):
            if l == params.r:
                continue
            lo, hi = pivot(b, l)
            assert lo <= hi


def test_color_zero_commutes_away_from_the_corner_colors():
    def compose(b, steps):
        for op, l in steps:
            if b is None:
                return None
            b = b.f(l) if op == "f" else b.e(l)
        return b

    for params in all_params(4, 2):
        for b in enumerate_crystal(params):
            for l in range(2, params.n):
                for first in ("f", "e"):
                    for second in ("f", "e"):
                        assert compose(b, ((first, 0), (second, l))) == compose(
                            b, ((second, l), (first, 0))
                        )


def test_weight_drops_by_cartan_column():
    for params in all_params(1, 3) + all_params(2, 2) + all_params(3, 2):
        n = params.n
        for b in enumerate_crystal(params):
            for l in range(n + 1):
                fb = b.f(l)
                if fb is None:
                    continue
                before = [b.phi(j) - b.eps(j) for j in range(n + 1)]
                after = [fb.phi(j) - fb.eps(j) for j in range(n + 1)]
                for j in range(n + 1):
                    drop = 2 * (l == j) - ((l - j) % (n + 1) in (1, n))
                    if n == 1 and l != j:
                        drop = -2  # both affine simple roots pair to -2 at rank 1
                    assert after[j] - before[j] == -drop
