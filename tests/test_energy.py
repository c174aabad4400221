import importlib
import itertools
import math
import random

import pytest

from krpoly import (
    InconsistentRecursion,
    KRParams,
    NotHighestWeight,
    OracleFailure,
    TensorElement,
    enumerate_crystal,
    global_energy,
    is_classical_hw,
    local_energy,
    local_energy_hw,
    local_energy_oracle,
    rmatrix_oracle,
    zero_pattern,
)
from krpoly import patterns
from krpoly.graph import build_graph
from krpoly.rmatrix import hw_support, rmatrix, to_highest_weight

from conftest import (
    all_params,
    cell,
    hw_element,
    pair,
    pat,
    product_elements,
    random_element,
    random_pattern,
    swap_at,
)


P11 = KRParams(1, 1, 1)
P13 = KRParams(1, 1, 3)


def test_normalization_and_first_column():
    table = local_energy_oracle(P11, P13)
    assert table[pair(cell(1, 1, 0), cell(1, 3, 0))] == 0
    assert table[pair(cell(1, 1, 1), cell(1, 3, 0))] == -1


def test_table_is_constant_on_classical_components():
    table = local_energy_oracle(P11, P13)
    graph = build_graph(list(table), range(1, 2))
    for comp in graph.component_indices():
        values = {table[graph.vertices[i]] for i in comp}
        assert len(values) == 1


def test_hw_law_requires_hw():
    with pytest.raises(NotHighestWeight):
        local_energy_hw(pair(cell(1, 1, 0), cell(1, 3, 1)))


def test_hw_law_is_negative_entry_sum():
    p1, p2 = KRParams(7, 4, 2), KRParams(7, 5, 3)
    x = hw_element(p1, p2, (2, 1, 1))
    assert local_energy_hw(x) == -4
    assert local_energy(x) == -4


def test_schedule_breaks_raise_typed_errors(monkeypatch):
    # a raise that runs off its string is the transport kernel's
    # OracleFailure, a schedule that leaves the second factor nonzero an
    # InconsistentRecursion; neither is an AttributeError
    params = KRParams(2, 1, 1)
    zero = zero_pattern(params)
    # f_1 0 (x) f_2 f_1 0, built here: a canonical image would carry its e
    # image on its record and never ask the patched move
    x = pair(pat(2, 1, 1, [[1], [0]]), pat(2, 1, 1, [[0], [1]]))
    assert x == pair(zero.f(1), zero.f(1).f(2))
    asked = []
    with monkeypatch.context() as patch:
        patch.setattr(patterns, "_move", lambda A, l, i, step: asked.append((l, step)))
        with pytest.raises(OracleFailure, match="^transport word failed at e_1$"):
            local_energy(x)
    assert asked == [(1, -1)]
    # a kernel that raises nothing leaves B as it was
    module = importlib.import_module("krpoly.energy")
    monkeypatch.setattr(module, "_raise_strings", lambda a, b, colors, word: (a, b))
    with pytest.raises(InconsistentRecursion, match="second factor to zero"):
        local_energy(pair(zero, zero.f(1)))


def test_closed_form_equals_oracle_rank_two():
    for params1 in all_params(2, 2):
        for params2 in all_params(2, 2):
            table = local_energy_oracle(params1, params2)
            for x, h in table.items():
                assert local_energy(x) == h
                assert h <= 0
                if is_classical_hw(x):
                    assert local_energy_hw(x) == h


def test_closed_form_reads_swapped_levels_without_transport(monkeypatch):
    # s1 > s2: the closed form is read on x itself, so it matches the
    # recursion with every R-matrix and transport function disabled
    pairs = [
        (params1, params2)
        for n in range(1, 4)
        for params1, params2 in itertools.product(all_params(n, 3), repeat=2)
        if params1.s > params2.s
    ]
    assert (KRParams(2, 1, 2), KRParams(2, 2, 1)) in pairs
    tables = [local_energy_oracle(*p) for p in pairs]

    def forbidden(*args):
        raise AssertionError("the closed form must not transport")

    for module in map(importlib.import_module, ("krpoly.rmatrix", "krpoly.energy")):
        for name in ("rmatrix", "to_highest_weight", "rmatrix_from_hw", "rmatrix_on_hw"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    for table in tables:
        for x, h in table.items():
            assert local_energy(x) == h


def test_single_row_nested_formula():
    # r1 = r2 = n: the correction telescopes into nested truncations
    for n, s1, s2 in [(2, 1, 2), (3, 2, 2), (3, 2, 3)]:
        pn1, pn2 = KRParams(n, n, s1), KRParams(n, n, s2)
        for x in product_elements(pn1, pn2):
            a, b = x.factors
            inner = max(0, a.a(1, n) - b.phi(1))
            for j in range(2, n + 1):
                inner = max(0, a.a(j, n) + inner - b.phi(j))
            assert local_energy(x) == -sum(a.a(j, n) for j in range(1, n + 1)) + inner


def test_energy_changes_only_across_zero_edges():
    params1, params2 = KRParams(2, 1, 2), KRParams(2, 1, 1)
    sigma = rmatrix_oracle(params1, params2)
    for x in product_elements(params1, params2):
        h = local_energy(x)
        for l in range(1, 3):
            fx = x.f(l)
            if fx is not None:
                assert local_energy(fx) == h
        ex = x.e(0)
        if ex is not None:
            side = x.e_slot(0)
            side_image = sigma[x].e_slot(0)
            if side == 0 and side_image == 0:
                want = h - 1
            elif side == 1 and side_image == 1:
                want = h + 1
            else:
                want = h
            assert local_energy(ex) == want


SPARSE_SHAPES_N8 = [KRParams(8, 4, 3), KRParams(8, 3, 2), KRParams(8, 2, 4), KRParams(8, 5, 2)]


def test_closed_form_on_sampled_pairs_at_rank_eight():
    # no oracle enumerates these products: the closed form must equal minus
    # the first factor's entry sum at the classical highest weight element,
    # and stay constant along every classical edge out of the sample
    rng = random.Random(16)
    edges = 0
    for params1, params2 in itertools.product(SPARSE_SHAPES_N8, repeat=2):
        for _ in range(10):
            x = pair(random_pattern(rng, params1), random_pattern(rng, params2))
            h = local_energy(x)
            assert h == -to_highest_weight(x)[0].factors[0].total()
            for l in range(1, 9):
                fx = x.f(l)
                if fx is not None:
                    assert local_energy(fx) == h
                    edges += 1
    assert edges > 0


def test_energy_lower_bound():
    for params1 in all_params(2, 2):
        for params2 in all_params(2, 2):
            cells, bound = hw_support(params1, params2)
            table = local_energy_oracle(params1, params2)
            assert all(0 >= h >= -len(cells) * bound for h in table.values())


def test_global_energy_pairs_and_zero_tensor():
    table = local_energy_oracle(P11, P13)
    for x, h in table.items():
        assert global_energy(x) == h
    zeros = TensorElement(
        (zero_pattern(P11), zero_pattern(P11), zero_pattern(P11))
    )
    assert global_energy(zeros) == 0


def test_global_energy_classical_invariance():
    rng = random.Random(3)
    crystal1 = enumerate_crystal(KRParams(2, 1, 2))
    crystal2 = enumerate_crystal(KRParams(2, 1, 1))
    crystal3 = enumerate_crystal(KRParams(2, 2, 1))
    for _ in range(40):
        x = TensorElement(
            (rng.choice(crystal1), rng.choice(crystal2), rng.choice(crystal3))
        )
        d = global_energy(x)
        for l in (1, 2):
            fx = x.f(l)
            if fx is not None:
                assert global_energy(fx) == d


def pairwise_transport_energy(x, energy=local_energy, swaps=None):
    """Reference: a fresh R-matrix transport for every pair i < j.

    Every pair it swaps is appended to ``swaps`` when one is given.
    """
    factors = x.factors
    total = 0
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            fs = list(factors)
            pos = j
            while pos > i + 1:
                before = TensorElement((fs[pos - 1], fs[pos]))
                if swaps is not None:
                    swaps.append(before)
                swapped = rmatrix(before)
                fs[pos - 1], fs[pos] = swapped.factors
                pos -= 1
            total += energy(TensorElement((fs[i], fs[i + 1])))
    return total


def recording(into):
    """local_energy that also appends every pair it is given to ``into``."""

    def energy(y):
        into.append(y)
        return local_energy(y)

    return energy


def test_global_energy_matches_pairwise_transport():
    rng = random.Random(11)
    crystals = [enumerate_crystal(p) for p in all_params(4, 2)]
    for size in range(3, 7):
        for _ in range(10):
            x = TensorElement(tuple(rng.choice(rng.choice(crystals)) for _ in range(size)))
            seen, want = [], []
            got = global_energy(x, energy=recording(seen))
            assert got == pairwise_transport_energy(x, energy=recording(want))
            # the energy is read once per distinct pair the reference reads
            assert set(seen) == set(want)
            assert len(seen) == len(set(want))


SHAPES_N5 = [KRParams(5, r, s) for r in range(1, 4) for s in range(1, 4)]


def test_default_global_energy_matches_closed_form_and_pairwise_transport():
    rng = random.Random(5)
    for _ in range(12):
        x = random_element(rng, SHAPES_N5, 8)
        # some pair i < j has s_i > s_j, which the closed form reads directly too
        assert any(a.params.s > b.params.s for a, b in itertools.combinations(x.factors, 2))
        got = global_energy(x)
        assert got == global_energy(x, energy=local_energy)
        assert got == pairwise_transport_energy(x)


def test_default_global_energy_transports_each_pair_once(monkeypatch):
    module = importlib.import_module("krpoly.energy")
    calls = []
    to_hw = module.to_highest_weight

    def counting(x):
        calls.append(x)
        return to_hw(x)

    def forbidden(*args):
        raise AssertionError("the default route must not use the closed form")

    # the reference walk reads the closed form, so it runs before the patch
    rng = random.Random(6)
    walks = []
    for size in range(2, 9):
        x = random_element(rng, SHAPES_N5, size)
        met = []
        pairwise_transport_energy(x, energy=recording(met))
        walks.append((size, x, met))
    monkeypatch.setattr(module, "to_highest_weight", counting)
    monkeypatch.setattr(module, "local_energy", forbidden)
    monkeypatch.setattr(module, "_raise_strings", forbidden)
    for size, x, met in walks:
        calls.clear()
        module.global_energy(x)
        # one transport per distinct pair the reference walk meets
        assert len(calls) == len(set(calls)) == len(set(met)) <= math.comb(size, 2)
        assert set(calls) == set(met)


def test_one_shape_transports_each_adjacent_pair_once(monkeypatch):
    # R is the identity on B (x) B, so every walk meets only the adjacent
    # pairs (b_{p-1}, b_p) of x, and each distinct one is raised once
    module = importlib.import_module("krpoly.energy")
    calls = []
    to_hw = module.to_highest_weight

    def counting(x):
        calls.append(x)
        return to_hw(x)

    monkeypatch.setattr(module, "to_highest_weight", counting)
    rng = random.Random(22)
    params = KRParams(3, 2, 2)
    for _ in range(6):
        x = random_element(rng, [params], 8)
        adjacent = set(zip(x.factors, x.factors[1:]))
        calls.clear()
        assert module.global_energy(x) == pairwise_transport_energy(x)
        assert len(calls) == len(adjacent) <= 7
        assert {y.factors for y in calls} == adjacent


def test_a_callable_energy_skips_the_transport_at_position_one(monkeypatch):
    # with the default H every distinct pair is raised; a callable energy
    # reads the pairs itself, so only the distinct pairs of two shapes that
    # a swap follows are (R is the identity on B (x) B)
    module = importlib.import_module("krpoly.energy")
    calls = []
    to_hw = module.to_highest_weight

    def counting(x):
        calls.append(x)
        return to_hw(x)

    monkeypatch.setattr(module, "to_highest_weight", counting)
    rng = random.Random(24)
    x = random_element(rng, SHAPES_N5, 4)
    for energy, transports in ((None, 6), (local_energy, 3)):
        calls.clear()
        module.global_energy(x, energy=energy)
        assert len(calls) == transports
    for size in range(3, 6):
        for _ in range(6):
            x = random_element(rng, SHAPES_N5, size)
            met, swaps = [], []
            want = pairwise_transport_energy(x, energy=recording(met), swaps=swaps)
            calls.clear()
            assert module.global_energy(x) == want
            assert len(calls) == len(set(met)) <= math.comb(size, 2)
            swaps = {y for y in swaps if y.factors[0].params != y.factors[1].params}
            calls.clear()
            assert module.global_energy(x, energy=local_energy) == want
            assert len(calls) == len(swaps) <= math.comb(size - 1, 2)
            assert set(calls) == swaps


def test_global_energy_is_invariant_under_every_adjacent_swap():
    rng = random.Random(8)
    shapes = all_params(4, 3)
    for _ in range(60):
        x = random_element(rng, shapes, 4)
        d = global_energy(x)
        assert d <= 0
        for k in range(3):
            assert global_energy(swap_at(x, k)) == d
