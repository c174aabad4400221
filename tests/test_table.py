"""The integer-indexed tables against the KRPattern and TensorElement code.

The oracle references below are the whole-product walks over
TensorElements that the id-pair walks replaced; they stay here so that
both oracles and the tensor-square closure are checked against them on
the desk sweep.
"""

import itertools
import random

import pytest

from krpoly import (
    KRParams,
    InconsistentRecursion,
    InvalidParams,
    OracleFailure,
    TensorElement,
    check_perfect,
    enumerate_crystal,
    is_classical_hw,
    local_energy_oracle,
    rmatrix_oracle,
    zero_pattern,
)
from krpoly import oracles, perfect
from krpoly.graph import CrystalGraph, build_graph
from krpoly.patterns import crystal_size
from krpoly.oracles import PairTable, product_table, rmatrix_oracle_ids

from conftest import all_params, check_undecided, closure, product_elements


SWEEP = all_params(3, 2)


def crystal_graph(params):
    """B^{r,s} as the graph over all colors 0..n that PairTable takes."""
    return build_graph(enumerate_crystal(params), range(params.n + 1))


def reference_rmatrix_oracle(params1, params2):
    """Weight matching and propagation over TensorElements."""
    left = product_elements(params1, params2)
    right = product_elements(params2, params1)
    by_weight = {}
    for y in right:
        if is_classical_hw(y):
            key = y.classical_weight()
            if key in by_weight:
                raise OracleFailure(f"duplicate highest weight {key}")
            by_weight[key] = y
    mapping = {x: by_weight[x.classical_weight()] for x in left if is_classical_hw(x)}
    queue = list(mapping)
    while queue:
        x = queue.pop()
        y = mapping[x]
        for l in range(1, params1.n + 1):
            fx, fy = x.f(l), y.f(l)
            if (fx is None) != (fy is None):
                raise OracleFailure(f"f_{l} defined on one side only at {x}")
            if fx is not None and fx not in mapping:
                mapping[fx] = fy
                queue.append(fx)
    for x, y in mapping.items():
        for op in ("f", "e"):
            fx, fy = getattr(x, op)(0), getattr(y, op)(0)
            if (fx is None) != (fy is None) or (fx is not None and mapping[fx] != fy):
                raise OracleFailure(f"{op}_0 not intertwined at {x}")
    return mapping


def reference_energy_oracle(params1, params2, sigma):
    """The 0-edge recursion over TensorElements, re-checked on every edge."""
    elements = product_elements(params1, params2)
    zero = TensorElement((zero_pattern(params1), zero_pattern(params2)))

    def raising_delta(lower, l):
        if l != 0:
            return 0
        side, side_image = lower.e_slot(0), sigma[lower].e_slot(0)
        return {(0, 0): -1, (1, 1): 1}.get((side, side_image), 0)

    table = {zero: 0}
    queue = [zero]
    colors = range(params1.n + 1)
    while queue:
        x = queue.pop()
        for l in colors:
            up, down = x.e(l), x.f(l)
            if up is not None and up not in table:
                table[up] = table[x] + raising_delta(x, l)
                queue.append(up)
            if down is not None and down not in table:
                table[down] = table[x] - raising_delta(down, l)
                queue.append(down)
    for x in elements:
        for l in colors:
            up = x.e(l)
            if up is not None and table[up] - table[x] != raising_delta(x, l):
                raise InconsistentRecursion(f"recursion conflict along e_{l} at {x}")
    return table


def test_table_matches_pattern_operators():
    for params in SWEEP:
        table = product_table(params, params).left
        assert list(table.vertices) == enumerate_crystal(params)
        for i, b in enumerate(table.vertices):
            assert table.index[b] == i
            for l in range(params.n + 1):
                for op, ids in (("f", table.f), ("e", table.e)):
                    image = getattr(b, op)(l)
                    assert ids[l][i] == (None if image is None else table.index[image])
                assert table.phi[l][i] == b.phi(l)
                assert table.eps[l][i] == b.eps(l)


def test_id_pair_rule_matches_tensor_elements():
    tables = {params: crystal_graph(params) for params in SWEEP}
    for params1, params2 in itertools.product(SWEEP, repeat=2):
        pair = PairTable(tables[params1], tables[params2])
        elements = product_elements(params1, params2)
        ids = list(pair.ids())
        # id pairs come in product order, which is the TensorElement sort order
        assert [pair.element(x) for x in ids] == elements
        assert sorted(ids) == ids
        for x, t in zip(ids, elements):
            assert pair.id_of(t) == x
            for l in range(params1.n + 1):
                assert pair.e_slot(x, l) == t.e_slot(l)
                for op in ("f", "e"):
                    image = getattr(pair, op)(x, l)
                    expected = getattr(t, op)(l)
                    assert (None if image is None else pair.element(image)) == expected


def test_oracles_and_square_closure_match_tensor_element_walks():
    for params1, params2 in itertools.product(SWEEP, repeat=2):
        sigma = rmatrix_oracle(params1, params2)
        assert sigma == reference_rmatrix_oracle(params1, params2)
        table = local_energy_oracle(params1, params2)
        assert table == reference_energy_oracle(params1, params2, sigma)
        assert local_energy_oracle(params1, params2, sigma=sigma) == table
    for params in SWEEP:
        square = product_table(params, params)
        zero = zero_pattern(params)
        got = closure([(0, 0)], range(params.n + 1), square.f, square.e, key=None)
        expected = closure(
            [TensorElement((zero, zero))],
            range(params.n + 1),
            lambda x, l: x.f(l),
            lambda x, l: x.e(l),
        )
        assert [square.element(x) for x in got] == expected
        assert check_perfect(params).tensor_square_connected


def test_certificate_agrees_with_the_closure_on_the_desk_sweep():
    checked = 0
    for n in range(1, 6):
        for params in all_params(n, 3):
            if crystal_size(params) ** 2 > 200_000:
                continue
            square = product_table(params, params)
            zero = square.left.index[zero_pattern(params)]
            walked = closure(
                [(zero, zero)], range(n + 1), square.f, square.e, max_size=None, key=None
            )
            assert perfect._certificate(params, len(square)) == (len(walked) == len(square))
            checked += 1
    assert checked == 42


def test_a_failed_certificate_falls_back_to_the_closure(monkeypatch):
    # check_perfect reports a failed certificate as a violation; the walk of
    # the square from the zero pair shows each one is a missing certificate,
    # not a disconnected square
    for params in SWEEP:
        check_undecided(monkeypatch, params)
        square = product_table(params, params)
        hw = perfect.highest_weight_elements(params, params)
        assert len(hw) > 1
        dims = sum(perfect.weyl_dimension(x.classical_weight()) for x in hw[:-1])
        assert dims < len(square)
        zero = square.left.index[zero_pattern(params)]
        walked = closure([(zero, zero)], range(params.n + 1), square.f, square.e, key=None)
        assert len(walked) == len(square), params


def test_mixed_ranks_are_rejected():
    small, large = KRParams(2, 1, 1), KRParams(3, 1, 1)
    with pytest.raises(ValueError):
        PairTable(crystal_graph(small), crystal_graph(large))
    with pytest.raises(ValueError):
        product_table(small, large)
    with pytest.raises(ValueError):
        rmatrix_oracle(small, large)


def test_rmatrix_oracle_refuses_every_color_transposition():
    # the second factor's f lists of two colors trade places: a crystal
    # graph still, on the right vertices, but not B^{r,s}; the walk from
    # 0 (x) 0 must fail on every such product
    graphs = {params: crystal_graph(params) for params in SWEEP}
    corruptions = 0
    for params1, params2 in itertools.product(SWEEP, repeat=2):
        good = graphs[params2]
        for a, b in itertools.combinations(good.colors, 2):
            f = dict(good.f)
            f[a], f[b] = f[b], f[a]
            bad = CrystalGraph(good.vertices, good.colors, f)
            with pytest.raises(OracleFailure):
                rmatrix_oracle_ids(PairTable(graphs[params1], bad))
            corruptions += 1
    assert corruptions == 216


def test_energy_oracle_refuses_or_survives_swapped_images():
    # two images of sigma trade places; only the 0-edges whose e_0 slots
    # the swap changes can tell, so each call either raises or returns the
    # true table
    rng = random.Random(5)
    outcomes = []
    for params1, params2 in itertools.product(SWEEP, repeat=2):
        sigma = rmatrix_oracle(params1, params2)
        table = local_energy_oracle(params1, params2)
        keys = sorted(sigma, key=TensorElement.sort_key)
        for _ in range(5):
            x, y = rng.sample(keys, 2)
            bad = dict(sigma)
            bad[x], bad[y] = sigma[y], sigma[x]
            try:
                got = local_energy_oracle(params1, params2, sigma=bad)
            except InconsistentRecursion:
                outcomes.append("raised")
                continue
            assert got == table, (x, y)
            outcomes.append("survived")
    assert len(outcomes) == 180
    assert "raised" in outcomes


def test_pair_table_refuses_a_cyclic_string():
    good = crystal_graph(KRParams(2, 1, 1))
    f = dict(good.f)
    f[0] = list(f[0])
    f[0][0] = 1  # 1 -> 0 -> 1: a 0-string with no head
    bad = CrystalGraph(good.vertices, good.colors, f)
    assert None in bad.eps[0]
    with pytest.raises(InvalidParams, match="0-string that is a cycle"):
        PairTable(bad, bad)
    with pytest.raises(InvalidParams, match="0-string that is a cycle"):
        PairTable(good, bad)


def test_energy_oracle_refuses_a_sigma_off_its_product():
    params1, params2 = KRParams(2, 1, 1), KRParams(2, 2, 1)
    sigma = rmatrix_oracle(params1, params2)
    first = next(iter(sigma))
    missing = {x: y for x, y in sigma.items() if x != first}
    with pytest.raises(InvalidParams, match="maps 8 of 9 elements"):
        local_energy_oracle(params1, params2, sigma=missing)
    zero = zero_pattern(params1)
    for key, value in (
        (first, first),  # B1 (x) B2 is not B2 (x) B1
        (sigma[first], sigma[first]),
        (TensorElement((zero, zero, zero)), sigma[first]),
        (zero, sigma[first]),  # a bare pattern, not a TensorElement
        (first, zero),
    ):
        bad = dict(sigma)
        bad[key] = value
        with pytest.raises(InvalidParams, match="sigma holds an element outside"):
            local_energy_oracle(params1, params2, sigma=bad)


def bare_graph(params):
    """B^{r,s} with its vertices but no edges: every pair is its own component."""
    vertices = enumerate_crystal(params)
    colors = range(params.n + 1)
    return CrystalGraph(vertices, colors, {l: [None] * len(vertices) for l in colors})


def test_the_oracles_need_a_zero_element_first(monkeypatch):
    params = KRParams(2, 1, 1)
    backwards = CrystalGraph(enumerate_crystal(params)[::-1], range(params.n + 1))
    table = PairTable(backwards, backwards)
    with pytest.raises(OracleFailure, match="^product has no zero element$"):
        rmatrix_oracle_ids(table)
    # the energy walk checks before it builds sigma, whose walk would
    # raise OracleFailure instead
    monkeypatch.setattr(oracles, "product_table", lambda p1, p2: table)
    with pytest.raises(InconsistentRecursion, match="^product has no zero element$"):
        local_energy_oracle(params, params)


def test_the_oracles_refuse_a_disconnected_product(monkeypatch):
    params = KRParams(1, 1, 1)
    table = PairTable(bare_graph(params), bare_graph(params))
    with pytest.raises(OracleFailure, match="^product crystal is not connected$"):
        rmatrix_oracle_ids(table)
    # the energy walk reaches its own check only with a sigma given: built
    # here, the R-matrix walk refuses the product first
    monkeypatch.setattr(oracles, "product_table", lambda p1, p2: table)
    sigma = {table.element(x): table.element(x) for x in table.ids()}
    with pytest.raises(InconsistentRecursion, match="^product crystal is not connected$"):
        local_energy_oracle(params, params, sigma=sigma)
    with pytest.raises(OracleFailure, match="^product crystal is not connected$"):
        local_energy_oracle(params, params)


class Bare:
    """A vertex of weight () whose pattern reads as zero."""

    def classical_weight(self):
        return ()

    def total(self):
        return 0


def test_the_rmatrix_oracle_refuses_a_shared_image(monkeypatch):
    # A (x) S, for a one-vertex A, is the square S: x0 -> x1, x2 -> x3 in
    # color 0 and x0 -> x3, x2 -> x1 in color 1.  It covers twice Q (x) A,
    # where Q is q0 -> q1 in both colors: the walk intertwines every
    # operator and reaches all four pairs, but hits two images.  The
    # swapped product of the same two graphs never did this in a search
    # over small id-list graphs (two colors, factors of two to four
    # vertices, six at most between them), so Q (x) A stands in for it
    one = CrystalGraph([Bare()], (0, 1), {0: [None], 1: [None]})
    f = {0: [1, None, 3, None], 1: [3, None, 1, None]}
    square = CrystalGraph([Bare() for _ in range(4)], (0, 1), f)
    quotient = CrystalGraph([Bare(), Bare()], (0, 1), {0: [1, None], 1: [1, None]})
    table = PairTable(one, square)
    monkeypatch.setattr(PairTable, "swapped", lambda self: PairTable(quotient, one))
    with pytest.raises(OracleFailure, match="^two elements share one image$"):
        rmatrix_oracle_ids(table)
