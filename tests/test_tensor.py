import itertools
import math
import random

import pytest

from krpoly import (
    InvalidParams,
    KRError,
    KRParams,
    SizeLimitExceeded,
    TensorElement,
    enumerate_crystal,
    is_classical_hw,
    tensor_from_dict,
)
from krpoly.graph import build_graph
from krpoly.tensor import product_elements as product_of
from krpoly.verify import _signature_images, signature_word, string_eps, string_phi

from conftest import all_params, cell, pair, product_elements, random_element


P11 = KRParams(1, 1, 1)
P13 = KRParams(1, 1, 3)


def test_mixed_rank_rejected():
    # operator images skip the rank check; every public construction keeps it
    low, high = cell(1, 1, 0), enumerate_crystal(KRParams(2, 1, 1))[0]
    for build in (
        lambda: TensorElement((low, high)),
        lambda: tensor_from_dict({"factors": [low.to_dict(), high.to_dict()]}),
    ):
        with pytest.raises(ValueError):
            build()


def test_malformed_factors_rejected():
    b = cell(1, 1, 0)
    # a list of factors would make an unhashable element
    for factors in ([b, b], (b, 3), 5):
        with pytest.raises(InvalidParams):
            TensorElement(factors)


@pytest.mark.parametrize(
    "data",
    [{}, [], {"factors": 5}, {"factors": []}, {"factors": [cell(1, 1, 0).to_dict()], "extra": 0}],
)
def test_tensor_from_dict_rejects_malformed_input(data):
    with pytest.raises(KRError):
        tensor_from_dict(data)


def test_tensor_from_dict_round_trips():
    x = pair(cell(1, 1, 1), cell(1, 3, 2))
    assert tensor_from_dict(x.to_dict()) == x


def test_lowering_examples_from_the_eight_element_product():
    x = pair(cell(1, 1, 0), cell(1, 3, 0))
    assert x.f(1) == pair(cell(1, 1, 0), cell(1, 3, 1))
    y = pair(cell(1, 1, 1), cell(1, 3, 3))
    assert y.f(0) == pair(cell(1, 1, 1), cell(1, 3, 2))


def test_raising_examples():
    x = pair(cell(1, 1, 0), cell(1, 3, 1))
    assert x.e(1) == pair(cell(1, 1, 0), cell(1, 3, 0))
    hw = pair(cell(1, 1, 1), cell(1, 3, 0))
    assert is_classical_hw(hw)
    assert hw.e(1) is None


def test_statistics_fold():
    x = pair(cell(1, 1, 0), cell(1, 3, 0))
    assert x.phi(1) == 4  # max{1, 1 + 3 - 0}
    assert x.eps(1) == 0
    assert sum(x.phi(l) - x.eps(l) for l in range(2)) == 0  # level zero


def test_partial_inverse_and_weight_sum():
    for x in product_elements(P11, P13):
        for l in (0, 1):
            fx = x.f(l)
            if fx is not None:
                assert fx.e(l) == x
            ex = x.e(l)
            if ex is not None:
                assert ex.f(l) == x
        assert x.classical_weight() == tuple(
            a + b
            for a, b in zip(
                x.factors[0].classical_weight(), x.factors[1].classical_weight()
            )
        )


def test_signature_rule_matches_recursive_rule_pairs():
    for params1 in all_params(2, 2):
        for params2 in all_params(2, 2):
            for x in product_elements(params1, params2):
                for l in range(3):
                    word = signature_word(x, l)
                    assert x.phi(l) == sum(1 for w in word if w[0] == "+")
                    assert x.eps(l) == sum(1 for w in word if w[0] == "-")
                    assert (x.f(l), x.e(l)) == _signature_images(x, l, word)


def test_signature_rule_matches_recursive_rule_triples():
    crystal = enumerate_crystal(KRParams(2, 1, 1))
    for factors in itertools.product(crystal, repeat=3):
        x = TensorElement(factors)
        for l in range(3):
            word = signature_word(x, l)
            assert (x.f(l), x.e(l)) == _signature_images(x, l, word)
            assert x.phi(l) == sum(1 for w in word if w[0] == "+")
            assert x.eps(l) == sum(1 for w in word if w[0] == "-")


def repeated_cancellation_word(x, l):
    """Reference signature word: sweep out adjacent "-+" pairs until none remain."""
    stack = []
    for idx, b in enumerate(x.factors):
        stack += [("+", idx)] * b.phi(l) + [("-", idx)] * b.eps(l)
    changed = True
    while changed:
        changed = False
        out = []
        i = 0
        while i < len(stack):
            if i + 1 < len(stack) and stack[i][0] == "-" and stack[i + 1][0] == "+":
                i += 2
                changed = True
            else:
                out.append(stack[i])
                i += 1
        stack = out
    return stack


def test_one_pass_signature_word_matches_repeated_cancellation():
    rng = random.Random(24)
    cancelled = 0
    for n in range(1, 5):
        shapes = all_params(n, 3)
        for size in (2, 3, 4):
            for _ in range(40):
                x = random_element(rng, shapes, size)
                for l in range(n + 1):
                    word = signature_word(x, l)
                    assert word == repeated_cancellation_word(x, l), (x, l)
                    cancelled += len(word) < sum(b.phi(l) + b.eps(l) for b in x.factors)
    # the seeds reach words where pairs really cancel
    assert cancelled


def test_tensor_string_statistics_by_walking():
    rng = random.Random(11)
    elements = product_elements(KRParams(2, 1, 2), KRParams(2, 2, 1))
    for x in rng.sample(elements, min(20, len(elements))):
        for l in range(3):
            assert x.phi(l) == string_phi(x, l)
            assert x.eps(l) == string_eps(x, l)


def test_product_of_kr_crystals_is_connected_all_colors():
    for params1 in all_params(2, 2):
        for params2 in all_params(2, 2):
            graph = build_graph(product_elements(params1, params2), range(3))
            assert graph.is_connected()
            for i, v in enumerate(graph.vertices):
                for l in graph.colors:
                    assert graph.eps[l][i] == v.eps(l)
                    assert graph.phi[l][i] == v.phi(l)


def test_classical_components_have_one_hw_element_each():
    elements = product_elements(KRParams(2, 1, 2), KRParams(2, 1, 1))
    graph = build_graph(elements, range(1, 3))
    for comp in graph.component_indices():
        hw = [i for i in comp if is_classical_hw(graph.vertices[i])]
        assert len(hw) == 1


def test_product_comes_out_sorted_and_complete():
    # the factors of the cli workload's `graph --format json` command
    factors = (KRParams(4, 2, 2), KRParams(4, 1, 2), KRParams(4, 3, 1))
    elements = product_of(factors)
    assert elements == sorted(elements, key=lambda x: x.sort_key())
    assert len(set(elements)) == len(elements)
    assert len(elements) == math.prod(len(enumerate_crystal(p)) for p in factors)


def test_product_cap_counts_the_product_not_the_factors():
    factors = (KRParams(3, 1, 2), KRParams(3, 2, 1))
    size = len(product_of(factors))
    assert len(product_of(factors, max_size=size)) == size
    with pytest.raises(SizeLimitExceeded):
        product_of(factors, max_size=size - 1)
