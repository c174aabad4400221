"""The tensor rule pinned on statistics tuples by the signature rule.

``oracles.signature`` cancels the plus/minus word of a list of (phi, eps)
statistics.  Each reader of the tensor rule is checked against it: the
N-fold fold ``tensor.tensor_rule`` on every tuple of small statistics,
and, on the desk products, the inline two-fold rule of
``oracles.PairTable`` and the step splits of the transport kernel,
``patterns._raise_strings`` and ``patterns._lower_word``.
"""

import itertools

from krpoly.oracles import product_table, signature
from krpoly.patterns import _lower_word, _raise_strings
from krpoly.tensor import tensor_rule

from conftest import all_params, product_elements

# every ordered pair of desk crystals of one rank, n <= 3 and s <= 2
DESK_PAIRS = [
    (params1, params2)
    for n in range(1, 4)
    for params1, params2 in itertools.product(all_params(n, 2), repeat=2)
]


def by_signature(stats):
    """(phi, eps, f slot, e slot) off the signature word; a slot is None
    where its operator gives zero."""
    word = signature(stats)
    plus = [k for sign, k in word if sign == "+"]
    minus = [k for sign, k in word if sign == "-"]
    return len(plus), len(minus), plus[-1] if plus else None, minus[0] if minus else None


def test_tensor_rule_is_the_signature_rule_on_every_small_tuple():
    # all 69,904 tuples of 1 to 4 factors with phi and eps in 0..3
    tuples = [
        stats
        for size in range(1, 5)
        for stats in itertools.product(itertools.product(range(4), repeat=2), repeat=size)
    ]
    assert len(tuples) == 69904
    bad = []
    for stats in tuples:
        phi, eps, f_slot, e_slot = tensor_rule(stats)
        got = (phi, eps, f_slot if phi else None, e_slot if eps else None)
        # where an operator gives zero, its slot is the first factor for f
        # and the last for e
        zero_slots = (phi or f_slot == 0) and (eps or e_slot == len(stats) - 1)
        if got != by_signature(stats) or not zero_slots:
            bad.append(stats)
    assert not bad, f"{len(bad)} of {len(tuples)} tuples, first {bad[:3]}"


def test_pair_tables_apply_the_signature_rule():
    checked = 0
    for params1, params2 in DESK_PAIRS:
        table = product_table(params1, params2)
        left, right = table.left, table.right
        for x in table.ids():
            i, j = x
            for l in left.colors:
                stats = [(left.phi[l][i], left.eps[l][i]), (right.phi[l][j], right.eps[l][j])]
                _, eps, f_slot, e_slot = by_signature(stats)
                for op, slot, lists in (
                    (table.f, f_slot, (left.f, right.f)),
                    (table.e, e_slot, (left.e, right.e)),
                ):
                    if slot is None:
                        want = None
                    else:
                        k = lists[slot][l][x[slot]]
                        want = None if k is None else (k, j) if slot == 0 else (i, k)
                    assert op(x, l) == want, (params1, params2, x, l)
                if eps:
                    assert table.e_slot(x, l) == e_slot, (params1, params2, x, l)
                checked += 1
    assert checked == 12686  # (element, color) pairs


def test_the_transport_kernel_splits_each_string_by_the_signature_rule():
    checked = 0
    for params1, params2 in DESK_PAIRS:
        for x in product_elements(params1, params2):
            a, b = x.factors
            for l in range(x.n + 1):
                word = signature([(a.phi(l), a.eps(l)), (b.phi(l), b.eps(l))])
                minus = [k for sign, k in word if sign == "-"]
                colors = []
                a2, b2 = _raise_strings(a, b, (l,), colors)
                assert colors == [l] * len(minus), (x, l)
                steps = (a.eps(l) - a2.eps(l), b.eps(l) - b2.eps(l))
                assert steps == (minus.count(0), minus.count(1)), (x, l)
                checked += 1
    assert checked == 12686  # (element, color) pairs


def test_the_transport_kernel_splits_each_lowering_run_by_the_signature_rule():
    # k steps of f_l act on the last k "+" of the signature
    checked = 0
    for params1, params2 in DESK_PAIRS:
        for x in product_elements(params1, params2):
            a, b = x.factors
            for l in range(1, x.n + 1):
                word = signature([(a.phi(l), a.eps(l)), (b.phi(l), b.eps(l))])
                plus = [side for sign, side in word if sign == "+"]
                for k in range(1, len(plus) + 1):
                    a2, b2 = _lower_word(a, b, (l,) * k)
                    steps = (a.phi(l) - a2.phi(l), b.phi(l) - b2.phi(l))
                    assert steps == (plus[-k:].count(0), plus[-k:].count(1)), (x, l, k)
                    checked += 1
    assert checked == 7835  # (element, color, run length) triples
