import importlib
import itertools
import math
import random
from collections import Counter

import pytest

from krpoly import (
    IndexOutOfRange,
    InvalidParams,
    KRError,
    KRParams,
    KRPattern,
    NotHighestWeight,
    OracleFailure,
    SizeLimitExceeded,
    TensorElement,
    enumerate_crystal,
    global_energy,
    highest_weight_elements,
    is_classical_hw,
    local_energy,
    local_energy_hw,
    local_energy_oracle,
    rmatrix_from_hw,
    rmatrix_on_hw,
    rmatrix_oracle,
    to_highest_weight,
    zero_pattern,
)
from krpoly import patterns
from krpoly.graph import build_graph
from krpoly.rmatrix import _hw_image, _schedule, hw_support, rmatrix
from krpoly.oracles import PairTable

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


def test_memoized_image_matches_the_unmemoized_map():
    for n in range(1, 5):
        for params1 in all_params(n, 3):
            for params2 in all_params(n, 3):
                for hw in highest_weight_elements(params1, params2):
                    assert rmatrix_on_hw(hw) == _hw_image.__wrapped__(hw)


def test_equal_hw_share_one_image():
    p1, p2 = KRParams(7, 4, 2), KRParams(7, 5, 3)
    x, y = hw_element(p1, p2, (2, 1, 1)), hw_element(p1, p2, (2, 1, 1))
    assert x is not y
    assert rmatrix_on_hw(x) is rmatrix_on_hw(y)


def test_rejections_are_not_memoized():
    # every call on a non-hw element runs the checks again and raises
    x = pair(cell(1, 1, 0), cell(1, 3, 1))
    before = rmatrix_on_hw.cache_info()
    for _ in range(2):
        with pytest.raises(NotHighestWeight):
            rmatrix_on_hw(x)
    after = rmatrix_on_hw.cache_info()
    assert after.currsize == before.currsize
    assert after.misses == before.misses + 2
    assert after.hits == before.hits


@pytest.mark.parametrize("arg", [[1, 2], 5], ids=["list", "int"])
def test_what_is_not_two_fold_never_reaches_the_memo(arg):
    before = rmatrix_on_hw.cache_info()
    with pytest.raises(InvalidParams, match="the R-matrix acts on two-fold products"):
        rmatrix_on_hw(arg)
    assert rmatrix_on_hw.cache_info() == before


def test_hw_memo_is_bounded():
    assert rmatrix_on_hw.cache_info().maxsize == 1024


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
                assert x.classical_weight() == y.classical_weight()


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


def schedule_walk(x, colors):
    """Reference: x raised along ``colors``, each string to its top one
    TensorElement.e at a time; returns the raised x and the step colors."""
    word = []
    for l in colors:
        while (y := x.e(l)) is not None:
            x = y
            word.append(l)
    return x, tuple(word)


def seeded_pairs(seed, count):
    """``count`` random two-fold elements with n = 2..6 and s <= 3."""
    rng = random.Random(seed)
    shapes = {n: all_params(n, 3) for n in range(2, 7)}
    return [random_element(rng, shapes[rng.randint(2, 6)], 2) for _ in range(count)]


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
    # exactly the single-step walk on the same schedule, there and back
    for x in seeded_pairs(18, 400):
        hw, word = to_highest_weight(x)
        assert (hw, word) == schedule_walk(x, _schedule(1, x.n))
        y = rmatrix_on_hw(hw)
        for l in reversed(word):
            y = y.f(l)
        assert rmatrix_from_hw(hw, word) == y


@pytest.mark.parametrize("n", range(1, 13))
def test_the_transport_schedule_is_a_reduced_word_of_w0(n):
    # (1)(2 1)...(n ... 1): its adjacent transpositions reverse 1..n+1 in
    # n(n+1)/2 steps, the length of the longest element of S_{n+1}
    word = _schedule(1, n)
    assert len(word) == n * (n + 1) // 2
    perm = list(range(1, n + 2))
    for l in word:
        perm[l - 1], perm[l] = perm[l], perm[l - 1]
    assert perm == list(range(n + 1, 0, -1))


def test_transport_is_one_kernel_call(monkeypatch):
    rm = importlib.import_module("krpoly.rmatrix")
    kernel = rm._raise_strings
    calls = []

    def counting(a, b, colors, word):
        calls.append(colors)
        return kernel(a, b, colors, word)

    monkeypatch.setattr(rm, "_raise_strings", counting)
    for x in seeded_pairs(38, 100):
        calls.clear()
        to_highest_weight(x)
        assert calls == [_schedule(1, x.n)]


def test_one_schedule_reaches_the_highest_weight_element():
    desk = [
        x
        for n in range(1, 4)
        for p, q in itertools.product(all_params(n, 2), repeat=2)
        for x in product_elements(p, q)
    ]
    rng = random.Random(38)
    shapes = {n: all_params(n, 3) for n in range(6, 13)}
    sampled = [random_element(rng, shapes[rng.randint(6, 12)], 2) for _ in range(300)]
    for x in desk + sampled:
        hw, _ = to_highest_weight(x)
        assert is_classical_hw(hw)
        assert hw == single_step_raise(x)[0]


# the operator a ``patterns._move`` step of +1 or -1 makes, and its image
# slot in a ``KRPattern._strings`` record
OPERATOR = {1: "f", -1: "e"}
IMAGE_SLOT = {"f": 4, "e": 5}


def test_each_single_step_is_applied_once(monkeypatch):
    # transport must not re-walk a string or re-apply a step.  On fresh
    # factors each move fills one empty image slot and each string is
    # walked once per object; over the records that leaves behind, the same
    # transport makes every single step one record read, with one more
    # read per factor and color visited, and makes no move and no _stats
    calls = []
    walk, move = patterns._walk, patterns._move

    def walking(pr, rows, l):
        calls.append(("_walk", rows, l))
        return walk(pr, rows, l)

    def moving(A, l, i, step):
        name = OPERATOR[step]
        assert A._strings[l][IMAGE_SLOT[name]] is None, (name, A, l)
        calls.append((name, A, l))
        return move(A, l, i, step)

    monkeypatch.setattr(patterns, "_walk", walking)
    monkeypatch.setattr(patterns, "_move", moving)
    rm = importlib.import_module("krpoly.rmatrix")
    energy = importlib.import_module("krpoly.energy")
    visits = Counter()
    kernel = rm._raise_strings

    def visiting(a, b, colors, word):
        visits["colors"] += len(colors)
        return kernel(a, b, colors, word)

    monkeypatch.setattr(rm, "_raise_strings", visiting)
    monkeypatch.setattr(energy, "_raise_strings", visiting)

    def cold(run, op):
        # the output and the number of moves
        calls.clear()
        out = run()
        ops = [(name, A, l) for name, A, l in calls if name != "_walk"]
        walks = [(id(rows), l) for name, rows, l in calls if name == "_walk"]
        assert {name for name, _, _ in ops} <= {op}
        assert len({(id(A), l) for _, A, l in ops}) == len(ops)
        assert all(A._strings[l][IMAGE_SLOT[op]] is not None for _, A, l in ops)
        assert len(set(walks)) == len(walks)
        return out, len(ops)

    def warm(run, out, reads):
        slot = KRPattern.__dict__["_strings"]
        count = Counter()

        def read(b):
            count["_strings"] += 1
            return slot.__get__(b, KRPattern)

        def no_stats(b, l):
            raise AssertionError(f"_stats({b}, {l}) read over filled records")

        calls.clear()
        visits.clear()
        with monkeypatch.context() as patch:
            patch.setattr(KRPattern, "_strings", property(read, slot.__set__))
            patch.setattr(KRPattern, "_stats", no_stats)
            assert run() == out
        assert not calls
        assert count["_strings"] == reads(visits["colors"])

    filled = 0
    for x in seeded_pairs(19, 150):
        (hw, word), made = cold(lambda: to_highest_weight(x), "e")
        assert made <= len(word)
        filled += made
        warm(lambda: to_highest_weight(x), (hw, word), lambda c: len(word) + 2 * c)
        y, made = cold(lambda: rmatrix_from_hw(hw, word), "f")
        assert made <= len(word)
        filled += made
        runs = len(list(itertools.groupby(word)))
        warm(lambda: rmatrix_from_hw(hw, word), y, lambda c: len(word) + 2 * runs)
    # the closed-form energy schedule raises through the same kernel
    scheduled = 0
    for x in seeded_pairs(19, 150):
        h, made = cold(lambda: local_energy(x), "e")
        steps = len(schedule_walk(x, _schedule(x.factors[1].params.r, x.n))[1])
        assert made <= steps
        warm(lambda: local_energy(x), h, lambda c: steps + 2 * c)
        scheduled += steps > 0
        filled += made
    assert scheduled and filled


def test_rmatrix_is_the_identity_on_one_shape():
    # B (x) B is connected, so R, its unique affine automorphism, is the
    # identity; rmatrix returns x itself, and the transport kernel agrees
    desk = [x for n in range(1, 5) for p in all_params(n, 2) for x in product_elements(p, p)]
    rng = random.Random(37)
    shapes = [p for n in (6, 7, 8) for p in all_params(n, 3)]
    sampled = [random_element(rng, [rng.choice(shapes)], 2) for _ in range(300)]
    for x in desk + sampled:
        assert rmatrix(x) is x
        assert x == rmatrix_from_hw(*to_highest_weight(x))


def test_the_zero_pattern_is_one_object_per_shape():
    # the library builds the generator again and again, as the second factor
    # of every highest weight element and of its R image; each shape's is
    # one object with one set of records.  Both tables are cleared so no
    # image made before an earlier clear of the canonical table is reused.
    patterns._canonical.cache_clear()
    _hw_image.cache_clear()
    shapes = [p for n in range(1, 5) for p in all_params(n, 2)]
    for p in shapes:
        zero = zero_pattern(p)
        assert zero_pattern(KRParams(p.n, p.r, p.s)) is zero
        assert zero == KRPattern(p, zero.rows) and zero.total() == 0
    for p, q in itertools.product(shapes, repeat=2):
        if p.n != q.n:
            continue
        for hw in highest_weight_elements(p, q):
            assert hw.factors[1] is zero_pattern(q)
            assert rmatrix_on_hw(hw).factors[1] is zero_pattern(p)


# an element of B^{1,1} (x) B^{2,1} at n=3 that to_highest_weight raises
# by a single e_3
WORD_X = pair(pat(3, 1, 1, [[0], [0], [1]]), pat(3, 2, 1, [[0, 0], [0, 0]]))


@pytest.mark.parametrize(
    "word, error",
    [
        ({}, InvalidParams),
        ("", InvalidParams),
        ("3", InvalidParams),
        (None, InvalidParams),
        (3, InvalidParams),
        (iter((3,)), InvalidParams),
        ((-1,), IndexOutOfRange),
        ((0,), IndexOutOfRange),
        ((4,), IndexOutOfRange),
        ((True,), IndexOutOfRange),
        ((3.0,), IndexOutOfRange),
        (("3",), IndexOutOfRange),
        ((None,), IndexOutOfRange),
        ((3, -1), IndexOutOfRange),
        ([-1, 3], IndexOutOfRange),
    ],
)
def test_a_transport_word_is_checked_before_it_is_read(word, error):
    # the kernel reads the records in place, past the color gate of
    # KRPattern._stats: once the good word has put color 3 in them, -1
    # would read it
    hw, good = to_highest_weight(WORD_X)
    assert good == (3,)
    assert rmatrix_from_hw(hw, good) == rmatrix_from_hw(hw, list(good))
    with pytest.raises(error):
        rmatrix_from_hw(hw, word)


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
    # the trivial component's highest weight element: f_1 kills it.  The
    # kernel is called directly: rmatrix is the identity on B (x) B
    trivial = pair(cell(1, 1, 1), cell(1, 1, 0))
    monkeypatch.setattr(module, "rmatrix_on_hw", lambda hw: trivial)
    with pytest.raises(OracleFailure, match="transport word"):
        rmatrix_from_hw(*to_highest_weight(pair(cell(1, 1, 1), cell(1, 1, 1))))


def test_raising_past_a_string_raises_typed_error(monkeypatch):
    # a raise that meets crystal zero is an OracleFailure, not an
    # AttributeError.  The factors are built here, so their records hold no
    # image yet and the first step asks the patched move.
    asked = []
    monkeypatch.setattr(patterns, "_move", lambda A, l, i, step: asked.append((l, step)))
    with pytest.raises(OracleFailure, match="transport word failed at e_1"):
        to_highest_weight(pair(cell(1, 1, 1), cell(1, 3, 3)))
    assert asked == [(1, -1)]


def full_graph(params):
    return build_graph(enumerate_crystal(params), range(params.n + 1))


ONE = TensorElement((cell(1, 1, 0),))
THREE = TensorElement((cell(1, 1, 0),) * 3)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: rmatrix(ONE), "the R-matrix acts on two-fold products"),
        (lambda: rmatrix_on_hw(THREE), "the R-matrix acts on two-fold products"),
        (lambda: rmatrix_from_hw(ONE, ()), "the R-matrix acts on two-fold products"),
        (lambda: to_highest_weight(ONE), "transport acts on two-fold products"),
        (lambda: to_highest_weight(THREE), "transport acts on two-fold products"),
        (lambda: local_energy(THREE), "local energy lives on two-fold products"),
        (lambda: local_energy_hw(ONE), "local energy lives on two-fold products"),
        (
            lambda: highest_weight_elements(KRParams(3, 1, 1), KRParams(4, 1, 1)),
            "factors must share the same rank n",
        ),
        (
            lambda: PairTable(full_graph(KRParams(2, 1, 1)), full_graph(KRParams(3, 1, 1))),
            "all factors must share the same rank n",
        ),
        (lambda: TensorElement(()), "tensor element needs at least one factor"),
    ],
)
def test_arity_and_rank_guards_raise_invalid_params(call, message):
    with pytest.raises(InvalidParams, match=message) as err:
        call()
    assert isinstance(err.value, KRError) and isinstance(err.value, ValueError)


@pytest.mark.parametrize(
    "entry", [rmatrix, to_highest_weight, rmatrix_on_hw, local_energy, local_energy_hw, global_energy]
)
@pytest.mark.parametrize(
    "arg",
    [cell(1, 1, 0), (cell(1, 1, 0), cell(1, 1, 0)), None, [1, 2]],
    ids=["pattern", "tuple", "none", "list"],
)
def test_entry_points_refuse_what_is_not_a_tensor_element(entry, arg):
    # a bare pattern, a tuple of patterns, None or a list has no factors to
    # read; the list reaches no memo, which could not hash it
    with pytest.raises(InvalidParams):
        entry(arg)


@pytest.mark.parametrize("oracle", [rmatrix_oracle, local_energy_oracle])
def test_oracles_cap_the_product_by_default(oracle):
    # 4116 elements per factor: each is enumerable, the 16.9M-element product is not
    params = KRParams(6, 3, 3)
    with pytest.raises(SizeLimitExceeded):
        oracle(params, params)
