import itertools
import json
import random
import re

import pytest

from krpoly import (
    DimensionMismatch,
    DominantWeight,
    IndexOutOfRange,
    InvalidParams,
    KRError,
    KRParams,
    KRPattern,
    NegativeEntry,
    PathSumExceeded,
    SizeLimitExceeded,
    TensorElement,
    b_lower,
    b_upper,
    check_perfect,
    enumerate_crystal,
    global_energy,
    ground_state_path,
    highest_weight_elements,
    local_energy_oracle,
    pattern_from_cells,
    pattern_from_dict,
    product_elements,
    rmatrix_oracle,
    tensor_from_dict,
    validate_pattern,
    zero_pattern,
)
from krpoly import patterns
from krpoly.verify import count_rect_ssyt

from conftest import all_params, brute_crystal, pat, random_pattern, staircases


def test_zero_grid_always_valid():
    for params in all_params(3, 2):
        zero = zero_pattern(params)
        assert zero.validate() is zero
        assert zero.total() == 0


def test_single_cell_bound():
    assert validate_pattern([[3]], KRParams(1, 1, 3)).rows == ((3,),)
    with pytest.raises(PathSumExceeded):
        validate_pattern([[4]], KRParams(1, 1, 3))


def test_column_path_witness():
    with pytest.raises(PathSumExceeded) as err:
        validate_pattern([[1], [1]], KRParams(2, 1, 1))
    assert err.value.witness == [(1, 1), (1, 2)]
    assert err.value.total == 2


def test_witness_is_a_unit_staircase_summing_to_the_total():
    # on seeded invalid grids the witness runs from (1, r) to (r, n) in unit
    # steps, and its entries sum to the reported maximal staircase sum
    rng = random.Random(27)
    invalid = 0
    for params in all_params(4, 3):
        for _ in range(20):
            rows = [
                [rng.randint(0, params.s) for _ in range(params.num_cols)]
                for _ in range(params.num_rows)
            ]
            try:
                validate_pattern(rows, params)
            except PathSumExceeded as err:
                witness, total = err.witness, err.total
            else:
                continue
            invalid += 1
            assert witness[0] == (1, params.r)
            assert witness[-1] == (params.r, params.n)
            assert all(
                (p2 - p, q2 - q) in ((1, 0), (0, 1))
                for (p, q), (p2, q2) in zip(witness, witness[1:])
            )
            assert sum(rows[q - params.r][p - 1] for p, q in witness) == total > params.s
    assert invalid > 100


def test_shape_and_sign_errors():
    with pytest.raises(DimensionMismatch):
        validate_pattern([[0, 0]], KRParams(2, 1, 1))
    with pytest.raises(DimensionMismatch):
        validate_pattern([[0]], KRParams(2, 1, 1))
    with pytest.raises(NegativeEntry):
        validate_pattern([[0], [-1]], KRParams(2, 1, 1))
    for bad in (0.7, True, 1.0, "1", None):
        with pytest.raises(NegativeEntry, match="not an integer"):
            validate_pattern([[0], [bad]], KRParams(2, 1, 1))
    with pytest.raises(NegativeEntry):
        pattern_from_dict({"n": 2, "r": 1, "s": 1, "rows": [[0.7], [True]]})
    # bad n, r or s is a KRError too, alone and as a tensor factor
    for data, message in (
        ({"n": 2.0, "r": True, "s": 1, "rows": [[0], [0]]}, "must be integers"),
        ({"n": "3", "r": 1, "s": 1, "rows": [[0]]}, "must be integers"),
        ({"n": 0, "r": 1, "s": 1, "rows": [[0]]}, "rank must be positive"),
        ({"n": 1, "r": 2, "s": 1, "rows": [[0]]}, "need 1 <= r <= n"),
        ({"n": 1, "r": 1, "s": 0, "rows": [[0]]}, "level must be positive"),
    ):
        with pytest.raises(KRError, match=message):
            pattern_from_dict(data)
        with pytest.raises(KRError, match=message):
            tensor_from_dict({"factors": [data]})
    # factors of different ranks are a KRError from the loader too
    mixed = [zero_pattern(KRParams(3, 1, 1)).to_dict(), zero_pattern(KRParams(4, 1, 1)).to_dict()]
    with pytest.raises(KRError, match="all factors must share the same rank n"):
        tensor_from_dict({"factors": mixed})
    # a bool or float is not an integer, however it compares; the error is
    # a KRError and, for older callers, a ValueError
    for values in ((True, 1, 1), (2.0, 1, 1)):
        with pytest.raises(InvalidParams, match="n, r and s must be integers") as err:
            KRParams(*values)
        assert isinstance(err.value, KRError) and isinstance(err.value, ValueError)


def test_dp_agrees_with_explicit_staircases():
    # max-path DP <= s iff every explicitly enumerated staircase sums <= s
    for params in all_params(4, 2):
        paths = staircases(params)
        for grid in itertools.product(
            range(params.s + 1), repeat=params.num_rows * params.num_cols
        ):
            rows = [
                list(grid[i * params.num_cols : (i + 1) * params.num_cols])
                for i in range(params.num_rows)
            ]
            by_paths = all(
                sum(rows[q - params.r][p - 1] for p, q in path) <= params.s
                for path in paths
            )
            try:
                validate_pattern(rows, params)
                by_dp = True
            except PathSumExceeded:
                by_dp = False
            assert by_dp == by_paths


def test_enumerate_known_sizes():
    assert len(enumerate_crystal(KRParams(1, 1, 3))) == 4
    assert len(enumerate_crystal(KRParams(2, 1, 1))) == 3
    assert len(enumerate_crystal(KRParams(2, 1, 2))) == 6


def test_enumerate_lexicographic_and_unique():
    for params in all_params(3, 2):
        crystal = enumerate_crystal(params)
        flats = [b.entries_flat() for b in crystal]
        assert flats == sorted(flats)
        assert len(set(flats)) == len(flats)


def test_enumerate_matches_brute_force_in_order():
    # row-by-row enumeration lists exactly the valid grids, sorted as the
    # reference sorts them, on every B^{r,s} with n <= 4, s <= 3
    for n in range(1, 5):
        for params in all_params(n, 3):
            assert enumerate_crystal(params) == brute_crystal(params), params


def test_enumerate_cap(monkeypatch):
    with pytest.raises(SizeLimitExceeded):
        enumerate_crystal(KRParams(2, 1, 2), max_size=3)
    # the count inside the enumeration still refuses what the size misjudges
    monkeypatch.setattr(patterns, "crystal_size", lambda params: 0)
    with pytest.raises(SizeLimitExceeded):
        enumerate_crystal(KRParams(2, 1, 2), max_size=3)


def test_enumerate_cap_admits_a_crystal_of_exactly_its_size():
    for params in (KRParams(2, 1, 2), KRParams(3, 2, 2), KRParams(4, 2, 1)):
        size = patterns.crystal_size(params)
        assert len(enumerate_crystal(params, size)) == size
        with pytest.raises(SizeLimitExceeded):
            enumerate_crystal(params, size - 1)


def test_oversized_crystals_are_refused_before_any_pattern(monkeypatch):
    def build(*args):
        raise AssertionError("a pattern was built")

    monkeypatch.setattr(patterns, "KRPattern", build)
    # |B^{4,4}| = 1,646,568 at n=8
    with pytest.raises(SizeLimitExceeded, match="exceeds cap 1000000"):
        enumerate_crystal(KRParams(8, 4, 4))
    with pytest.raises(SizeLimitExceeded, match="exceeds cap 19"):
        enumerate_crystal(KRParams(3, 2, 2), max_size=19)


def test_corner_sum_is_the_sum_of_its_cells():
    # a column bound below 1 used to slice from the end of each row
    assert validate_pattern([[1, 1], [0, 1]], KRParams(3, 2, 3)).corner_sum(-1, 2) == 0
    for n in range(1, 4):
        for params in all_params(n, 2):
            r = params.r
            for b in enumerate_crystal(params):
                for p, q in itertools.product(range(-2, r + 2), range(r - 2, n + 3)):
                    cells = itertools.product(range(1, p + 1), range(q, n + 1))
                    assert b.corner_sum(p, q) == sum(b.a(i, j) for i, j in cells), (b, p, q)


def test_cardinality_matches_ssyt_count():
    for params in all_params(3, 2):
        size = len(enumerate_crystal(params))
        assert size == count_rect_ssyt(params.r, params.s, params.n + 1)
        assert size == patterns.crystal_size(params)


def test_crystal_size_is_the_weyl_dimension():
    # MacMahon's box count against the Weyl product on s Lambda_r
    for n in range(1, 13):
        for params in all_params(n, 5):
            weight = tuple(params.s * (l == params.r) for l in range(1, n + 1))
            assert patterns.crystal_size(params) == patterns.weyl_dimension(weight), params
    # Sym^2 of the 601-dimensional vector representation, and its size
    assert patterns.weyl_dimension((2,) + (0,) * 599) == 601 * 602 // 2
    assert patterns.crystal_size(KRParams(600, 1, 2)) == 601 * 602 // 2


def test_classical_weight_of_generator():
    for params in all_params(3, 2):
        want = tuple(params.s if l == params.r else 0 for l in range(1, params.n + 1))
        assert zero_pattern(params).classical_weight() == want


def test_classical_weight_examples():
    # single cell at n=1: 3*w_1 - alpha_1 has coefficient 1
    assert pat(1, 1, 3, [[1]]).classical_weight() == (1,)
    # n=2: w_1 - alpha_1 = -w_1 + w_2
    assert pat(2, 1, 1, [[1], [0]]).classical_weight() == (-1, 1)


def test_classical_weight_from_line_sums_matches_the_root_sum():
    # oracle: s Lambda_r minus a[p,q] times the root alpha_p + ... + alpha_q
    # of every cell, paired with each coroot l
    count = 0
    for n in range(1, 7):
        for params in all_params(n, 2):
            for b in enumerate_crystal(params):
                coeffs = [params.s * (l == params.r) for l in range(n + 1)]
                for q in range(params.r, n + 1):
                    for p in range(1, params.r + 1):
                        for l in range(1, n + 1):
                            pairing = 2 * (p <= l <= q) - (p <= l - 1 <= q) - (p <= l + 1 <= q)
                            coeffs[l] -= b.a(p, q) * pairing
                assert b.classical_weight() == tuple(coeffs[1:]), b
                count += 1
    assert count == 2280


def test_affine_weight_level_zero_and_pairing():
    for params in all_params(3, 2):
        for b in enumerate_crystal(params):
            # level zero: the pairing with coroot 0 is fixed by the classical weight
            cl = b.classical_weight()
            pairings = (-sum(cl),) + cl
            for l in range(params.n + 1):
                assert b.phi(l) - b.eps(l) == pairings[l]


def test_hw_weights_are_collision_free():
    # classical weights separate the highest weight patterns (nested support)
    from krpoly import highest_weight_elements

    for params1 in all_params(3, 2):
        for params2 in all_params(3, 2):
            hw = highest_weight_elements(params1, params2)
            weights = [x.classical_weight() for x in hw]
            assert len(set(weights)) == len(weights)


def test_json_round_trip():
    b = pat(3, 2, 2, [[0, 1], [1, 0]])
    data = json.loads(json.dumps(b.to_dict()))
    assert pattern_from_dict(data) == b
    assert data["rows"][0] == [0, 1]
    # the cell builder gives every pattern back from its entries
    for n in range(1, 5):
        for params in all_params(n, 2):
            for b in enumerate_crystal(params):
                assert pattern_from_cells(params, b.a) == b


def test_hash_is_cached_and_hidden():
    b = pat(3, 2, 2, [[0, 1], [1, 0]])
    c = validate_pattern([[0, 1], [1, 0]], KRParams(3, 2, 2))
    assert b is not c
    assert b == c
    assert hash(b) == hash(c) == hash((b.params, b.rows))
    assert b._hash == hash((b.params, b.rows))
    assert "_hash" not in repr(b)
    assert "_hash" not in b.to_dict()
    assert b != pat(3, 2, 2, [[0, 1], [0, 1]])
    # the string statistics kept on b change neither equality nor hash
    before = repr(b)
    assert [b.phi(l) for l in range(4)] == [c.phi(l) for l in range(4)]
    assert b._strings is not None and c._strings is not None
    assert c._strings is not b._strings
    assert repr(b) == before and "_strings" not in repr(b)
    assert "_strings" not in b.to_dict()
    unread = pat(3, 2, 2, [[0, 1], [1, 0]])
    assert unread._strings is None
    assert b == unread and hash(b) == hash(unread) == hash((b.params, b.rows))


@pytest.mark.parametrize("rows", [[[0]], ([0],)])
def test_rows_that_cannot_be_hashed_raise_a_typed_error(rows):
    # the constructor does not check its rows; the first hash, which every
    # memo, table and graph index takes, used to raise a bare TypeError
    from krpoly.energy import local_energy
    from krpoly.graph import build_graph
    from krpoly.rmatrix import rmatrix_on_hw

    message = rf"^rows {re.escape(repr(rows))} are not a tuple of tuples$"
    for read in (
        hash,
        lambda b: b.phi(1),
        lambda b: local_energy(TensorElement((b, b))),
        lambda b: rmatrix_on_hw(TensorElement((b, b))),
        lambda b: build_graph([b], range(2)),
    ):
        b = KRPattern(KRParams(1, 1, 1), rows)
        with pytest.raises(InvalidParams, match=message):
            read(b)
        assert b._hash is None


def two_list_walk(pr, rows, l):
    """The string walker as first written, the reference for ``patterns._walk``.

    It builds hi and lo as lists and maximizes sum(hi[:i+1]) + sum(lo[i:])
    with a running suffix sum; phi and eps subtract sum(lo) and sum(hi).
    """
    if l == 0:
        eps = pr.s - sum(row[0] for row in rows) - sum(rows[-1][1:])
        return rows[-1][0], eps, 0, 0
    if l == pr.r:
        phi = pr.s - sum(rows[0][:-1]) - sum(row[-1] for row in rows)
        return phi, rows[0][-1], 0, 0
    if l > pr.r:
        hi, lo = rows[l - 1 - pr.r], rows[l - pr.r]
    else:
        hi = [row[l] for row in reversed(rows)]
        lo = [row[l - 1] for row in reversed(rows)]
    suffix = sum(lo)
    run = 0
    best = None
    for i, (h, x) in enumerate(zip(hi, lo)):
        run += h
        val = run + suffix
        suffix -= x
        if best is None or val > best:
            best, first, last = val, i, i
        elif val == best:
            last = i
    return best - sum(lo), best - sum(hi), first, last


def test_the_one_pass_walk_equals_the_two_list_walk():
    count = 0
    for n in range(1, 5):
        for params in all_params(n, 3):
            for b in enumerate_crystal(params):
                for l in range(n + 1):
                    assert patterns._walk(params, b.rows, l) == two_list_walk(params, b.rows, l)
                    count += 1
    assert count == 3608
    rng = random.Random(40)
    for _ in range(3000):
        n = rng.randint(5, 12)
        params = KRParams(n, rng.randint(1, n), rng.randint(1, 4))
        rows = random_pattern(rng, params).rows
        for l in range(n + 1):
            assert patterns._walk(params, rows, l) == two_list_walk(params, rows, l), (rows, l)


def test_kept_string_statistics_match_a_fresh_walk():
    # every read through the per-object slot agrees with the uncached walker
    walk = patterns._walk
    count = 0
    for n in range(1, 5):
        for params in all_params(n, 2):
            for b in enumerate_crystal(params):
                for l in range(n + 1):
                    phi, eps, first, last = walk(b.params, b.rows, l)
                    for _ in range(2):
                        assert (b.phi(l), b.eps(l)) == (phi, eps)
                        assert (b.f(l) is None) == (phi == 0)
                        assert (b.e(l) is None) == (eps == 0)
                        if l > params.r:
                            assert patterns.pivot(b, l) == (first + 1, last + 1)
                        elif 1 <= l < params.r:
                            assert patterns.pivot(b, l) == (n - last, n - first)
                    if phi:
                        assert b.f(l) == patterns._move(b, l, first, 1)
                    if eps:
                        assert b.e(l) == patterns._move(b, l, last, -1)
                    count += 1
    assert count == 1080


def test_colors_outside_the_range_raise_before_and_after_the_slot_fills():
    for params in all_params(3, 2):
        b = zero_pattern(params)
        for filled in (False, True):
            if filled:
                for l in range(params.n + 1):
                    b.phi(l)
                assert None not in b._strings
            for l in (-1, params.n + 1):
                for read in (b.phi, b.eps, b.f, b.e):
                    with pytest.raises(IndexOutOfRange, match=f"color {l} outside 0..3"):
                        read(l)


@pytest.mark.parametrize("color", [True, False, 1.0, "1", None])
def test_a_color_that_is_not_an_int_is_refused(color):
    # one gate in the record read: True is not read as color 1, also once
    # color 1 sits in the records, which True would index as 1
    b = validate_pattern([[0, 1], [1, 0]], KRParams(3, 2, 2))
    x = TensorElement((b, zero_pattern(KRParams(3, 1, 1))))
    reads = {
        "b.phi": b.phi,
        "b.eps": b.eps,
        "b.f": b.f,
        "b.e": b.e,
        "x.phi": x.phi,
        "x.eps": x.eps,
        "x.f": x.f,
        "x.e": x.e,
        "pivot": lambda l: patterns.pivot(b, l),
    }
    for filled in (False, True):
        if filled:
            for l in range(4):
                for y in (b, x):
                    y.f(l), y.e(l)
            assert None not in b._strings
        for name, read in reads.items():
            with pytest.raises(IndexOutOfRange, match=rf"^color {color!r} outside 0\.\.3$"):
                read(color)


def test_record_images_are_the_moves_of_a_fresh_walk(monkeypatch):
    # with the table cleared, every image slot a read fills is the move at
    # the record's first or last argmax, the one object of its grid; a
    # second read walks no string, asks no table and makes no move
    patterns._canonical.cache_clear()
    walk = patterns._walk
    rng = random.Random(33)
    shapes = [p for n in (6, 7, 8) for p in all_params(n, 3)]
    elements = [b for n in range(1, 5) for p in all_params(n, 2) for b in enumerate_crystal(p)]
    elements += [random_pattern(rng, rng.choice(shapes)) for _ in range(300)]
    for b in elements:
        for l in range(b.n + 1):
            phi, eps, first, last = walk(b.params, b.rows, l)
            lower, upper = b.f(l), b.e(l)
            record = b._strings[l]
            assert record == [phi, eps, first, last, lower, upper]
            assert lower is (patterns._move(b, l, first, 1) if phi else None)
            assert upper is (patterns._move(b, l, last, -1) if eps else None)
    calls = []
    for name in ("_walk", "_move", "_canonical"):
        monkeypatch.setattr(patterns, name, lambda *args, name=name: calls.append(name))
    for b in elements:
        for l in range(b.n + 1):
            record = list(b._strings[l])
            assert [b.phi(l), b.eps(l)] == record[:2]
            assert (b.f(l), b.e(l)) == (record[4], record[5])
            assert b.f(l) is record[4] and b.e(l) is record[5]
    assert not calls


def test_words_that_reach_one_grid_return_one_object():
    # e_i e_j b = e_j e_i b for classical colors |i - j| >= 2, and the
    # canonical-image table makes the two words one object with one set of
    # records, also for f; the patterns a caller built never enter it
    rng = random.Random(36)
    shapes = [p for n in (5, 6, 7) for p in all_params(n, 3)]
    inputs = [random_pattern(rng, rng.choice(shapes)) for _ in range(200)]
    met = 0
    for b in inputs:
        for i, j in itertools.combinations(range(1, b.n + 1), 2):
            if j - i < 2:
                continue
            for op in (type(b).e, type(b).f):
                first = op(b, i)
                if first is None or op(first, j) is None:
                    continue
                ij, ji = op(first, j), op(op(b, j), i)
                assert ij is ji and ij._strings is ji._strings
                assert patterns._canonical(KRPattern(ij.params, ij.rows)) is ij
                met += 1
    assert met > 200
    for b in inputs:
        assert patterns._canonical(KRPattern(b.params, b.rows)) is not b


def test_a_second_read_of_one_object_walks_no_string(monkeypatch):
    walk, walks = patterns._walk, []

    def counted(pr, rows, l):
        walks.append(l)
        return walk(pr, rows, l)

    monkeypatch.setattr(patterns, "_walk", counted)
    b = validate_pattern([[1, 0], [0, 1]], KRParams(3, 2, 3))
    for l in range(4):
        b.phi(l)
        assert walks == list(range(l + 1))
        assert (b.eps(l), b.phi(l)) == walk(b.params, b.rows, l)[1::-1]
        b.f(l)
        b.e(l)
        assert walks == list(range(l + 1))


P = KRParams(2, 1, 1)
W = DominantWeight((0, 1, 0))
ZERO_PAIR = TensorElement((zero_pattern(P), zero_pattern(P)))
PARAMS_GATE_CALLS = {
    "check_perfect(5)": (InvalidParams, lambda: check_perfect(5)),
    "enumerate_crystal(5)": (InvalidParams, lambda: enumerate_crystal(5)),
    "product_elements(5)": (InvalidParams, lambda: product_elements(5)),
    "product_elements([5])": (InvalidParams, lambda: product_elements([5])),
    "highest_weight_elements(None, P)": (InvalidParams, lambda: highest_weight_elements(None, P)),
    "b_lower(None, P)": (InvalidParams, lambda: b_lower(None, P)),
    "b_upper(w, None)": (InvalidParams, lambda: b_upper(W, None)),
    "ground_state_path(w, None, 3)": (InvalidParams, lambda: ground_state_path(W, None, 3)),
    "zero_pattern(5)": (InvalidParams, lambda: zero_pattern(5)),
    "pattern_from_cells(5, f)": (InvalidParams, lambda: pattern_from_cells(5, lambda p, q: 0)),
    "validate_pattern([[0]], 5)": (InvalidParams, lambda: validate_pattern([[0]], 5)),
    "validate_pattern(5, P)": (DimensionMismatch, lambda: validate_pattern(5, P)),
    "validate_pattern([5], P)": (DimensionMismatch, lambda: validate_pattern([5], P)),
    "local_energy_oracle(5, P)": (InvalidParams, lambda: local_energy_oracle(5, P)),
    "rmatrix_oracle(5, P)": (InvalidParams, lambda: rmatrix_oracle(5, P)),
    "global_energy(x, energy=5)": (InvalidParams, lambda: global_energy(ZERO_PAIR, energy=5)),
}


@pytest.mark.parametrize("error, call", PARAMS_GATE_CALLS.values(), ids=PARAMS_GATE_CALLS.keys())
def test_params_gates_refuse_what_is_not_their_input(error, call):
    # each raised a bare AttributeError or TypeError before the gates
    with pytest.raises(error):
        call()
