import hashlib

import pytest

from krpoly import (
    KRParams,
    KRPattern,
    TensorElement,
    highest_weight_elements,
    patterns,
    perfect,
    verify,
)
from krpoly.oracles import rmatrix_oracle_ids
from krpoly.verify import brute_pivot, count_rect_ssyt, run_suite, signature_word

from conftest import cell, pair, pat


def test_ssyt_counter_known_values():
    assert count_rect_ssyt(1, 3, 2) == 4  # multisets of size 3 from two letters
    assert count_rect_ssyt(2, 1, 3) == 3  # strictly increasing pairs from three
    assert count_rect_ssyt(2, 2, 3) == 6
    assert count_rect_ssyt(2, 2, 2) == 1  # forced filling


def test_ssyt_counter_is_the_crystal_size_and_needs_no_recursion():
    # |B^{r,s}| at rank n counts the r x s tableaux with entries 1..n+1;
    # the counter used to recurse once per cell and failed past about 990
    for n in range(1, 6):
        for r in range(1, n + 1):
            for s in range(1, 4):
                assert count_rect_ssyt(r, s, n + 1) == patterns.crystal_size(KRParams(n, r, s))
    assert count_rect_ssyt(3, 2, 2) == 0  # a column longer than the alphabet
    assert count_rect_ssyt(0, 3, 2) == count_rect_ssyt(2, 0, 2) == 1  # the empty filling
    assert count_rect_ssyt(1, 1200, 2) == 1201


def test_signature_word_survivors():
    # factor stats for color 1: (phi, eps) = (0, 1) and (1, 2);
    # the word "-+--" cancels its middle pair, leaving two minuses
    x = pair(cell(1, 1, 1), cell(1, 3, 2))
    word = signature_word(x, 1)
    assert word == [("-", 1), ("-", 1)]
    # with first factor 0 the word "++--" has nothing to cancel
    y = pair(cell(1, 1, 0), cell(1, 3, 2))
    assert [w[0] for w in signature_word(y, 1)] == ["+", "+", "-", "-"]


def test_brute_pivot_on_a_worked_grid():
    b = pat(3, 2, 2, [[1, 0], [0, 1]])
    # color 3 > r: S(1) = S(2) = 2, a tie, so the extremes are (1, 2)
    assert brute_pivot(b, 3) == (1, 2)
    # color 1 < r: T(2) = T(3) = 2 likewise
    assert brute_pivot(b, 1) == (2, 3)


def test_run_all_suites_at_rank_one_skips_rank_two_axioms():
    checks = run_suite("all", 1, 1)
    assert checks and all(c.ok for c in checks)
    assert not any("regular" in c.name for c in checks)


@pytest.mark.parametrize(
    "suite, n, max_s, count, digest",
    [
        ("all", 1, 2, 22, "c5851d34dc6e1722e93f213ef28a1964d35aee8aff7afb35144e785e9e44f70f"),
        ("all", 2, 2, 72, "ff197d542e85ced1e2bc2a01688ac9be1a4a77426ce21fa59141424dba4d4e97"),
        ("all", 3, 2, 144, "9d8c6e8da0b3db2c39e19ef9633c00363e0c4a498f211472733dc4ef28fcfb8b"),
        ("perfect", 3, 3, 18, "74efc1bfa3fb7b0c1ff976984238b0487d3448ae1f40bde0d6ac194b61baccc0"),
    ],
)
def test_check_names_keep_their_order(suite, n, max_s, count, digest):
    # sha256 of the newline-joined Check names: the order `krpoly verify` prints
    checks = run_suite(suite, n, max_s)
    assert len(checks) == count and all(check.ok for check in checks)
    names = "\n".join(check.name for check in checks)
    assert hashlib.sha256(names.encode()).hexdigest() == digest


def test_energy_check_fails_on_a_formula_element_that_is_not_highest_weight(monkeypatch):
    params = KRParams(1, 1, 1)
    lowered = highest_weight_elements(params, params)[0].f(1)
    assert lowered is not None
    monkeypatch.setattr(verify, "highest_weight_elements", lambda p1, p2: iter([lowered]))
    (check,) = verify.run_suite("energy", 1, 1)
    assert not check.ok
    assert check.detail == f"formula element is not highest weight at {lowered}"


def test_cardinality_check_compares_the_weyl_dimension(monkeypatch):
    checks = run_suite("cardinality", 2, 2)
    assert checks and all(check.ok for check in checks)
    monkeypatch.setattr(verify, "crystal_size", lambda params: 0)
    checks = run_suite("cardinality", 2, 2)
    assert not any(check.ok for check in checks)
    assert "Weyl dimension 0" in checks[0].detail


def test_rmatrix_check_catches_an_oracle_that_is_not_an_involution(monkeypatch):
    params1, params2 = KRParams(2, 1, 1), KRParams(2, 2, 2)
    assert verify._rmatrix_failures(params1, params2) == []

    def corrupted(table):
        # the swapped side, B2 (x) B1, gets its images rotated by one
        mapping = rmatrix_oracle_ids(table)
        if table.left.vertices[0].params != params2:
            return mapping
        images = list(mapping.values())
        return dict(zip(mapping, images[1:] + images[:1]))

    monkeypatch.setattr(verify, "rmatrix_oracle_ids", corrupted)
    bad = verify._rmatrix_failures(params1, params2)
    assert bad and all(b.startswith("oracle not an involution at ") for b in bad)
    (check,) = [c for c in run_suite("rmatrix", 2, 2) if c.name == "rmatrix B^(1,1)xB^(2,2) n=2"]
    assert not check.ok and check.detail.startswith("oracle not an involution at ")


def test_tensor_check_catches_a_nonzero_level(monkeypatch):
    walk = patterns._walk

    def raised(pr, rows, l):
        # phi_0 one too high: the tensor and signature rules still agree
        phi, eps, first, last = walk(pr, rows, l)
        return phi + (l == 0), eps, first, last

    # canonical images made before carry true records, those made here
    # raised ones: neither may outlive its side of the patch
    patterns._canonical.cache_clear()
    monkeypatch.setattr(patterns, "_walk", raised)
    try:
        checks = run_suite("tensor", 2, 1)
    finally:
        patterns._canonical.cache_clear()
    assert len(checks) == 4 and not any(check.ok for check in checks)
    assert all(check.detail.startswith("nonzero level at ") for check in checks)


def test_path_check_fails_where_the_recursion_breaks(monkeypatch):
    # b_upper builds each step as b_lower of the rotated weight, whose
    # eps-profile b_lower checks; a profile off by one at color 0 fails
    # every path check
    checks = run_suite("perfect", 2, 1)
    assert all(check.ok for check in checks)
    profile = perfect.eps_profile
    monkeypatch.setattr(perfect, "eps_profile", lambda b: (profile(b)[0] + 1,) + profile(b)[1:])
    paths = [c for c in run_suite("perfect", 2, 1) if c.name.startswith("ground-state path")]
    assert len(paths) == 2 and not any(check.ok for check in paths)
    prefix = "OracleFailure: epsilon-profile of b_lower does not match the weight"
    assert all(check.detail.startswith(prefix) for check in paths)


def setting(target, name, value):
    return lambda mp: mp.setattr(target, name, value)


def connected(affine, classical):
    """Mutant: the ops suite's graph reads as connected or not, over all
    colors (affine) and over 1..n (classical)."""

    class Graph:
        def is_connected(self, colors=None):
            return affine if colors is None else classical

    return setting(verify, "build_graph", lambda *args: Graph())


class Report:
    """A failed rank-2 regularity report."""

    ok = False
    violations = ["forced"]


def monomials(name, color):
    """Mutant: the nakajima suite's MonomialCrystal read ``name`` is one
    higher (None for f and e) at one monomial color."""
    read = getattr(verify.MonomialCrystal, name)

    def wrong(self, m, l):
        value = read(self, m, l)
        if l != color:
            return value
        return None if name in ("f", "e") else value + 1

    shifted = type("Shifted", (verify.MonomialCrystal,), {name: wrong})
    return setting(verify, "MonomialCrystal", shifted)


def extra_sign(sign):
    """Mutant: signature_word gets one more (sign, 0) at the end."""
    word = verify.signature_word
    return setting(verify, "signature_word", lambda x, l: word(x, l) + [(sign, 0)])


def images(read):
    """Mutant: the signature rule's (f_l x, e_l x) are ``read(x, l)``."""
    return setting(verify, "_signature_images", lambda x, l, word: read(x, l))


def negated(mp):
    # every side of the energy check reads -H: they agree, and H > 0 somewhere
    for name in ("local_energy", "local_energy_hw"):
        read = getattr(verify, name)
        mp.setattr(verify, name, lambda x, read=read: -read(x))
    oracle = verify.local_energy_oracle
    mp.setattr(
        verify,
        "local_energy_oracle",
        lambda p1, p2: {x: -h for x, h in oracle(p1, p2).items()},
    )


# (suite, the message prefix of one failure line, the mutant that fails it)
FAILURE_LINES = [
    ("ops", "string stats at ", setting(verify, "string_phi", lambda b, l: -1)),
    ("ops", "e o f at ", setting(KRPattern, "validate", lambda b: None)),
    ("ops", "f o e at ", setting(KRPattern, "validate", lambda b: None)),
    ("ops", "phi - eps mismatch at ", setting(KRPattern, "classical_weight", lambda b: (0,) * b.n)),
    ("ops", "color-0 commutation at ", setting(verify, "_compose", lambda b, steps: steps)),
    ("ops", "pivot mismatch at ", setting(verify, "brute_pivot", lambda b, l: None)),
    ("ops", "affine graph disconnected", connected(False, True)),
    ("ops", "classical graph disconnected", connected(True, False)),
    ("tensor", "phi vs signature at ", extra_sign("+")),
    ("tensor", "eps vs signature at ", extra_sign("-")),
    ("tensor", "f vs signature at ", images(lambda x, l: (None, x.e(l)))),
    ("tensor", "e vs signature at ", images(lambda x, l: (x.f(l), None))),
    ("tensor", "partial inverse at ", setting(TensorElement, "e", lambda x, l: x)),
    ("rmatrix", "transport differs from oracle at ", setting(verify, "rmatrix", lambda x: x)),
    ("energy", "closed form differs at ", setting(verify, "local_energy", lambda x: 1)),
    ("energy", "hw law differs at ", setting(verify, "local_energy_hw", lambda x: 1)),
    ("energy", "positive energy at ", negated),
    ("regular", "pair (0, 1): forced", setting(verify, "is_regular_rank2", lambda g, p: Report)),
    ("nakajima", "color-0 statistics differ at ", monomials("phi", 1)),
    ("nakajima", "color-0 operators differ at ", monomials("f", 1)),
    ("nakajima", "color-1 statistics differ at ", monomials("eps", 2)),
    ("nakajima", "color-1 operators differ at ", monomials("e", 2)),
    ("nakajima", "nf pivot identity fails at ", monomials("nf", 2)),
    ("nakajima", "ne pivot identity fails at ", monomials("ne", 2)),
]


@pytest.mark.parametrize(
    "suite, prefix, mutant", FAILURE_LINES, ids=[row[1].strip() for row in FAILURE_LINES]
)
def test_every_failure_line_of_a_suite_can_fail_its_check(monkeypatch, suite, prefix, mutant):
    # one mutant of the library or of the oracle side per failure line: a
    # check of the suite at n = 3 (the least rank with a color-0
    # commutation to check) fails and names that line's message.  Records
    # made on either side of the patch must not outlive it
    assert all(check.ok for check in run_suite(suite, 3, 1))
    patterns._canonical.cache_clear()
    try:
        with monkeypatch.context() as mp:
            mutant(mp)
            checks = run_suite(suite, 3, 1)
    finally:
        patterns._canonical.cache_clear()
    details = [check.detail for check in checks if not check.ok]
    assert any(detail.startswith(prefix) or f"; {prefix}" in detail for detail in details), details
