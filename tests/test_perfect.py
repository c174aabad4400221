import dataclasses
import itertools
import random
from collections import Counter

import pytest

from krpoly import (
    DominantWeight,
    InvalidParams,
    KRError,
    KRParams,
    LevelMismatch,
    OracleFailure,
    PerfectReport,
    SizeLimitExceeded,
    b_lower,
    b_upper,
    check_perfect,
    dominant_weights,
    enumerate_crystal,
    eps_profile,
    ground_state_path,
    phi_profile,
)
from krpoly import perfect

from conftest import UNDECIDED, all_params, check_undecided, undecided_certificates


def test_dominant_weight_enumeration():
    weights = dominant_weights(2, 1)
    assert [w.coeffs for w in weights] == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert all(w.level == 1 for w in weights)
    assert len(dominant_weights(3, 2)) == 10
    for n in range(1, 5):
        for level in range(5):
            brute = [c for c in itertools.product(range(level + 1), repeat=n + 1) if sum(c) == level]
            assert [w.coeffs for w in dominant_weights(n, level)] == brute


def test_dominant_weights_at_a_high_rank():
    # the list used to recurse once per coefficient and failed from n = 995;
    # at level 1 the weights are the unit vectors, the last one first
    weights = dominant_weights(1500, 1)
    assert len(weights) == 1501
    assert [w.coeffs.index(1) for w in weights] == list(range(1500, -1, -1))
    assert all(w.level == 1 for w in weights)


@pytest.mark.parametrize("n, level", [(-1, 1), (0, 2), (2, -1), (True, 1), (2, False), (2.0, 1)])
def test_dominant_weights_rejects_a_bad_rank_or_level(n, level):
    # (-1, 1) used to recurse without end, (0, 2) to give [(2,)], (2, -1)
    # to give [] and (True, 1) to be read as n = 1
    with pytest.raises(InvalidParams, match="n >= 1 and level >= 0"):
        dominant_weights(n, level)


def test_dominant_weights_at_level_zero_is_the_zero_weight():
    assert [w.coeffs for w in dominant_weights(2, 0)] == [(0, 0, 0)]


def test_level_mismatch_errors():
    with pytest.raises(LevelMismatch):
        b_lower(DominantWeight((1, 0, 0)), KRParams(2, 1, 2))
    with pytest.raises(LevelMismatch):
        b_upper(DominantWeight((1, 0)), KRParams(2, 1, 1))
    with pytest.raises(LevelMismatch):
        ground_state_path(DominantWeight((2, 0, 0)), KRParams(2, 1, 1), 4)


@pytest.mark.parametrize(
    "coeffs", [(0.5, 1.5, 0), (True, True, False), (1.0, 1, 0), 3, [1, 0, 0], ()]
)
def test_dominant_weights_take_integer_coefficients_only(coeffs):
    params = KRParams(2, 1, 2)
    # an empty tuple holds only integers, but no weight
    message = "at least one coefficient" if coeffs == () else "must be integers"
    for use in (
        lambda: b_upper(DominantWeight(coeffs), params),
        lambda: b_lower(DominantWeight(coeffs), params),
        lambda: ground_state_path(DominantWeight(coeffs), params, 3),
    ):
        with pytest.raises(KRError, match=message) as err:
            use()
        assert isinstance(err.value, InvalidParams)
    with pytest.raises(InvalidParams, match="non-negative"):
        DominantWeight((3, -1, 0))


def test_b_lower_reads_coefficients_without_wraparound():
    # entry at (p, q) is coefficient p+q-r; top row a_1..a_r, bottom a_{n-r+1}..a_n
    weight = DominantWeight((0, 1, 0, 2))  # level 3, n = 3
    b = b_lower(weight, KRParams(3, 2, 3))
    assert b.rows == ((1, 0), (0, 2))
    assert eps_profile(b) == weight.coeffs


def test_b_lower_profile_for_corner_weight():
    for params in all_params(3, 2):
        weight = DominantWeight(
            tuple(params.s if t == params.r else 0 for t in range(params.n + 1))
        )
        b = b_lower(weight, params)
        assert b.eps(params.r) == params.s
        assert all(b.eps(t) == 0 for t in range(params.n + 1) if t != params.r)


def test_b_upper_reads_coefficients_mod_n_plus_one():
    weight = DominantWeight((2, 0, 0))  # level 2 at n = 2, all weight on node 0
    b = b_upper(weight, KRParams(2, 1, 2))
    # cells (p, q) carry coefficient (p + q) mod 3; only p+q = 0 mod 3 is hit
    assert b.rows == ((0,), (2,))
    assert phi_profile(b) == weight.coeffs


def test_b_upper_last_row_reads_initial_coefficients():
    # bottom row (q = n) carries a_0, a_1, ..., a_{r-1}
    weight = DominantWeight((1, 1, 0, 1))
    params = KRParams(3, 2, 3)
    b = b_upper(weight, params)
    assert tuple(b.a(p, params.n) for p in range(1, params.r + 1)) == (1, 1)
    assert phi_profile(b) == weight.coeffs


def test_profiles_match_exhaustive_uniqueness_search():
    for params in all_params(3, 2):
        eps_hits, phi_hits = {}, {}
        for b in enumerate_crystal(params):
            for hits, prof in ((eps_hits, eps_profile(b)), (phi_hits, phi_profile(b))):
                if sum(prof) == params.s:
                    hits.setdefault(prof, []).append(b)
        targets = dominant_weights(params.n, params.s)
        assert eps_hits.keys() == phi_hits.keys() == {w.coeffs for w in targets}
        for weight in targets:
            assert eps_hits[weight.coeffs] == [b_lower(weight, params)]
            assert phi_hits[weight.coeffs] == [b_upper(weight, params)]


def test_profile_sums_are_at_least_the_level():
    for params in all_params(3, 2):
        for b in enumerate_crystal(params):
            assert sum(eps_profile(b)) >= params.s
            assert sum(phi_profile(b)) >= params.s


def test_check_perfect_vector_crystal():
    report = check_perfect(KRParams(2, 1, 1))
    assert report.ok
    assert report.cardinality == 3
    assert report.tensor_square_connected
    assert report.min_profile_level == 1
    assert report.eps_profiles_bijective and report.phi_profiles_bijective
    assert report.formulas_match_search


def test_check_perfect_sweep_small():
    for params in all_params(3, 2):
        assert check_perfect(params).ok


def test_report_stores_only_what_it_measured():
    stored = {f.name for f in dataclasses.fields(PerfectReport)}
    assert not stored & {"level", "finite", "profile_level_ok"}
    for params in all_params(3, 2):
        report = check_perfect(params)
        assert report.level == params.s and report.finite
        assert report.profile_level_ok and report.min_profile_level == params.s


def test_check_perfect_reads_b_once(monkeypatch):
    reads = []

    class Counted(list):
        def __iter__(self):
            reads.append("iterated")
            return super().__iter__()

    def enumerate_once(params):
        reads.append("enumerated")
        return Counted(enumerate_crystal(params))

    monkeypatch.setattr(perfect, "enumerate_crystal", enumerate_once)
    for params in (KRParams(2, 1, 1), KRParams(3, 2, 2)):
        reads.clear()
        assert check_perfect(params).ok
        assert reads == ["enumerated", "iterated"]


def test_a_duplicated_level_exact_element_breaks_uniqueness(monkeypatch):
    # b_lower of a weight off Lambda_0 is level-exact on both sides and not
    # the zero pattern, so only the profile and square conditions can fail
    params = KRParams(2, 1, 1)
    twin = b_lower(DominantWeight((0, 1, 0)), params)
    monkeypatch.setattr(perfect, "enumerate_crystal", lambda p: enumerate_crystal(p) + [twin])
    report = check_perfect(params)
    assert report.eps_profiles_bijective is False
    assert report.phi_profiles_bijective is False
    assert report.top_weight_unique and report.classical_weights_dominated
    assert report.formulas_match_search and report.profile_level_ok
    assert report.violations == [
        "tensor square of 16 elements not certified connected by its highest weight elements",
        "epsilon-profile (0, 1, 0) hit by 2 elements",
        f"phi-profile {phi_profile(twin)} hit by 2 elements",
    ]


class WeightStub:
    """Stands in for a crystal element whose profiles all read 1.

    At level 1 they are never level-exact, so only the classical weight
    of the stub takes part in the conditions.
    """

    def __init__(self, name, weight):
        self.name, self.weight, self.n = name, weight, len(weight)

    def classical_weight(self):
        return self.weight

    def eps(self, l):
        return 1

    phi = eps

    def __repr__(self):
        return self.name


def test_weight_cone_rejects_a_second_top_and_escaping_weights(monkeypatch):
    params = KRParams(2, 1, 1)
    clean = check_perfect(params)
    assert clean.classical_weights_dominated and clean.top_weight_unique
    assert clean.violations == []
    top = enumerate_crystal(params)[0].classical_weight()
    # (0, 0) lies under the top (1, 0) but off the root lattice; (2, 0) lies above it
    # a weight tested once still reports every element that carries it
    stubs = [
        WeightStub("twin", top),
        WeightStub("off", (0, 0)),
        WeightStub("above", (2, 0)),
        WeightStub("off again", (0, 0)),
    ]
    monkeypatch.setattr(perfect, "enumerate_crystal", lambda p: enumerate_crystal(p) + stubs)
    report = check_perfect(params)
    assert not report.classical_weights_dominated and not report.top_weight_unique
    assert report.eps_profiles_bijective and report.phi_profiles_bijective
    assert report.min_profile_level == 1
    # the stubs enlarge the square past the Weyl dimensions of its highest
    # weight elements, so the certificate does not decide
    assert report.violations == [
        "tensor square of 49 elements not certified connected by its highest weight elements",
        "weight of off escapes the dominance cone",
        "weight of above escapes the dominance cone",
        "weight of off again escapes the dominance cone",
        "2 elements share the top classical weight",
    ]


class ProfileStub(WeightStub):
    """A WeightStub whose epsilon- and phi-profiles are both ``profile``."""

    def __init__(self, name, weight, profile):
        super().__init__(name, weight)
        self.profile = profile

    def eps(self, l):
        return self.profile[l]

    phi = eps


def test_profiles_below_the_level_or_off_the_dominant_weights_are_violations(monkeypatch):
    # a profile of level 0 < s, and one of level s with a negative
    # coefficient, which no dominant weight of level s matches
    params = KRParams(2, 1, 1)
    low = enumerate_crystal(params)[-1].classical_weight()
    stubs = [ProfileStub("low", low, (0, 0, 0)), ProfileStub("odd", low, (-1, 2, 0))]
    monkeypatch.setattr(perfect, "enumerate_crystal", lambda p: enumerate_crystal(p) + stubs)
    report = check_perfect(params)
    assert report.min_profile_level == 0 and not report.profile_level_ok
    assert not report.eps_profiles_bijective and not report.phi_profiles_bijective
    assert report.classical_weights_dominated and report.top_weight_unique
    assert report.formulas_match_search
    assert report.violations == [
        f"tensor square of 25 elements {UNDECIDED}",
        "some epsilon-profile has level 0 < 1",
        "unexpected level-exact epsilon-profiles: [(-1, 2, 0)]",
        "unexpected level-exact phi-profiles: [(-1, 2, 0)]",
    ]


def test_a_wrong_formula_element_is_reported_on_both_sides(monkeypatch):
    # b_ of (0, 1, 0) built as the zero pattern, which is b_ of (1, 0, 0);
    # the phi side reads it as b^ of (0, 0, 1), which rotates by r = 1 to
    # (0, 1, 0)
    params = KRParams(2, 1, 1)
    formula = perfect.b_lower

    def wrong(weight, params):
        return formula(DominantWeight((1, 0, 0)) if weight.coeffs == (0, 1, 0) else weight, params)

    monkeypatch.setattr(perfect, "b_lower", wrong)
    report = check_perfect(params)
    assert report.eps_profiles_bijective and report.phi_profiles_bijective
    assert not report.formulas_match_search
    assert report.violations == [
        "search and formula disagree on b^((0, 0, 1))",
        "search and formula disagree on b_((0, 1, 0))",
    ]


def test_check_perfect_builds_each_b_lower_once_and_no_b_upper(monkeypatch):
    # b^ of a weight is b_ of its rotation by r: one b_ per dominant weight
    # of level s serves both sides
    built = Counter()
    formula = perfect.b_lower

    def counting(weight, params):
        built[weight] += 1
        return formula(weight, params)

    def refuse(*args):
        raise AssertionError("b_upper was called")

    monkeypatch.setattr(perfect, "b_lower", counting)
    monkeypatch.setattr(perfect, "b_upper", refuse)
    for params in (KRParams(2, 1, 2), KRParams(4, 3, 2)):
        built.clear()
        assert check_perfect(params).ok
        assert built == Counter(dominant_weights(params.n, params.s))


def test_b_upper_checks_its_phi_profile(monkeypatch):
    profile = perfect.phi_profile
    monkeypatch.setattr(perfect, "phi_profile", lambda b: (profile(b)[0] + 1,) + profile(b)[1:])
    with pytest.raises(OracleFailure, match="^phi-profile of b_upper does not match the weight$"):
        b_upper(DominantWeight((1, 0, 0)), KRParams(2, 1, 1))


def test_the_certificate_refuses_a_list_of_wrong_elements_before_weighing_it(monkeypatch):
    # a repeated element, or one that is not classical highest weight, ends
    # the certificate before any Weyl dimension is read
    params = KRParams(2, 1, 1)
    complete = perfect.highest_weight_elements(params, params)
    lowered = complete[-1].f(2)
    assert lowered is not None
    size = len(enumerate_crystal(params)) ** 2
    assert perfect._certificate(params, size)

    def weigh(weight):
        raise AssertionError("a Weyl dimension was read")

    monkeypatch.setattr(perfect, "weyl_dimension", weigh)
    for listed in (complete + complete[:1], complete[:-1] + [lowered]):
        monkeypatch.setattr(perfect, "highest_weight_elements", lambda *p, listed=listed: listed)
        assert perfect._certificate(params, size) is False


def test_the_certificate_is_undecided_on_an_image_outside_its_list(monkeypatch):
    # an f_0/e_0 image raised to an element that H does not hold
    params = KRParams(2, 1, 1)
    hw = perfect.highest_weight_elements(params, params)
    outside = hw[0].f(1)
    assert outside is not None
    monkeypatch.setattr(perfect, "_affine_edges", lambda hw: iter([(hw[0], outside)]))
    size = len(enumerate_crystal(params)) ** 2
    assert perfect._certificate(params, size) is False


def cone_by_inverse_cartan(top, wt):
    """Reference: the inverse Cartan matrix of A_n, scaled by n+1, applied to top - wt."""
    n = len(top)
    inverse = [[(n + 1) * min(i, j) - i * j for j in range(1, n + 1)] for i in range(1, n + 1)]
    diff = [t - w for t, w in zip(top, wt)]
    coords = [sum(a * d for a, d in zip(row, diff)) for row in inverse]
    return not any(c < 0 or c % (n + 1) for c in coords)


def test_dominance_cone_by_prefix_sums_matches_the_matrix_form():
    rng = random.Random(7)
    verdicts = Counter()
    for _ in range(3000):
        n = rng.randint(1, 12)
        top = tuple(rng.randint(0, 4) for _ in range(n))
        # below the top on the root lattice, above it, or anywhere (mostly off it)
        roots = [0, *(rng.randint(-1 if rng.random() < 0.3 else 0, 3) for _ in range(n)), 0]
        cartan = [2 * roots[i] - roots[i - 1] - roots[i + 1] for i in range(1, n + 1)]
        shift = cartan if rng.random() < 0.6 else [rng.randint(-3, 3) for _ in range(n)]
        wt = tuple(t - d for t, d in zip(top, shift))
        want = cone_by_inverse_cartan(top, wt)
        assert perfect._dominated(top, wt) == want, (top, wt)
        verdicts[want] += 1
    assert verdicts[True] > 500 and verdicts[False] > 500


def test_ground_state_path_builds_each_distinct_weight_once(monkeypatch):
    built = Counter()
    builder = perfect.b_upper

    def counting(weight, params):
        built[weight.coeffs] += 1
        return builder(weight, params)

    for params, weight in [
        (KRParams(3, 3, 3), DominantWeight((1, 0, 2, 0))),
        (KRParams(5, 2, 4), DominantWeight((2, 1, 0, 0, 1, 0))),
        (KRParams(4, 2, 1), DominantWeight((0, 0, 1, 0, 0))),
    ]:
        length = 10 * (params.n + 1)
        built.clear()
        monkeypatch.setattr(perfect, "b_upper", counting)
        path = ground_state_path(weight, params, length)
        monkeypatch.undo()
        assert sum(built.values()) <= params.n + 1 and max(built.values()) == 1
        # reference: build and check every step
        weights, elements = [weight], []
        for _ in range(length):
            b = b_upper(weights[-1], params)
            elements.append(b)
            weights.append(weights[-1].rotate(params.r))
            assert eps_profile(b) == weights[-1].coeffs
        assert path.weights == tuple(weights[:length])
        assert path.elements == tuple(elements)


def test_ground_state_path_full_rotation():
    # r = n: the weight cycle has period n+1 and the rows shift by one
    weight = DominantWeight((1, 0, 2, 0))
    params = KRParams(3, 3, 3)
    path = ground_state_path(weight, params, 8)
    assert [w.coeffs for w in path.weights[:5]] == [
        (1, 0, 2, 0),
        (0, 1, 0, 2),
        (2, 0, 1, 0),
        (0, 2, 0, 1),
        (1, 0, 2, 0),
    ]
    assert path.period == 4
    assert path.elements[0].rows == ((1, 0, 2),)
    assert path.elements[1].rows == ((0, 1, 0),)
    assert path.elements[3].rows == ((0, 2, 0),)


def test_ground_state_path_two_row_case():
    # r = n-1 with odd n: weights slide backwards by two
    weight = DominantWeight((1, 1, 0, 1))
    path = ground_state_path(weight, KRParams(3, 2, 3), 6)
    assert [w.coeffs for w in path.weights[:3]] == [
        (1, 1, 0, 1),
        (0, 1, 1, 1),
        (1, 1, 0, 1),
    ]
    assert path.elements[0].rows == ((1, 1), (1, 1))
    assert path.period == 2


def test_ground_state_path_one_hot_weight():
    params = KRParams(3, 2, 2)
    path = ground_state_path(DominantWeight((2, 0, 0, 0)), params, 8)
    for k, w in enumerate(path.weights):
        hot = w.coeffs.index(2)
        assert hot == (-k * params.r) % (params.n + 1)
        assert sum(w.coeffs) == 2


def test_ground_state_path_rejects_a_negative_length():
    weight = DominantWeight((1, 1, 0))
    with pytest.raises(InvalidParams, match="non-negative"):
        ground_state_path(weight, KRParams(2, 1, 2), -1)
    assert ground_state_path(weight, KRParams(2, 1, 2), 0).elements == ()


@pytest.mark.parametrize("length", [2.0, True, "3"])
def test_ground_state_path_rejects_a_length_that_is_not_an_int(length):
    # 2.0 used to raise a bare TypeError and True to give a path of length 1
    with pytest.raises(InvalidParams, match="path length must be an integer"):
        ground_state_path(DominantWeight((1, 1, 0)), KRParams(2, 1, 2), length)


def test_period_divides_rotation_order():
    import math

    for params in all_params(3, 2):
        weight = dominant_weights(params.n, params.s)[1]
        path = ground_state_path(weight, params, 3 * (params.n + 1))
        order = (params.n + 1) // math.gcd(params.n + 1, params.r)
        assert path.period is not None and order % path.period == 0


def test_an_empty_path_has_no_period():
    # weights[0] of an empty prefix used to raise IndexError
    path = ground_state_path(DominantWeight((1, 0, 0)), KRParams(2, 1, 1), 0)
    assert path.weights == path.elements == ()
    assert path.period is None
    assert ground_state_path(DominantWeight((1, 0, 0)), KRParams(2, 1, 1), 1).period is None


def test_oversized_square_is_refused_before_the_walk(monkeypatch):
    from krpoly.oracles import PairTable

    def walk(self, *args, **kwargs):
        raise AssertionError("the tensor square was walked")

    monkeypatch.setattr(PairTable, "__init__", walk)
    # |B^{3,2}| = 490 at n=6: neither the certificate nor an undecided one
    # walks the 240,100 > 200,000 square elements or raises SizeLimitExceeded
    check_undecided(monkeypatch, KRParams(6, 3, 2))


def test_the_certificate_route_builds_no_crystal_graph(monkeypatch):
    from krpoly.graph import CrystalGraph
    from krpoly.oracles import PairTable

    class Built(Exception):
        pass

    def refuse(self, *args, **kwargs):
        raise Built

    monkeypatch.setattr(CrystalGraph, "__init__", refuse)
    monkeypatch.setattr(PairTable, "__init__", refuse)
    shapes = [p for n in range(1, 4) for p in all_params(n, 2)] + [KRParams(6, 3, 3)]
    for params in shapes:
        assert check_perfect(params).ok, params
    # an undecided certificate builds none either: it is reported, not walked
    for name, forced in undecided_certificates():
        with monkeypatch.context() as patch:
            patch.setattr(perfect, name, forced)
            for params in (KRParams(2, 1, 2), KRParams(6, 3, 2)):
                report = check_perfect(params)
                assert not report.tensor_square_connected, params
                assert UNDECIDED in report.violations[0]


def test_ground_state_path_longer_than_the_cap_is_refused_at_once(monkeypatch):
    def build(*args):
        raise AssertionError("an element was built")

    monkeypatch.setattr(perfect, "b_upper", build)
    with pytest.raises(SizeLimitExceeded):
        ground_state_path(DominantWeight((1, 1, 0)), KRParams(2, 1, 2), 1_000_001)


def test_weyl_dimension_counts_each_kr_crystal():
    # B^{r,s} is classically irreducible of highest weight s Lambda_r
    for params in all_params(4, 3):
        weight = tuple(params.s if l == params.r else 0 for l in range(1, params.n + 1))
        assert perfect.weyl_dimension(weight) == len(enumerate_crystal(params))
    assert perfect.weyl_dimension((1, 1)) == 8  # adjoint of sl_3
    assert perfect.weyl_dimension((0, 0, 0)) == 1
