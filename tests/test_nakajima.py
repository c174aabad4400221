import functools
import random

import pytest

from krpoly import (
    IndexOutOfRange,
    InvalidParams,
    KRError,
    KRParams,
    Monomial,
    MonomialCrystal,
    enumerate_crystal,
    psi_embedding,
    zero_pattern,
)
from krpoly.graph import CrystalGraph, build_graph
from krpoly.regularity import is_regular_rank2
from krpoly.verify import run_suite

from conftest import all_params, closure, f_lists


A2 = MonomialCrystal()


def Y(*items):
    return Monomial.from_items(tuple((key, v) for key, v in items))


def component(m):
    """The monomials reachable from m under colors 1 and 2, sorted by exponents."""
    return closure([m], (1, 2), A2.f, A2.e, key=lambda x: x.exps)


def test_empty_monomial():
    one = Monomial(())
    assert A2.wt(one) == (0, 0)
    assert A2.phi(one, 1) == A2.eps(one, 1) == 0
    assert A2.f(one, 1) is None and A2.e(one, 2) is None


@pytest.mark.parametrize(
    "exps",
    [
        None,
        5,
        {},
        [((1, 0), 1)],
        (((1, 0), 1, 2),),
        (((3, 0), 1),),
        (((0, 0), 1),),
        (((True, 0), 1),),
        (((1, 0.0), 1),),
        (((1, 0), True),),
        (((1, 0), 0),),
        (((2, 0), 1), ((1, 0), 1)),
        (((1, 0), 1), ((1, 0), 2)),
        ((1, 1),),  # a pair whose key is not an (index, shift) pair
        (((1, 0, 0), 1),),
    ],
)
def test_a_malformed_monomial_is_refused(exps):
    with pytest.raises(InvalidParams, match="^exps must be"):
        Monomial(exps)


@pytest.mark.parametrize("color", [0, 3, 5, -1, True, 1.0, "1", None])
def test_a_color_outside_the_rank_two_crystal_is_refused(color):
    # f(m, 5) returned None, as if the string were empty
    m = Y(((1, 0), 1), ((1, 1), -1), ((2, 0), 1))
    reads = [functools.partial(read, m) for read in (A2.phi, A2.eps, A2.nf, A2.ne, A2.f, A2.e)]
    reads.append(lambda l: A2.multiplier(l, 0))
    for read in reads:
        assert read(1) is not None
        with pytest.raises(IndexOutOfRange, match=rf"^color {color!r} outside 1\.\.2$"):
            read(color)


def test_single_variable():
    m = Y(((1, 0), 1))
    assert A2.wt(m) == (1, 0)
    assert A2.phi(m, 1) == 1 and A2.eps(m, 1) == 0


def test_mixed_exponents_prefix_maxima():
    m = Y(((1, 0), 1), ((1, 1), -1))
    # prefix sums over shifts: 0 -> 1 -> 0; tails: 0, -1, 0
    assert A2.phi(m, 1) == 1
    assert A2.eps(m, 1) == 1
    assert A2.nf(m, 1) == 0
    assert A2.wt(m) == (0, 0)


def brute_string(m, l):
    """(phi, eps, nf, ne) from the prefix sums at every shift of the window,
    one below the least Y_l shift up to the largest, absent shifts included."""
    exps = dict(m.exps)
    shifts = [k for i, k in exps if i == l]
    if not shifts:
        return 0, 0, 0, 0
    window = range(min(shifts) - 1, max(shifts) + 1)
    sums = {k: sum(exps.get((l, j), 0) for j in window if j <= k) for k in window}
    phi = max(sums.values())
    peaks = [k for k in window if sums[k] == phi]
    return phi, phi - sums[window[-1]], peaks[0], peaks[-1]


def test_operators_are_partially_inverse_on_random_monomials():
    rng = random.Random(5)
    crystal = MonomialCrystal()
    gapped = 0
    for _ in range(300):
        items = tuple(
            ((rng.randint(1, 2), rng.randint(-2, 2)), rng.randint(-2, 2))
            for _ in range(rng.randint(0, 5))
        )
        m = Monomial.from_items(items)
        for l in (1, 2):
            stats = (crystal.phi(m, l), crystal.eps(m, l), crystal.nf(m, l), crystal.ne(m, l))
            assert stats == brute_string(m, l), (m, l)
            shifts = [k for (i, k), _ in m.exps if i == l]
            gapped += bool(shifts) and len(shifts) <= max(shifts) - min(shifts)
            fm = crystal.f(m, l)
            if fm is not None:
                assert crystal.e(fm, l) == m
            em = crystal.e(m, l)
            if em is not None:
                assert crystal.f(em, l) == m
    assert gapped > 50  # strings with an absent shift inside their window


def weyl_dim_a2(a, b):
    return (a + 1) * (b + 1) * (a + b + 2) // 2


def test_dominant_component_sizes_match_weyl_dimension():
    for a in range(3):
        for b in range(3):
            if a == b == 0:
                continue
            m = Y(((1, 0), a), ((2, 0), b))
            assert A2.eps(m, 1) == A2.eps(m, 2) == 0
            assert len(component(m)) == weyl_dim_a2(a, b)


def test_the_flipped_convention_fails_every_nakajima_check(monkeypatch):
    # c_12 = 1, c_21 = 0 moves each Y_{3-l} factor of A_l by one shift;
    # the embedding matches only Kashiwara's c_21 = 1, c_12 = 0
    def flipped(self, l, k):
        if l == 1:
            return [((1, k), 1), ((1, k + 1), 1), ((2, k), -1)]
        return [((2, k), 1), ((2, k + 1), 1), ((1, k + 1), -1)]

    assert all(check.ok for check in run_suite("nakajima", 3, 2))
    monkeypatch.setattr(MonomialCrystal, "multiplier", flipped)
    checks = run_suite("nakajima", 3, 2)
    assert len(checks) == 6
    assert not any(check.ok for check in checks)


def crystal_isomorphic(graph1, graph2, colors):
    """Rooted colored-digraph isomorphism, sources matched first."""
    if len(graph1.vertices) != len(graph2.vertices):
        return False
    src1 = [
        i
        for i in range(len(graph1.vertices))
        if all(graph1.e[l][i] is None for l in colors)
    ]
    src2 = [
        i
        for i in range(len(graph2.vertices))
        if all(graph2.e[l][i] is None for l in colors)
    ]
    if len(src1) != 1 or len(src2) != 1:
        return False
    match = {src1[0]: src2[0]}
    queue = [src1[0]]
    while queue:
        i = queue.pop()
        for l in colors:
            a, b = graph1.f[l][i], graph2.f[l][match[i]]
            if (a is None) != (b is None):
                return False
            if a is None:
                continue
            if a in match:
                if match[a] != b:
                    return False
            else:
                match[a] = b
                queue.append(a)
    return len(match) == len(graph1.vertices)


def test_monomial_component_realizes_the_rectangular_crystal():
    # classical crystal of B^{r,s} at n=2 vs the dominant monomial component
    for params in all_params(2, 2):
        comp = component(Y(((params.r, 0), params.s)))
        with pytest.raises(InvalidParams, match="give f as id lists"):
            CrystalGraph(comp, (1, 2))
        mono_graph = CrystalGraph(comp, (1, 2), f_lists(comp, (1, 2), A2.f))
        pat_graph = build_graph(enumerate_crystal(params), (1, 2))
        assert crystal_isomorphic(pat_graph, mono_graph, (1, 2))


def test_regularity_on_monomial_vertices_raises_a_typed_error():
    # a monomial names no rank n, and the Cartan pairing of two colors needs it
    comp = component(Y(((2, 0), 2)))
    graph = CrystalGraph(comp, (1, 2), f_lists(comp, (1, 2), A2.f))
    with pytest.raises(KRError, match="^Monomial vertices carry no rank n$"):
        is_regular_rank2(graph, (1, 2))


def test_psi_sends_the_generator_to_a_corner_monomial():
    for params in all_params(3, 2):
        m = psi_embedding(zero_pattern(params))
        assert m == Y(((1, 1), -params.s))


def test_psi_statistics_and_intertwining():
    crystal2 = MonomialCrystal()
    for params in all_params(3, 2):
        for b in enumerate_crystal(params):
            m = psi_embedding(b)
            assert crystal2.phi(m, 1) == b.phi(0)
            assert crystal2.eps(m, 1) == b.eps(0)
            fb, fm = b.f(0), crystal2.f(m, 1)
            assert (fb is None) == (fm is None)
            if fb is not None:
                assert psi_embedding(fb) == fm
            eb, em = b.e(0), crystal2.e(m, 1)
            assert (eb is None) == (em is None)
            if eb is not None:
                assert psi_embedding(eb) == em
            if params.r >= 2:
                assert crystal2.phi(m, 2) == b.phi(1)
                assert crystal2.eps(m, 2) == b.eps(1)
                fb, fm = b.f(1), crystal2.f(m, 2)
                assert (fb is None) == (fm is None)
                if fb is not None:
                    assert psi_embedding(fb) == fm


def test_psi_pivot_identities():
    from krpoly import pivot

    crystal2 = MonomialCrystal()
    for params in [KRParams(3, 2, 2), KRParams(4, 3, 2)]:
        for b in enumerate_crystal(params):
            m = psi_embedding(b)
            q_minus, p_minus = pivot(b, 1)
            if b.phi(1) > 0:
                assert crystal2.nf(m, 2) == params.n - p_minus
            if b.eps(1) > 0:
                assert crystal2.ne(m, 2) == params.n - q_minus
