"""The diagram automorphism sigma of A_n^(1), l -> (n+1-l) mod (n+1).

``oracles.flip`` reflects a pattern of B^{r,s} onto B^{n+1-r,s}.  It is
a crystal isomorphism onto the sigma-twisted structure, so it commutes
with the operators up to sigma on colors, with the R-matrix and with the
global energy, and keeps the local energy.  The operator checks cover the
desk crystals; the transport checks draw pairs at n = 6..12, where no
crystal is enumerated.
"""

import random

from krpoly import (
    DominantWeight,
    KRParams,
    b_lower,
    enumerate_crystal,
    global_energy,
    local_energy,
)
from krpoly.oracles import flip
from krpoly.rmatrix import rmatrix

from conftest import all_params, random_element


def sigma(l, n):
    return (n + 1 - l) % (n + 1)


def flip_or_none(b):
    return None if b is None else flip(b)


def test_flip_is_an_involution_that_twists_the_operators_by_sigma():
    checked = 0
    for n in range(1, 5):
        for params in all_params(n, 2):
            for b in enumerate_crystal(params):
                image = flip(b).validate()
                assert image.params == KRParams(n, n + 1 - params.r, params.s)
                assert flip(image) == b
                for l in range(n + 1):
                    assert flip_or_none(b.f(l)) == image.f(sigma(l, n)), (b, l)
                    assert flip_or_none(b.e(l)) == image.e(sigma(l, n)), (b, l)
                    checked += 2
    assert checked == 2160  # (element, color, operator) triples


def test_flip_commutes_with_the_rmatrix_and_keeps_the_local_energy():
    rng = random.Random(20261022)
    for _ in range(600):
        x = random_element(rng, all_params(rng.randint(6, 12), 4), 2)
        assert rmatrix(flip(x)) == flip(rmatrix(x)), x
        assert local_energy(flip(x)) == local_energy(x), x


def test_flip_keeps_the_global_energy():
    rng = random.Random(41)
    for _ in range(80):
        shapes = all_params(rng.randint(5, 9), 2)
        x = random_element(rng, shapes, rng.randint(3, 6))
        assert global_energy(flip(x)) == global_energy(x), x


def test_flip_maps_the_ground_state_elements_by_sigma():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(2, 20)
        params = KRParams(n, rng.randint(1, n), rng.randint(1, 5))
        cuts = sorted(rng.randint(0, params.s) for _ in range(n))
        coeffs = tuple(hi - lo for lo, hi in zip((0, *cuts), (*cuts, params.s)))
        weight = DominantWeight(coeffs)
        twisted = DominantWeight(tuple(coeffs[sigma(l, n)] for l in range(n + 1)))
        flipped = KRParams(n, n + 1 - params.r, params.s)
        assert b_lower(twisted, flipped) == flip(b_lower(weight, params)), (weight, params)
