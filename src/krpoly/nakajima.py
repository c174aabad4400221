"""Nakajima monomial crystal of type A_2 and the corner embedding of KR patterns.

Monomials are finitely supported Laurent monomials in variables Y_i(k)
(index i = 1, 2, integer shift k).  The crystal is Kashiwara's rank-2
monomial crystal with the sign convention c_21 = 1, c_12 = 0, so the
multipliers of the two colors at shift k are

    A_1(k) = Y_1(k) Y_1(k+1) Y_2(k+1)^-1,
    A_2(k) = Y_2(k) Y_2(k+1) Y_1(k)^-1.

Each statistic of a color (phi, eps and the shifts nf, ne where f and e
act) comes from one walk of its string, ``MonomialCrystal._string``.

The embedding ``psi_embedding`` sends a pattern of B^{r,s} to a rank-2
monomial in a way that matches the affine color 0 with monomial color 1
and (for r >= 2) the classical color 1 with monomial color 2, giving an
independent certificate for the corner crystal structure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IndexOutOfRange, InvalidParams
from .patterns import KRPattern


def _is_term(item):
    """True for one ((index, shift), exponent) pair of a Monomial."""
    if not (isinstance(item, tuple) and len(item) == 2):
        return False
    key, v = item
    if not (isinstance(key, tuple) and len(key) == 2):
        return False
    i, k = key
    return type(i) is type(k) is type(v) is int and i in (1, 2) and v != 0


@dataclass(frozen=True)
class Monomial:
    """Finitely supported exponent map ((index, shift) -> exponent).

    ``exps`` is a tuple of ((index, shift), exponent) pairs sorted by
    (index, shift) without repeats: index 1 or 2, ``int`` shifts and
    nonzero ``int`` exponents (bools refused).  Anything else raises
    InvalidParams; ``from_items`` builds this form from any items.
    """

    exps: tuple

    def __post_init__(self):
        exps = self.exps
        if not (
            isinstance(exps, tuple)
            and all(map(_is_term, exps))
            and all(a[0] < b[0] for a, b in zip(exps, exps[1:]))
        ):
            raise InvalidParams(
                "exps must be ((index, shift), exponent) pairs sorted without repeats, "
                f"index 1 or 2, integer shifts and nonzero integer exponents, got {exps!r}"
            )

    @classmethod
    def from_items(cls, items):
        acc = {}
        for key, val in items:
            acc[key] = acc.get(key, 0) + val
        return cls(tuple(sorted((k, v) for k, v in acc.items() if v != 0)))

    def times(self, items, power):
        """This monomial times the monomial of ``items`` raised to ``power``."""
        return Monomial.from_items(self.exps + tuple((key, power * val) for key, val in items))


class MonomialCrystal:
    """The rank-2 monomial crystal of type A_2, colors 1 and 2."""

    def wt(self, m):
        """Classical weight: per-index exponent sums."""
        coeffs = [0, 0]
        for (i, _), v in m.exps:
            coeffs[i - 1] += v
        return tuple(coeffs)

    def _string(self, m, l):
        """(phi, eps, nf, ne) of color l: one running sum of the Y_l exponents
        from 0 one shift below the least Y_l shift through every shift up to
        the largest (an absent shift adds 0).  phi is its peak, eps the peak
        minus the final sum, nf and ne the first and last shifts at the peak.
        A color that is not the ``int`` 1 or 2 raises IndexOutOfRange.
        """
        _check_color(l)
        exps = {k: v for (i, k), v in m.exps if i == l}
        if not exps:
            return 0, 0, 0, 0
        lo = min(exps)
        run = phi = 0
        nf = ne = lo - 1
        for k in range(lo, max(exps) + 1):
            run += exps.get(k, 0)
            if run > phi:
                phi, nf, ne = run, k, k
            elif run == phi:
                ne = k
        return phi, phi - run, nf, ne

    def phi(self, m, l):
        return self._string(m, l)[0]

    def eps(self, m, l):
        return self._string(m, l)[1]

    def nf(self, m, l):
        """Smallest shift where the running sum attains phi_l."""
        return self._string(m, l)[2]

    def ne(self, m, l):
        """Largest shift where minus the tail sum attains eps_l."""
        return self._string(m, l)[3]

    def multiplier(self, l, k):
        """Exponent items of A_l(k)."""
        _check_color(l)
        if l == 1:
            return [((1, k), 1), ((1, k + 1), 1), ((2, k + 1), -1)]
        return [((2, k), 1), ((2, k + 1), 1), ((1, k), -1)]

    def f(self, m, l):
        phi, _, nf, _ = self._string(m, l)
        return None if phi == 0 else m.times(self.multiplier(l, nf), -1)

    def e(self, m, l):
        _, eps, _, ne = self._string(m, l)
        return None if eps == 0 else m.times(self.multiplier(l, ne), 1)


def _check_color(l):
    if type(l) is not int or l not in (1, 2):
        raise IndexOutOfRange(f"color {l!r} outside 1..2")


def psi_embedding(pattern):
    """Rank-2 monomial attached to a pattern of B^{r,s}.

    Monomial color 1 tracks the affine color 0 of the pattern; monomial
    color 2 tracks the classical color 1 (meaningful for r >= 2).
    """
    if not isinstance(pattern, KRPattern):
        raise InvalidParams("psi_embedding expects a single KRPattern")
    pr = pattern.params
    items = [((1, 1), sum(pattern.a(j, pr.n) for j in range(1, pr.n + 1)) - pr.s)]
    for k in range(pr.n - pr.r + 1):
        items.append(((1, k), pattern.a(1, pr.n - k)))
        items.append(((2, k), pattern.a(2, pr.n - k)))
        items.append(((2, k + 1), -pattern.a(1, pr.n - k)))
    return Monomial.from_items(items)

