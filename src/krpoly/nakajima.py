"""Nakajima monomial crystal of type A_2 and the corner embedding of KR patterns.

Monomials are finitely supported Laurent monomials in variables Y_i(k)
(index i = 1, 2, integer shift k).  The crystal is Kashiwara's rank-2
monomial crystal with the sign convention c_21 = 1, c_12 = 0, so the
multipliers of the two colors at shift k are

    A_1(k) = Y_1(k) Y_1(k+1) Y_2(k+1)^-1,
    A_2(k) = Y_2(k) Y_2(k+1) Y_1(k)^-1.

The embedding ``psi_embedding`` sends a pattern of B^{r,s} to a rank-2
monomial in a way that matches the affine color 0 with monomial color 1
and (for r >= 2) the classical color 1 with monomial color 2, giving an
independent certificate for the corner crystal structure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidParams
from .patterns import KRPattern


@dataclass(frozen=True)
class Monomial:
    """Finitely supported exponent map ((index, shift) -> exponent)."""

    exps: tuple

    @classmethod
    def from_items(cls, items):
        acc = {}
        for key, val in items:
            acc[key] = acc.get(key, 0) + val
        return cls(tuple(sorted((k, v) for k, v in acc.items() if v != 0)))

    def exponent(self, i, k):
        for key, val in self.exps:
            if key == (i, k):
                return val
        return 0

    def times(self, items):
        return Monomial.from_items(tuple(self.exps) + tuple(items))

    def shifts(self, i):
        return sorted(k for (j, k), _ in self.exps if j == i)


class MonomialCrystal:
    """The rank-2 monomial crystal of type A_2, colors 1 and 2."""

    def wt(self, m):
        """Classical weight: per-index exponent sums."""
        coeffs = [0, 0]
        for (i, _), v in m.exps:
            coeffs[i - 1] += v
        return tuple(coeffs)

    def _prefix_candidates(self, m, l):
        shifts = m.shifts(l)
        if not shifts:
            return [(0, 0)]
        lo, hi = shifts[0] - 1, shifts[-1]
        out = []
        run = 0
        out.append((lo, 0))
        for k in range(shifts[0], hi + 1):
            run += m.exponent(l, k)
            out.append((k, run))
        return out

    def phi(self, m, l):
        return max(val for _, val in self._prefix_candidates(m, l))

    def eps(self, m, l):
        cands = self._prefix_candidates(m, l)
        total = cands[-1][1]
        return max(val - total for _, val in cands)

    def nf(self, m, l):
        """Smallest shift where the running sum attains phi_l."""
        cands = self._prefix_candidates(m, l)
        target = max(val for _, val in cands)
        return min(k for k, val in cands if val == target)

    def ne(self, m, l):
        """Largest shift where minus the tail sum attains eps_l."""
        cands = self._prefix_candidates(m, l)
        total = cands[-1][1]
        target = max(val - total for _, val in cands)
        return max(k for k, val in cands if val - total == target)

    def multiplier(self, l, k):
        """Exponent items of A_l(k)."""
        if l == 1:
            return [((1, k), 1), ((1, k + 1), 1), ((2, k + 1), -1)]
        return [((2, k), 1), ((2, k + 1), 1), ((1, k), -1)]

    def f(self, m, l):
        if self.phi(m, l) == 0:
            return None
        items = [(key, -val) for key, val in self.multiplier(l, self.nf(m, l))]
        return m.times(items)

    def e(self, m, l):
        if self.eps(m, l) == 0:
            return None
        return m.times(self.multiplier(l, self.ne(m, l)))

    def is_dominant(self, m):
        return self.eps(m, 1) == self.eps(m, 2) == 0


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


def psi_crystal():
    """The rank-2 monomial crystal the embedding lands in."""
    return MonomialCrystal()
