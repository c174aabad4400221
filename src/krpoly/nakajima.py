"""Nakajima monomial crystals and the corner embedding of KR patterns.

Monomials are finitely supported Laurent monomials in variables Y_i(k)
(classical index i, integer shift k).  The crystal structure depends on a
sign convention c with c_ij + c_ji = 1; the multiplier attached to color
l at shift k is

    A_l(k) = Y_l(k) Y_l(k+1) prod_{i != l} Y_i(k + c_il)^{cartan[i][l]}.

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

    @classmethod
    def one(cls):
        return cls(())

    def exponent(self, i, k):
        for key, val in self.exps:
            if key == (i, k):
                return val
        return 0

    def times(self, items):
        return Monomial.from_items(tuple(self.exps) + tuple(items))

    def shifts(self, i):
        return sorted(k for (j, k), _ in self.exps if j == i)

    def sort_key(self):
        return self.exps


@dataclass(frozen=True)
class SignConvention:
    """Choice map c_ij in {0, 1} with c_ij + c_ji = 1 for i != j."""

    entries: tuple

    def __post_init__(self):
        table = dict(self.entries)
        for (i, j), v in self.entries:
            if v not in (0, 1) or table.get((j, i)) != 1 - v:
                raise InvalidParams("convention must satisfy c_ij + c_ji = 1")

    def c(self, i, j):
        return dict(self.entries)[(i, j)]

    @classmethod
    def standard(cls, indices):
        """c_ij = 1 exactly when i > j (the choice the embedding matches)."""
        return cls(tuple(((i, j), 1 if i > j else 0) for i in indices for j in indices if i != j))

    @classmethod
    def flipped(cls, indices):
        return cls(tuple(((i, j), 1 if i < j else 0) for i in indices for j in indices if i != j))


def type_a_cartan(rank):
    return tuple(
        tuple(2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(1, rank + 1))
        for i in range(1, rank + 1)
    )


class MonomialCrystal:
    """Crystal structure on monomials for a fixed classical Cartan matrix."""

    def __init__(self, cartan, convention=None):
        self.cartan = tuple(tuple(row) for row in cartan)
        self.indices = tuple(range(1, len(self.cartan) + 1))
        self.convention = convention or SignConvention.standard(self.indices)

    @classmethod
    def type_a(cls, rank, convention=None):
        return cls(type_a_cartan(rank), convention)

    def wt(self, m):
        """Classical weight: per-index exponent sums."""
        coeffs = [0] * len(self.indices)
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
        items = [((l, k), 1), ((l, k + 1), 1)]
        for i in self.indices:
            if i == l:
                continue
            pairing = self.cartan[i - 1][l - 1]
            if pairing:
                items.append(((i, k + self.convention.c(i, l)), pairing))
        return items

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
        return all(self.eps(m, l) == 0 for l in self.indices)


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
    return MonomialCrystal.type_a(2)
