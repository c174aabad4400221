"""Integer-indexed crystal tables for whole-product checks.

A ``CrystalTable`` is the ``graph.CrystalGraph`` of B^{r,s} over all colors
0..n: the crystal is enumerated once, its elements are numbered in
lexicographic order, and the per-color f/e id lists (None for crystal
zero) are filled by the same code as ``graph.build_graph`` from the
``KRPattern`` operators, which stay the one definition of the crystal.
The table adds each element's phi/eps and classical weight.  A
``PairTable`` applies the two-factor tensor rule of ``tensor`` to id pairs
(i, j).  Id pairs sort in the same order as the TensorElements they stand
for.
"""

from __future__ import annotations

import itertools

from .graph import CrystalGraph
from .patterns import ENUMERATION_CAP, enumerate_crystal
from .tensor import TensorElement, factor_crystals


class CrystalTable(CrystalGraph):
    """B^{r,s} with ids 0..|B|-1 and per-color operator and statistic lists.

    ``f[l][i]``/``e[l][i]`` are the ids of f_l/e_l of element i (None for
    crystal zero), ``phi[l][i]``/``eps[l][i]`` its string lengths and
    ``weights[i]`` its classical weight.
    """

    def __init__(self, params, elements=None):
        if elements is None:
            elements = enumerate_crystal(params)
        colors = range(params.n + 1)
        super().__init__(elements, colors, lambda b, l: b.f(l))
        self.params = params
        self.phi = [[b.phi(l) for b in elements] for l in colors]
        self.eps = [[b.eps(l) for b in elements] for l in colors]
        self.weights = [b.classical_weight() for b in elements]


class PairTable:
    """B1 (x) B2 on id pairs (i, j).

    f_l acts on the left factor iff eps_l(b1) >= phi_l(b2), e_l iff
    eps_l(b1) > phi_l(b2); phi and eps of a pair follow ``TensorElement``.
    """

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        if left.params.n != right.params.n:
            raise ValueError("all factors must share the same rank n")
        self.left = left
        self.right = right

    @property
    def n(self):
        return self.left.params.n

    def __len__(self):
        return len(self.left) * len(self.right)

    def swapped(self):
        """B2 (x) B1 on the same two tables."""
        return PairTable(self.right, self.left)

    def ids(self):
        """Every id pair, in the order of ``product_elements``."""
        return itertools.product(range(len(self.left)), range(len(self.right)))

    def phi(self, x, l):
        i, j = x
        ep = self.left.eps[l][i]
        return self.left.phi[l][i] + max(0, self.right.phi[l][j] - ep)

    def eps(self, x, l):
        i, j = x
        ph = self.right.phi[l][j]
        return self.right.eps[l][j] + max(0, self.left.eps[l][i] - ph)

    def e_slot(self, x, l):
        """0 when e_l acts on the left factor, 1 when on the right."""
        i, j = x
        return 0 if self.left.eps[l][i] > self.right.phi[l][j] else 1

    def f(self, x, l):
        i, j = x
        if self.left.eps[l][i] >= self.right.phi[l][j]:
            k = self.left.f[l][i]
            return None if k is None else (k, j)
        k = self.right.f[l][j]
        return None if k is None else (i, k)

    def e(self, x, l):
        i, j = x
        if self.left.eps[l][i] > self.right.phi[l][j]:
            k = self.left.e[l][i]
            return None if k is None else (k, j)
        k = self.right.e[l][j]
        return None if k is None else (i, k)

    def is_classical_hw(self, x):
        return all(self.eps(x, l) == 0 for l in range(1, self.n + 1))

    def classical_weight(self, x):
        i, j = x
        return tuple(a + b for a, b in zip(self.left.weights[i], self.right.weights[j]))

    def element(self, x):
        i, j = x
        return TensorElement._trusted((self.left.vertices[i], self.right.vertices[j]))

    def id_of(self, x):
        """The id pair of a two-fold TensorElement of this product."""
        first, second = x.factors
        return self.left.index[first], self.right.index[second]


def product_table(params1, params2, max_size=ENUMERATION_CAP):
    """B1 (x) B2 as a PairTable; equal factors share one CrystalTable.

    A product larger than ``max_size`` raises SizeLimitExceeded once the
    factors are enumerated, before any table is filled.
    """
    crystals = factor_crystals((params1, params2), max_size)
    left = CrystalTable(params1, crystals[0])
    right = left if params2 == params1 else CrystalTable(params2, crystals[1])
    return PairTable(left, right)
