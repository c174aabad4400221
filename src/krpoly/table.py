"""Integer-indexed crystal products for the two whole-product oracles.

Each factor B^{r,s} is the ``graph.CrystalGraph`` over all colors 0..n
of its enumerated crystal, numbered in lexicographic order; the graph
reads its f id lists on the rows and derives e and phi/eps from them.
A ``PairTable`` applies the two-factor tensor rule to id pairs (i, j) of
two such graphs inline, not through ``tensor.tensor_rule``.  Each oracle
is one walk from the zero pair (0, 0) that reads f_l and e_l (and, for
the energy, the slot e_0 acts on) at every pair and color; through the
shared rule the oracles took 1.5 to 2.5 times as long.  Id pairs sort in
the same order as the TensorElements they stand for.
"""

from __future__ import annotations

import itertools

from .errors import InvalidParams
from .graph import CrystalGraph
from .tensor import TensorElement, factor_crystals, two_factors


class PairTable:
    """B1 (x) B2 on id pairs (i, j) of two CrystalGraphs over colors 0..n.

    f_l acts on the left factor iff eps_l(b1) >= phi_l(b2), e_l iff
    eps_l(b1) > phi_l(b2).  A graph with an l-string that is a cycle (its
    eps holds None) has no tensor rule and raises InvalidParams.
    """

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        if left.colors != right.colors:
            raise InvalidParams("all factors must share the same rank n")
        for g in (left, right):
            for l in g.colors:
                if None in g.eps[l]:
                    raise InvalidParams(f"a factor graph has a {l}-string that is a cycle")
        self.left = left
        self.right = right

    @property
    def n(self):
        return len(self.left.colors) - 1

    def __len__(self):
        return len(self.left) * len(self.right)

    def swapped(self):
        """B2 (x) B1 on the same two tables."""
        return PairTable(self.right, self.left)

    def ids(self):
        """Every id pair, in the order of ``product_elements``."""
        return itertools.product(range(len(self.left)), range(len(self.right)))

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

    def element(self, x):
        i, j = x
        return TensorElement._trusted((self.left.vertices[i], self.right.vertices[j]))

    def id_of(self, x):
        """The id pair of a two-fold TensorElement of this product."""
        first, second = two_factors(x, "not a two-fold element")
        return self.left.index[first], self.right.index[second]


def product_table(params1, params2):
    """B1 (x) B2 as a PairTable; equal factors share one CrystalGraph.

    A product larger than ``ENUMERATION_CAP`` raises SizeLimitExceeded
    before the factors are enumerated.
    """
    first, second = factor_crystals((params1, params2))
    left = CrystalGraph(first, range(params1.n + 1))
    right = left if params2 == params1 else CrystalGraph(second, range(params2.n + 1))
    return PairTable(left, right)
