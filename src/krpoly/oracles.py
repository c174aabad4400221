"""Brute-force references that the verification suites check the core against.

Tableau counts, the signature rule on (phi, eps) statistics, string walks
and the pivot objective check single crystals and tensor elements.  The
two whole-product oracles walk B1 (x) B2 from 0 (x) 0: ``rmatrix_oracle``
finds the affine isomorphism onto B2 (x) B1, ``local_energy_oracle``
propagates the 0-edge recursion of H.  They run on id pairs: each factor
B^{r,s} is the ``graph.CrystalGraph`` over all colors 0..n of its
enumerated crystal, numbered in lexicographic order, and a ``PairTable``
applies the two-factor tensor rule to id pairs (i, j) inline, not through
``tensor.tensor_rule`` (through the shared rule the walks took 1.5 to 2.5
times as long).  Id pairs sort in the same order as the TensorElements
they stand for.  The core (``patterns``, ``tensor``, ``rmatrix``,
``energy``, ``perfect``) imports neither this module nor the graph layer.
"""

from __future__ import annotations

import itertools

from .errors import InconsistentRecursion, InvalidParams, OracleFailure
from .graph import CrystalGraph
from .tensor import TensorElement, factor_crystals, two_factors

# -- references on single crystals and tensor elements ------------------------


def count_rect_ssyt(rows, cols, max_entry):
    """Semistandard fillings of an rows x cols rectangle with entries
    1..max_entry: weakly increasing rows, strictly increasing columns.

    A brute-force count, backtracking over the cells in reading order:
    ``grid[idx]`` holds the value tried at cell idx (0 before the first),
    so no recursion depth limits the shape.
    """
    cells = rows * cols
    grid = [0] * cells
    count = 0
    idx = 0
    while idx >= 0:
        if idx == cells:
            count += 1
            idx -= 1
            continue
        v = grid[idx]
        if v:
            v += 1
        else:
            v = grid[idx - 1] if idx % cols else 1
            if idx >= cols:
                v = max(v, grid[idx - cols] + 1)
        if v > max_entry:
            grid[idx] = 0
            idx -= 1
        else:
            grid[idx] = v
            idx += 1
    return count


def signature(stats):
    """Uncancelled plus/minus word of factors with statistics ``stats``.

    ``stats[k]`` is (phi, eps) of factor k for one color.  Each factor
    contributes "+" * phi then "-" * eps, and every "-+" pair cancels.  One
    pass matches them as brackets: a "+" cancels a "-" on top of the stack.
    Survivors are returned as (sign, factor) pairs: the number of "+" is
    phi of the product, the number of "-" is eps, f acts at the rightmost
    "+" and e at the leftmost "-".
    """
    stack = []
    for idx, (phi, eps) in enumerate(stats):
        for _ in range(phi):
            if stack and stack[-1][0] == "-":
                stack.pop()
            else:
                stack.append(("+", idx))
        stack.extend([("-", idx)] * eps)
    return stack


def signature_word(x, l):
    """``signature`` of the factors of a tensor element for color l."""
    return signature([(b.phi(l), b.eps(l)) for b in x.factors])


def _signature_images(x, l, word):
    """(f_l x, e_l x) by the signature rule on x's ``word`` for color l."""
    plus = [idx for sign, idx in word if sign == "+"]
    minus = [idx for sign, idx in word if sign == "-"]
    fx = x._splice(plus[-1], x.factors[plus[-1]].f(l)) if plus else None
    ex = x._splice(minus[0], x.factors[minus[0]].e(l)) if minus else None
    return fx, ex


def string_eps(x, l):
    count = 0
    while True:
        x = x.e(l)
        if x is None:
            return count
        count += 1


def string_phi(x, l):
    count = 0
    while True:
        x = x.f(l)
        if x is None:
            return count
        count += 1


def brute_pivot(A, l):
    """Pivot positions (lo, hi) by direct enumeration of the defining objective."""
    pr = A.params
    if l > pr.r:
        vals = {
            p: sum(A.a(j, l - 1) for j in range(1, p + 1))
            + sum(A.a(j, l) for j in range(p, pr.r + 1))
            for p in range(1, pr.r + 1)
        }
    else:
        vals = {
            p: sum(A.a(l, j) for j in range(pr.r, p + 1))
            + sum(A.a(l + 1, j) for j in range(p, pr.n + 1))
            for p in range(pr.r, pr.n + 1)
        }
    best = max(vals.values())
    winners = [p for p, v in vals.items() if v == best]
    return min(winners), max(winners)


# -- whole two-fold products on id pairs --------------------------------------


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


def rmatrix_oracle(params1, params2):
    """The unique affine crystal isomorphism B1 (x) B2 -> B2 (x) B1, without the shape law.

    The walk ``rmatrix_oracle_ids`` runs on id pairs (``product_table``,
    under ``ENUMERATION_CAP``); the result maps TensorElements.
    """
    left = product_table(params1, params2)
    right = left.swapped()
    return {
        left.element(x): right.element(y) for x, y in rmatrix_oracle_ids(left).items()
    }


def rmatrix_oracle_ids(left):
    """``rmatrix_oracle`` on the PairTable ``left``: id pair -> id pair, in id-pair order.

    B1 (x) B2 is connected and 0 (x) 0 is the one element of its top weight
    on both sides, so sigma(0, 0) = (0, 0) seeds one walk.  At every x it
    checks that sigma(x) has the classical weight of x and that each f_l
    and e_l is defined on both sides or neither and intertwined, assigning
    new images as it goes.  A failed check, a missed id or a shared image
    raises OracleFailure.
    """
    right = left.swapped()
    if left.left.vertices[0].total() or left.right.vertices[0].total():
        raise OracleFailure("product has no zero element")
    # classical weights read once per vertex of the two factor graphs
    w1, w2 = ([b.classical_weight() for b in g.vertices] for g in (left.left, left.right))
    colors = range(left.n + 1)
    ops = (("f", left.f, right.f), ("e", left.e, right.e))
    sigma = {(0, 0): (0, 0)}
    queue = [(0, 0)]
    while queue:
        x = queue.pop()
        y = sigma[x]
        (i, j), (k, m) = x, y
        if any(a + b != c + d for a, b, c, d in zip(w1[i], w2[j], w2[k], w1[m])):
            raise OracleFailure(f"weight not preserved at {left.element(x)}")
        for l in colors:
            for op, step, image in ops:
                nx, ny = step(x, l), image(y, l)
                if (nx is None) != (ny is None):
                    raise OracleFailure(f"{op}_{l} defined on one side only at {left.element(x)}")
                if nx is None:
                    continue
                known = sigma.get(nx)
                if known is None:
                    sigma[nx] = ny
                    queue.append(nx)
                elif known != ny:
                    raise OracleFailure(f"{op}_{l} not intertwined at {left.element(x)}")
    if len(sigma) != len(left):
        raise OracleFailure("product crystal is not connected")
    if len(set(sigma.values())) != len(sigma):
        raise OracleFailure("two elements share one image")
    return {x: sigma[x] for x in left.ids()}


def local_energy_oracle(params1, params2, sigma=None):
    """EnergyTable for B1 (x) B2 from the defining recursion.

    Propagates the 0-edge increments from 0 (x) 0 across the whole product
    in one walk that checks every raising edge at its source; a conflict
    (which would mean the recursion is not well defined) raises
    InconsistentRecursion.  The walk runs on id pairs (``product_table``,
    under ``ENUMERATION_CAP``); ``sigma``, the R-matrix as
    ``rmatrix_oracle`` returns it, is built on ids when not given, and one
    that is not a dict mapping every element of B1 (x) B2 into B2 (x) B1
    raises InvalidParams.  The result maps TensorElements.
    """
    pair = product_table(params1, params2)
    image = pair.swapped()
    if pair.left.vertices[0].total() or pair.right.vertices[0].total():
        raise InconsistentRecursion("product has no zero element")
    if sigma is None:
        sigma_ids = rmatrix_oracle_ids(pair)
    elif not isinstance(sigma, dict):
        raise InvalidParams(f"sigma must be None or a dict of elements, got {sigma!r}")
    else:
        try:
            sigma_ids = {pair.id_of(x): image.id_of(y) for x, y in sigma.items()}
        except (KeyError, ValueError):  # a factor off the table, or not a two-fold TensorElement
            raise InvalidParams("sigma holds an element outside B1 (x) B2 or B2 (x) B1") from None
        if len(sigma_ids) != len(pair):
            raise InvalidParams(f"sigma maps {len(sigma_ids)} of {len(pair)} elements")

    def raising_delta(lower, l):
        # H(e_l lower) - H(lower): -1 (+1) when e_0 acts on the first
        # (second) factor of both lower and its image
        if l != 0:
            return 0
        side = pair.e_slot(lower, 0)
        if side != image.e_slot(sigma_ids[lower], 0):
            return 0
        return 1 if side else -1

    table = {(0, 0): 0}
    queue = [(0, 0)]
    colors = range(params1.n + 1)
    while queue:
        x = queue.pop()
        for l in colors:
            up = pair.e(x, l)
            if up is not None:
                h = table[x] + raising_delta(x, l)
                known = table.get(up)
                if known is None:
                    table[up] = h
                    queue.append(up)
                elif known != h:
                    at = pair.element(x)
                    raise InconsistentRecursion(f"recursion conflict along e_{l} at {at}")
            down = pair.f(x, l)
            if down is not None and down not in table:
                table[down] = table[x] - raising_delta(down, l)
                queue.append(down)
    if len(table) != len(pair):
        raise InconsistentRecursion("product crystal is not connected")
    return {pair.element(x): h for x, h in table.items()}
