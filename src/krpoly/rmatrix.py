"""Combinatorial R-matrix on two-fold products of KR crystals.

Classical highest weight elements of B^{r1,s1} (x) B^{r2,s2} carry the
zero pattern in the second slot and are supported on the anti-diagonal
cells (r-j, rt+j), j = 0..k, of the first, where r = min(r1,r2),
rt = max(r1,r2) and k = min(r-1, n-rt); the entries along that diagonal
weakly decrease and are bounded by min(s1,s2).  Both the elements and
their images are read and built through the cells: the R-matrix keeps
those entries and only swaps the carrying shapes, reading the first factor
cell by cell on the swapped grid.  On B (x) B, which is connected, R is
the unique affine automorphism, the identity, and ``rmatrix`` returns its
argument.  Other elements are transported to their highest weight
element and back (``to_highest_weight``, ``rmatrix_from_hw``) by the
transport kernel of ``patterns``.  R is checked against the whole-product
walk ``oracles.rmatrix_oracle``.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .errors import InvalidParams, NotHighestWeight
from .patterns import _check_params, _lower_word, _raise_strings, pattern_from_cells, zero_pattern
from .tensor import TensorElement, is_classical_hw, two_factors


def hw_support(params1, params2):
    """Support cells (shared by both product orders) and the entry bound."""
    _check_params(params1)
    _check_params(params2)
    if params1.n != params2.n:
        raise InvalidParams("factors must share the same rank n")
    n = params1.n
    r = min(params1.r, params2.r)
    rt = max(params1.r, params2.r)
    k = min(r - 1, n - rt)
    cells = tuple((r - j, rt + j) for j in range(k + 1))
    return cells, min(params1.s, params2.s)


def highest_weight_elements(params1, params2):
    """All classical highest weight elements, lexicographic in the tuple."""
    cells, bound = hw_support(params1, params2)
    zero = zero_pattern(params2)
    out = []
    # weakly decreasing tuples come out in reverse lexicographic order
    for entries in itertools.combinations_with_replacement(range(bound, -1, -1), len(cells)):
        at = dict(zip(cells, entries))
        first = pattern_from_cells(params1, lambda p, q: at.get((p, q), 0))
        out.append(TensorElement._trusted((first, zero)))
    out.reverse()
    return out


# Transports land on few distinct highest weight elements: global_energy on
# the 216 seeded 8-fold paths at n=5 (bench seed 1) calls this 3,326 times
# on 200 of them, rmatrix on 2,000 seeded pairs at n=8 1,500 times on 62
# (the other 500 pairs have one shape, where R is the identity).
# 1024 entries hold them all and keep a long run over large crystals finite.
@lru_cache(maxsize=1024)
def _hw_image(x):
    """``rmatrix_on_hw`` on a two-fold x, memoized on x."""
    first, second = x.factors
    if not is_classical_hw(x):
        raise NotHighestWeight("element is not killed by all classical raising operators")
    if second.total() != 0:
        raise NotHighestWeight("second factor of a highest weight element must be zero")
    cells, _ = hw_support(first.params, second.params)
    pr = first.params
    for q in range(pr.r, pr.n + 1):
        for p in range(1, pr.r + 1):
            if first.a(p, q) and (p, q) not in cells:
                raise NotHighestWeight(f"entry off the anti-diagonal at {(p, q)}")
    # the support cells lie on both grids, so the first factor read on the
    # swapped grid keeps the anti-diagonal and is zero elsewhere
    return TensorElement._trusted(
        (pattern_from_cells(second.params, first.a), zero_pattern(first.params))
    )


def rmatrix_on_hw(x):
    """Image of a classical highest weight element under the R-matrix.

    What is not a two-fold element, such as a list the memo could not even
    hash, raises InvalidParams first.  The image is memoized on x in a
    bounded memo of 1024 entries (``rmatrix_on_hw.cache_info()``) that
    keeps no call that raised, so equal arguments get the same image.
    """
    two_factors(x, "the R-matrix acts on two-fold products")
    return _hw_image(x)


rmatrix_on_hw.cache_info = _hw_image.cache_info


# Building a schedule anew takes 2.4 us at n=5, where a warm transport
# takes some 6 us besides; a schedule depends on (r2, n) alone, so one tuple
# per pair is kept, and the bound keeps a sweep over many ranks finite.
@lru_cache(maxsize=256)
def _schedule(r2, n):
    """Raising schedule of A (x) B, B in B^{r2,s2} at rank n: passes
    s = 0..n-r2 end to end, each colors 1..r2-1 then r2+s down to r2.

    At r2 = 1 it is (1)(2 1)...(n ... 1), a reduced word of the longest
    element w0 of S_{n+1}, on which ``to_highest_weight`` raises;
    ``energy.local_energy`` raises along the schedule of its own r2.
    """
    return tuple(l for s in range(n - r2 + 1) for l in (*range(1, r2), *range(r2 + s, r2 - 1, -1)))


def to_highest_weight(x):
    """Raise the two-fold element x = a (x) b to its classical highest weight element.

    Returns (hw, word).  One ``patterns._raise_strings`` call raises each
    whole string in turn along ``_schedule(1, n)``, a reduced word of w0,
    which ends at the highest weight element (Littelmann's string
    parametrization, "Cones, crystals, and patterns", Transform. Groups 3,
    1998).  The word lists the colors of the single steps in the order
    applied.
    """
    a, b = two_factors(x, "transport acts on two-fold products")
    word = []
    a, b = _raise_strings(a, b, _schedule(1, a.n), word)
    return TensorElement._trusted((a, b)), tuple(word)


def rmatrix_from_hw(hw, word):
    """R-matrix image of the element that ``to_highest_weight`` raised to hw.

    Maps hw by ``rmatrix_on_hw`` and lowers the image back along the
    reversed word (``patterns._lower_word``); a word that is not a tuple or
    list raises InvalidParams.
    """
    if not isinstance(word, (tuple, list)):
        raise InvalidParams(f"a transport word is a tuple or list of colors, got {word!r}")
    return TensorElement._trusted(_lower_word(*rmatrix_on_hw(hw).factors, word))


def rmatrix(x):
    """R-matrix on an arbitrary element of a two-fold product.

    The identity when both factors have one shape: B (x) B is connected, so
    its only affine automorphism is the identity.
    """
    a, b = two_factors(x, "the R-matrix acts on two-fold products")
    if a.params == b.params:
        return x
    return rmatrix_from_hw(*to_highest_weight(x))


# The benchmark harness reads the whole-product oracle here (PEP 562), and
# the first read keeps it in the module as ``krpoly.__getattr__`` does, so
# the tracer can wrap it; ROADMAP item 1's benchmark change removes this.
def __getattr__(name):
    if name != "rmatrix_oracle":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .oracles import rmatrix_oracle

    globals()[name] = rmatrix_oracle
    return rmatrix_oracle
