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
argument.  Other elements are handled by transport to the highest weight
representative and back.  Transport splits each whole string between the
two factors by the tensor rule, reading their string statistics once per
color, in one kernel call (``_raise_strings``) along ``_schedule(1, n)``,
a reduced word of the longest element w0 of S_{n+1}: raising each string
to its top along any reduced word of w0 ends at the classical highest
weight element (Littelmann's string parametrization, "Cones, crystals,
and patterns", Transform. Groups 3, 1998).  The closed-form energy makes
one call of the same kernel on ``_schedule(r2, n)``, and
``rmatrix_from_hw`` mirrors the kernel for lowering; ``_hw_image`` still
refuses an element that is not highest weight.  The kernel
reads each factor's per-color record (``KRPattern._strings``: phi, eps,
first, last, f image, e image) in place, so a single step whose image is
already on the record costs an index; the ``KRPattern`` operators fill a
record or an empty image slot.  Every image is the one object of its grid
among operator images (``patterns._canonical``), so a transport that
reaches a grid by another word, or one that another transport visited,
reads its further steps from the records already on it.  Reading records
in place skips the color gate of ``KRPattern._stats``, so
``rmatrix_from_hw`` checks its word itself.  The image of a highest weight
element is memoized in a bounded memo of 1024 entries (``_hw_image``,
whose counters ``rmatrix_on_hw.cache_info()`` shows): transports land on
few distinct highest weight elements, and a repeated one then costs a
lookup.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .errors import IndexOutOfRange, InvalidParams, NotHighestWeight, OracleFailure
from .patterns import KRPattern, _check_params, pattern_from_cells, zero_pattern
from .table import product_table
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
# 1024 entries hold every distinct one seen there; the bound keeps a long
# run over large crystals from growing the memo without end.
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
    bounded memo of 1024 entries: a miss runs every check, and a call that
    raises is not cached, so a hit returns the image of an equal element
    that passed them all; equal arguments get back the same image object.
    ``rmatrix_on_hw.cache_info()`` shows the hits, misses and current size.
    """
    two_factors(x, "the R-matrix acts on two-fold products")
    return _hw_image(x)


rmatrix_on_hw.cache_info = _hw_image.cache_info


# a move along a string: the image slot of a ``KRPattern._strings`` record,
# the operator that fills the slot, and its name
_LOWER = (4, KRPattern.f, "f")
_RAISE = (5, KRPattern.e, "e")


def _steps(b, l, k, move):
    """b moved k single steps of color l by ``move``; OracleFailure past the string."""
    slot, op, name = move
    for _ in range(k):
        strings = b._strings
        b = ((strings and strings[l]) or b._stats(l))[slot] or op(b, l)
        if b is None:
            raise OracleFailure(f"transport word failed at {name}_{l}")
    return b


def _raise_strings(a, b, colors, word):
    """a (x) b raised along the whole l-string of each color l in ``colors``.

    By the tensor rule a takes max(0, eps_l(a) - phi_l(b)) steps and b
    eps_l(b); a color with no step is skipped.  The step colors are
    appended to ``word``.  Returns the raised (a, b).  The colors are read
    in turn, so one call over joined color lists equals one call per list.
    """
    for l in colors:
        strings = b._strings
        record = (strings and strings[l]) or b._stats(l)
        eps_b = record[1]
        strings = a._strings
        left = ((strings and strings[l]) or a._stats(l))[1] - record[0]
        if left < 0:
            left = 0
        if eps_b:
            b = _steps(b, l, eps_b, _RAISE)
        if left:
            a = _steps(a, l, left, _RAISE)
        if left or eps_b:
            word.extend([l] * (left + eps_b))
    return a, b


# Building a schedule anew takes 2.4 us at n=5, where a warm transport
# takes some 6 us besides; a schedule depends on (r2, n) alone, so one tuple
# per pair is kept, and the bound keeps a sweep over many ranks finite.
@lru_cache(maxsize=256)
def _schedule(r2, n):
    """Raising schedule of A (x) B, B in B^{r2,s2} at rank n: passes
    s = 0..n-r2 end to end, each colors 1..r2-1 then r2+s down to r2.

    At r2 = 1 it is (1)(2 1)...(n ... 1), a reduced word of the longest
    element w0 of S_{n+1}, on which ``to_highest_weight`` raises (the
    string parametrization); ``energy.local_energy`` raises along the
    schedule of its own r2.  A tuple, shared by every call on (r2, n).
    """
    return tuple(l for s in range(n - r2 + 1) for l in (*range(1, r2), *range(r2 + s, r2 - 1, -1)))


def to_highest_weight(x):
    """Raise the two-fold element x = a (x) b to its classical highest weight element.

    Returns (hw, word).  One kernel call (``_raise_strings``) raises each
    whole string e_l^{eps_l} in turn along ``_schedule(1, n)``, a reduced
    word of the longest element w0 of S_{n+1}; raising every string to its
    top along any reduced word of w0 ends at the highest weight element
    (Littelmann's string parametrization, "Cones, crystals, and patterns",
    Transform. Groups 3, 1998), so no further pass is made.  ``_hw_image``
    still refuses an element that is not highest weight.  The word lists
    the colors of the single steps in the order applied; its length and
    color multiset are fixed by the weight difference to hw, whatever the
    schedule.
    """
    a, b = two_factors(x, "transport acts on two-fold products")
    word = []
    a, b = _raise_strings(a, b, _schedule(1, a.n), word)
    return TensorElement._trusted((a, b)), tuple(word)


def rmatrix_from_hw(hw, word):
    """R-matrix image of the element that ``to_highest_weight`` raised to hw.

    Maps hw by ``rmatrix_on_hw`` and lowers the image a (x) b back along
    the reversed transport word.  A run of k steps of one color splits by
    the tensor rule: b takes min(k, max(0, phi_l(b) - eps_l(a))) and a the
    rest.  The steps read the factors' records in place, past the color
    gate of ``KRPattern._stats``, so the word is checked here: one that is
    not a tuple or list raises InvalidParams, and a color that is not an
    ``int`` in 1..n (True included) IndexOutOfRange, checked once per run.
    """
    if not isinstance(word, (tuple, list)):
        raise InvalidParams(f"a transport word is a tuple or list of colors, got {word!r}")
    a, b = rmatrix_on_hw(hw).factors
    n = a.n
    for l, run in itertools.groupby(reversed(word)):
        if type(l) is not int or not 1 <= l <= n:
            raise IndexOutOfRange(f"transport word color {l!r} outside 1..{n}")
        k = len(list(run))
        strings = b._strings
        phi_b = ((strings and strings[l]) or b._stats(l))[0]
        strings = a._strings
        eps_a = ((strings and strings[l]) or a._stats(l))[1]
        right = min(k, max(0, phi_b - eps_a))
        if right:
            b = _steps(b, l, right, _LOWER)
        if k - right:
            a = _steps(a, l, k - right, _LOWER)
    return TensorElement._trusted((a, b))


def rmatrix(x):
    """R-matrix on an arbitrary element of a two-fold product.

    The identity when both factors have one shape: B (x) B is connected, so
    its only affine automorphism is the identity.
    """
    a, b = two_factors(x, "the R-matrix acts on two-fold products")
    if a.params == b.params:
        return x
    return rmatrix_from_hw(*to_highest_weight(x))


def rmatrix_oracle(params1, params2):
    """The unique affine crystal isomorphism B1 (x) B2 -> B2 (x) B1, without the shape law.

    The walk ``rmatrix_oracle_ids`` runs on id pairs (``table.product_table``,
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
