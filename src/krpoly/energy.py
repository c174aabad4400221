"""Local and global energy functions on products of KR crystals.

The local energy H on B1 (x) B2 is the integer function, normalized by
H(0 (x) 0) = 0, that is constant along classical edges and drops (grows)
by one along a raising 0-edge exactly when e_0 acts on the first (second)
factor of both the element and its R-matrix image.  Two routes are
implemented: a recursion oracle that propagates those increments over the
whole product, and the closed form: one call of the transport kernel
``rmatrix._raise_strings`` raises the element along the fixed schedule
``rmatrix._schedule(r2, n)`` of whole strings, and H is minus a corner sum
of the raised first factor.  Transport to the highest weight element is
one call of the same kernel on ``_schedule(1, n)``.  No string is walked
here.
"""

from __future__ import annotations

from .errors import InconsistentRecursion, InvalidParams, NotHighestWeight
from .rmatrix import _raise_strings, _schedule, rmatrix_from_hw, rmatrix_oracle_ids
from .rmatrix import to_highest_weight
from .table import product_table
from .tensor import TensorElement, is_classical_hw, two_factors


def local_energy_hw(x):
    """H on a classical highest weight element: minus its entry sum."""
    first, _ = two_factors(x, "local energy lives on two-fold products")
    if not is_classical_hw(x):
        raise NotHighestWeight("element is not classical highest weight")
    return -first.total()


def local_energy(x):
    """Closed-form local energy of an arbitrary two-fold element.

    Read on x itself for every pair of levels: no R-matrix is applied.
    One kernel call (``_raise_strings``) raises A (x) B along the colors
    of ``_schedule``; H is minus the corner sum (columns <= r, rows >= rt)
    of the raised first factor.  A raise past a string is the kernel's
    OracleFailure, a nonzero final B an InconsistentRecursion.
    """
    a, b = two_factors(x, "local energy lives on two-fold products")
    r = min(a.params.r, b.params.r)
    rt = max(a.params.r, b.params.r)
    a, b = _raise_strings(a, b, _schedule(b.params.r, x.n), [])
    if b.total() != 0:
        raise InconsistentRecursion("schedule did not raise the second factor to zero")
    return -a.corner_sum(r, rt)


def local_energy_oracle(params1, params2, sigma=None):
    """EnergyTable for B1 (x) B2 from the defining recursion.

    Propagates the 0-edge increments from 0 (x) 0 across the whole product
    in one walk that checks every raising edge at its source; a conflict
    (which would mean the recursion is not well defined) raises
    InconsistentRecursion.  The walk runs on id pairs
    (``table.product_table``, under ``ENUMERATION_CAP``); ``sigma``, the
    R-matrix as ``rmatrix_oracle`` returns it, is built on ids when not
    given, and one that is not a dict mapping every element of B1 (x) B2
    into B2 (x) B1 raises InvalidParams.  The result maps TensorElements.
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


def global_energy(x, energy=None):
    """Sum of pairwise local energies after R-matrix transport.

    The pair i < j contributes the local energy of slots (i, i+1) once
    factor j has been carried next to factor i by R-matrix swaps of
    adjacent slots (j-1 down to i+1).  Those transports are prefixes of
    one another, so each factor j is walked leftward once: at every
    position the local energy is read, then the factor is swapped one slot
    further.

    H and the swap are functions of the pair alone, so a memo local to the
    call holds them for each distinct (left, right) pair the walks meet;
    walks meet a pair again whenever R is the identity (B (x) B).  Each
    distinct pair is raised to its classical highest weight element once
    (``to_highest_weight``), and the swap is mapped back from that element
    (``rmatrix_from_hw``) the first time a swap follows the pair: at most
    C(N, 2) transports for N factors.  By default H is read there: it is
    constant on classical components, so it is minus the entry sum of the
    first factor (``local_energy_hw``).  A swap of two factors of one shape
    keeps the pair and lowers nothing, since R is the identity on B (x) B.
    A callable ``energy`` (such as ``local_energy``, the closed form) is
    read once per distinct pair instead; it sees the same pairs as a
    separate transport per pair, and a pair no swap follows (position 1)
    or of one shape is then not raised at all.
    The pairs are built unchecked: their factors come from x, whose
    factors already share one rank.
    """
    if not isinstance(x, TensorElement):
        raise InvalidParams(f"global energy lives on tensor elements, got {type(x).__name__}")
    if energy is not None and not callable(energy):
        raise InvalidParams(f"energy must be None or a callable, got {energy!r}")
    # (left, right) -> [H, to_highest_weight of the pair or None, R image or None]
    memo = {}
    total = 0
    for j in range(1, len(x.factors)):
        fs = list(x.factors)
        for pos in range(j, 0, -1):
            key = (fs[pos - 1], fs[pos])
            entry = memo.get(key)
            if entry is None:
                pair = TensorElement._trusted(key)
                image = key if key[0].params == key[1].params else None
                if energy is None:
                    raised = to_highest_weight(pair)
                    entry = memo[key] = [-raised[0].factors[0].total(), raised, image]
                else:
                    entry = memo[key] = [energy(pair), None, image]
            total += entry[0]
            if pos > 1:
                if entry[2] is None:
                    raised = entry[1] or to_highest_weight(TensorElement._trusted(key))
                    entry[2] = rmatrix_from_hw(*raised).factors
                fs[pos - 1], fs[pos] = entry[2]
    return total
