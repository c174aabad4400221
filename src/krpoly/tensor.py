"""Tensor products of crystals.

The operator rule compares statistics of the two factors: f_l acts on the
first factor when eps_l(b1) >= phi_l(b2) and on the second otherwise;
e_l acts on the first exactly when eps_l(b1) > phi_l(b2).  This is the
convention under which highest weight elements carry the zero pattern in
the *second* slot.  Products of three or more factors associate to the
left: ``tensor_rule`` folds the rule over N factors, for ``TensorElement``
and the graph reader (``graph._read_rows``); ``oracles.PairTable`` keeps the
two-fold case inline, and ``oracles.signature`` is the cancellation rule
both are checked against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import InvalidParams, KRError, SizeLimitExceeded
from .patterns import (
    ENUMERATION_CAP,
    KRParams,
    KRPattern,
    _check_cap,
    crystal_size,
    enumerate_crystal,
    pattern_from_dict,
)


@dataclass(frozen=True)
class TensorElement:
    """Ordered factors b_1 (x) ... (x) b_N, each a KRPattern."""

    factors: tuple

    def __post_init__(self):
        factors = self.factors
        if not isinstance(factors, tuple) or not all(isinstance(b, KRPattern) for b in factors):
            raise InvalidParams(f"factors must be KRPatterns in a tuple, got {factors!r}")
        _check_ranks([b.n for b in factors])

    @classmethod
    def _trusted(cls, factors):
        """Element of factors already known to share one rank: no re-check."""
        out = object.__new__(cls)
        object.__setattr__(out, "factors", factors)
        return out

    @property
    def n(self):
        return self.factors[0].n

    def sort_key(self):
        return tuple(b.entries_flat() for b in self.factors)

    # -- statistics --------------------------------------------------------

    def _rule(self, l):
        return tensor_rule([b._stats(l) for b in self.factors])

    def phi(self, l):
        return self._rule(l)[0]

    def eps(self, l):
        return self._rule(l)[1]

    def classical_weight(self):
        coeffs = [0] * self.n
        for b in self.factors:
            for i, c in enumerate(b.classical_weight()):
                coeffs[i] += c
        return tuple(coeffs)

    # -- operators -----------------------------------------------------------

    def e_slot(self, l):
        """Index of the factor e_l acts on."""
        return self._rule(l)[3]

    def f(self, l):
        m = self._rule(l)[2]
        return self._splice(m, self.factors[m].f(l))

    def e(self, l):
        m = self.e_slot(l)
        return self._splice(m, self.factors[m].e(l))

    def _splice(self, m, y):
        """Factor m replaced by y, unchecked (y has its rank); None if y is zero."""
        if y is None:
            return None
        return TensorElement._trusted(self.factors[:m] + (y,) + self.factors[m + 1 :])

    def to_dict(self):
        return {"factors": [b.to_dict() for b in self.factors]}


def _check_ranks(ranks):
    """InvalidParams unless the factor ranks are one or more and all equal."""
    if not ranks:
        raise InvalidParams("tensor element needs at least one factor")
    if any(n != ranks[0] for n in ranks):
        raise InvalidParams("all factors must share the same rank n")


def tensor_rule(stats):
    """(phi_l, eps_l, f_l slot, e_l slot) of b_1 (x) ... (x) b_N.

    ``stats[k]`` starts with phi_l(b_k), eps_l(b_k), as ``KRPattern._stats``
    does.  One scan folds the left-associated rule: with eps the eps_l of
    b_1 (x) ... (x) b_{k-1}, f_l acts on the last b_k with eps < phi_l(b_k)
    and e_l on the last with eps <= phi_l(b_k).  Where the operator gives
    zero, its slot is the first factor for f_l and the last for e_l.
    """
    phi = eps = f_slot = e_slot = 0
    for k, s in enumerate(stats):
        p = s[0]
        if eps <= p:
            e_slot = k
            if eps < p:
                f_slot = k
                phi += p - eps
            eps = s[1]
        else:
            eps += s[1] - p
    return phi, eps, f_slot, e_slot


def tensor_from_dict(data):
    """Validated TensorElement from ``{"factors": [pattern, ...]}``, e.g. parsed JSON."""
    if not isinstance(data, dict) or data.keys() != {"factors"}:
        raise KRError("a tensor element must be an object with exactly the key factors")
    factors = data["factors"]
    if not isinstance(factors, list) or not factors:
        raise KRError(f"factors must be a non-empty list of patterns, got {factors!r}")
    return TensorElement(tuple(pattern_from_dict(d) for d in factors))


def two_factors(x, message):
    """The factors (a, b) of a two-fold TensorElement; InvalidParams(message) otherwise."""
    if not isinstance(x, TensorElement) or len(x.factors) != 2:
        raise InvalidParams(message)
    return x.factors


def _check_element(x):
    """InvalidParams unless x is a KRPattern or a TensorElement."""
    if not isinstance(x, (KRPattern, TensorElement)):
        raise InvalidParams(f"{x!r} is not a KRPattern or TensorElement")


def is_classical_hw(x):
    """True when every classical raising operator kills x."""
    _check_element(x)
    return not any(map(x.eps, range(1, x.n + 1)))


def factor_crystals(params_list, max_size=ENUMERATION_CAP):
    """The crystal of each factor, equal factors enumerated once.

    A product larger than ``max_size`` raises SizeLimitExceeded before any
    factor is enumerated: its size is the product of the Weyl dimensions.
    """
    _check_cap(max_size)
    size = math.prod(crystal_size(params) for params in params_list)
    if size > max_size:
        raise SizeLimitExceeded(f"product of {len(params_list)} crystals has {size} > {max_size}")
    enumerated = {}
    for params in params_list:
        if params not in enumerated:
            enumerated[params] = enumerate_crystal(params, max_size)
    return [enumerated[params] for params in params_list]


def product_elements(params_list, max_size=ENUMERATION_CAP):
    """All elements of B_1 (x) ... (x) B_N, factors drawn left to right.

    Each factor is enumerated in its lexicographic order, so the product
    comes out sorted by ``TensorElement.sort_key``.  Anything but a list or
    tuple of KRParams, an empty list or factors of different ranks raise
    InvalidParams, and a product larger than ``max_size``
    SizeLimitExceeded, before any factor is enumerated; the elements are
    then built unchecked.
    """
    if not isinstance(params_list, (list, tuple)) or not all(
        isinstance(params, KRParams) for params in params_list
    ):
        raise InvalidParams(f"factors must be a list of KRParams, got {params_list!r}")
    _check_ranks([params.n for params in params_list])
    crystals = factor_crystals(params_list, max_size)
    return [TensorElement._trusted(factors) for factors in itertools.product(*crystals)]
