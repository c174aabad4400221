"""Perfectness of B^{r,l} and ground-state paths.

A finite affine crystal is perfect of level l when its tensor square is
connected, its classical weights sit under a unique maximal weight, every
epsilon-profile has level at least l, and every dominant weight of level l
is hit by exactly one epsilon-profile and one phi-profile.  For B^{r,l}
the distinguished elements come from one formula: b_L, whose
epsilon-profile is the dominant weight L, reads the coefficients of L
along anti-diagonals, and b^L, whose phi-profile is L, is b_ of
``L.rotate(r)``.  So the epsilon-profile of b^L is ``L.rotate(r)``, the
ground-state path recursion, checked where b_ is built.  Connectivity
of the tensor square is read off its classical highest weight elements
alone; when they do not certify it, that is a violation, and no square
is walked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, pairwise

from .errors import (
    InvalidParams,
    LevelMismatch,
    OracleFailure,
    SizeLimitExceeded,
)
from .patterns import (
    ENUMERATION_CAP,
    KRParams,
    _check_params,
    _is_int,
    enumerate_crystal,
    pattern_from_cells,
    weyl_dimension,
    zero_pattern,
)
from .rmatrix import highest_weight_elements, to_highest_weight
from .tensor import _check_element, is_classical_hw


@dataclass(frozen=True)
class DominantWeight:
    """Coefficient tuple (a_0, ..., a_n) of non-negative ints on the affine fundamental weights."""

    coeffs: tuple

    def __post_init__(self):
        if not isinstance(self.coeffs, tuple) or not all(map(_is_int, self.coeffs)):
            raise InvalidParams(f"coefficients must be integers in a tuple, got {self.coeffs!r}")
        if not self.coeffs:
            raise InvalidParams("a dominant weight needs at least one coefficient")
        if any(c < 0 for c in self.coeffs):
            raise InvalidParams("coefficients must be non-negative")

    @property
    def n(self):
        return len(self.coeffs) - 1

    @property
    def level(self):
        return sum(self.coeffs)

    def rotate(self, r):
        """Left-rotation by r slots: entry t picks up coefficient t+r.

        An r that is not an ``int`` (True and 2.0 included) raises InvalidParams.
        """
        if not _is_int(r):
            raise InvalidParams(f"a rotation is by an int number of slots, got {r!r}")
        n1 = len(self.coeffs)
        return DominantWeight(tuple(self.coeffs[(t + r) % n1] for t in range(n1)))


def dominant_weights(n, level):
    """All level-`level` dominant weights for rank n, lexicographic.

    The n + 1 coefficients are the gaps around n bars placed among
    level + n slots, and bar positions in lexicographic order give the
    weights in lexicographic order.
    """
    if not (_is_int(n) and _is_int(level) and n >= 1 and level >= 0):
        raise InvalidParams(f"need integers n >= 1 and level >= 0, got n={n!r}, level={level!r}")
    out = []
    for bars in combinations(range(level + n), n):
        ends = (-1, *bars, level + n)
        out.append(DominantWeight(tuple(b - a - 1 for a, b in pairwise(ends))))
    return out


def eps_profile(b):
    _check_element(b)
    return tuple(b.eps(l) for l in range(b.n + 1))


def phi_profile(b):
    _check_element(b)
    return tuple(b.phi(l) for l in range(b.n + 1))


def b_lower(weight, params):
    """The unique element whose epsilon-profile equals the weight.

    Entry at (p, q) is coefficient p+q-r; the 0-th coefficient never
    appears and is recovered through eps_0.
    """
    _check_level(weight, params)
    a = weight.coeffs
    out = pattern_from_cells(params, lambda p, q: a[p + q - params.r])
    if eps_profile(out) != weight.coeffs:
        raise OracleFailure("epsilon-profile of b_lower does not match the weight")
    return out


def b_upper(weight, params):
    """The unique element whose phi-profile equals the weight.

    Entry at (p, q) is coefficient (p+q) mod (n+1), which is b_lower of
    ``weight.rotate(r)``: its epsilon-profile is that rotation, or b_lower
    raises OracleFailure.
    """
    _check_level(weight, params)
    out = b_lower(weight.rotate(params.r), params)
    if phi_profile(out) != weight.coeffs:
        raise OracleFailure("phi-profile of b_upper does not match the weight")
    return out


def _check_level(weight, params):
    if not isinstance(weight, DominantWeight):
        raise InvalidParams(f"weight must be a DominantWeight, got {weight!r}")
    _check_params(params)
    if weight.n != params.n:
        raise LevelMismatch(f"weight rank {weight.n} differs from n={params.n}")
    if weight.level != params.s:
        raise LevelMismatch(f"weight level {weight.level} differs from s={params.s}")


@dataclass(frozen=True)
class GroundStatePath:
    """Finite prefix b_0, b_1, ... of the distinguished periodic path."""

    params: KRParams
    weights: tuple
    elements: tuple

    @property
    def period(self):
        for k in range(1, len(self.weights)):  # an empty prefix shows no period
            if self.weights[k] == self.weights[0]:
                return k
        return None


def ground_state_path(weight, params, length):
    """Weights and elements of the ground-state path, length steps.

    Successive weights are left-rotations by r, so they repeat with period
    at most n+1: each distinct weight's element is built once by
    ``b_upper``, whose b_lower step checks the defining recursion (the
    epsilon-profile of the element is the next weight).  A length over
    ``ENUMERATION_CAP`` raises SizeLimitExceeded before any element is
    built.
    """
    if not _is_int(length):
        raise InvalidParams(f"path length must be an integer, got {length!r}")
    if length < 0:
        raise InvalidParams(f"path length must be non-negative, got {length}")
    if length > ENUMERATION_CAP:
        raise SizeLimitExceeded(f"path length {length} exceeds cap {ENUMERATION_CAP}")
    _check_level(weight, params)
    weights = [weight]
    elements = []
    steps = {}  # weight -> (its element, the next weight)
    for _ in range(length):
        step = steps.get(weights[-1])
        if step is None:
            nxt = weights[-1].rotate(params.r)
            step = steps[weights[-1]] = b_upper(weights[-1], params), nxt
        elements.append(step[0])
        weights.append(step[1])
    return GroundStatePath(params, tuple(weights[:length]), tuple(elements))


@dataclass
class PerfectReport:
    """Outcome of the five perfectness conditions, with witnesses.

    Only measured values are stored.  ``level`` is ``params.s``,
    ``profile_level_ok`` is ``min_profile_level >= level`` and ``finite``
    is True (B was enumerated); all three are derived properties.
    """

    params: KRParams
    cardinality: int = 0
    tensor_square_connected: bool = False
    classical_weights_dominated: bool = False
    top_weight_unique: bool = False
    min_profile_level: int = None
    eps_profiles_bijective: bool = False
    phi_profiles_bijective: bool = False
    formulas_match_search: bool = False
    violations: list = field(default_factory=list)

    @property
    def level(self):
        return self.params.s

    @property
    def finite(self):
        return True

    @property
    def profile_level_ok(self):
        return self.min_profile_level is not None and self.min_profile_level >= self.level

    @property
    def ok(self):
        return not self.violations


def check_perfect(params):
    """Verify the five perfectness conditions for B^{r,s} at level s.

    B is enumerated under ``ENUMERATION_CAP``.  ``tensor_square_connected``
    is the verdict of the highest weight certificate (``_certificate``)
    alone: an undecided certificate is the first violation, and no square
    is walked, so only the enumeration cap raises SizeLimitExceeded.  B is
    read in one pass, then each side once over the level-s dominant
    weights.
    """
    report = PerfectReport(params=params)
    violations = report.violations
    elements = enumerate_crystal(params)
    size = len(elements) ** 2
    report.cardinality = len(elements)

    report.tensor_square_connected = _certificate(params, size)
    if not report.tensor_square_connected:
        violations.append(
            f"tensor square of {size} elements not certified connected"
            " by its highest weight elements"
        )

    # one pass over B.  The classical weight of the zero pattern dominates
    # B (``_dominated``, once per distinct weight).  Each side keeps its
    # level-exact profiles in order.
    n, s = params.n, params.s
    top = zero_pattern(params).classical_weight()
    cone, hits_e, hits_f, at_top, min_level = {}, {}, {}, 0, None
    colors = range(n + 1)
    for b in elements:
        wt = b.classical_weight()
        at_top += wt == top
        ok = cone.get(wt)
        if ok is None:
            ok = cone[wt] = _dominated(top, wt)
        if not ok:
            violations.append(f"weight of {b} escapes the dominance cone")
        prof_e, prof_f = tuple(map(b.eps, colors)), tuple(map(b.phi, colors))
        level = sum(prof_e)
        if min_level is None or level < min_level:
            min_level = level
        if level == s:
            hits_e.setdefault(prof_e, []).append(b)
        if sum(prof_f) == s:
            hits_f.setdefault(prof_f, []).append(b)
    report.classical_weights_dominated = all(cone.values())
    report.top_weight_unique = at_top == 1
    if at_top != 1:
        violations.append(f"{at_top} elements share the top classical weight")
    report.min_profile_level = min_level
    if min_level < s:
        violations.append(f"some epsilon-profile has level {min_level} < {s}")

    # each side: every dominant weight of level s is hit exactly once, by
    # the element its formula writes down (of several hits, already a
    # violation, the last is compared); disagreements are listed per weight.
    # b_ is built once per weight, and b^ of a weight is b_ of its rotation
    targets = dominant_weights(n, s)
    wanted = {w.coeffs for w in targets}
    lower = {w: b_lower(w, params) for w in targets}
    bijective, disagree = [], [[] for _ in targets]
    sides = (("epsilon", "b_", hits_e, 0), ("phi", "b^", hits_f, params.r))
    for tag, mark, hits, shift in sides:
        before = len(violations)
        for weight, wrong in zip(targets, disagree):
            found = hits.get(weight.coeffs, [])
            if len(found) != 1:
                violations.append(f"{tag}-profile {weight.coeffs} hit by {len(found)} elements")
            if found[-1:] != [lower[weight.rotate(shift)]]:
                wrong.append(f"search and formula disagree on {mark}({weight.coeffs})")
        extra = sorted(hits.keys() - wanted)
        if extra:
            violations.append(f"unexpected level-exact {tag}-profiles: {extra}")
        bijective.append(len(violations) == before)
    report.eps_profiles_bijective, report.phi_profiles_bijective = bijective
    report.formulas_match_search = not any(disagree)
    violations.extend(message for wrong in disagree for message in wrong)
    return report


def _dominated(top, wt):
    """True when top - wt is a non-negative integer combination of simple roots.

    Its coordinates c_i are the inverse Cartan matrix of A_n applied to
    d = top - wt.  Scaled by n+1 to stay in integers, with T = sum_j j d_j,
    (n+1) c_i = (n+1) (sum_{j<=i} j d_j + i sum_{j>i} d_j) - i T, so one
    pass of prefix sums reads them all.
    """
    n1 = len(top) + 1
    d = [t - w for t, w in zip(top, wt)]
    total = sum(j * x for j, x in enumerate(d, 1))
    low, high = 0, sum(d)  # sum_{j<=i} j d_j and sum_{j>i} d_j
    for i, x in enumerate(d, 1):
        low += i * x
        high -= x
        c = n1 * (low + i * high) - i * total
        if c < 0 or c % n1:
            return False
    return True


def _certificate(params, size):
    """True when the classical highest weight elements show B (x) B connected.

    H = ``highest_weight_elements(params, params)`` is taken as the list of
    classical components only if its elements are distinct and classical
    highest weight and their Weyl dimensions sum to ``size``, the
    enumerated |B|^2.  Classical edges connect each component, so B (x) B
    is connected when joining each element of H to the highest weight
    elements of its f_0 and e_0 images leaves one class.  False means
    undecided: a failed guard, an image raised outside H, or several
    classes.
    """
    hw = highest_weight_elements(params, params)
    if len(set(hw)) != len(hw) or not all(is_classical_hw(x) for x in hw):
        return False
    if sum(weyl_dimension(x.classical_weight()) for x in hw) != size:
        return False
    root = {x: x for x in hw}

    def find(x):
        while root[x] != x:
            root[x] = x = root[root[x]]
        return x

    classes = len(hw)
    for x, y in _affine_edges(hw):
        if y not in root:
            return False
        a, b = find(x), find(y)
        if a != b:
            root[a] = b
            classes -= 1
    return classes == 1


def _affine_edges(hw):
    """(x, the highest weight element of op_0(x)) for op in f, e and x in hw."""
    for x in hw:
        for y in (x.f(0), x.e(0)):
            if y is not None:
                yield x, to_highest_weight(y)[0]
