"""Exhaustive verification suites, each pairing a construction with an
independent oracle of ``oracles``.  The CLI `verify` subcommand and the
acceptance tests run these through ``run_suite``.

A suite is one ``SUITES`` row: a shape generator, which lists the crystals
or pairs of crystals it covers, and the (check kind, failures function)
pairs run on each shape.  A failures function takes the crystals of one
shape and lists what broke; ``run_suite`` records each call as a Check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .energy import local_energy, local_energy_hw
from .errors import InvalidParams, KRError, SizeLimitExceeded
from .graph import build_graph
from .nakajima import MonomialCrystal, psi_embedding
from .oracles import (
    _signature_images,
    brute_pivot,
    count_rect_ssyt,
    local_energy_oracle,
    product_table,
    rmatrix_oracle_ids,
    signature_word,
    string_eps,
    string_phi,
)
from .patterns import KRParams, crystal_size, enumerate_crystal, pivot
from .perfect import check_perfect, dominant_weights, ground_state_path
from .regularity import is_regular_rank2
from .rmatrix import highest_weight_elements, rmatrix
from .tensor import is_classical_hw, product_elements


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


# -- suites -------------------------------------------------------------------


def _crystals(n, max_s):
    """One B^{r,s} per check: r outer, s inner."""
    return [(KRParams(n, r, s),) for r in range(1, n + 1) for s in range(1, max_s + 1)]


def _pairs(n, max_s):
    """Every ordered pair of the crystals of ``_crystals``."""
    return [p + q for p, q in itertools.product(_crystals(n, max_s), repeat=2)]


def _levels(n, max_level):
    """One B^{r,s} per check: level s outer, r inner."""
    return [(KRParams(n, r, s),) for s in range(1, max_level + 1) for r in range(1, n + 1)]


def _name(kind, n, *factors):
    return f"{kind} " + "x".join(f"B^({p.r},{p.s})" for p in factors) + f" n={n}"


def _ops_failures(params):
    n = params.n
    crystal = enumerate_crystal(params)
    bad = []
    for b in crystal:
        for l in range(n + 1):
            if b.phi(l) != string_phi(b, l) or b.eps(l) != string_eps(b, l):
                bad.append(f"string stats at {b} color {l}")
            fb = b.f(l)
            if fb is not None and (fb.e(l) != b or fb.validate() is None):
                bad.append(f"e o f at {b} color {l}")
            eb = b.e(l)
            if eb is not None and (eb.f(l) != b or eb.validate() is None):
                bad.append(f"f o e at {b} color {l}")
        cl = b.classical_weight()
        pair = (-sum(cl),) + cl  # level zero fixes the pairing with coroot 0
        if any(b.phi(l) - b.eps(l) != pair[l] for l in range(n + 1)):
            bad.append(f"phi - eps mismatch at {b}")
        for l in range(2, n):
            for first, second in (("f", "f"), ("f", "e"), ("e", "f"), ("e", "e")):
                lhs = _compose(b, ((first, 0), (second, l)))
                rhs = _compose(b, ((second, l), (first, 0)))
                if lhs != rhs:
                    bad.append(f"color-0 commutation at {b} with {second}_{l}")
        for l in range(1, n + 1):
            if l == params.r:
                continue
            if pivot(b, l) != brute_pivot(b, l):
                bad.append(f"pivot mismatch at {b} color {l}")
    graph = build_graph(crystal, range(n + 1))
    if not graph.is_connected():
        bad.append("affine graph disconnected")
    if not graph.is_connected(range(1, n + 1)):
        bad.append("classical graph disconnected")
    return bad


def _compose(b, steps):
    for op, l in steps:
        if b is None:
            return None
        b = b.f(l) if op == "f" else b.e(l)
    return b


def _tensor_failures(params1, params2):
    bad = []
    for x in product_elements((params1, params2)):
        level = 0
        for l in range(params1.n + 1):
            word = signature_word(x, l)
            plus = sum(1 for sign, _ in word if sign == "+")
            phi, eps = x.phi(l), x.eps(l)
            level += phi - eps
            if phi != plus:
                bad.append(f"phi vs signature at {x} color {l}")
            if eps != len(word) - plus:
                bad.append(f"eps vs signature at {x} color {l}")
            fx, ex = x.f(l), x.e(l)
            sig_f, sig_e = _signature_images(x, l, word)
            if fx != sig_f:
                bad.append(f"f vs signature at {x} color {l}")
            if ex != sig_e:
                bad.append(f"e vs signature at {x} color {l}")
            if fx is not None and fx.e(l) != x:
                bad.append(f"partial inverse at {x} color {l}")
        if level:
            bad.append(f"nonzero level at {x}")
    return bad


def _rmatrix_failures(params1, params2):
    bad = []
    left = product_table(params1, params2)
    right = left.swapped()
    reverse = rmatrix_oracle_ids(right)
    # the oracle itself raises where sigma does not preserve the weight
    for xi, yi in rmatrix_oracle_ids(left).items():
        x = left.element(xi)
        if rmatrix(x) != right.element(yi):
            bad.append(f"transport differs from oracle at {x}")
        if reverse[yi] != xi:
            bad.append(f"oracle not an involution at {x}")
    return bad


def _energy_failures(params1, params2):
    bad = []
    table = local_energy_oracle(params1, params2)
    for x, h in table.items():
        if local_energy(x) != h:
            bad.append(f"closed form differs at {x}")
        if is_classical_hw(x) and local_energy_hw(x) != h:
            bad.append(f"hw law differs at {x}")
        if h > 0:
            bad.append(f"positive energy at {x}")
    for x in highest_weight_elements(params1, params2):
        if not is_classical_hw(x):
            bad.append(f"formula element is not highest weight at {x}")
    return bad


def _regular_failures(params):
    colors = range(params.n + 1)
    graph = build_graph(enumerate_crystal(params), colors)
    bad = []
    for pair in itertools.combinations(colors, 2):
        report = is_regular_rank2(graph, pair)
        if not report.ok:
            bad.append(f"pair {pair}: {report.violations[0]}")
    return bad


def _nakajima_failures(params):
    crystal2 = MonomialCrystal()
    bad = []
    for b in enumerate_crystal(params):
        m = psi_embedding(b)
        if crystal2.phi(m, 1) != b.phi(0) or crystal2.eps(m, 1) != b.eps(0):
            bad.append(f"color-0 statistics differ at {b}")
        if not _psi_commutes(crystal2, b, m, 0, 1):
            bad.append(f"color-0 operators differ at {b}")
        if params.r >= 2:
            if crystal2.phi(m, 2) != b.phi(1) or crystal2.eps(m, 2) != b.eps(1):
                bad.append(f"color-1 statistics differ at {b}")
            if not _psi_commutes(crystal2, b, m, 1, 2):
                bad.append(f"color-1 operators differ at {b}")
            lo, hi = pivot(b, 1)
            if b.phi(1) > 0 and crystal2.nf(m, 2) != params.n - hi:
                bad.append(f"nf pivot identity fails at {b}")
            if b.eps(1) > 0 and crystal2.ne(m, 2) != params.n - lo:
                bad.append(f"ne pivot identity fails at {b}")
    return bad


def _psi_commutes(crystal2, b, m, pattern_color, monomial_color):
    """psi o f = f o psi, then psi o e = e o psi, at one pair of colors."""
    for op_b, op_m in ((b.f, crystal2.f), (b.e, crystal2.e)):
        image = op_b(pattern_color)
        if (None if image is None else psi_embedding(image)) != op_m(m, monomial_color):
            return False
    return True


def _path_failures(params):
    """``ground_state_path`` rotates the weights itself, and its b_upper
    raises OracleFailure at a step whose eps-profile breaks the recursion."""
    weight = dominant_weights(params.n, params.s)[0]
    ground_state_path(weight, params, 2 * (params.n + 1))
    return []


def _cardinality_failures(params):
    got = len(enumerate_crystal(params))
    want = count_rect_ssyt(params.r, params.s, params.n + 1)
    weyl = crystal_size(params)
    if got == want == weyl:
        return []
    return [f"enumerated {got}, tableau count {want}, Weyl dimension {weyl}"]


SUITES = {
    "ops": (_crystals, [("ops", _ops_failures)]),  # strings, weights, pivots, commutation
    "tensor": (_pairs, [("tensor", _tensor_failures)]),  # tensor rule vs signature rule
    "rmatrix": (_pairs, [("rmatrix", _rmatrix_failures)]),  # transport vs the walk from 0 (x) 0
    "energy": (_pairs, [("energy", _energy_failures)]),  # closed form vs recursion, hw law
    "regular": (_crystals, [("regular", _regular_failures)]),  # rank-2 axioms, all color pairs
    "nakajima": (_crystals, [("nakajima", _nakajima_failures)]),  # corner embedding
    # perfectness reports, each followed by its ground-state path recursion
    "perfect": (
        _levels,
        [
            ("perfect", lambda params: check_perfect(params).violations),
            ("ground-state path", _path_failures),
        ],
    ),
    "cardinality": (_crystals, [("cardinality", _cardinality_failures)]),  # tableaux, Weyl dim
}


def run_suite(name, n, max_s):
    """The Checks of one suite, or of every suite in name order for "all".

    "all" leaves out ``regular`` below n = 2.  A KRError from a failures
    function (an oracle or a construction finding an inconsistency) fails
    that check instead of ending the suite.  A size cap or invalid
    parameters (``regular`` below n = 2) still propagate: the check was
    refused, not failed.
    """
    if name == "all":
        keys = [key for key in sorted(SUITES) if key != "regular" or n >= 2]
        return [check for key in keys for check in run_suite(key, n, max_s)]
    shapes, kinds = SUITES[name]
    checks = []
    for shape in shapes(n, max_s):
        for kind, failures in kinds:
            label = _name(kind, n, *shape)
            try:
                bad = failures(*shape)
            except (SizeLimitExceeded, InvalidParams):
                raise
            except KRError as exc:
                checks.append(Check(label, False, f"{type(exc).__name__}: {exc}"))
                continue
            checks.append(Check(label, not bad, "; ".join(bad[:3])))
    return checks
