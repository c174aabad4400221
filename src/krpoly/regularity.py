"""Rank-2 regularity certificates for colored crystal digraphs.

For a pair of colors J = {j, k} the J-components of a crystal of A_n^(1)
(n >= 2) must look like crystals of the rank-2 algebra determined by J:
A_2 when j and k are adjacent on the cycle of n+1 nodes, A_1 x A_1
otherwise.  The verifier works purely on the abstract graph, whose
per-color id lists already give every vertex at most one incoming and one
outgoing edge of each color, and whose string lengths eps/phi the graph
derived once from those lists.  For each component it checks

  * string structure (no monochrome cycles; a color whose eps list holds
    no None is free of them, so components are searched only otherwise),
  * the allowed one-step effects of e_i/f_i on the j-statistics,
  * commuting squares and the length-five braid relation, with their
    degree side conditions,
  * unique source and sink, the source/sink profile swap (A_2 case), and
  * the component cardinality predicted by the source profile.

The axioms are written once, for e: the lowering axioms are checked as the
raising axioms on the dual crystal, whose e is f and whose eps is phi.
Each direction binds its colors' id lists once per pair and walks a
component once, collecting the sources (sinks) as it goes; a violation
names its component by the least vertex, built only when it is reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvalidParams, KRError
from .graph import CrystalGraph


@dataclass
class RegularityReport:
    pair: tuple
    cartan_off_diagonal: int
    num_components: int = 0
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations


def rank2_off_diagonal(j, k, n):
    """Cartan pairing of the two affine colors: -1 if adjacent, else 0."""
    if n < 2:
        raise InvalidParams("rank-2 regularity check requires n >= 2")
    return -1 if (j - k) % (n + 1) in (1, n) else 0


def is_regular_rank2(graph, pair):
    """Check every {j,k}-component against the rank-2 string axioms.

    ``graph`` must be a CrystalGraph (InvalidParams otherwise), the pair
    must name two distinct colors of it, each an ``int`` (not True or
    1.0), and its vertices must carry the rank n (a KRError otherwise).
    Violations name their component by its least vertex and come in
    component order.
    """
    if not isinstance(graph, CrystalGraph):
        raise InvalidParams(f"{graph!r} is not a CrystalGraph")
    j, k = pair if isinstance(pair, (tuple, list)) and len(pair) == 2 else (None, None)
    if j == k or not all(type(c) is int and c in graph.colors for c in (j, k)):
        raise KRError(f"color pair {pair} is not two distinct colors of {graph.colors}")
    n = _graph_rank(graph)
    a = rank2_off_diagonal(j, k, n)
    report = RegularityReport(pair=(j, k), cartan_off_diagonal=a)
    comps = graph.component_indices(colors=pair)
    report.num_components = len(comps)
    bad = report.violations.append
    eps, phi = graph.eps, graph.phi
    # a color whose eps list holds no None has no cycle or tangle anywhere
    tangled = [c for c in (j, k) if None in eps[c]]
    raising = _direction_check("e", graph.e, eps, phi, (j, k), a, bad)
    lowering = _direction_check("f", graph.f, phi, eps, (j, k), a, bad)
    phi_j, phi_k, eps_j, eps_k = phi[j], phi[k], eps[j], eps[k]
    for comp in comps:
        if tangled:
            broken = next((c for c in tangled if any(eps[c][x] is None for x in comp)), None)
            if broken is not None:
                bad(f"component@{comp[0]}: color {broken} has a cyclic or tangled string")
                continue
        hi, lo = raising(comp), lowering(comp)
        if hi is None or lo is None:
            continue
        wa, wb = phi_j[hi], phi_k[hi]
        if a == 0:
            expected = (wa + 1) * (wb + 1)
            swap = (wa, wb)
        else:
            expected = (wa + 1) * (wb + 1) * (wa + wb + 2) // 2
            swap = (wb, wa)
        if len(comp) != expected:
            bad(f"component@{comp[0]}: size {len(comp)} differs from predicted {expected}")
        if (eps_j[lo], eps_k[lo]) != swap:
            bad(f"component@{comp[0]}: sink profile is not the source profile dual")
    return report


def _graph_rank(graph):
    if not graph.vertices:
        raise KRError("regularity check needs a graph with at least one vertex")
    n = getattr(graph.vertices[0], "n", None)
    if n is None:
        raise KRError(f"{type(graph.vertices[0]).__name__} vertices carry no rank n")
    return n


def _direction_check(op, step, up, down, pair, a, bad):
    """The raising axioms on one component, read through ``step``/``up``/``down``.

    With ``op`` "e" and (e, eps, phi) these are the raising axioms; with
    "f" and (f, phi, eps) they are the raising axioms of the dual crystal,
    which are the lowering axioms.  Returns a check of one component
    (a sorted tuple of ids) that reports through ``bad`` and returns the
    unique vertex both colors of ``step`` kill, or None if there is not
    exactly one.  Each color's lists are bound once, here.
    """
    name, ends = ("raising", "sources") if op == "e" else ("lowering", "sinks")
    allowed = {(0, 0)} if a == 0 else {(1, 0), (0, -1)}
    i, j = pair
    step_i, step_j, up_i, up_j, down_i, down_j = step[i], step[j], up[i], up[j], down[i], down[j]

    def moved(head, c, x, d, delta):
        delta = delta if op == "e" else delta[::-1]  # messages read (eps, phi)
        bad(f"component@{head}: {op}_{c} at {x} moves ({d})-stats by {delta}")

    def check(comp):
        head = comp[0]
        found = []
        for x in comp:
            ui, uj = step_i[x], step_j[x]
            ux_i, ux_j = up_i[x], up_j[x]
            if ui is not None:
                di = up_j[ui] - ux_j
                delta = (di, down_j[ui] - down_j[x])
                if delta not in allowed:
                    moved(head, i, x, j, delta)
            if uj is not None:
                dj = up_i[uj] - ux_i
                delta = (dj, down_i[uj] - down_i[x])
                if delta not in allowed:
                    moved(head, j, x, i, delta)
            if ux_i == 0 and ux_j == 0:
                found.append(x)
            if ui is None or uj is None:
                continue
            if di == 0 or dj == 0:
                y = step_j[ui]
                if y is None or y != step_i[uj]:
                    bad(f"component@{head}: {name} square at {x} fails")
                else:
                    if di == 0 and down_i[y] != down_i[ui]:
                        bad(f"component@{head}: {name} square at {x} fails degree condition")
                    if dj == 0 and down_j[y] != down_j[uj]:
                        bad(f"component@{head}: {name} square at {x} fails degree condition")
            elif di == 1 and dj == 1:
                y = _walk(ui, (step_j, step_j, step_i))
                if y is None or y != _walk(uj, (step_i, step_i, step_j)):
                    bad(f"component@{head}: {name} braid relation at {x} fails")
        if len(found) != 1:
            bad(f"component@{head}: {len(found)} {ends}, expected 1")
            return None
        return found[0]

    return check


def _walk(start, steps):
    v = start
    for step in steps:
        v = step[v]
        if v is None:
            return None
    return v
