"""Rank-2 regularity certificates for colored crystal digraphs.

For a pair of colors J = {j, k} the J-components of a crystal of A_n^(1)
(n >= 2) must look like crystals of the rank-2 algebra determined by J:
A_2 when j and k are adjacent on the cycle of n+1 nodes, A_1 x A_1
otherwise.  The verifier works purely on the abstract graph, whose
per-color id lists already give every vertex at most one incoming and one
outgoing edge of each color, and whose string lengths eps/phi the graph
derived once from those lists.  For each component it checks

  * string structure (no monochrome cycles),
  * the allowed one-step effects of e_i/f_i on the j-statistics,
  * commuting squares and the length-five braid relation, with their
    degree side conditions,
  * unique source and sink, the source/sink profile swap (A_2 case), and
  * the component cardinality predicted by the source profile.

The axioms are written once, for e: the lowering axioms are checked as the
raising axioms on the dual crystal, whose e is f and whose eps is phi.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import KRError


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
        raise ValueError("rank-2 regularity check requires n >= 2")
    return -1 if (j - k) % (n + 1) in (1, n) else 0


def is_regular_rank2(graph, pair):
    """Check every {j,k}-component against the rank-2 string axioms.

    The pair must name two distinct colors of the graph.
    """
    j, k = pair
    if j == k or j not in graph.colors or k not in graph.colors:
        raise KRError(f"color pair {pair} is not two distinct colors of {graph.colors}")
    n = _graph_rank(graph)
    a = rank2_off_diagonal(j, k, n)
    report = RegularityReport(pair=(j, k), cartan_off_diagonal=a)
    comps = graph.component_indices(colors=pair)
    report.num_components = len(comps)
    for comp in comps:
        _check_component(comp, graph, pair, a, report)
    return report


def _graph_rank(graph):
    if not graph.vertices:
        raise KRError("regularity check needs a graph with at least one vertex")
    return graph.vertices[0].n


def _check_component(comp, graph, pair, a, report):
    label = f"component@{min(comp)}"
    for c in pair:
        if any(graph.eps[c][x] is None for x in comp):
            report.violations.append(f"{label}: color {c} has a cyclic or tangled string")
            return
    hi = _check_direction(label, comp, pair, a, "e", graph.e, graph.eps, graph.phi, report)
    lo = _check_direction(label, comp, pair, a, "f", graph.f, graph.phi, graph.eps, report)
    if hi is None or lo is None:
        return
    i, j = pair
    wa, wb = graph.phi[i][hi], graph.phi[j][hi]
    if a == 0:
        expected = (wa + 1) * (wb + 1)
        swap = (wa, wb)
    else:
        expected = (wa + 1) * (wb + 1) * (wa + wb + 2) // 2
        swap = (wb, wa)
    if len(comp) != expected:
        report.violations.append(f"{label}: size {len(comp)} differs from predicted {expected}")
    if (graph.eps[i][lo], graph.eps[j][lo]) != swap:
        report.violations.append(f"{label}: sink profile is not the source profile dual")


def _check_direction(label, comp, pair, a, op, step, up, down, report):
    """The raising axioms on one component, read through ``step``/``up``/``down``.

    With ``op`` "e" and (e, eps, phi) these are the raising axioms; with
    "f" and (f, phi, eps) they are the raising axioms of the dual crystal,
    which are the lowering axioms.  Returns the unique vertex of the
    component that both colors of ``step`` kill, or None if there is not
    exactly one.
    """
    name, ends = ("raising", "sources") if op == "e" else ("lowering", "sinks")
    allowed = {(0, 0)} if a == 0 else {(1, 0), (0, -1)}
    bad = report.violations.append
    i, j = pair
    for x in comp:
        for c, d in ((i, j), (j, i)):
            u = step[c][x]
            if u is not None:
                delta = (up[d][u] - up[d][x], down[d][u] - down[d][x])
                if delta not in allowed:
                    delta = delta if op == "e" else delta[::-1]  # messages read (eps, phi)
                    bad(f"{label}: {op}_{c} at {x} moves ({d})-stats by {delta}")
        ui, uj = step[i][x], step[j][x]
        if ui is None or uj is None:
            continue
        di = up[j][ui] - up[j][x]
        dj = up[i][uj] - up[i][x]
        if di == 0 or dj == 0:
            y = step[j][ui]
            if y is None or y != step[i][uj]:
                bad(f"{label}: {name} square at {x} fails")
            else:
                for dc, c, v in ((di, i, ui), (dj, j, uj)):
                    if dc == 0 and down[c][y] != down[c][v]:
                        bad(f"{label}: {name} square at {x} fails degree condition")
        elif di == 1 and dj == 1:
            y = _walk(step, ui, (j, j, i))
            if y is None or y != _walk(step, uj, (i, i, j)):
                bad(f"{label}: {name} braid relation at {x} fails")
    found = [x for x in comp if up[i][x] == 0 and up[j][x] == 0]
    if len(found) != 1:
        bad(f"{label}: {len(found)} {ends}, expected 1")
        return None
    return found[0]


def _walk(step, start, colors):
    v = start
    for c in colors:
        v = step[c][v]
        if v is None:
            return None
    return v
