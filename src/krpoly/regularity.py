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
    f, e, eps, phi = graph.f, graph.e, graph.eps, graph.phi
    for c in pair:
        if any(eps[c][x] is None for x in comp):
            report.violations.append(f"{label}: color {c} has a cyclic or tangled string")
            return

    allowed_e = {(0, 0)} if a == 0 else {(1, 0), (0, -1)}
    allowed_f = {(0, 0)} if a == 0 else {(0, 1), (-1, 0)}
    for x in comp:
        for i, j in ((pair[0], pair[1]), (pair[1], pair[0])):
            u = e[i][x]
            if u is not None:
                delta = (eps[j][u] - eps[j][x], phi[j][u] - phi[j][x])
                if delta not in allowed_e:
                    report.violations.append(
                        f"{label}: e_{i} at {x} moves ({j})-stats by {delta}"
                    )
            v = f[i][x]
            if v is not None:
                delta = (eps[j][v] - eps[j][x], phi[j][v] - phi[j][x])
                if delta not in allowed_f:
                    report.violations.append(
                        f"{label}: f_{i} at {x} moves ({j})-stats by {delta}"
                    )

        i, j = pair
        ui, uj = e[i][x], e[j][x]
        if ui is not None and uj is not None:
            di = eps[j][ui] - eps[j][x]
            dj = eps[i][uj] - eps[i][x]
            if di == 0 or dj == 0:
                y1 = e[j][ui]
                y2 = e[i][uj]
                if y1 is None or y2 is None or y1 != y2:
                    report.violations.append(f"{label}: raising square at {x} fails")
                else:
                    if di == 0 and phi[i][y1] != phi[i][ui]:
                        report.violations.append(
                            f"{label}: raising square at {x} fails degree condition"
                        )
                    if dj == 0 and phi[j][y1] != phi[j][uj]:
                        report.violations.append(
                            f"{label}: raising square at {x} fails degree condition"
                        )
            elif di == 1 and dj == 1:
                y1 = _walk(e, ui, (j, j, i))
                y2 = _walk(e, uj, (i, i, j))
                if y1 is None or y2 is None or y1 != y2:
                    report.violations.append(f"{label}: raising braid relation at {x} fails")
        vi, vj = f[i][x], f[j][x]
        if vi is not None and vj is not None:
            di = phi[j][vi] - phi[j][x]
            dj = phi[i][vj] - phi[i][x]
            if di == 0 or dj == 0:
                y1 = f[j][vi]
                y2 = f[i][vj]
                if y1 is None or y2 is None or y1 != y2:
                    report.violations.append(f"{label}: lowering square at {x} fails")
                else:
                    if di == 0 and eps[i][y1] != eps[i][vi]:
                        report.violations.append(
                            f"{label}: lowering square at {x} fails degree condition"
                        )
                    if dj == 0 and eps[j][y1] != eps[j][vj]:
                        report.violations.append(
                            f"{label}: lowering square at {x} fails degree condition"
                        )
            elif di == 1 and dj == 1:
                y1 = _walk(f, vi, (j, j, i))
                y2 = _walk(f, vj, (i, i, j))
                if y1 is None or y2 is None or y1 != y2:
                    report.violations.append(f"{label}: lowering braid relation at {x} fails")

    i, j = pair
    sources = [x for x in comp if eps[i][x] == 0 and eps[j][x] == 0]
    sinks = [x for x in comp if phi[i][x] == 0 and phi[j][x] == 0]
    if len(sources) != 1:
        report.violations.append(f"{label}: {len(sources)} sources, expected 1")
    if len(sinks) != 1:
        report.violations.append(f"{label}: {len(sinks)} sinks, expected 1")
    if len(sources) == 1 and len(sinks) == 1:
        hi, lo = sources[0], sinks[0]
        wa, wb = phi[i][hi], phi[j][hi]
        if a == 0:
            expected = (wa + 1) * (wb + 1)
            swap = (wa, wb)
        else:
            expected = (wa + 1) * (wb + 1) * (wa + wb + 2) // 2
            swap = (wb, wa)
        if len(comp) != expected:
            report.violations.append(
                f"{label}: size {len(comp)} differs from predicted {expected}"
            )
        if (eps[i][lo], eps[j][lo]) != swap:
            report.violations.append(f"{label}: sink profile is not the source profile dual")


def _walk(step, start, colors):
    v = start
    for c in colors:
        v = step[c][v]
        if v is None:
            return None
    return v
