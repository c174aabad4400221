"""Colored crystal digraphs: construction, components, DOT/JSON export.

Vertices are stored in lexicographic order of their flattened entries and
edges as (source index, color, target index) triples, so exports are
byte-for-byte deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import SizeLimitExceeded
from .patterns import ENUMERATION_CAP


def sort_key(x):
    """Lexicographic key of an element; a tuple of table ids is its own key."""
    return x if isinstance(x, tuple) else x.sort_key()


@dataclass(frozen=True)
class CrystalGraph:
    """Finite colored digraph with an edge (u, l, v) iff f_l(u) = v."""

    vertices: tuple
    edges: tuple
    colors: tuple
    _index: dict = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_index", {v: i for i, v in enumerate(self.vertices)})

    def vertex_index(self, v):
        return self._index[v]

    def fmaps(self):
        """Per-color partial map source index -> target index."""
        out = {l: {} for l in self.colors}
        for a, l, b in self.edges:
            out[l][a] = b
        return out

    def emaps(self):
        out = {l: {} for l in self.colors}
        for a, l, b in self.edges:
            out[l][b] = a
        return out

    def component_indices(self, colors=None):
        """Undirected connected components, each a sorted tuple of indices."""
        chosen = set(self.colors if colors is None else colors)
        adj = {i: [] for i in range(len(self.vertices))}
        for a, l, b in self.edges:
            if l in chosen:
                adj[a].append(b)
                adj[b].append(a)
        seen = [False] * len(self.vertices)
        comps = []
        for start in range(len(self.vertices)):
            if seen[start]:
                continue
            stack, comp = [start], []
            seen[start] = True
            while stack:
                v = stack.pop()
                comp.append(v)
                for w in adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            comps.append(tuple(sorted(comp)))
        return comps

    def is_connected(self, colors=None):
        return len(self.component_indices(colors)) <= 1

    def to_json_dict(self):
        return {
            "vertices": [v.to_dict() for v in self.vertices],
            "edges": [list(edge) for edge in self.edges],
        }

    def to_dot(self, name="crystal"):
        lines = [f"digraph {name} {{"]
        for i, v in enumerate(self.vertices):
            lines.append(f'  n{i} [label="{vertex_label(v)}"];')
        for a, l, b in self.edges:
            lines.append(f'  n{a} -> n{b} [label="{l}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def vertex_label(v):
    """Compact human-readable label; single cells collapse to the integer."""
    if hasattr(v, "factors"):
        return "(x)".join(vertex_label(b) for b in v.factors)
    if len(v.rows) == 1 and len(v.rows[0]) == 1:
        return str(v.rows[0][0])
    return "/".join(",".join(str(x) for x in row) for row in v.rows)


def build_graph(elements, colors, f=None, max_size=ENUMERATION_CAP):
    """Full colored digraph over the given elements.

    ``f`` defaults to the elements' own lowering method.  The element set
    must be closed under every requested color.
    """
    if max_size is not None and len(elements) > max_size:
        raise SizeLimitExceeded(f"{len(elements)} vertices exceed cap {max_size}")
    if f is None:
        f = lambda x, l: x.f(l)
    vertices = tuple(sorted(set(elements), key=sort_key))
    index = {v: i for i, v in enumerate(vertices)}
    edges = []
    for i, v in enumerate(vertices):
        for l in colors:
            w = f(v, l)
            if w is None:
                continue
            if w not in index:
                raise ValueError(f"element set not closed under color {l}")
            edges.append((i, l, index[w]))
    return CrystalGraph(vertices, tuple(sorted(edges)), tuple(colors))


def closure(seeds, colors, f, e, max_size=ENUMERATION_CAP):
    """All elements reachable from the seeds under the given operators."""
    seen = set(seeds)
    queue = list(seeds)
    while queue:
        x = queue.pop()
        for l in colors:
            for op in (f, e):
                y = op(x, l)
                if y is not None and y not in seen:
                    if max_size is not None and len(seen) >= max_size:
                        raise SizeLimitExceeded(f"closure exceeds cap {max_size}")
                    seen.add(y)
                    queue.append(y)
    return sorted(seen, key=sort_key)
