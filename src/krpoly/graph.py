"""Colored crystal digraphs: construction, components, DOT export.

A ``CrystalGraph`` holds, for every color l, the list ``f[l]`` of the id
of f_l of each vertex (None for crystal zero), its inverse ``e[l]`` and
the string lengths ``eps[l]``/``phi[l]`` derived from them once;
components, the rank-2 regularity check and ``oracles.PairTable`` all read
these id lists.  One reader fills them: ``patterns._read_color`` reads
the distinct KRPattern factors of the vertices per shape and color,
``tensor.tensor_rule`` picks the factor f_l acts on, and the image is
looked up by its factor ids.  ``build_graph`` sorts the vertices by their
flattened entries and the edges as (source id, color, target id)
triples, so exports are byte-for-byte deterministic.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import cache, cached_property

from .errors import IndexOutOfRange, InvalidParams, KRError, SizeLimitExceeded
from .patterns import ENUMERATION_CAP, KRPattern, _check_cap, _read_color
from .tensor import TensorElement, _check_element, tensor_rule


class CrystalGraph:
    """Finite colored digraph with an edge (u, l, v) iff f_l(u) = v.

    ``f[l][i]``/``e[l][i]`` are the ids of f_l/e_l of vertex i (None for
    crystal zero) and ``index`` maps a vertex to its id.  ``f`` is given
    as those id lists by color, or as None: ``_read_rows`` then reads f_l
    on the rows of the factors of KRPattern or TensorElement vertices.  A
    vertex given twice or with two incoming l-edges raises KRError, a color
    that is not an ``int`` IndexOutOfRange (also True, which would read
    color 1), vertices or colors that are not iterable, a color given twice
    or an id list not one id or None per vertex InvalidParams.
    ``eps[l][i]``/``phi[l][i]`` are the numbers of l-steps from vertex i
    to the head and to the end of its l-string, None on an l-cycle.
    """

    def __init__(self, vertices, colors, f=None):
        self.vertices = _items(vertices, "vertices")
        self.colors = _items(colors, "colors")
        for l in self.colors:
            if type(l) is not int:
                raise IndexOutOfRange(f"color {l!r} is not an int")
        self.index = {v: i for i, v in enumerate(self.vertices)}
        if len(self.index) != len(self.vertices):
            raise KRError(f"{len(self.vertices)} vertices hold {len(self.index)} distinct elements")
        if len(set(self.colors)) != len(self.colors):
            raise InvalidParams(f"colors {self.colors} repeat a color")
        if f is None:
            f = _read_rows(self.vertices, self.colors)
        self.f = {l: f.get(l) if isinstance(f, dict) else None for l in self.colors}
        self.e = {l: _inverse(self.f[l], len(self.vertices), l) for l in self.colors}
        self.eps, self.phi = {}, {}
        for l in self.colors:
            self.eps[l], self.phi[l] = _string_lengths(self.f[l], self.e[l])

    def __len__(self):
        return len(self.vertices)

    @cached_property
    def edges(self):
        """(source, color, target) triples, sorted."""
        edges = [(i, l, j) for l in self.colors for i, j in enumerate(self.f[l]) if j is not None]
        return tuple(sorted(edges))

    def component_indices(self, colors=None):
        """Undirected connected components, each a sorted tuple of indices.

        A color that is not an ``int`` of the graph (True and 1.0 included)
        raises KRError, and ``colors`` that are not iterable InvalidParams.
        """
        chosen = self.colors if colors is None else _items(colors, "colors")
        if not all(type(l) is int and l in self.colors for l in chosen):
            raise KRError(f"colors {chosen} are not all colors of {self.colors}")
        arrows = [self.f[l] for l in chosen] + [self.e[l] for l in chosen]
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
                for row in arrows:
                    w = row[v]
                    if w is not None and not seen[w]:
                        seen[w] = True
                        stack.append(w)
            comps.append(tuple(sorted(comp)))
        return comps

    def is_connected(self, colors=None):
        return len(self.component_indices(colors)) <= 1

    def to_dot(self):
        """DOT text; each distinct KRPattern factor is labelled once."""
        label = cache(vertex_label)
        lines = ["digraph crystal {"]
        for i, v in enumerate(self.vertices):
            text = "(x)".join(map(label, v.factors)) if hasattr(v, "factors") else label(v)
            lines.append(f'  n{i} [label="{text}"];')
        for a, l, b in self.edges:
            lines.append(f'  n{a} -> n{b} [label="{l}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def _items(values, name):
    """``values`` as a tuple; InvalidParams if it is not iterable."""
    if not isinstance(values, Iterable):
        raise InvalidParams(f"{name} must be iterable, got {values!r}")
    return tuple(values)


def _inverse(targets, size, color):
    """The id list of e_l from that of f_l, checked to hold None or an id per vertex."""
    if not isinstance(targets, list) or len(targets) != size:
        raise InvalidParams(f"color {color} needs a list of {size} ids")
    sources = [None] * size
    for i, j in enumerate(targets):
        if j is not None:
            if type(j) is not int or not 0 <= j < size:
                raise InvalidParams(f"color {color} sends vertex {i} to {j!r}, not an id")
            if sources[j] is not None:
                raise KRError(f"vertex {j} has two incoming {color}-edges")
            sources[j] = i
    return sources


def _string_lengths(targets, sources):
    """eps/phi id lists of one color, walked twice down each string from its head.

    The first walk counts the steps from the head, the second counts them
    back down to the end.  The walks end because ``sources`` is the exact
    inverse of ``targets``: no vertex is entered twice.  Vertices on a
    cycle keep None.
    """
    eps = [None] * len(targets)
    phi = [None] * len(targets)
    for head, up in enumerate(sources):
        if up is not None:
            continue
        steps, v = 0, head
        while v is not None:
            eps[v] = steps
            steps += 1
            v = targets[v]
        v = head
        while v is not None:
            steps -= 1
            phi[v] = steps
            v = targets[v]
    return eps, phi


def vertex_label(v):
    """Compact human-readable label; single cells collapse to the integer.

    A vertex that is neither a KRPattern nor a TensorElement, such as an
    int of a graph given by id lists, has no label: InvalidParams.
    """
    if hasattr(v, "factors"):
        return "(x)".join(vertex_label(b) for b in v.factors)
    if not isinstance(v, KRPattern):
        raise InvalidParams(f"vertex {v!r} is not a KRPattern or TensorElement: it has no label")
    return v.label()


def _read_rows(vertices, colors):
    """Per color, the id of f_l of every vertex, read on its factors' grids.

    Each distinct factor is numbered per shape by its rows, and each shape
    is read by ``patterns._read_color``, which builds no pattern and fills
    no memo or ``_strings`` slot.  A KRPattern keys ``index`` by its factor
    id, a TensorElement by the tuple of its factor ids.  Color by color, a
    color outside 0..n raises IndexOutOfRange and a set not closed under
    the color InvalidParams.
    """
    shapes, keys, count = {}, [], 0
    for v in vertices:
        key = []
        for b in v.factors if isinstance(v, TensorElement) else (v,):
            if not isinstance(b, KRPattern):
                raise InvalidParams(f"{v!r} has a factor not a KRPattern: give f as id lists")
            ids = shapes.setdefault(b.params, {})
            if b.rows not in ids:
                ids[b.rows] = count
                count += 1
            key.append(ids[b.rows])
        keys.append(key[0] if isinstance(v, KRPattern) else tuple(key))
    index = {key: i for i, key in enumerate(keys)}
    lists = {}
    for l in colors:
        stats, images = [None] * count, [None] * count
        for pr, ids in shapes.items():  # in the order of each shape's first factor
            if not 0 <= l <= pr.n:
                raise IndexOutOfRange(f"color {l} outside 0..{pr.n}")
            _read_color(pr, ids, l, stats, images)
        targets = lists[l] = [None] * len(vertices)
        for i, key in enumerate(keys):
            if type(key) is int:
                image = images[key]
            else:
                phi, _, m, _ = tensor_rule([stats[k] for k in key])
                image = key[:m] + (images[key[m]],) + key[m + 1 :] if phi else None
            if image is not None:
                targets[i] = index.get(image, -1)
        if -1 in targets:
            raise InvalidParams(f"element set not closed under color {l}")
    return lists


def build_graph(elements, colors, max_size=ENUMERATION_CAP):
    """Full colored digraph over the given elements, repeats removed.

    The vertices are sorted by their ``sort_key``, read once per distinct factor.
    The edges are the elements' own lowering, read on the rows of their
    factors (see ``CrystalGraph``).  The element set must be closed
    under every requested color.
    """
    _check_cap(max_size)
    elements = _items(elements, "elements")
    if len(elements) > max_size:
        raise SizeLimitExceeded(f"{len(elements)} vertices exceed cap {max_size}")
    for x in elements:
        _check_element(x)
    factor_key = cache(KRPattern.sort_key)

    def key(x):
        # ``sort_key`` with each distinct factor's key built once
        if isinstance(x, TensorElement):
            return tuple(map(factor_key, x.factors))
        return factor_key(x)

    vertices = tuple(sorted(set(elements), key=key))
    return CrystalGraph(vertices, colors)
