import dataclasses
import itertools

from krpoly import (
    InvalidParams,
    KRParams,
    KRPattern,
    PathSumExceeded,
    SizeLimitExceeded,
    TensorElement,
    check_perfect,
    highest_weight_elements,
    validate_pattern,
)
from krpoly import perfect
from krpoly.patterns import ENUMERATION_CAP
from krpoly.rmatrix import hw_support, rmatrix
from krpoly.tensor import product_elements as product_of


def pat(n, r, s, rows):
    """Pattern constructor for tests; rows given top (q=r) to bottom (q=n)."""
    return KRPattern(KRParams(n, r, s), tuple(tuple(row) for row in rows))


def cell(n, s, value):
    """Single-cell pattern of B^{1,s} at n=1."""
    return pat(n, 1, s, [[value]])


def pair(a, b):
    return TensorElement((a, b))


def hw_element(params1, params2, entries):
    """The highest weight element of B1 (x) B2 with these anti-diagonal entries."""
    cells, _ = hw_support(params1, params2)
    (x,) = [
        x
        for x in highest_weight_elements(params1, params2)
        if tuple(x.factors[0].a(p, q) for p, q in cells) == entries
    ]
    return x


def staircases(params):
    """Every monotone staircase from (1, r) to (r, n), as cell lists."""
    paths = []

    def walk(p, q, acc):
        if (p, q) == (params.r, params.n):
            paths.append(acc + [(p, q)])
            return
        if p < params.r:
            walk(p + 1, q, acc + [(p, q)])
        if q < params.n:
            walk(p, q + 1, acc + [(p, q)])

    walk(1, params.r, [])
    return paths


def brute_crystal(params):
    """Reference B^{r,s}: every grid with entries <= s that ``validate_pattern``
    accepts, sorted by ``entries_flat``."""
    rows, cols = params.num_rows, params.num_cols
    out = []
    for entries in itertools.product(range(params.s + 1), repeat=rows * cols):
        grid = [entries[q * cols : (q + 1) * cols] for q in range(rows)]
        try:
            out.append(validate_pattern(grid, params))
        except PathSumExceeded:
            continue
    return sorted(out, key=KRPattern.entries_flat)


def all_params(n, max_s):
    return [KRParams(n, r, s) for r in range(1, n + 1) for s in range(1, max_s + 1)]


def product_elements(params1, params2):
    return product_of((params1, params2))


def random_pattern(rng, params):
    """A valid pattern of B^{r,s}, drawn cell by cell without enumeration.

    Each cell takes a value in 0..s minus the largest staircase sum that
    reaches its upper or left neighbour, so every staircase stays at most s.
    """
    rows = [[0] * params.num_cols for _ in range(params.num_rows)]
    reach = [[0] * params.num_cols for _ in range(params.num_rows)]
    for q in range(params.num_rows):
        for p in range(params.num_cols):
            base = max(reach[q][p - 1] if p else 0, reach[q - 1][p] if q else 0)
            rows[q][p] = rng.randint(0, params.s - base)
            reach[q][p] = base + rows[q][p]
    return validate_pattern(rows, params)


def random_element(rng, shapes, size):
    """A tensor element of ``size`` random factors, each of a random shape."""
    return TensorElement(tuple(random_pattern(rng, rng.choice(shapes)) for _ in range(size)))


def swap_at(x, k):
    """R-matrix on slots k, k+1 of a tensor element."""
    image = rmatrix(pair(*x.factors[k : k + 2]))
    return TensorElement(x.factors[:k] + image.factors + x.factors[k + 2 :])


def closure(seeds, colors, f, e, max_size=ENUMERATION_CAP, key=lambda x: x.sort_key()):
    """All elements reachable from the seeds under the given operators,
    sorted by ``key`` (None for id pairs, which are their own keys)."""
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
    return sorted(seen, key=key)


def f_lists(vertices, colors, f=lambda x, l: x.f(l)):
    """Reference f id lists of a CrystalGraph, one operator call per vertex:
    per color, the id of f(v, l) of every vertex (None for crystal zero)."""
    index = {v: i for i, v in enumerate(vertices)}
    lists = {}
    for l in colors:
        lists[l] = [None if (w := f(v, l)) is None else index.get(w, -1) for v in vertices]
        if -1 in lists[l]:
            raise InvalidParams(f"element set not closed under color {l}")
    return lists


def graph_json(graph):
    """The ``krpoly graph --format json`` payload of a CrystalGraph, as plain lists."""
    return {
        "vertices": [v.to_dict() for v in graph.vertices],
        "edges": [list(edge) for edge in graph.edges],
    }


UNDECIDED = "not certified connected by its highest weight elements"


def undecided_certificates():
    """The two ways to leave the certificate undecided, as (attribute, stand-in)."""
    complete = perfect.highest_weight_elements
    return (
        # one element of H missing: the Weyl dimensions fall short of |B|^2
        ("highest_weight_elements", lambda *p: complete(*p)[:-1]),
        # no f_0/e_0 union edges: every element of H stays its own class
        ("_affine_edges", lambda hw: iter(())),
    )


def check_undecided(monkeypatch, params):
    """Under each undecided certificate the report of a perfect B^{r,s} is
    the certified one but for the connectivity flag and one first violation."""
    expected = check_perfect(params)
    assert expected.ok and expected.tensor_square_connected
    size = expected.cardinality**2
    for name, forced in undecided_certificates():
        with monkeypatch.context() as patch:
            patch.setattr(perfect, name, forced)
            assert not perfect._certificate(params, size)
            report = check_perfect(params)
        assert not report.tensor_square_connected
        assert report.violations == [f"tensor square of {size} elements {UNDECIDED}"]
        certified = dataclasses.replace(report, tensor_square_connected=True, violations=[])
        assert certified == expected, params
