from krpoly import KRParams, KRPattern, TensorElement
from krpoly.tensor import product_elements as product_of


def pat(n, r, s, rows):
    """Pattern constructor for tests; rows given top (q=r) to bottom (q=n)."""
    return KRPattern(KRParams(n, r, s), tuple(tuple(row) for row in rows))


def cell(n, s, value):
    """Single-cell pattern of B^{1,s} at n=1."""
    return pat(n, 1, s, [[value]])


def pair(a, b):
    return TensorElement((a, b))


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


def all_params(n, max_s):
    return [KRParams(n, r, s) for r in range(1, n + 1) for s in range(1, max_s + 1)]


def product_elements(params1, params2):
    return product_of((params1, params2))
