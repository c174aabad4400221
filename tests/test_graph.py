import hashlib
import itertools
import json
import random
import re
from collections import Counter

import pytest

from krpoly import (
    IndexOutOfRange,
    InvalidParams,
    KRError,
    KRParams,
    KRPattern,
    SizeLimitExceeded,
    TensorElement,
    enumerate_crystal,
    graph as graph_module,
    is_regular_rank2,
    patterns,
    psi_embedding,
)
from krpoly.graph import CrystalGraph, build_graph, vertex_label
from krpoly.regularity import rank2_off_diagonal
from krpoly.tensor import product_elements as product_of

from conftest import all_params, closure, f_lists, graph_json, product_elements

# the factors of the cli workload's `graph` commands
CLI_PRODUCT = (KRParams(4, 2, 2), KRParams(4, 1, 2), KRParams(4, 3, 1))

DOT_NODE = re.compile(r'^  n\d+ \[label="[^"]*"\];$')
DOT_EDGE = re.compile(r'^  n\d+ -> n\d+ \[label="\d+"\];$')


def three_cycle():
    return build_graph(enumerate_crystal(KRParams(2, 1, 1)), range(3))


def test_three_cycle_structure():
    graph = three_cycle()
    assert len(graph.vertices) == 3
    labels = {(vertex_label(graph.vertices[a]), l, vertex_label(graph.vertices[b]))
              for a, l, b in graph.edges}
    assert labels == {
        ("0/0", 1, "1/0"),
        ("1/0", 2, "0/1"),
        ("0/1", 0, "0/0"),
    }


def test_edges_match_operators_both_ways():
    for params in all_params(3, 2):
        crystal = enumerate_crystal(params)
        graph = build_graph(crystal, range(params.n + 1))
        assert len(graph.vertices) == len(crystal)
        edge_set = set(graph.edges)
        for i, v in enumerate(graph.vertices):
            for l in range(params.n + 1):
                w = v.f(l)
                if w is not None:
                    j = graph.index[w]
                    assert (i, l, j) in edge_set
                    assert graph.vertices[j].e(l) == v
                    assert graph.f[l][i] == j
                    assert graph.e[l][j] == i
        for i, l, j in edge_set:
            assert graph.e[l][j] == i


@pytest.mark.parametrize(
    "vertices",
    [[0, 1, 2], [psi_embedding(b) for b in enumerate_crystal(KRParams(2, 1, 1))]],
    ids=["ints", "monomials"],
)
def test_dot_of_an_id_list_graph_names_the_vertex_it_cannot_label(vertices):
    graph = CrystalGraph(vertices, [1], {1: [1, 2, None]})
    with pytest.raises(InvalidParams, match=re.escape(f"vertex {vertices[0]!r}")):
        graph.to_dot()


def test_dot_output_is_well_formed_and_deterministic():
    graph = three_cycle()
    dot = graph.to_dot()
    assert dot == graph.to_dot()
    lines = dot.strip().split("\n")
    assert lines[0] == "digraph crystal {"
    assert lines[-1] == "}"
    for line in lines[1:-1]:
        assert DOT_NODE.match(line) or DOT_EDGE.match(line), line


def test_json_export_shape():
    graph = three_cycle()
    data = json.loads(json.dumps(graph_json(graph)))
    assert len(data["vertices"]) == 3
    assert sorted(map(tuple, data["edges"])) == sorted(map(tuple, graph.edges))
    assert all(set(v) == {"n", "r", "s", "rows"} for v in data["vertices"])


def test_vertex_cap():
    with pytest.raises(SizeLimitExceeded):
        build_graph(enumerate_crystal(KRParams(2, 1, 2)), range(3), max_size=3)


def test_element_set_must_be_closed():
    crystal = enumerate_crystal(KRParams(2, 1, 2))
    with pytest.raises(ValueError, match="not closed under color"):
        build_graph(crystal[:3], range(3))


def per_element(vertices, colors):
    """The graph of the same vertices filled through their own f, one vertex at a time."""
    return CrystalGraph(vertices, colors, f_lists(vertices, colors))


def product_component(params_list):
    """The vertices of one classical component of a product, the largest."""
    graph = build_graph(product_of(params_list), range(1, params_list[0].n + 1))
    comp = max(graph.component_indices(), key=len)
    return [graph.vertices[i] for i in comp]


def test_rows_route_matches_the_pattern_operators():
    vertex_sets = []
    for n in range(1, 5):
        vertex_sets += [(enumerate_crystal(params), n) for params in all_params(n, 3)]
    for n in range(1, 4):
        for pair_ in itertools.product(all_params(n, 2), repeat=2):
            vertex_sets.append((product_of(pair_), n))
    vertex_sets.append((product_of((KRParams(2, 2, 1),) * 3), 2))
    # the graph of the exhaustive benchmark, whose factors share line pairs
    vertex_sets.append((enumerate_crystal(KRParams(6, 3, 3)), 6))
    for vertices, n in vertex_sets:
        graph = build_graph(vertices, range(n + 1))
        reference = per_element(graph.vertices, graph.colors)
        for l in graph.colors:
            assert graph.f[l] == reference.f[l], (vertices[0], l)
    # one classical component of a product, over its own colors
    comp = product_component((KRParams(3, 1, 2), KRParams(3, 2, 1)))
    assert len(comp) < 60
    graph = CrystalGraph(comp, range(1, 4))
    assert graph.f == per_element(comp, range(1, 4)).f


def test_rows_route_on_mixed_shapes_is_the_disjoint_union():
    # every B^{1,1} element has the rows of a B^{1,2} element, and a pattern
    # shares its factor with the one-fold tensor element of it
    small, large = enumerate_crystal(KRParams(2, 1, 1)), enumerate_crystal(KRParams(2, 1, 2))
    assert {b.rows for b in small} < {b.rows for b in large}
    ones = [TensorElement((b,)) for b in small]
    pairs = product_elements(KRParams(2, 1, 1), KRParams(2, 1, 2))
    parts = (small, large, ones, pairs)
    graph = CrystalGraph(small + large + ones + pairs, range(3))
    reference = per_element(graph.vertices, graph.colors)
    for l in graph.colors:
        assert graph.f[l] == reference.f[l]
    part_of = {v: k for k, part in enumerate(parts) for v in part}
    for i, l, j in graph.edges:
        assert part_of[graph.vertices[i]] == part_of[graph.vertices[j]]
    assert len(graph.edges) == sum(len(CrystalGraph(part, range(3)).edges) for part in parts)


@pytest.mark.parametrize("color", [-1, 3, True, 1.0, "1"])
def test_rows_route_rejects_colors_outside_the_range(color):
    # a color that is not a plain int is refused on both routes, also True,
    # which would read color 1 and carry True into the edges
    outside = rf"^color {re.escape(repr(color))} outside 0\.\.2$"
    refused = {CrystalGraph: outside, per_element: outside}
    if type(color) is not int:
        refused[CrystalGraph] = rf"^color {re.escape(repr(color))} is not an int$"
    for vertices in (
        enumerate_crystal(KRParams(2, 1, 2)),
        product_elements(KRParams(2, 1, 2), KRParams(2, 2, 1)),
    ):
        for make, message in refused.items():
            with pytest.raises(IndexOutOfRange, match=message):
                make(vertices, (0, color))
    if type(color) is not int:
        # the id-list route and a graph without vertices refuse it too
        c = enumerate_crystal(KRParams(2, 1, 1))
        for vertices, f in ((c, {color: [None] * 3}), ((), None)):
            with pytest.raises(IndexOutOfRange, match=refused[CrystalGraph]):
                CrystalGraph(vertices, [color], f)


def test_the_reader_walks_each_line_pair_once(monkeypatch):
    # f_l of a color l other than 0 and r reads rows l-1 and l (l > r) or
    # columns l and l+1 (l < r), color 0 column 1 and the last row, color r
    # the first row and the last column, so the walker runs once per
    # distinct set of those cells
    params = KRParams(6, 3, 3)
    crystal = enumerate_crystal(params)
    walker = patterns._walk
    walks = Counter()

    def counting(pr, rows, l):
        walks[l] += 1
        return walker(pr, rows, l)

    # the id lists of this graph are checked in
    # test_rows_route_matches_the_pattern_operators
    monkeypatch.setattr(patterns, "_walk", counting)
    build_graph(crystal, range(params.n + 1))
    monkeypatch.undo()
    lines = {
        l: {b.rows[l - 4 : l - 2] if l > 3 else tuple(row[l - 1 : l + 1] for row in b.rows)
            for b in crystal}
        for l in (1, 2, 4, 5, 6)
    }
    lines[0] = {(tuple(row[0] for row in b.rows), b.rows[-1]) for b in crystal}
    lines[3] = {(b.rows[0], tuple(row[-1] for row in b.rows)) for b in crystal}
    assert {l: len(pairs) for l, pairs in lines.items()} == {
        1: 490, 2: 490, 4: 175, 5: 175, 6: 175, 0: 84, 3: 84
    }
    assert walks == {l: len(pairs) for l, pairs in lines.items()}


ENTRY_POINT_CALLS = {
    "build_graph(5, cs)": lambda c: build_graph(5, range(3)),
    "build_graph(None, cs)": lambda c: build_graph(None, range(3)),
    "build_graph(c, 5)": lambda c: build_graph(c, 5),
    "build_graph([5], cs)": lambda c: build_graph([5], range(3)),
    "build_graph([[5]], cs)": lambda c: build_graph([[5]], range(3)),
    "build_graph(c + [str], cs)": lambda c: build_graph(c + ["0/0"], range(3)),
    "CrystalGraph(5, cs)": lambda c: CrystalGraph(5, range(3)),
    "CrystalGraph(c, None)": lambda c: CrystalGraph(c, None),
    "CrystalGraph([5], cs)": lambda c: CrystalGraph([5], range(3)),
    "is_regular_rank2(5, pair)": lambda c: is_regular_rank2(5, (1, 2)),
    "is_regular_rank2(None, pair)": lambda c: is_regular_rank2(None, (1, 2)),
    "is_regular_rank2(c, pair)": lambda c: is_regular_rank2(c, (1, 2)),
}


@pytest.mark.parametrize("call", ENTRY_POINT_CALLS.values(), ids=ENTRY_POINT_CALLS.keys())
def test_graph_entry_points_refuse_what_is_not_their_input(call):
    # these raised a bare TypeError or AttributeError
    with pytest.raises(InvalidParams):
        call(enumerate_crystal(KRParams(2, 1, 1)))


def test_rows_route_rejects_a_subset_that_is_not_closed():
    vertices = enumerate_crystal(KRParams(2, 1, 2))[:3]
    comp = product_component((KRParams(2, 1, 2), KRParams(2, 2, 1)))
    messages = set()
    for make in (CrystalGraph, per_element):
        with pytest.raises(ValueError, match="not closed") as err:
            make(vertices, range(3))
        messages.add(str(err.value))
        # a classical component is closed under 1..n but not under 0
        with pytest.raises(InvalidParams, match="^element set not closed under color 0$"):
            make(comp, range(3))
    assert messages == {"element set not closed under color 1"}


def test_a_repeated_vertex_is_rejected_before_any_id_list_is_filled(monkeypatch):
    from krpoly import graph as graph_module

    c = enumerate_crystal(KRParams(2, 1, 1))
    filled = []
    with monkeypatch.context() as patch:
        patch.setattr(graph_module, "_read_rows", lambda *args: filled.append(args))
        patch.setattr(graph_module, "_inverse", lambda *args: filled.append(args))
        for make in (CrystalGraph, per_element):
            with pytest.raises(KRError, match="^4 vertices hold 3 distinct elements$"):
                make(c + c[:1], range(3))
    assert filled == []
    # build_graph removes the repeat before it builds the graph
    assert build_graph(c + c[:1], range(3)).vertices == build_graph(c, range(3)).vertices


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda f: {**f, 1: [-1] + f[1][1:]}, r"^color 1 sends vertex 0 to -1, not an id$"),
        (lambda f: {**f, 1: f[1][:-1]}, r"^color 1 needs a list of 3 ids$"),
        (lambda f: {**f, 1: [3] + f[1][1:]}, r"^color 1 sends vertex 0 to 3, not an id$"),
        # the operator form of f is gone: only id lists are accepted
        (lambda f: lambda x, l: x.f(l), r"^color 0 needs a list of 3 ids$"),
    ],
)
def test_malformed_id_lists_are_rejected(corrupt, message):
    graph = three_cycle()
    f = corrupt({l: list(graph.f[l]) for l in graph.colors})
    with pytest.raises(InvalidParams, match=message):
        CrystalGraph(graph.vertices, graph.colors, f)


@pytest.mark.parametrize(
    "make",
    [
        lambda c, colors: CrystalGraph(c, colors),
        lambda c, colors: CrystalGraph(c, colors, f_lists(c, (1,))),
        build_graph,
    ],
)
def test_a_repeated_color_is_rejected(make):
    # a repeated color is refused, not deduplicated: it used to double its edges
    c = enumerate_crystal(KRParams(2, 1, 1))
    with pytest.raises(InvalidParams, match=r"^colors \(1, 1\) repeat a color$"):
        make(c, [1, 1])
    assert make(c, [1]).edges == ((0, 1, 2),)


def test_rows_route_fills_no_operator_memo():
    # hits and misses too: earlier tests may have filled the table already
    before = patterns._canonical.cache_info()
    graph = build_graph(enumerate_crystal(KRParams(4, 2, 2)), range(5))
    assert len(graph.edges) > 0
    product = build_graph(product_of(CLI_PRODUCT), range(5))
    assert len(product) == 7500 and len(product.edges) > 0
    assert patterns._canonical.cache_info() == before
    assert all(v._strings is None for v in graph.vertices)
    assert all(b._strings is None for v in product.vertices for b in v.factors)


def test_sort_keys_and_labels_are_built_once_per_distinct_factor(monkeypatch):
    # 7,500 vertices of the cli product hold 50 + 15 + 10 distinct factors
    factors = sum(len(enumerate_crystal(p)) for p in CLI_PRODUCT)
    assert factors == 75
    calls = Counter()
    sort_key, label = KRPattern.sort_key, vertex_label

    def counting_key(b):
        calls["sort_key"] += 1
        return sort_key(b)

    def counting_label(v):
        calls["vertex_label"] += 1
        return label(v)

    monkeypatch.setattr(KRPattern, "sort_key", counting_key)
    monkeypatch.setattr(graph_module, "vertex_label", counting_label)
    elements = product_of(CLI_PRODUCT)
    shuffled = elements[:]
    random.Random(24).shuffle(shuffled)
    graph = build_graph(shuffled, range(5))
    assert calls["sort_key"] == factors
    assert graph.vertices == tuple(elements)  # the product comes out sorted
    dot = graph.to_dot()
    assert calls["vertex_label"] == factors
    monkeypatch.undo()
    nodes = [f'  n{i} [label="{vertex_label(v)}"];' for i, v in enumerate(graph.vertices)]
    assert dot.split("\n")[1 : 1 + len(nodes)] == nodes


def test_connectivity_counts_the_components_of_the_chosen_colors():
    # B^{1,1} (x) B^{1,1} at n=2 is connected, and splits into the classical
    # components Sym^2 and Lambda^2 without color 0
    params = KRParams(2, 1, 1)
    graph = build_graph(product_elements(params, params), range(3))
    assert graph.is_connected()
    assert len(graph.component_indices((1, 2))) == 2
    assert not graph.is_connected((1, 2))


def test_vertex_labels_are_injective():
    # B^{2,s} at n=2 holds 1x2 patterns, whose labels keep both cells
    for params in (KRParams(2, 2, 1), KRParams(2, 2, 2)):
        crystal = enumerate_crystal(params)
        assert len({vertex_label(v) for v in crystal}) == len(crystal)


def test_closure_recovers_whole_crystal():
    from krpoly import zero_pattern

    params = KRParams(2, 1, 2)
    got = closure(
        [zero_pattern(params)], range(3), lambda x, l: x.f(l), lambda x, l: x.e(l)
    )
    assert got == enumerate_crystal(params)


def test_rank2_cartan_classification():
    assert rank2_off_diagonal(0, 1, 2) == -1
    assert rank2_off_diagonal(0, 2, 2) == -1
    assert rank2_off_diagonal(1, 3, 4) == 0
    assert rank2_off_diagonal(0, 4, 4) == -1
    with pytest.raises(ValueError):
        rank2_off_diagonal(0, 1, 1)


def test_regularity_below_rank_two_raises_a_typed_error():
    graph = build_graph(enumerate_crystal(KRParams(1, 1, 1)), range(2))
    with pytest.raises(KRError, match="requires n >= 2"):
        is_regular_rank2(graph, (0, 1))


def test_adjacent_pair_on_vector_crystal_passes():
    report = is_regular_rank2(three_cycle(), (1, 2))
    assert report.ok
    assert report.cartan_off_diagonal == -1
    assert report.num_components >= 1


def test_all_pairs_pass_on_small_crystals():
    import itertools

    for params in all_params(3, 2):
        graph = build_graph(enumerate_crystal(params), range(params.n + 1))
        for pair_ in itertools.combinations(range(params.n + 1), 2):
            assert is_regular_rank2(graph, pair_).ok


def test_tensor_graph_regularity():
    import itertools

    graph = build_graph(product_elements(KRParams(2, 1, 1), KRParams(2, 1, 2)), range(3))
    for pair_ in itertools.combinations(range(3), 2):
        assert is_regular_rank2(graph, pair_).ok


def test_corrupted_edge_is_reported():
    graph = three_cycle()
    src, color, tgt = graph.edges[0]
    f = {l: list(graph.f[l]) for l in graph.colors}
    f[color][src] = src  # retarget one arrow onto its own source
    broken = CrystalGraph(graph.vertices, graph.colors, f)
    report = is_regular_rank2(broken, (1, 2))
    assert not report.ok
    assert any("cyclic or tangled string" in v for v in report.violations)


def test_two_incoming_edges_are_rejected():
    graph = three_cycle()
    src, color, tgt = graph.edges[0]
    f = {l: list(graph.f[l]) for l in graph.colors}
    other = next(i for i in range(len(graph.vertices)) if f[color][i] is None)
    f[color][other] = tgt
    with pytest.raises(KRError, match="two incoming"):
        CrystalGraph(graph.vertices, graph.colors, f)


def test_regularity_rejects_a_pair_that_is_not_two_graph_colors():
    graph = build_graph(enumerate_crystal(KRParams(3, 2, 2)), (1,))
    for pair_ in ((0, 2), (0, 9), (1, 1)):
        with pytest.raises(KRError, match="two distinct colors"):
            is_regular_rank2(graph, pair_)
    with pytest.raises(KRError, match="not all colors"):
        graph.component_indices((0, 1))


@pytest.mark.parametrize(
    "pair_", [(1, 2, 0), (1,), 5, ("a", "b"), (True, 2), (1.0, 2), (1, 2.0), [2, False]]
)
def test_regularity_rejects_a_malformed_pair(pair_):
    # the first three used to raise a bare ValueError or TypeError, and a
    # bool or float color used to run as the int it equals
    graph = build_graph(enumerate_crystal(KRParams(2, 1, 1)), range(3))
    with pytest.raises(KRError, match="is not two distinct colors"):
        is_regular_rank2(graph, pair_)


@pytest.mark.parametrize("colors", [(True,), (1.0,), (0, 2.0), [False], ("1",), ([1],)])
def test_components_refuse_a_color_that_is_not_an_int(colors):
    # a bool or float color used to be read as the int it equals
    graph = build_graph(enumerate_crystal(KRParams(2, 1, 1)), range(3))
    with pytest.raises(KRError, match="are not all colors of"):
        graph.component_indices(colors=colors)
    with pytest.raises(KRError, match="are not all colors of"):
        graph.is_connected(colors)


def test_regularity_on_a_one_vertex_graph():
    # the generator of B^{1,1} at n=3 is killed by f_2 and f_3
    graph = build_graph([patterns.zero_pattern(KRParams(3, 1, 1))], (2, 3))
    assert len(graph) == 1 and not graph.edges
    report = is_regular_rank2(graph, (2, 3))
    assert report.ok
    assert report.num_components == 1


def test_regularity_rejects_empty_graph():
    with pytest.raises(KRError, match="at least one vertex"):
        is_regular_rank2(build_graph([], range(3)), (1, 2))


# Negative controls: a corrupted graph swaps the l-targets of two vertices in
# a copy of ``graph.f``.  f stays injective, so CrystalGraph accepts it.

CORRUPTED_PAIRS = ((1, 2), (1, 3), (0, 1), (0, 2), (2, 3))

VIOLATION_KINDS = {
    "tangled string": r"color \d has a cyclic or tangled string$",
    "e moves": r": e_\d at \d+ moves \(\d\)-stats by \(-?\d+, -?\d+\)$",
    "f moves": r": f_\d at \d+ moves \(\d\)-stats by \(-?\d+, -?\d+\)$",
    "raising square": r"raising square at \d+ fails$",
    "raising degree": r"raising square at \d+ fails degree condition$",
    "raising braid": r"raising braid relation at \d+ fails$",
    "lowering square": r"lowering square at \d+ fails$",
    "lowering degree": r"lowering square at \d+ fails degree condition$",
    "lowering braid": r"lowering braid relation at \d+ fails$",
    "sources": r": \d+ sources, expected 1$",
    "sinks": r": \d+ sinks, expected 1$",
    "size": r": size \d+ differs from predicted \d+$",
    "profile dual": r": sink profile is not the source profile dual$",
}

MIRROR = {"raising": "lowering", "lowering": "raising", "sources": "sinks", "sinks": "sources",
          "e_": "f_", "f_": "e_"}


def corrupted_graphs(params_list, count, seed):
    """``count`` seeded single-swap corruptions of each crystal's graph."""
    for params in params_list:
        graph = build_graph(enumerate_crystal(params), range(params.n + 1))
        rng = random.Random(seed)
        for _ in range(count):
            color = rng.choice(graph.colors)
            u, v = rng.sample(range(len(graph)), 2)
            f = {l: list(graph.f[l]) for l in graph.colors}
            f[color][u], f[color][v] = f[color][v], f[color][u]
            yield CrystalGraph(graph.vertices, graph.colors, f)


def mirrored(violation):
    """The message the dual crystal (f and e exchanged) reports for ``violation``."""
    words = r"raising|lowering|sources|sinks|\b[ef]_"
    text = re.sub(words, lambda m: MIRROR[m.group()], violation)
    return re.sub(r"by \((-?\d+), (-?\d+)\)$", r"by (\2, \1)", text)


def test_corruptions_reach_every_violation_kind():
    crystals = (KRParams(3, 2, 1), KRParams(3, 1, 2), KRParams(3, 2, 2))
    reached = set()
    for broken in corrupted_graphs(crystals, 300, seed=1):
        for pair_ in CORRUPTED_PAIRS:
            for violation in is_regular_rank2(broken, pair_).violations:
                kinds = [k for k, pat in VIOLATION_KINDS.items() if re.search(pat, violation)]
                assert len(kinds) == 1, violation
                reached.add(kinds[0])
    assert reached == set(VIOLATION_KINDS)


def test_dual_crystal_reports_the_mirrored_violations():
    # exchanging f and e exchanges eps and phi; the size and profile-dual
    # checks are left out: both read the source's phi, which in the dual
    # crystal is the sink's eps, so a corruption can change them
    crystals = (KRParams(3, 2, 1), KRParams(3, 1, 2), KRParams(3, 2, 2), KRParams(4, 2, 1))
    unmirrored = re.compile(VIOLATION_KINDS["size"] + "|" + VIOLATION_KINDS["profile dual"])
    reported = 0
    for broken in corrupted_graphs(crystals, 200, seed=2):
        dual = CrystalGraph(broken.vertices, broken.colors, broken.e)
        for pair_ in CORRUPTED_PAIRS:
            report, dual_report = is_regular_rank2(broken, pair_), is_regular_rank2(dual, pair_)
            assert dual_report.num_components == report.num_components
            mine = sorted(mirrored(v) for v in report.violations if not unmirrored.search(v))
            theirs = sorted(v for v in dual_report.violations if not unmirrored.search(v))
            assert theirs == mine
            reported += len(mine)
    assert reported > 1000


def test_violation_lists_of_seeded_corruptions_are_pinned():
    crystals = (KRParams(3, 2, 1), KRParams(3, 1, 2), KRParams(3, 2, 2), KRParams(4, 2, 1),
                KRParams(4, 1, 1))
    records = []
    for broken in corrupted_graphs(crystals, 150, seed=3):
        for pair_ in CORRUPTED_PAIRS:
            report = is_regular_rank2(broken, pair_)
            records.append((report.ok, report.num_components, sorted(report.violations)))
    assert sum(not ok for ok, _, _ in records) == 941
    digest = hashlib.sha256(repr(records).encode()).hexdigest()[:16]
    assert digest == "2b437b074fa62bc0"


def test_violation_order_of_seeded_corruptions_is_pinned():
    # ``verify`` prints violations[0], so the order of a report is output too
    crystals = (KRParams(3, 2, 1), KRParams(3, 1, 2), KRParams(3, 2, 2), KRParams(4, 2, 1),
                KRParams(4, 1, 1))
    records = []
    for broken in corrupted_graphs(crystals, 150, seed=3):
        for pair_ in CORRUPTED_PAIRS:
            records.append(is_regular_rank2(broken, pair_).violations)
    assert sum(map(len, records)) == 7851
    digest = hashlib.sha256(repr(records).encode()).hexdigest()[:16]
    assert digest == "9a2083014900ee8f"
