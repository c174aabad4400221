import json
import re

import pytest

from krpoly import KRError, KRParams, SizeLimitExceeded, enumerate_crystal, is_regular_rank2
from krpoly.graph import CrystalGraph, build_graph, closure, vertex_label
from krpoly.regularity import rank2_off_diagonal

from conftest import all_params, product_elements

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
    data = json.loads(json.dumps(graph.to_json_dict()))
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


def test_regularity_rejects_empty_graph():
    with pytest.raises(KRError, match="at least one vertex"):
        is_regular_rank2(build_graph([], range(3)), (1, 2))
