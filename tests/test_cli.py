import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from krpoly import (
    DominantWeight,
    KRParams,
    TensorElement,
    build_graph,
    check_perfect,
    cli,
    enumerate_crystal,
    ground_state_path,
    local_energy,
    local_energy_oracle,
    pattern_from_dict,
    perfect,
    product_elements,
)
from krpoly.cli import main
from krpoly.rmatrix import rmatrix

from conftest import all_params, graph_json, random_element, random_pattern


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_outputs_lexicographic_json(capsys):
    code, out, _ = run(capsys, ["enumerate", "--n", "2", "--r", "1", "--s", "1"])
    assert code == 0
    data = json.loads(out)
    assert [d["rows"] for d in data] == [[[0], [0]], [[0], [1]], [[1], [0]]]


def test_enumerate_deterministic(capsys):
    _, first, _ = run(capsys, ["enumerate", "--n", "2", "--r", "1", "--s", "2"])
    _, second, _ = run(capsys, ["enumerate", "--n", "2", "--r", "1", "--s", "2"])
    assert first == second


def test_graph_dot_of_tensor_product(capsys):
    code, out, _ = run(
        capsys,
        ["graph", "--factor", "1,1,1", "--factor", "1,1,3", "--format", "dot"],
    )
    assert code == 0
    assert out.startswith("digraph crystal {")
    assert out.count("->") == 12
    assert 'n0 [label="0(x)0"];' in out


def test_graph_factor_flags(capsys):
    code, out, _ = run(
        capsys,
        ["graph", "--factor", "1,1,3", "--factor", "1,1,1", "--format", "json"],
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["vertices"]) == 8
    assert len(data["edges"]) == 12
    assert data["vertices"][0]["factors"][0]["s"] == 3


def test_graph_rejects_factor_with_any_base_flag(capsys):
    # --factor is the one way to name a crystal: --n/--r/--s are unknown
    for base in (["--n", "9"], ["--r", "1"], ["--s", "1"], ["--n", "2", "--r", "1", "--s", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(["graph", *base, "--factor", "2,1,1"])
        assert exc.value.code == 2, base
        out, err = capsys.readouterr()
        assert out == "" and "unrecognized arguments" in err, base


def test_graph_requires_some_crystal(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["graph", "--format", "dot"])
    assert exc.value.code == 2
    assert "the following arguments are required: --factor" in capsys.readouterr().err


def test_size_cap_exit_code(capsys):
    for argv in (
        ["graph", "--factor", "2,1,2", "--max-elements", "3"],
        ["graph", "--factor", "6,3,3", "--factor", "6,3,3"],
    ):
        code, _, err = run(capsys, argv)
        assert code == 3
        assert "size cap" in err


def test_usage_error_exit_code():
    for argv in (
        ["enumerate", "--n", "2"],
        ["enumerate", "--n", "2", "--r", "1", "--s", "1", "--max-elements", "0"],
        ["graph", "--factor", "2,1,1", "--max-elements", "-1"],
        ["gsp", "--weight", "1,1,0", "--r", "1", "--len", "0"],
        ["gsp", "--weight", "1,1,0", "--r", "1", "--len", "-1"],
    ):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["energy", "{n2}"], "at least two patterns"),
        (["energy", "{n2}", "{n3}"], "same rank n"),
        (["rmatrix", "{n2}", "{n3}"], "same rank n"),
        (["graph", "--factor", "2,1,1", "--factor", "3,1,1"], "same rank n"),
        (["rmatrix", "{missing}", "{n2}"], "No such file"),
        (["rmatrix", "{text}", "{n2}"], "Expecting value"),
        (["gsp", "--weight", "1,-1,0", "--r", "1", "--len", "2"], "non-negative"),
        (["perfect", "--n", "2", "--r", "3", "--s", "1"], "1 <= r <= n"),
        (["enumerate", "--n", "2", "--r", "1", "--s", "1", "--out", "{nodir}"], "No such file"),
        (["verify", "--suite", "regular", "--n", "1"], "requires n >= 2"),
        (["rmatrix", "{nul}", "{n2}"], "error: embedded null byte"),
        (["enumerate", "--n", "2", "--r", "1", "--s", "1", "--out", "{nul}"], "error: embedded null byte"),
        (["rmatrix", "{latin}", "{n2}"], "error: 'utf-8' codec can't decode byte 0xe9"),
        (["energy", "{n2}", "{digits}"], "error: Exceeds the limit (4300 digits)"),
    ],
)
def test_input_error_exit_code(tmp_path, capsys, argv, fragment):
    files = {
        "n2": tmp_path / "n2.json",
        "n3": tmp_path / "n3.json",
        "missing": tmp_path / "missing.json",
        "text": tmp_path / "text.json",
        "nodir": tmp_path / "nodir" / "out.json",
        "nul": tmp_path / "nul\0.json",
        "latin": tmp_path / "latin.json",
        "digits": tmp_path / "digits.json",
    }
    files["n2"].write_text(json.dumps({"n": 2, "r": 1, "s": 1, "rows": [[0], [1]]}))
    files["n3"].write_text(json.dumps({"n": 3, "r": 1, "s": 1, "rows": [[0], [1], [0]]}))
    files["text"].write_text("not json")
    files["latin"].write_bytes(b'{"n": 2, "r": 1, "s": 1, "rows": [["\xe9"], [1]]}')
    files["digits"].write_text('{"n": 2, "r": 1, "s": %s, "rows": [[0], [1]]}' % ("9" * 5000))
    code, out, err = run(capsys, [arg.format(**files) for arg in argv])
    assert code == 2
    assert fragment in err
    assert out == ""


def test_a_library_value_error_is_not_an_input_error(tmp_path, monkeypatch):
    # only KRError and OSError are exit 2: a ValueError from library code
    # is a bug and propagates
    def broken(x):
        raise ValueError("too many values to unpack")

    path = tmp_path / "n2.json"
    path.write_text(json.dumps({"n": 2, "r": 1, "s": 1, "rows": [[0], [1]]}))
    monkeypatch.setattr(cli, "rmatrix", broken)
    with pytest.raises(ValueError, match="too many values to unpack"):
        main(["rmatrix", str(path), str(path)])


def test_regular_suite_below_rank_two_is_an_input_error(capsys):
    code, out, err = run(capsys, ["verify", "--suite", "regular", "--n", "1", "--max-s", "1"])
    assert code == 2
    assert err == "error: rank-2 regularity check requires n >= 2\n"
    assert out == ""


def test_energy_oracle_is_capped(tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"n": 6, "r": 3, "s": 3, "rows": [[0, 0, 0]] * 4}))
    code, out, err = run(capsys, ["energy", str(path), str(path), "--oracle"])
    assert code == 3
    assert "size cap" in err
    assert out == ""


def test_perfect_with_an_undecided_certificate_reports_a_violation(capsys, monkeypatch):
    # |B^{3,2}| = 490 at n=6: with one highest weight element missing the
    # certificate does not decide, and the 240,100-element square is not walked
    complete = perfect.highest_weight_elements
    monkeypatch.setattr(perfect, "highest_weight_elements", lambda *p: complete(*p)[1:])
    code, out, err = run(capsys, ["perfect", "--n", "6", "--r", "3", "--s", "2"])
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert '"perfect": false' in out and data["perfect"] is False
    assert data["conditions"]["tensor_square_connected"] is False
    assert data["violations"] == [
        "tensor square of 240100 elements not certified connected by its highest weight elements"
    ]


def test_perfect_past_the_square_cap(capsys):
    # the certificate decides connectivity, so neither square (240,100 and
    # about 199 million elements) is walked
    for n, s, cardinality, level in ((6, 2, 490, 2), (7, 3, 14112, 3)):
        code, out, _ = run(capsys, ["perfect", "--n", str(n), "--r", "3", "--s", str(s)])
        assert code == 0
        data = json.loads(out)
        assert data["perfect"] is True
        assert data["cardinality"] == cardinality
        assert data["min_profile_level"] == level


def test_rmatrix_subcommand(tmp_path, capsys):
    left = tmp_path / "left.json"
    right = tmp_path / "right.json"
    left.write_text(json.dumps({"n": 1, "r": 1, "s": 1, "rows": [[1]]}))
    right.write_text(json.dumps({"n": 1, "r": 1, "s": 3, "rows": [[1]]}))
    code, out, _ = run(capsys, ["rmatrix", str(left), str(right)])
    assert code == 0
    data = json.loads(out)
    assert data["factors"][0]["rows"] == [[2]]
    assert data["factors"][1]["rows"] == [[0]]


def test_energy_subcommand_modes(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"n": 1, "r": 1, "s": 1, "rows": [[1]]}))
    b.write_text(json.dumps({"n": 1, "r": 1, "s": 3, "rows": [[0]]}))
    code, out, _ = run(capsys, ["energy", str(a), str(b), "--both"])
    assert code == 0
    data = json.loads(out)
    assert data == {"closed_form": -1, "oracle": -1, "agree": True}


def test_energy_three_factors(tmp_path, capsys, monkeypatch):
    paths = []
    for idx in range(3):
        path = tmp_path / f"p{idx}.json"
        path.write_text(json.dumps({"n": 1, "r": 1, "s": 2, "rows": [[idx]]}))
        paths.append(str(path))
    # the value labelled closed_form is read through the closed form
    seen = []

    def counting(x):
        seen.append(x)
        return local_energy(x)

    monkeypatch.setattr(cli, "local_energy", counting)
    code, out, _ = run(capsys, ["energy", *paths])
    assert code == 0
    assert "closed_form" in json.loads(out)
    # R is the identity on one shape, so the walks meet the pair 0 (x) 1
    # twice and global_energy reads each distinct pair once
    assert [tuple(b.rows[0][0] for b in y.factors) for y in seen] == [(0, 1), (1, 2)]


def test_perfect_subcommand(capsys):
    code, out, _ = run(capsys, ["perfect", "--n", "2", "--r", "1", "--s", "1"])
    assert code == 0
    data = json.loads(out)
    assert data["perfect"] is True
    assert data["cardinality"] == 3
    assert data["conditions"]["tensor_square_connected"] is True


def test_gsp_subcommand(capsys):
    code, out, _ = run(
        capsys, ["gsp", "--weight", "1,0,2,0", "--r", "3", "--len", "4"]
    )
    assert code == 0
    data = json.loads(out)
    assert [d["rows"] for d in data] == [
        [[1, 0, 2]],
        [[0, 1, 0]],
        [[2, 0, 1]],
        [[0, 2, 0]],
    ]


def test_verify_subcommand_passes(capsys):
    code, out, _ = run(capsys, ["verify", "--suite", "cardinality", "--n", "2", "--max-s", "2"])
    assert code == 0
    assert "checks passed" in out
    assert "FAIL" not in out


def test_verify_energy_suite(capsys):
    code, out, _ = run(capsys, ["verify", "--suite", "energy", "--n", "2", "--max-s", "2"])
    assert code == 0
    assert "FAIL" not in out


@pytest.mark.parametrize("argv", [["--n", "0"], ["--n", "2", "--max-s", "0"]])
def test_verify_without_checks_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, ["verify", *argv])
    assert code == 2
    assert "no checks" in err
    assert "checks passed" not in out


def test_non_integer_entries_are_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"n": 2, "r": 1, "s": 1, "rows": [[0], [1]]}))
    for data, message in (
        ({"n": 2, "r": 1, "s": 1, "rows": [[0.7], [True]]}, "not an integer"),
        ({"n": 2, "r": 1, "s": 1}, "keys n, r, s and rows"),
        ({"n": 2, "r": 1, "s": 1, "rows": [[0], [1]], "extra": 1}, "keys n, r, s and rows"),
        ({"n": 2, "r": 1, "s": 1, "rows": [0, 0]}, "list of lists"),
        ([[0], [1]], "keys n, r, s and rows"),
    ):
        bad.write_text(json.dumps(data))
        code, out, err = run(capsys, ["rmatrix", str(bad), str(good)])
        assert code == 2
        assert message in err
        assert out == ""


def test_a_failing_oracle_fails_its_check(capsys, monkeypatch):
    from krpoly import InconsistentRecursion, SizeLimitExceeded, verify

    def forced(*args, **kwargs):
        raise InconsistentRecursion("forced")

    monkeypatch.setattr(verify, "local_energy_oracle", forced)
    (check,) = verify.run_suite("energy", 1, 1)
    assert check.name == "energy B^(1,1)xB^(1,1) n=1"
    assert not check.ok
    assert check.detail == "InconsistentRecursion: forced"
    code, out, err = run(capsys, ["verify", "--suite", "energy", "--n", "1", "--max-s", "1"])
    assert code == 1
    assert "FAIL energy B^(1,1)xB^(1,1) n=1 (InconsistentRecursion: forced)" in out
    assert "0/1 checks passed" in out
    assert err == ""

    def capped(*args, **kwargs):
        raise SizeLimitExceeded("forced cap")

    monkeypatch.setattr(verify, "local_energy_oracle", capped)
    code, out, err = run(capsys, ["verify", "--suite", "energy", "--n", "1", "--max-s", "1"])
    assert code == 3
    assert "forced cap" in err


# -- the JSON writer ----------------------------------------------------------

WRITER_SHAPES = (KRParams(1, 1, 2), KRParams(2, 1, 1), KRParams(3, 2, 2), KRParams(4, 2, 1))


def reference_json(payload):
    return json.dumps(payload, indent=2, default=lambda o: o.to_dict()) + "\n"


def random_payload(rng, depth):
    """A nested JSON value holding patterns, tensor elements and edge-like tuples."""
    if depth < 4 and rng.random() < 0.6:
        size = rng.choice((0, 1, 2, 4))
        kind = rng.choice(("list", "tuple", "dict", "dict"))
        values = [random_payload(rng, depth + 1) for _ in range(size)]
        if kind == "list":
            return values
        if kind == "tuple":
            return tuple(values)
        keys = [rng.choice(("a", "%s", 'q"', "b\\\\", "\n", "é", "日本", "\0")) + str(i)
                for i in range(size)]
        if rng.random() < 0.2:
            keys = list(range(size))
        return dict(zip(keys, values))
    pick = rng.randrange(9)
    if pick == 0:
        return rng.choice((0, -1, 7, -(10**30), 10**40))
    if pick == 1:
        return rng.choice((True, False, None, 0.5))
    if pick == 2:
        alphabet = 'ab"\\%\n\t\0é日本'
        return "".join(rng.choice(alphabet) for _ in range(rng.randrange(6)))
    if pick == 3:
        return tuple(rng.randrange(-3, 9) for _ in range(rng.randrange(4)))
    if pick == 4:
        return (rng.randrange(5), True, None)
    if pick in (5, 6):
        return random_pattern(rng, rng.choice(WRITER_SHAPES))
    return random_element(rng, all_params(rng.choice((2, 3)), 2), rng.randrange(1, 4))


def test_writer_matches_json_dumps_on_nested_payloads():
    rng = random.Random(20261018)
    for _ in range(600):
        payload = random_payload(rng, 0)
        assert "".join(cli._json_chunks(payload)) == reference_json(payload), payload


def test_writer_prints_mixed_elements_at_every_depth():
    # several shapes side by side, each of its own template at each depth
    rng = random.Random(7)
    elements = [random_pattern(rng, shape) for shape in (*WRITER_SHAPES, *all_params(3, 2))]
    head = random_pattern(rng, KRParams(3, 2, 2))
    for size in range(3):
        elements.append(TensorElement((head, *random_element(rng, all_params(3, 2), size + 1).factors)))
    elements += [(0, 1, 2), (3, 0, 10**20), (), (4, 5), (6, 7, 8)]
    for x in elements:
        for payload in (x, [x, x], {"k": [x], "%s": x}, [{"v": [x, x]}], {"k": [[x]]}):
            assert "".join(cli._json_chunks(payload)) == reference_json(payload)
    for payload in (
        elements,
        {"a": elements, "b": [elements, {"c": elements}], "d": elements[3]},
        [[elements, {"c": elements}]],
    ):
        assert "".join(cli._json_chunks(payload)) == reference_json(payload)


def test_writer_streams_one_chunk_per_item():
    elements = enumerate_crystal(KRParams(3, 2, 1))
    assert len(list(cli._json_chunks(elements))) == len(elements) + 2
    graph = build_graph(elements, range(4))
    payload = {"vertices": graph.vertices, "edges": graph.edges}
    chunks = list(cli._json_chunks(payload))
    assert len(chunks) == 2 * 2 + len(graph.vertices) + len(graph.edges) + 2
    assert "".join(chunks) == json.dumps(graph_json(graph), indent=2) + "\n"


def cli_cases(tmp_path):
    """(argv, payload rebuilt in-process) for every JSON subcommand."""
    left = pattern_from_dict({"n": 3, "r": 2, "s": 2, "rows": [[0, 1], [1, 0]]})
    right = pattern_from_dict({"n": 3, "r": 1, "s": 3, "rows": [[1], [0], [2]]})
    files = []
    for i, b in enumerate((left, right)):
        path = tmp_path / f"p{i}.json"
        path.write_text(json.dumps(b.to_dict()))
        files.append(str(path))
    pair = TensorElement((left, right))
    small = KRParams(3, 2, 2)
    params = KRParams(3, 2, 2)
    report = check_perfect(params)
    conditions = (
        "finite",
        "tensor_square_connected",
        "classical_weights_dominated",
        "top_weight_unique",
        "profile_level_ok",
        "eps_profiles_bijective",
        "phi_profiles_bijective",
        "formulas_match_search",
    )
    perfect_payload = {
        "params": {"n": params.n, "r": params.r, "s": params.s},
        "level": report.level,
        "cardinality": report.cardinality,
        "conditions": {name: getattr(report, name) for name in conditions},
        "min_profile_level": report.min_profile_level,
        "perfect": report.ok,
        "violations": report.violations,
    }
    factors = [KRParams(3, 2, 2), KRParams(3, 1, 2), KRParams(3, 3, 1)]
    gsp = ground_state_path(DominantWeight((1, 0, 2, 0)), KRParams(3, 3, 3), 8)
    oracle = local_energy_oracle(left.params, right.params)[pair]
    return [
        (
            ["enumerate", "--n", "4", "--r", "2", "--s", "2"],
            [b.to_dict() for b in enumerate_crystal(KRParams(4, 2, 2))],
        ),
        (
            ["graph", "--factor", "3,2,2", "--format", "json"],
            graph_json(build_graph(enumerate_crystal(small), range(4))),
        ),
        (
            ["graph", *(f"--factor={p.n},{p.r},{p.s}" for p in factors), "--format", "json"],
            graph_json(build_graph(product_elements(factors), range(4))),
        ),
        (
            ["graph", "--factor", "3,1,1", "--factor", "3,2,2", "--format", "json"],
            graph_json(build_graph(product_elements([KRParams(3, 1, 1), small]), range(4))),
        ),
        (["rmatrix", *files], rmatrix(pair).to_dict()),
        (
            ["energy", *files, "--both"],
            {"closed_form": local_energy(pair), "oracle": oracle, "agree": True},
        ),
        (["perfect", "--n", "3", "--r", "2", "--s", "2"], perfect_payload),
        (
            ["gsp", "--weight", "1,0,2,0", "--r", "3", "--len", "8"],
            [b.to_dict() for b in gsp.elements],
        ),
    ]


def test_json_subcommands_print_the_indented_payload(tmp_path, capsys):
    for argv, payload in cli_cases(tmp_path):
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, ""), argv
        assert out == json.dumps(payload, indent=2) + "\n", argv


def test_out_file_holds_the_stdout_bytes(tmp_path, capsys):
    cases = cli_cases(tmp_path)
    cases.append((["graph", "--factor", "2,2,1", "--factor", "2,1,2"], None))
    for k, (argv, _) in enumerate(cases):
        code, out, _ = run(capsys, argv)
        assert code == 0
        target = tmp_path / f"out{k}.txt"
        code, again, _ = run(capsys, [*argv, "--out", str(target)])
        assert (code, again) == (0, "")
        assert target.read_bytes() == out.encode("utf-8"), argv


@pytest.mark.parametrize(
    "argv, code",
    [
        (["enumerate", "--n", "3", "--r", "2", "--s", "2", "--max-elements", "19"], 3),
        (["graph", "--factor", "3,2,2", "--format", "json", "--max-elements", "5"], 3),
        (["graph", "--factor", "3,2,2", "--factor", "3,2,2", "--max-elements", "399"], 3),
        (["gsp", "--weight", "1,-1,0", "--r", "1", "--len", "2"], 2),
        (["perfect", "--n", "2", "--r", "3", "--s", "1"], 2),
        (["graph", "--factor", "2,1,1", "--factor", "3,1,1", "--format", "json"], 2),
        (["gsp", "--weight", "1,1,0", "--r", "1", "--len", "1000001"], 3),
    ],
)
def test_failing_commands_print_nothing(tmp_path, capsys, argv, code):
    target = tmp_path / "out.json"
    got, out, err = run(capsys, argv)
    assert (got, out) == (code, "")
    assert err
    got, out, _ = run(capsys, [*argv, "--out", str(target)])
    assert (got, out) == (code, "")
    assert not target.exists()


def test_oversized_crystals_exit_before_enumerating(capsys, monkeypatch):
    from krpoly import patterns

    def build(*args):
        raise AssertionError("a pattern was built")

    monkeypatch.setattr(patterns, "KRPattern", build)
    # |B^{4,4}| = 1,646,568 at n=8 passes the cap of 1,000,000
    for argv in (
        ["perfect", "--n", "8", "--r", "4", "--s", "4"],
        ["enumerate", "--n", "8", "--r", "4", "--s", "4"],
        ["graph", "--factor", "6,3,3", "--factor", "6,3,3"],
    ):
        code, out, err = run(capsys, argv)
        assert (code, out) == (3, "")
        assert "size cap" in err


def test_a_reader_that_closes_early_ends_the_command_quietly():
    # the path prints about 236 kB, more than a pipe holds, so the writer
    # meets the closed pipe; 141 is 128 + SIGPIPE, as a shell reports it
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    argv = ["gsp", "--weight", "1,1,0", "--r", "1", "--len", "2000"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "krpoly.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline() == b"[\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == b""


# each command's (exit code, stdout) under one hash seed, read through
# cli.main in one interpreter
HASH_SEED_SCRIPT = """
import contextlib, io, json, sys
from krpoly.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    runs.append([code, out.getvalue()])
sys.stdout.write(json.dumps(runs))
"""
HASH_SEED_COMMANDS = [
    ["verify", "--suite", "all", "--n", "2", "--max-s", "2"],
    ["graph", "--factor", "3,1,1", "--factor", "3,2,1", "--format", "json"],
    ["graph", "--factor", "3,2,2"],
    ["perfect", "--n", "3", "--r", "2", "--s", "2"],
    ["enumerate", "--n", "4", "--r", "2", "--s", "2"],
    ["gsp", "--weight", "1,1,0,0", "--r", "2", "--len", "6"],
]


def test_outputs_do_not_depend_on_the_hash_seed():
    # string hashing, and so the order of a set or dict of strings, moves
    # with PYTHONHASHSEED; the integer grids and every output must not
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for seed in ("0", "12345"):
        env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-c", HASH_SEED_SCRIPT, json.dumps(HASH_SEED_COMMANDS)],
            capture_output=True,
            env=env,
            timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, b"")
        outputs.append(proc.stdout)
    runs = json.loads(outputs[0])
    assert [code for code, _ in runs] == [0] * len(HASH_SEED_COMMANDS)
    assert all(out for _, out in runs)
    assert outputs[0] == outputs[1]
