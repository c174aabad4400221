import json

import pytest

from krpoly import cli, local_energy, perfect
from krpoly.cli import main


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
        ["graph", "--n", "1", "--r", "1", "--s", "3", "--tensor", "1,1,1", "--format", "dot"],
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


def test_graph_rejects_factor_and_tensor_together(capsys):
    code, _, err = run(
        capsys,
        ["graph", "--n", "1", "--r", "1", "--s", "1", "--factor", "1,1,1", "--tensor", "1,1,1"],
    )
    assert code == 2
    assert "mutually exclusive" in err


def test_graph_requires_some_crystal(capsys):
    code, _, err = run(capsys, ["graph", "--format", "dot"])
    assert code == 2
    assert "graph needs" in err


def test_size_cap_exit_code(capsys):
    for argv in (
        ["graph", "--n", "2", "--r", "1", "--s", "2", "--max-elements", "3"],
        ["graph", "--factor", "6,3,3", "--factor", "6,3,3"],
    ):
        code, _, err = run(capsys, argv)
        assert code == 3
        assert "size cap" in err


def test_usage_error_exit_code():
    for argv in (
        ["enumerate", "--n", "2"],
        ["enumerate", "--n", "2", "--r", "1", "--s", "1", "--max-elements", "0"],
        ["graph", "--n", "2", "--r", "1", "--s", "1", "--max-elements", "-1"],
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
    ],
)
def test_input_error_exit_code(tmp_path, capsys, argv, fragment):
    files = {
        "n2": tmp_path / "n2.json",
        "n3": tmp_path / "n3.json",
        "missing": tmp_path / "missing.json",
        "text": tmp_path / "text.json",
        "nodir": tmp_path / "nodir" / "out.json",
    }
    files["n2"].write_text(json.dumps({"n": 2, "r": 1, "s": 1, "rows": [[0], [1]]}))
    files["n3"].write_text(json.dumps({"n": 3, "r": 1, "s": 1, "rows": [[0], [1], [0]]}))
    files["text"].write_text("not json")
    code, out, err = run(capsys, [arg.format(**files) for arg in argv])
    assert code == 2
    assert fragment in err
    assert out == ""


def test_energy_oracle_is_capped(tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"n": 6, "r": 3, "s": 3, "rows": [[0, 0, 0]] * 4}))
    code, out, err = run(capsys, ["energy", str(path), str(path), "--oracle"])
    assert code == 3
    assert "size cap" in err
    assert out == ""


def test_perfect_is_capped(capsys, monkeypatch):
    # without the highest weight certificate the square walk is capped:
    # |B^{3,2}| = 490 at n=6, so the square has 240,100 > 200,000 elements
    complete = perfect.highest_weight_elements
    monkeypatch.setattr(perfect, "highest_weight_elements", lambda *p: complete(*p)[1:])
    code, out, err = run(capsys, ["perfect", "--n", "6", "--r", "3", "--s", "2"])
    assert code == 3
    assert "size cap" in err
    assert out == ""


def test_perfect_past_the_square_cap(capsys):
    # the certificate decides connectivity, so no square walk is capped
    code, out, _ = run(capsys, ["perfect", "--n", "6", "--r", "3", "--s", "2"])
    assert code == 0
    data = json.loads(out)
    assert data["perfect"] is True
    assert data["cardinality"] == 490


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
    assert len(seen) == 3


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
    (check,) = verify.suite_energy(1, 1)
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
