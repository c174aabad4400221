"""Which krpoly modules each entry point loads, and the lazy package surface.

``import krpoly`` loads no submodule, and each command of the CLI loads
only the modules it runs, so a command pays for compiling and running
nothing else.  Each load set is read in a fresh interpreter.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import krpoly

SOURCE = Path(krpoly.__file__).parent

# runs ``cli.main`` on argv (stdout discarded) unless argv is empty, then
# prints the exit code and the krpoly submodules that are loaded
LOADED_SCRIPT = """
import contextlib, io, json, sys
import krpoly
code = None
if sys.argv[1:]:
    from krpoly import cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(sys.argv[1:])
names = sorted(name[7:] for name in sys.modules if name.startswith("krpoly."))
sys.stdout.write(json.dumps([code, names]))
"""

CLI = {"cli", "errors", "patterns", "tensor"}
RMATRIX = CLI | {"graph", "rmatrix", "table"}
ALL = {path.stem for path in SOURCE.glob("*.py")} - {"__init__"}


def python(*args):
    """stdout of a fresh interpreter run on ``args`` with this source first on its path."""
    path = os.pathsep.join(filter(None, [str(SOURCE.parent), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, *args], capture_output=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, b"")
    return proc.stdout


def loaded(argv):
    code, names = json.loads(python("-c", LOADED_SCRIPT, *argv))
    return code, set(names)


@pytest.fixture(scope="module")
def pattern_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("patterns") / "b.json"
    path.write_text(json.dumps({"n": 2, "r": 1, "s": 1, "rows": [[0], [1]]}))
    return str(path)


COMMANDS = [
    ("import", [], set()),
    ("enumerate", ["enumerate", "--n", "2", "--r", "1", "--s", "1"], CLI),
    ("graph", ["graph", "--factor", "2,1,1"], CLI | {"graph"}),
    ("rmatrix", ["rmatrix", "{b}", "{b}"], RMATRIX),
    ("energy", ["energy", "{b}", "{b}"], RMATRIX | {"energy"}),
    ("perfect", ["perfect", "--n", "2", "--r", "1", "--s", "1"], RMATRIX | {"perfect"}),
    ("gsp", ["gsp", "--weight", "1,0,0", "--r", "1", "--len", "3"], RMATRIX | {"perfect"}),
    ("verify", ["verify", "--suite", "ops", "--n", "1", "--max-s", "1"], ALL),
]


@pytest.mark.parametrize("argv, want", [c[1:] for c in COMMANDS], ids=[c[0] for c in COMMANDS])
def test_each_command_loads_only_the_modules_it_runs(argv, want, pattern_file):
    code, names = loaded([arg.format(b=pattern_file) for arg in argv])
    assert code == (0 if argv else None)
    assert names == want


def test_every_export_is_the_object_of_its_module():
    assert len(krpoly.__all__) == len(set(krpoly.__all__))
    for module, names in krpoly._EXPORTS.items():
        defining = importlib.import_module(f"krpoly.{module}")
        for name in names:
            assert getattr(krpoly, name) is getattr(defining, name), name
            assert vars(krpoly)[name] is getattr(defining, name), name  # cached on first read
            assert getattr(defining, name).__module__ == defining.__name__, name
    assert set(krpoly.__all__) == {name for names in krpoly._EXPORTS.values() for name in names}
    assert krpoly.__version__ == "0.1.0"


def test_every_submodule_resolves_through_the_package():
    # read in a fresh interpreter, where no submodule is loaded yet
    assert len(ALL) == 12
    script = (
        "import sys, krpoly\n"
        f"for stem in {sorted(ALL)!r}:\n"
        "    assert getattr(krpoly, stem) is sys.modules['krpoly.' + stem], stem\n"
    )
    python("-c", script)


def test_dir_lists_every_export_and_submodule():
    listed = dir(krpoly)
    assert set(krpoly.__all__) <= set(listed)
    assert ALL <= set(listed)
    assert listed == sorted(listed)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'krpoly' has no attribute 'nosuch'"):
        krpoly.nosuch
    assert not hasattr(krpoly, "rmatrix_oracle_ids")  # defined in rmatrix, not exported
    with pytest.raises(ImportError, match="cannot import name 'nosuch' from 'krpoly'"):
        from krpoly import nosuch  # noqa: F401


def test_an_unknown_suite_is_a_usage_error_that_lists_the_suites(capsys):
    from krpoly.cli import main
    from krpoly.verify import SUITES

    with pytest.raises(SystemExit) as info:
        main(["verify", "--suite", "nosuch", "--n", "2"])
    captured = capsys.readouterr()
    assert info.value.code == 2
    assert captured.out == ""
    assert "argument --suite: invalid choice: 'nosuch'" in captured.err
    for name in [*SUITES, "all"]:
        assert repr(name) in captured.err
