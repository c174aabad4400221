"""Source-level rules for the library package."""

import ast
import importlib
import sys
from pathlib import Path

import krpoly

SOURCE = Path(krpoly.__file__).parent


def test_library_has_no_assert_statements():
    # invariants raise typed KRErrors; python -O strips assert statements
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert sorted(SOURCE.glob("*.py"))
    assert not found, f"assert statements in krpoly: {', '.join(found)}"


def test_library_imports_only_the_standard_library():
    # krpoly has no third-party runtime dependencies
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names | {"krpoly"}
            ]
    assert sorted(SOURCE.glob("*.py"))
    assert not found, f"non-standard imports in krpoly: {', '.join(found)}"


def test_module_level_caches_are_the_operator_memos():
    # the canonical-image table, the R-matrix on highest weight elements and
    # the raising schedules are the only memos that live as long as the
    # process; any other cache belongs to an object a caller owns.  Only the
    # table, one entry per distinct operator image or zero pattern, may grow
    # without a bound.
    def cache_name(decorator):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Attribute):
            return target.attr
        return target.id if isinstance(target, ast.Name) else None

    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.stem}.{node.name}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(cache_name(d) in ("lru_cache", "cache") for d in node.decorator_list)
        ]
    assert sorted(found) == [
        "patterns._canonical",
        "rmatrix._hw_image",
        "rmatrix._schedule",
    ]
    for name in found:
        if name == "patterns._canonical":
            continue
        module, func = name.split(".")
        maxsize = getattr(importlib.import_module(f"krpoly.{module}"), func).cache_info().maxsize
        assert isinstance(maxsize, int), f"{name} memo has no integer maxsize"


def test_string_records_are_read_only_in_patterns():
    # KRPattern._strings, one [phi, eps, first, last, f image, e image]
    # record per color, is filled in patterns.py and read in place there by
    # the transport kernel; every other module goes through the KRPattern
    # statistics and operators or through the kernel
    readers = {}
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "_strings"
        ]
        if lines:
            readers[path.name] = lines
    owners = {"patterns.py"}
    assert owners <= readers.keys()
    others = {name: lines for name, lines in readers.items() if name not in owners}
    assert not others, f"_strings read outside its owners at lines {others}"


def test_energy_binds_no_mutable_container_at_module_level():
    # global_energy's pair memo lives and dies with the call; a dict, list
    # or set bound at module level, or as a default argument, would outlive
    # it and hold elements of every product ever seen
    containers = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    factories = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque"}

    def mutable(node):
        if isinstance(node, ast.Call):
            target = node.func
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
            return name in factories
        return isinstance(node, containers)

    path = SOURCE / "energy.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    roots = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            roots += node.args.defaults + [d for d in node.args.kw_defaults if d is not None]
            roots += node.decorator_list
        else:
            roots.append(node)
    found = [
        f"energy.py:{node.lineno}"
        for root in roots
        for node in ast.walk(root)
        if mutable(node)
    ]
    assert "global_energy" in {getattr(node, "name", None) for node in tree.body}
    assert not found, f"module-level containers in energy.py: {', '.join(found)}"


def test_indented_json_is_written_only_by_the_cli_writer():
    # one output path: every json.dump/json.dumps call given an indent sits
    # inside cli._json_chunks, whose output the CLI streams
    def is_json_dump(node):
        return (
            isinstance(node, ast.Attribute)
            and node.attr in ("dump", "dumps")
            and isinstance(node.value, ast.Name)
            and node.value.id == "json"
        )

    inside, outside = [], []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        writer = set()
        for node in ast.walk(tree):
            if path.name == "cli.py" and getattr(node, "name", None) == "_json_chunks":
                writer = {id(inner) for inner in ast.walk(node)}
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and any(kw.arg == "indent" for kw in node.keywords)
                and any(is_json_dump(f) for f in (node.func, *node.args))
            ):
                (inside if id(node) in writer else outside).append(f"{path.name}:{node.lineno}")
    assert inside, "cli._json_chunks no longer indents through json.dumps"
    assert not outside, f"indented JSON written outside the writer: {', '.join(outside)}"



def test_patterns_are_built_only_in_patterns():
    # the cell layout rows[q-r][p-1] = a[p,q] is known to patterns.py alone:
    # every KRPattern(...) call sits there, and other modules build through
    # pattern_from_cells and its kin
    def is_constructor(node):
        target = node.func
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        return name == "KRPattern"

    inside, outside = [], []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        calls = [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and is_constructor(node)
        ]
        (inside if path.name == "patterns.py" else outside).extend(calls)
    assert inside, "patterns.py no longer calls KRPattern"
    assert not outside, f"KRPattern built outside patterns.py: {', '.join(outside)}"


def test_rows_are_read_only_in_patterns():
    # the layout is read in patterns.py alone too: no other module
    # subscripts, slices, iterates or calls a method of a pattern's rows
    # (``.rows``, or a name ``rows``).  Elsewhere a whole grid may key a dict.
    iterating = {
        "all", "any", "enumerate", "filter", "iter", "len", "list", "map", "max", "min",
        "reversed", "set", "sorted", "sum", "tuple", "zip",
    }

    def is_rows(node):
        if isinstance(node, ast.Attribute):
            return node.attr == "rows"
        return isinstance(node, ast.Name) and node.id == "rows"

    def read(node):
        if isinstance(node, (ast.Subscript, ast.Starred, ast.Attribute)):
            return [node.value]
        if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
            return [node.iter]
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in iterating:
            return node.args
        if isinstance(node, ast.Compare):
            pairs = zip(node.ops, node.comparators)
            return [right for op, right in pairs if isinstance(op, (ast.In, ast.NotIn))]
        return []

    inside, outside = [], []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        reads = [
            f"{path.name}:{value.lineno}"
            for node in ast.walk(tree)
            for value in read(node)
            if is_rows(value)
        ]
        (inside if path.name == "patterns.py" else outside).extend(reads)
    assert inside, "patterns.py no longer reads rows"
    assert not outside, f"rows read outside patterns.py: {', '.join(outside)}"


def test_graphs_are_filled_without_per_element_operators():
    # graph.py reads f_l on the factors' rows (``_read_rows``); a .f(...) or
    # .e(...) call there would bring back a per-element fill
    path = SOURCE / "graph.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    calls = [
        f"graph.py:{node.lineno} .{node.func.attr}()"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("f", "e")
    ]
    assert "_read_rows" in {getattr(node, "name", None) for node in ast.walk(tree)}
    assert not calls, f"operator calls in graph.py: {', '.join(calls)}"


def test_energy_walks_no_string_of_its_own():
    # the closed-form schedule raises through rmatrix._raise_strings, the
    # kernel of transport; a string statistic or a one-argument .e(...) or
    # .f(...) call in energy.py would bring back a second string walk
    path = SOURCE / "energy.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    calls = [
        f"energy.py:{node.lineno} .{node.func.attr}()"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and (
            node.func.attr in ("eps", "phi", "_stats")
            or node.func.attr in ("e", "f") and len(node.args) + len(node.keywords) == 1
        )
    ]
    assert "_raise_strings" in {getattr(node, "id", None) for node in ast.walk(tree)}
    assert not calls, f"string walks in energy.py: {', '.join(calls)}"


def test_each_whole_product_oracle_is_one_walk():
    # the R-matrix and energy oracles each check every edge in their one
    # walk from 0 (x) 0; a second while loop, or a pass over .ids() other
    # than the one that orders the returned map, would bring back a
    # separate scan.  PairTable keeps no eps or highest weight test for one.
    path = SOURCE / "oracles.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    for name in ("rmatrix_oracle_ids", "local_energy_oracle"):
        (func,) = [node for node in tree.body if getattr(node, "name", None) == name]
        returned = {
            id(inner)
            for node in ast.walk(func)
            if isinstance(node, ast.Return)
            for inner in ast.walk(node)
        }
        loops = [node.lineno for node in ast.walk(func) if isinstance(node, ast.While)]
        scans = [
            node.lineno
            for node in ast.walk(func)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "ids"
            and id(node) not in returned
        ]
        assert len(loops) == 1, f"{name} has {len(loops)} while loops"
        assert not scans, f"{name} scans .ids() at oracles.py:{scans}"
    (table,) = [node for node in tree.body if getattr(node, "name", None) == "PairTable"]
    methods = {node.name for node in table.body if isinstance(node, ast.FunctionDef)}
    assert {"f", "e", "e_slot"} <= methods
    assert not methods & {"eps", "is_classical_hw"}, sorted(methods)


def test_monomial_statistics_read_the_one_string_walk():
    # phi, eps, nf, ne, f and e of the Nakajima crystal read one walk of
    # the string, MonomialCrystal._string; a loop or comprehension in one of
    # them would bring back a scan of its own
    path = SOURCE / "nakajima.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    (crystal,) = [node for node in tree.body if getattr(node, "name", None) == "MonomialCrystal"]
    methods = {node.name: node for node in crystal.body if isinstance(node, ast.FunctionDef)}
    scans = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    for name in ("phi", "eps", "nf", "ne", "f", "e"):
        nodes = list(ast.walk(methods[name]))
        called = {
            node.func.attr
            for node in nodes
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "self"
        }
        assert "_string" in called, f"MonomialCrystal.{name} does not call self._string"
        loops = [f"nakajima.py:{node.lineno}" for node in nodes if isinstance(node, scans)]
        assert not loops, f"MonomialCrystal.{name} scans on its own: {', '.join(loops)}"


def test_package_attributes_are_the_submodules():
    # a function re-exported under its module's name would shadow the module:
    # ``import krpoly.rmatrix as rm`` would then bind the function
    stems = [path.stem for path in sorted(SOURCE.glob("*.py")) if path.stem != "__init__"]
    assert "rmatrix" in stems and "tensor" in stems
    for stem in stems:
        importlib.import_module(f"krpoly.{stem}")
        assert getattr(krpoly, stem) is sys.modules[f"krpoly.{stem}"], stem


# argparse needs its own ArgumentTypeError from a type= converter
EXTRA_RAISES = {"cli.py": {"argparse.ArgumentTypeError"}}


def module_getattr_nodes(tree):
    """ids of the nodes inside a module-level ``def __getattr__`` (PEP 562)."""
    return {
        id(inner)
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "__getattr__"
        for inner in ast.walk(node)
    }


def test_every_raise_names_a_library_error():
    # callers catch KRError (the CLI maps it to exit 2 or 3); a raise either
    # re-raises what it caught or names a class of krpoly.errors, save the
    # EXTRA_RAISES of one file each and the AttributeError that a module
    # ``__getattr__`` must raise, there alone
    from krpoly import errors

    typed = {name for name, value in vars(errors).items() if isinstance(value, type)}

    def named(node):
        target = node.func if isinstance(node, ast.Call) else node
        if isinstance(target, ast.Attribute):
            return ast.unparse(target)
        return target.id if isinstance(target, ast.Name) else None

    raises, found = 0, []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        getattr_nodes = module_getattr_nodes(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            raises += 1
            name = named(node.exc)
            allowed = typed | EXTRA_RAISES.get(path.name, set())
            if id(node) in getattr_nodes:
                allowed = allowed | {"AttributeError"}
            if name not in allowed:
                found.append(f"{path.name}:{node.lineno} {name}")
    assert raises
    assert not found, f"raises of a class outside krpoly.errors: {', '.join(found)}"


CORE = {"patterns", "tensor", "rmatrix", "energy", "perfect", "errors"}
OFF_CORE = {"graph", "regularity", "nakajima", "verify", "oracles", "cli"}


def package_imports(path):
    """The krpoly modules a module imports, save those its ``__getattr__`` imports."""
    tree = ast.parse(path.read_text(), filename=str(path))
    skipped = module_getattr_nodes(tree)
    names = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module == "krpoly":
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("krpoly."):
            names.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            names |= {a.name.split(".")[1] for a in node.names if a.name.startswith("krpoly.")}
    return {name.partition(".")[0] for name in names}


def test_the_core_never_reaches_the_graph_layer():
    # the constructions, their statistics and transport load neither the
    # graph layer nor an oracle: no import of a core module, at module level
    # or in a function, reaches an off-core module through any chain of
    # imports.  A module ``__getattr__`` that hands out an oracle on
    # request is the one exception.
    imports = {path.stem: package_imports(path) for path in SOURCE.glob("*.py")}
    assert CORE <= imports.keys()
    for module in sorted(CORE):
        reached, todo = set(), [module]
        while todo:
            for name in imports.get(todo.pop(), ()):
                if name not in reached:
                    reached.add(name)
                    todo.append(name)
        assert not reached & OFF_CORE, f"{module} reaches {sorted(reached & OFF_CORE)}"


def test_the_cli_maps_only_typed_errors_to_exit_codes():
    # ``main`` turns KRError and OSError into exit 2 and a size cap into
    # exit 3; a ValueError from library code is a bug and propagates.  The
    # ValueErrors of user input are caught where the input is read: a path
    # or file in ``_load_pattern`` and ``_emit``, a flag value in the
    # ``_parse_*`` converters, which hand argparse an ArgumentTypeError.
    path = SOURCE / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))

    def caught(handler):
        types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        return [ast.unparse(t) for t in types]

    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    value_errors, main_names = [], []
    for func in functions:
        for node in ast.walk(func):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if func.name == "main":
                main_names += caught(node)
            if "ValueError" in caught(node):
                value_errors.append(func.name)
    assert sorted(main_names) == ["BrokenPipeError", "KRError", "OSError", "SizeLimitExceeded"]
    readers = [name for name in value_errors if not name.startswith("_parse_")]
    assert sorted(readers) == ["_emit", "_load_pattern"]
