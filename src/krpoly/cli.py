"""Command-line front end.

Subcommands: enumerate, graph, rmatrix, energy, perfect, gsp, verify.
Output is deterministic byte-for-byte for identical flags.  Exit codes:
0 success, 1 failed verification, 2 usage or input errors, 3 size caps,
141 (128 + SIGPIPE) when the reader of stdout closes it early.

Each command imports only the modules it runs: the parsers and the JSON
writer need ``errors``, ``patterns`` and ``tensor``, and every other
module is imported inside the ``_cmd_*`` function that calls it, so
``enumerate`` compiles and runs four modules and only ``verify`` all of
them.  ``--suite`` is checked against ``verify.SUITES`` by a converter,
which imports ``verify`` only when that command is parsed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import chain

from .errors import InvalidParams, KRError, SizeLimitExceeded
from .patterns import (
    ENUMERATION_CAP,
    KRParams,
    KRPattern,
    enumerate_crystal,
    pattern_from_cells,
    pattern_from_dict,
)
from .tensor import TensorElement, product_elements


def _parse_triple(text):
    try:
        n, r, s = (int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected n,r,s: {text!r}") from exc
    try:
        return KRParams(n, r, s)
    except InvalidParams as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_cap(text):
    try:
        cap = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a positive integer: {text!r}") from exc
    if cap < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer: {text!r}")
    return cap


def _parse_weight(text):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a0,a1,...,an: {text!r}") from exc


def _parse_suite(text):
    from .verify import SUITES

    names = sorted(SUITES) + ["all"]
    if text not in names:
        choices = ", ".join(map(repr, names))
        raise argparse.ArgumentTypeError(f"invalid choice: {text!r} (choose from {choices})")
    return text


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="krpoly",
        description="Polytope model of affine type-A Kirillov-Reshetikhin crystals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(p):
        p.add_argument("--n", type=int, required=True, help="rank of the affine algebra")
        p.add_argument("--r", type=int, required=True, help="classical node index")
        p.add_argument("--s", type=int, required=True, help="level parameter")

    p = sub.add_parser("enumerate", help="list all patterns of one crystal")
    add_params(p)
    p.add_argument("--max-elements", type=_parse_cap, default=ENUMERATION_CAP)
    p.add_argument("--out", default=None)

    p = sub.add_parser("graph", help="export a crystal graph as DOT or JSON")
    p.add_argument(
        "--factor",
        action="append",
        type=_parse_triple,
        required=True,
        metavar="N,R,S",
        help="tensor factors left to right, one flag each",
    )
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.add_argument("--max-elements", type=_parse_cap, default=ENUMERATION_CAP)
    p.add_argument("--out", default=None)

    p = sub.add_parser("rmatrix", help="apply the combinatorial R-matrix")
    p.add_argument("left", help="JSON file with the first pattern")
    p.add_argument("right", help="JSON file with the second pattern")
    p.add_argument("--out", default=None)

    p = sub.add_parser("energy", help="energy of a list of patterns")
    p.add_argument("patterns", nargs="+", help="two or more pattern JSON files")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--closed-form", action="store_true")
    mode.add_argument("--oracle", action="store_true")
    mode.add_argument("--both", action="store_true")
    p.add_argument("--out", default=None)

    p = sub.add_parser("perfect", help="perfectness report for one crystal")
    add_params(p)
    p.add_argument("--out", default=None)

    p = sub.add_parser("gsp", help="ground-state path")
    p.add_argument("--weight", type=_parse_weight, required=True, metavar="A0,A1,...")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--len", type=_parse_cap, required=True, dest="length")
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", type=_parse_suite, default="all", help="a suite name, or all")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-s", type=int, default=2, dest="max_s")
    return parser


def _emit(chunks, out):
    """Write the text chunks to the file ``out``, or to stdout when it is None."""
    if out is None:
        sys.stdout.writelines(chunks)
    else:
        try:
            handle = open(out, "w", encoding="utf-8")
        except ValueError as exc:  # a NUL byte in the path
            raise KRError(str(exc)) from exc
        with handle:
            handle.writelines(chunks)


_TEXT_MEMO = 32


def _json_chunks(payload):
    """``json.dumps(payload, indent=2, default=to_dict) + "\\n"``, in chunks.

    A top-level list, and each list under a top-level key, comes one chunk
    per item.  Patterns and tensor elements (whose entries are ints, as in
    every validated pattern) and tuples of ints print as
    ``template % entries``, the template made once per shape and depth
    from the element's own ``to_dict`` encoding with a placeholder in
    every entry, so ``to_dict`` alone defines the layout.  Any other value
    prints through ``json.dumps`` re-indented to its depth, which is exact
    because JSON strings hold no raw newline.  A list keeps the texts of
    up to ``_TEXT_MEMO`` items by id, each with its item so its id stays
    its own: a ground-state path repeats n+1 objects, and 64 texts raised
    the peak RSS of a large ``graph --format json`` by 15%.
    """
    hole = json.dumps("\0")
    templates = {}

    def dumps(value, depth):
        text = json.dumps(value, indent=2, default=lambda o: o.to_dict())
        return text.replace("\n", "\n" + "  " * depth)

    def encode(value, depth):
        if isinstance(value, KRPattern):
            shape, entries = value.params, value.entries_flat()
        elif isinstance(value, TensorElement):
            shape = tuple(b.params for b in value.factors)
            entries = tuple(chain.from_iterable(map(KRPattern.entries_flat, value.factors)))
        elif type(value) is tuple and all(type(x) is int for x in value):
            shape, entries = len(value), value
        else:
            return dumps(value, depth)
        template = templates.get((shape, depth))
        if template is None:
            text = dumps(_hollow(value), depth).replace("%", "%%").replace(hole, "%s")
            template = templates[shape, depth] = text
        return template % entries

    def items(values, depth):
        pad = "\n" + "  " * (depth + 1)
        sep = "[" + pad
        memo = {}
        for value in values:
            key = id(value)
            hit = memo.get(key)
            if hit is None:
                if len(memo) == _TEXT_MEMO:
                    memo.clear()
                hit = memo[key] = value, encode(value, depth + 1)
            yield sep + hit[1]
            sep = "," + pad
        yield "\n" + "  " * depth + "]"

    if isinstance(payload, (list, tuple)) and payload:
        yield from items(payload, 0)
    elif isinstance(payload, dict) and payload and all(isinstance(k, str) for k in payload):
        sep = "{\n  "
        for key, value in payload.items():
            yield sep + json.dumps(key) + ": "
            if isinstance(value, (list, tuple)) and value:
                yield from items(value, 1)
            else:
                yield encode(value, 1)
            sep = ",\n  "
        yield "\n}"
    else:
        yield encode(payload, 0)
    yield "\n"


def _hollow(value):
    """``value`` with the placeholder "\\0" in place of every entry."""
    if isinstance(value, KRPattern):
        return pattern_from_cells(value.params, lambda p, q: "\0")
    if isinstance(value, TensorElement):
        return TensorElement(tuple(map(_hollow, value.factors)))
    return ("\0",) * len(value)


def _load_pattern(path):
    """The pattern in the JSON file at ``path``.

    A ValueError from ``open`` or ``json`` (a NUL byte in the path, bad
    UTF-8 or JSON, an integer past the digit limit) is bad input, so it
    is raised again as a KRError.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except ValueError as exc:
        raise KRError(str(exc)) from exc
    return pattern_from_dict(data)


def _cmd_enumerate(args):
    params = KRParams(args.n, args.r, args.s)
    elements = enumerate_crystal(params, args.max_elements)
    _emit(_json_chunks(elements), args.out)
    return 0


def _cmd_graph(args):
    from .graph import build_graph

    factor_params = args.factor
    cap = args.max_elements
    if len(factor_params) == 1:
        elements = enumerate_crystal(factor_params[0], cap)
    else:
        elements = product_elements(factor_params, cap)
    graph = build_graph(elements, range(factor_params[0].n + 1), max_size=cap)
    if args.format == "dot":
        _emit((graph.to_dot(),), args.out)
    else:
        _emit(_json_chunks({"vertices": graph.vertices, "edges": graph.edges}), args.out)
    return 0


def _cmd_rmatrix(args):
    from .rmatrix import rmatrix

    left = _load_pattern(args.left)
    right = _load_pattern(args.right)
    image = rmatrix(TensorElement((left, right)))
    _emit(_json_chunks(image), args.out)
    return 0


def _cmd_energy(args):
    from .energy import global_energy, local_energy

    patterns = [_load_pattern(path) for path in args.patterns]
    if len(patterns) < 2:
        raise KRError("energy needs at least two patterns")
    x = TensorElement(tuple(patterns))
    mode = "oracle" if args.oracle else ("both" if args.both else "closed-form")
    result = {}
    if mode in ("closed-form", "both"):
        result["closed_form"] = global_energy(x, energy=local_energy)
    if mode in ("oracle", "both"):
        result["oracle"] = _oracle_energy(x)
    if mode == "both":
        result["agree"] = result["closed_form"] == result["oracle"]
    _emit(_json_chunks(result), args.out)
    return 0


def _oracle_energy(x):
    from .energy import global_energy
    from .oracles import local_energy_oracle

    tables = {}

    def energy(pair):
        key = (pair.factors[0].params, pair.factors[1].params)
        if key not in tables:
            tables[key] = local_energy_oracle(*key)
        return tables[key][pair]

    return global_energy(x, energy=energy)


def _cmd_perfect(args):
    from .perfect import check_perfect

    params = KRParams(args.n, args.r, args.s)
    report = check_perfect(params)
    payload = {
        "params": {"n": params.n, "r": params.r, "s": params.s},
        "level": report.level,
        "cardinality": report.cardinality,
        "conditions": {
            "finite": report.finite,
            "tensor_square_connected": report.tensor_square_connected,
            "classical_weights_dominated": report.classical_weights_dominated,
            "top_weight_unique": report.top_weight_unique,
            "profile_level_ok": report.profile_level_ok,
            "eps_profiles_bijective": report.eps_profiles_bijective,
            "phi_profiles_bijective": report.phi_profiles_bijective,
            "formulas_match_search": report.formulas_match_search,
        },
        "min_profile_level": report.min_profile_level,
        "perfect": report.ok,
        "violations": report.violations,
    }
    _emit(_json_chunks(payload), args.out)
    return 0


def _cmd_gsp(args):
    from .perfect import DominantWeight, ground_state_path

    weight = DominantWeight(args.weight)
    params = KRParams(len(args.weight) - 1, args.r, weight.level)
    path = ground_state_path(weight, params, args.length)
    _emit(_json_chunks(path.elements), args.out)
    return 0


def _cmd_verify(args):
    from .verify import run_suite

    checks = run_suite(args.suite, args.n, args.max_s)
    if not checks:
        raise KRError(f"suite {args.suite!r} has no checks at n={args.n}, max-s={args.max_s}")
    failed = 0
    for check in checks:
        mark = "ok" if check.ok else "FAIL"
        detail = f" ({check.detail})" if check.detail and not check.ok else ""
        sys.stdout.write(f"{mark:4s} {check.name}{detail}\n")
        failed += 0 if check.ok else 1
    sys.stdout.write(f"{len(checks) - failed}/{len(checks)} checks passed\n")
    return 0 if failed == 0 else 1


_COMMANDS = {
    "enumerate": _cmd_enumerate,
    "graph": _cmd_graph,
    "rmatrix": _cmd_rmatrix,
    "energy": _cmd_energy,
    "perfect": _cmd_perfect,
    "gsp": _cmd_gsp,
    "verify": _cmd_verify,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # output the buffer still holds meets a closed pipe here
        return code
    except SizeLimitExceeded as exc:
        sys.stderr.write(f"size cap exceeded: {exc}\n")
        return 3
    except BrokenPipeError:
        # the reader is gone: what is still buffered goes to the null
        # device, so the flush at interpreter shutdown cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (KRError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
