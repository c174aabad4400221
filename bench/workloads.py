"""Seeded inputs, per-item work and output checks for each workload.

A workload turns a seed into a list of items without calling any crystal
operator (``f``/``e``/``phi``/``eps``), so the operator caches in
``krpoly.patterns`` are empty when the timed phase starts.  ``run`` does
one item's work and returns plain data (ints, strings, tuples), which the
round checksums.  ``check`` runs after the timed phase and returns how
many of the item's units failed against an oracle or a stored checksum.

Items and their units:

* ``paths``: one 8-fold element at n=5; unit = one path.
* ``sparse_pairs``: one two-fold element at n=8; unit = one pair.
* ``exhaustive``: one oracle task; unit = one checked element.
* ``cli``: one ``krpoly`` subprocess; unit = one command.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import subprocess
import sys
from pathlib import Path

from importlib import import_module

from krpoly.patterns import KRParams, validate_pattern
from krpoly.tensor import TensorElement

# looked up by full name: the package re-exports the function ``rmatrix``
# under the name of its submodule
energy, graph, patterns, perfect, regularity, rmat = (
    import_module(f"krpoly.{name}")
    for name in ("energy", "graph", "patterns", "perfect", "regularity", "rmatrix")
)

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED = json.loads((BENCH_DIR / "expected.json").read_text(encoding="utf-8"))


def digest(obj):
    """Short stable hash of plain data (ints, strings, tuples, bools)."""
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def sample_pattern(rng, params):
    """A valid pattern of B^{r,s}, built row-major under the staircase bound.

    Each cell draws uniformly from what the staircase budget leaves it
    (s minus the largest staircase sum reaching its upper or left
    neighbour), so every grid produced is valid; ``validate_pattern``
    re-checks it.  No crystal operator is called.
    """
    nrows, ncols = params.num_rows, params.num_cols
    rows = [[0] * ncols for _ in range(nrows)]
    best = [[0] * ncols for _ in range(nrows)]
    for qi in range(nrows):
        for pi in range(ncols):
            base = max(best[qi][pi - 1] if pi else 0, best[qi - 1][pi] if qi else 0)
            rows[qi][pi] = rng.randint(0, params.s - base)
            best[qi][pi] = base + rows[qi][pi]
    return validate_pattern(rows, params)


def balanced_shapes(rng, shapes, count):
    """``count`` shapes, each listed shape equally often, in seeded order.

    Fixing the multiset keeps the amount of work the same across seeds;
    only the order and the entries vary.
    """
    if count % len(shapes):
        raise ValueError(f"{count} is not a multiple of {len(shapes)} shapes")
    out = list(shapes) * (count // len(shapes))
    rng.shuffle(out)
    return out


def sort_keys(x):
    return tuple(b.sort_key() for b in x.factors)


class Paths:
    """``global_energy`` of seeded 8-fold elements: the one-dimensional-sum use."""

    name = "paths"
    in_process = True
    count = 216
    factors = 8
    shapes = tuple(KRParams(5, r, s) for r in range(1, 4) for s in range(1, 4))

    def make_inputs(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        shapes = balanced_shapes(rng, self.shapes, self.count * self.factors)
        items = []
        for i in range(self.count):
            chunk = shapes[i * self.factors : (i + 1) * self.factors]
            x = TensorElement(tuple(sample_pattern(rng, p) for p in chunk))
            items.append((x, rng.randrange(self.factors - 1)))
        return items

    def weight(self, item):
        return 1

    def run(self, item, ctx):
        return energy.global_energy(item[0])

    def check(self, item, output, ctx):
        # global energy is non-positive and invariant under an R-matrix
        # swap of any two adjacent factors
        x, k = item
        pair = rmat.rmatrix(TensorElement(x.factors[k : k + 2]))
        swapped = TensorElement(x.factors[:k] + pair.factors + x.factors[k + 2 :])
        return int(output > 0 or energy.global_energy(swapped) != output)


class SparsePairs:
    """``rmatrix`` and ``local_energy`` on seeded pairs from large crystals."""

    name = "sparse_pairs"
    in_process = True
    count = 2000
    shapes = tuple(itertools.product(
        (KRParams(8, 4, 3), KRParams(8, 3, 2), KRParams(8, 2, 4), KRParams(8, 5, 2)), repeat=2
    ))

    def make_inputs(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        return [
            TensorElement((sample_pattern(rng, a), sample_pattern(rng, b)))
            for a, b in balanced_shapes(rng, self.shapes, self.count)
        ]

    def weight(self, item):
        return 1

    def run(self, item, ctx):
        image = rmat.rmatrix(item)
        return sort_keys(image), energy.local_energy(item)

    def check(self, item, output, ctx):
        # R is an involution that swaps the shapes and keeps the weight;
        # H is constant on classical components and is minus the entry sum
        # of the first factor at the highest weight element
        image_keys, h = output
        image = rmat.rmatrix(item)
        hw, _ = rmat.to_highest_weight(item)
        ok = (
            sort_keys(image) == image_keys
            and rmat.rmatrix(image) == item
            and [b.params for b in image.factors] == [b.params for b in reversed(item.factors)]
            and image.classical_weight() == item.classical_weight()
            and h == -hw.factors[0].total()
        )
        return int(not ok)


class Exhaustive:
    """The verification use: whole products, oracles, graphs, perfectness.

    An item is one verification job: every ordered pair whose left factor
    has classical node r through both oracles, the B^{3,3} graph with every
    color pair's regularity check, or one perfectness check.  The inputs
    are whole crystals, so they do not depend on the seed.
    """

    name = "exhaustive"
    in_process = True
    oracle_shapes = tuple(KRParams(3, r, s) for r in range(1, 4) for s in range(1, 3))
    graph_shape = KRParams(6, 3, 3)
    color_pairs = tuple(itertools.combinations(range(graph_shape.n + 1), 2))
    perfect_shapes = (KRParams(4, 2, 3), KRParams(5, 3, 2))

    def make_inputs(self, seed):
        items = [("oracle", r) for r in sorted({p.r for p in self.oracle_shapes})]
        items.append(("graph", self.graph_shape))
        items += [("perfect", p) for p in self.perfect_shapes]
        return items

    def weight(self, item):
        kind, params = item
        if kind == "oracle":
            return sum(map(_crystal_size, self._left(params))) * sum(
                map(_crystal_size, self.oracle_shapes)
            )
        if kind == "graph":
            # each vertex is built once and checked once per color pair
            return _crystal_size(params) * (1 + len(self.color_pairs))
        return _crystal_size(params)

    def run(self, item, ctx):
        kind, params = item
        if kind == "oracle":
            rows, bad = [], 0
            for left, right in itertools.product(self._left(params), self.oracle_shapes):
                sigma = rmat.rmatrix_oracle(left, right)
                table = energy.local_energy_oracle(left, right, sigma=sigma)
                image = sorted((sort_keys(x), sort_keys(y), table[x]) for x, y in sigma.items())
                rows.append(digest(image))
                bad += sum(
                    rmat.rmatrix(x) != y or energy.local_energy(x) != table[x]
                    for x, y in sigma.items()
                )
            return kind, tuple(rows), bad
        if kind == "graph":
            g = graph.build_graph(patterns.enumerate_crystal(params), range(params.n + 1))
            reports = [regularity.is_regular_rank2(g, pair) for pair in self.color_pairs]
            verdicts = tuple((r.ok, r.num_components, len(r.violations)) for r in reports)
            return kind, len(g.vertices), len(g.edges), digest(g.edges), verdicts
        report = perfect.check_perfect(params)
        return kind, report.ok, report.cardinality, report.min_profile_level, len(report.violations)

    def _left(self, r):
        return [p for p in self.oracle_shapes if p.r == r]

    def check(self, item, output, ctx):
        if digest(output) != EXPECTED[self.name][_task_key(item)]:
            return self.weight(item)
        kind = output[0]
        if kind == "oracle":
            return output[2]
        if kind == "graph":
            size = _crystal_size(item[1])
            return sum(size for ok, _, _ in output[4] if not ok)
        return 0 if output[1] else self.weight(item)


def _task_key(item):
    kind, p = item
    return f"{kind}/r={p}" if kind == "oracle" else f"{kind}/{p.n},{p.r},{p.s}"


def _crystal_size(params):
    """|B^{r,s}| by a profile DP over the staircase sums (no patterns built)."""
    states = {(0,) * params.num_cols: 1}
    for _ in range(params.num_rows):
        for pi in range(params.num_cols):
            grown = {}
            for state, ways in states.items():
                base = max(state[pi - 1] if pi else 0, state[pi])
                for total in range(base, params.s + 1):
                    key = state[:pi] + (total,) + state[pi + 1 :]
                    grown[key] = grown.get(key, 0) + ways
            states = grown
    return sum(states.values())


class Cli:
    """``krpoly`` as subprocesses, one at a time, on fixed argv and seeded files."""

    name = "cli"
    in_process = False
    # commands run on seeded pattern files: key -> (subcommand, shapes)
    seeded = {
        "energy2": ("energy", (KRParams(3, 2, 2), KRParams(3, 1, 2))),
        "energy4": (
            "energy",
            (KRParams(3, 1, 2), KRParams(3, 2, 1), KRParams(3, 3, 2), KRParams(3, 2, 2)),
        ),
        "rmatrix": ("rmatrix", (KRParams(5, 3, 2), KRParams(5, 2, 3))),
    }
    fixed = {
        "verify": ("verify", "--suite", "all", "--n", "3", "--max-s", "2"),
        "perfect": ("perfect", "--n", "4", "--r", "2", "--s", "3"),
        "graph_json": ("graph", "--factor", "4,2,2", "--factor", "4,1,2", "--factor", "4,3,1",
                       "--format", "json"),
        "graph_dot": ("graph", "--factor", "4,2,2", "--factor", "4,1,2", "--factor", "4,3,1",
                      "--format", "dot"),
        "enumerate": ("enumerate", "--n", "7", "--r", "3", "--s", "3"),
    }

    def make_inputs(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        items = [(key, argv, ()) for key, argv in self.fixed.items()]
        for key, (command, shapes) in self.seeded.items():
            files = tuple(sample_pattern(rng, p).to_dict() for p in shapes)
            items.append((key, (command,), files))
        return items

    def weight(self, item):
        return 1

    def run(self, item, ctx):
        key, argv, pattern_dicts = item
        argv = list(argv)
        for i, data in enumerate(pattern_dicts):
            path = ctx["workdir"] / f"{key}-{i}.json"
            path.write_text(json.dumps(data), encoding="utf-8")
            argv.append(str(path))
        if argv[0] == "energy":
            argv.append("--both")
        report = ctx["workdir"] / f"{key}.report.json"
        flags = ["--trace"] if ctx.get("trace") else []
        cmd = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(report), *flags, *argv]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ctx["root"], timeout=120)
        child = json.loads(report.read_text(encoding="utf-8"))
        # the child's probe samples and the time they took belong to this item
        ctx["probe"].absorb(child["marks"], child["durations"], child["spent"])
        ctx.setdefault("children", {})[key] = child
        out = proc.stdout
        ctx.setdefault("stdout", {})[key] = out
        return key, proc.returncode, len(out), hashlib.sha256(out).hexdigest()

    def check(self, item, output, ctx):
        key, code, _, sha = output
        if code != 0:
            return 1
        if key in EXPECTED[self.name]:
            return int(sha != EXPECTED[self.name][key])
        return int(not self._seeded_ok(item, ctx["stdout"][key]))

    def _seeded_ok(self, item, stdout):
        # the output must match the library called in-process; energy also
        # compares its closed form with the recursion oracle itself
        try:
            result = json.loads(stdout)
        except ValueError:
            return False
        x = TensorElement(tuple(patterns.pattern_from_dict(d) for d in item[2]))
        if item[1][0] == "rmatrix":
            return result == rmat.rmatrix(x).to_dict()
        expected = energy.local_energy(x) if len(x.factors) == 2 else energy.global_energy(x)
        return (
            result.get("agree") is True
            and result.get("closed_form") == expected
            and result.get("oracle") == expected
        )


WORKLOADS = {w.name: w for w in (Paths(), SparsePairs(), Exhaustive(), Cli())}

