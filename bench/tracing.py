"""Spans around krpoly's public functions, recorded from outside the library.

``Tracer.install`` replaces each function in ``TRACED`` wherever a krpoly
module (or a default argument) holds it, with a wrapper that records a
span ``(name, start, end, parent, size)``.  ``size`` is a count read off
the result (elements enumerated, transport-word length, vertices, ...).
Spans stay in memory until the round ends.
"""

from __future__ import annotations

import functools
import sys
import time
import types

# span name -> (module, function, size of the result or None)
TRACED = {
    "enumerate": ("krpoly.patterns", "enumerate_crystal", len),
    "to_hw": ("krpoly.rmatrix", "to_highest_weight", lambda res: len(res[1])),
    "rmatrix": ("krpoly.rmatrix", "rmatrix", None),
    "rmatrix_oracle": ("krpoly.rmatrix", "rmatrix_oracle", len),
    "local_energy": ("krpoly.energy", "local_energy", None),
    "global_energy": ("krpoly.energy", "global_energy", None),
    "energy_oracle": ("krpoly.energy", "local_energy_oracle", len),
    "build_graph": ("krpoly.graph", "build_graph", lambda g: (len(g.vertices), len(g.edges))),
    "closure": ("krpoly.graph", "closure", len),
    "check_perfect": ("krpoly.perfect", "check_perfect", None),
    "regularity": ("krpoly.regularity", "is_regular_rank2", lambda rep: rep.num_components),
}

CLI_COMMANDS = ("verify", "perfect", "graph", "energy", "enumerate")


def cache_stats():
    """Summed ``cache_info`` of every ``lru_cache`` left in krpoly.patterns.

    Returns None once the module holds no such cache.
    """
    from krpoly import patterns

    infos = [obj.cache_info() for obj in vars(patterns).values() if hasattr(obj, "cache_info")]
    if not infos:
        return None
    return {
        "entries": sum(i.currsize for i in infos),
        "hits": sum(i.hits for i in infos),
        "misses": sum(i.misses for i in infos),
    }


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, size):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                counted = size(result) if size and result is not None else None
                spans[sid] = (name, start, end, parent, counted)

        return traced

    def install(self):
        """Wrap every traced function that still exists."""
        modules = {k: m for k, m in sys.modules.items() if k.split(".")[0] == "krpoly"}
        swaps = {}
        for name, (mod, attr, size) in TRACED.items():
            original = getattr(modules.get(mod), attr, None)
            if original is not None:
                swaps[id(original)] = (original, self.wrap(name, original, size))

        def swapped(value):
            hit = swaps.get(id(value))
            return hit[1] if hit and hit[0] is value else value

        for module in modules.values():
            for attr, value in list(vars(module).items()):
                # a default argument (global_energy's energy=local_energy)
                # holds the original function too
                if isinstance(value, types.FunctionType) and value.__defaults__:
                    value.__defaults__ = tuple(swapped(d) for d in value.__defaults__)
                if swapped(value) is not value:
                    setattr(module, attr, swapped(value))

    def graft(self, name, start, end, spans):
        """Add a root span and, under it, spans recorded in a child process."""
        root = len(self.spans)
        self.spans.append((name, start, end, -1, None))
        for span_name, s, e, up, size in spans:
            self.spans.append((span_name, s, e, root if up == -1 else up + root + 1, size))


def layer_metrics(spans, cache, cli_times, stdout_bytes):
    """Per-layer metrics from one traced round.

    ``*_s`` metrics are the time covered by the outermost spans of a name
    (a span nested in one of the same name is not counted twice);
    ``rmatrix.self_s`` is rmatrix time minus its direct children.
    """
    by_name = {}
    for sid, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(sid)

    def covered(name):
        total = 0.0
        for sid in by_name.get(name, ()):
            up = spans[sid][3]
            while up != -1 and spans[up][0] != name:
                up = spans[up][3]
            if up == -1:
                total += spans[sid][2] - spans[sid][1]
        return total

    def count(name):
        return len(by_name.get(name, ()))

    def sizes(name):
        return [spans[sid][4] for sid in by_name.get(name, ()) if spans[sid][4] is not None]

    child_time = {}
    for name, start, end, parent, _ in spans:
        if parent != -1:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    rmatrix_self = sum(
        spans[sid][2] - spans[sid][1] - child_time.get(sid, 0.0)
        for sid in by_name.get("rmatrix", ())
    )
    words = sizes("to_hw")
    graphs = sizes("build_graph")
    calls = cache["hits"] + cache["misses"] if cache else 0
    metrics = {
        "patterns.enumerate_s": covered("enumerate"),
        "patterns.elements_enumerated": sum(sizes("enumerate")),
        "patterns.op_cache_entries": cache["entries"] if cache else 0,
        "patterns.op_cache_hit_ratio": cache["hits"] / calls if calls else 0.0,
        "tensor.raise_steps": sum(words),
        "tensor.mean_word_len": sum(words) / len(words) if words else 0.0,
        "rmatrix.calls": count("rmatrix"),
        "rmatrix.self_s": rmatrix_self,
        "rmatrix.to_hw_s": covered("to_hw"),
        "energy.global_s": covered("global_energy"),
        "energy.global_rmatrix_calls": sum(
            1 for sid in by_name.get("rmatrix", ()) if spans[sid][3] != -1
            and spans[spans[sid][3]][0] == "global_energy"
        ),
        "energy.local_calls": count("local_energy"),
        "energy.local_s": covered("local_energy"),
        "rmatrix.oracle_s": covered("rmatrix_oracle"),
        "energy.oracle_s": covered("energy_oracle"),
        "oracle.elements": sum(sizes("rmatrix_oracle")) + sum(sizes("energy_oracle")),
        "graph.build_s": covered("build_graph"),
        "graph.vertices": sum(v for v, _ in graphs),
        "graph.edges": sum(e for _, e in graphs),
        "graph.closure_s": covered("closure"),
        "graph.closure_size": sum(sizes("closure")),
        "perfect.check_s": covered("check_perfect"),
        "regularity.check_s": covered("regularity"),
        "regularity.components": sum(sizes("regularity")),
    }
    for command in CLI_COMMANDS:
        metrics[f"cli.{command}_s"] = cli_times.get(command, 0.0)
    metrics["cli.stdout_bytes"] = stdout_bytes
    return metrics

