"""One krpoly command line, as the cli workload runs it.

    python bench/cli_child.py REPORT.json [--trace] <krpoly arguments...>

Runs ``krpoly.cli.main`` on the arguments while the speed probe samples on
a timer (and, with --trace, while spans are recorded), then writes the
probe samples, the spans and the operator-cache counters to REPORT.json
and exits with the command's exit code.

The command's stdout is held in memory until the timer has stopped: a
pipe write interrupted by the timer signal can lose output.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

from speed import SpeedProbe
from tracing import Tracer, cache_stats


def main(argv):
    report, args = argv[0], argv[1:]
    trace = args[:1] == ["--trace"]
    if trace:
        args = args[1:]
    from krpoly import cli

    tracer = Tracer()
    if trace:
        tracer.install()
    probe = SpeedProbe()
    captured = io.StringIO()
    probe.start_timer()
    try:
        with contextlib.redirect_stdout(captured):
            return cli.main(args)
    finally:
        probe.stop_timer()
        sys.stdout.write(captured.getvalue())
        sys.stdout.flush()
        with open(report, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "marks": probe.marks,
                    "durations": probe.durations,
                    "spent": probe.spent,
                    "spans": tracer.spans,
                    "cache": cache_stats(),
                },
                handle,
            )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
