"""One `factor-regimes` subcommand run with spans, as its own process.

    python3 bench/replay.py SPANS_OUT SUBCOMMAND [OPTIONS...]

Imports `factorregimes.cli` inside the span ``cli.import``, then replaces
every library function that module imported by name with a wrapper that
runs the call inside a span named ``<module>.<function>``. It then runs
``cli.main`` on the command line as given, so the stage executes the
CLI's own code, argument parsing, printing and file writing included.
The spans are written to SPANS_OUT as JSON when the subcommand returns,
and the exit code is the subcommand's. The BLAS thread count is whatever
the parent set in the environment.
"""

from __future__ import annotations

import functools
import inspect
import sys

from spans import Tracer


def instrument(module, tr: Tracer) -> None:
    """Wrap the package functions `module` imported from its sibling modules."""
    for name, obj in list(vars(module).items()):
        home = getattr(obj, "__module__", None) or ""
        if (inspect.isfunction(obj) and home.startswith("factorregimes.")
                and home != module.__name__):
            setattr(module, name, _spanned(tr, f"{home.rsplit('.', 1)[1]}.{name}", obj))


def _spanned(tr, span_name, fn):
    @functools.wraps(fn)
    def call(*args, **kwargs):
        with tr.span(span_name):
            return fn(*args, **kwargs)
    return call


def main(argv) -> int:
    spans_out, *cli_argv = argv
    tr = Tracer()
    with tr.span("cli.import"):
        from factorregimes import cli
    instrument(cli, tr)
    try:
        return cli.main(cli_argv)
    finally:
        tr.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
