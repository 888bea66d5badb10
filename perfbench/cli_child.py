"""Traced CLI child: ``python cli_child.py SPANS_JSON <sobolev argv...>``.

Installs the same per-module wrappers as the in-process traced run, then calls
``sobolev1d.cli.main(argv)`` inside a ``cli.<command>`` span and writes every
span to SPANS_JSON on the way out.  Needs ``src`` on PYTHONPATH.
"""

import sys

from tracing import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import sobolev1d.cli

    tracer = Tracer()
    tracer.op = 0
    tracer.install()
    try:
        return tracer.span(f"cli.{argv[0]}", sobolev1d.cli.main, argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
