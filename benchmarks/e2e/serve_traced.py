"""``tardis serve`` with the benchmark's span wrappers installed.

    python benchmarks/e2e/serve_traced.py --spans OUT.jsonl -- serve --port 0 ...

Installs the server-side wrappers of ``tracewrap``, hands everything after
``--`` to ``repro.tools.cli.main`` unchanged, and writes the spans when the
server has shut down. The untraced passes never start this file: they run
``python -m repro.tools.cli serve`` and so unmodified code.
"""

from __future__ import annotations

import argparse
import sys
from typing import List

from repro.tools import cli

from tracewrap import TARGETS, Tracer


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="span file to write at exit")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    tracer = Tracer("server")
    tracer.install(TARGETS["server"])
    try:
        return cli.main(cli_args)
    finally:
        tracer.uninstall()
        tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
