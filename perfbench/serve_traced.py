"""``repro.cli serve`` with the benchmark's tracer installed.

Usage: ``python3 perfbench/serve_traced.py SPANS_JSON <serve arguments...>``.
Serves exactly like ``python -m repro.cli serve <serve arguments...>``.  On
SIGTERM it writes every recorded span to ``SPANS_JSON`` and exits at once.
"""

from __future__ import annotations

import os
import signal
import sys

from tracer import Tracer, install


def main(argv: list[str]) -> int:
    spans_path, serve_args = argv[0], argv[1:]
    from repro.cli import main as cli_main

    tracer = Tracer()
    install(tracer)

    def dump_and_exit(_signum, _frame) -> None:
        tracer.dump(spans_path)
        os._exit(0)

    signal.signal(signal.SIGTERM, dump_and_exit)
    return cli_main(["serve", *serve_args])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
