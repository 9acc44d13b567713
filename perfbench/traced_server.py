"""Run ``repro serve start`` with layer tracing installed.

Usage: ``python3 perfbench/traced_server.py SPANS_OUT serve start ...``
(the arguments after ``SPANS_OUT`` go to the repro CLI unchanged).  The
server's spans are written to ``SPANS_OUT`` when it shuts down, for the
benchmark to place under the client round trips that caused them.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv) -> int:
    spans_out, *cli = argv
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.tracing import Tracer
    from repro.cli import main as repro_main

    tracer = Tracer("server")
    with tracer:
        code = repro_main(cli)
    tracer.write(spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
