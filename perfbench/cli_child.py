"""Run one ``wallcross`` command under the span tracer.

Usage: python3 perfbench/cli_child.py TRACE_OUT.json <wallcross arguments>

The exit code, stdout and stderr are those of the command; the tracer's
aggregates are written to TRACE_OUT.json for the parent to merge.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import wallcross.cli  # noqa: E402  (imported first so the tracer sees it)
from tracer import Tracer  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return wallcross.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(out, "w") as fh:
            json.dump(tracer.export(), fh)


if __name__ == "__main__":
    sys.exit(main())
