"""Run one gk3 CLI command under the tracer.

Usage: python3 clitrace.py OUT ARG...   (ARG... as given to the gk3 command)

Imports ``gk3.cli`` (timed as the import cost), installs the tracer, runs
``gk3.cli:main`` on the arguments and writes the tracer's snapshot and
spans to OUT as one JSON object.  Exits with the command's exit code.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def main() -> int:
    out = sys.argv[1]
    start = time.perf_counter()
    import gk3.cli

    import_s = time.perf_counter() - start
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return gk3.cli.main(sys.argv[2:])
    finally:
        snapshot = tracer.snapshot()
        snapshot["import_s"] = import_s
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"snapshot": snapshot, "spans": tracer.span_rows()}, fh)


if __name__ == "__main__":
    sys.exit(main())
