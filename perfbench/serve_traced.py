"""``repro serve`` with the lab-layer wrappers of ``tracing.py``.

Usage: ``serve_traced.py DUMP serve [repro serve options...]``.  The
server runs as ``python -m repro serve`` would; when it stops, the
totals (calls, seconds, self seconds) of its ``Job.key`` and
``ResultCache.get``/``put`` calls are written to ``DUMP`` as JSON.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer, install_lab  # noqa: E402


def main() -> int:
    from repro.cli import main as cli_main

    dump = Path(sys.argv[1])
    tracer = Tracer("server")
    install_lab(tracer)
    try:
        return cli_main(sys.argv[2:])
    finally:
        tracer.uninstall()
        dump.write_text(json.dumps(tracer.totals))


if __name__ == "__main__":
    sys.exit(main())
