#!/usr/bin/env python
"""Validate trace/observability artifacts against their exporter schemas.

Usage::

    python scripts/check_trace_schema.py PATH [PATH ...]

Thin CLI shim over :mod:`repro.trace.schema`, which holds the actual
validators (Chrome ``trace_event`` JSON from ``--trace-out``,
collapsed-stack flame text from ``--flame-out``, and the
``--prom-out`` Prometheus snapshot).  The format is sniffed from the
file content.  Exits 0 when every file is valid, 1 with a one-line
message on the first violation — CI runs it against freshly exported
artifacts so schema drift fails the build rather than silently
producing files Perfetto or a flame viewer reject.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.trace.schema import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
