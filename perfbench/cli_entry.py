"""One traced ``iddlab`` CLI invocation, started by the cli workload.

    python perfbench/cli_entry.py TRACE_OUT [iddlab arguments ...]

Times the import of ``iddlab.cli`` and the call ``main(argv)``, with the
benchmark's tracer installed around the call, writes both timings and the
spans to TRACE_OUT as JSON, and exits with main's exit code.
"""

import json
import sys
from time import perf_counter


def run(trace_path: str, argv: list) -> int:
    start = perf_counter()
    import iddlab.cli

    imported = perf_counter()
    from tracing import Tracer

    tracer = Tracer()
    tracer.op = 0
    tracer.install()
    try:
        main_start = perf_counter()
        code = iddlab.cli.main(argv)
        main_end = perf_counter()
    finally:
        tracer.uninstall()
    record = {
        "import_ms": (imported - start) * 1e3,
        "main_ms": (main_end - main_start) * 1e3,
        "spans": tracer.spans,
    }
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2:]))
