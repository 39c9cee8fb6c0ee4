"""Traced `decohist check` in a fresh interpreter.

Usage: python3 perfbench/cli_child.py check FIXTURE [decohist check options]

Times `import decohist`, then runs decohist.cli.main in-process with every
public call spanned, and prints one JSON document: the exit status, the
report the CLI wrote, the spans and the computed counts. The report must be
byte-identical to an untraced `python -m decohist.cli` run with the same
arguments; the harness checks that.
"""

import contextlib
import io
import json
import sys
import time

start = time.perf_counter()
import decohist  # noqa: E402
import decohist.cli  # noqa: E402

imported = time.perf_counter()

from spans import IMPORT_SPAN, Tracer  # noqa: E402


def main() -> None:
    tracer = Tracer()
    restore = tracer.install()
    report = io.StringIO()
    tracer.begin_op(0, time.perf_counter())
    try:
        with contextlib.redirect_stdout(report):
            code = decohist.cli.main(sys.argv[1:])
    finally:
        tracer.end_op(time.perf_counter())
        restore()
    # The child's root span (index 0) becomes the import span; the spans it
    # parented become top-level, to be hung under the harness's operation.
    spans = [[IMPORT_SPAN, "import", start, imported, None, None]]
    spans += [[name, layer, s, e, None if parent == 0 else parent, None]
              for name, layer, s, e, parent, _ in tracer.spans[1:]]
    json.dump({"exit": code, "stdout": report.getvalue(), "spans": spans,
               "counts": tracer.counts[0]}, sys.stdout)


if __name__ == "__main__":
    main()
