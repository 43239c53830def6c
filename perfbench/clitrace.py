"""``python -m reptrace.cli`` with the layer wrappers installed.

Used by the traced cli-demo run: it behaves exactly like the CLI and, on
exit, writes the span aggregate to the file named by PERFBENCH_TRACE_OUT.
"""

import json
import os
import sys

from tracing import Instrumentation, Tracer

if __name__ == "__main__":
    tracer = Tracer()
    instrumentation = Instrumentation(tracer)
    from reptrace import cli

    try:
        with instrumentation.active():
            code = cli.main(sys.argv[1:])
    finally:
        with open(os.environ["PERFBENCH_TRACE_OUT"], "w", encoding="utf-8") as fh:
            json.dump(tracer.aggregate(), fh)
    sys.exit(code)
