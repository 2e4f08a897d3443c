"""Traced stand-in for ``python -m wmle.cli``.

Times the interpreter reference kernel (seconds to ``PERFBENCH_REF_OUT``),
then runs ``wmle.cli.main`` on the given arguments with the benchmark's span
wrappers installed, then writes the spans, counters and fit targets as JSON
to the path in ``PERFBENCH_SPANS``.  Exits with the CLI's own exit code.

    PERFBENCH_SPANS=spans.json python3 perfbench/cli_shim.py sweep --data ... --mode lehmer
"""

import json
import os
import sys

import common
import tracing


def main() -> int:
    common.write_child_reference()
    import wmle.cli

    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.trace_id = int(os.environ.get("PERFBENCH_TRACE_ID", "0"))
    run = tracer.wrap("cli.main", wmle.cli.main)
    tracer.enabled = True
    try:
        code = run(sys.argv[1:])
    finally:
        tracer.enabled = False
        with open(os.environ["PERFBENCH_SPANS"], "w", encoding="utf-8") as handle:
            json.dump({"spans": tracer.spans, "counts": tracer.counts, "targets": tracer.targets}, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
