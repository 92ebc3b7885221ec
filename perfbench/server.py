"""The ``serve_mixed`` server process: ``repro.cli serve``, optionally traced.

Usage (``run.py`` starts this; ``src/`` must be on ``PYTHONPATH``)::

    python3 perfbench/server.py RESULT.json [--trace SPANS.jsonl] -- SERVE_ARGS...

It runs ``repro.cli.main(["serve", *SERVE_ARGS])`` unchanged, so the
server prints its usual ``listening on host:port`` line and shuts down
cleanly on SIGINT.  On the way out it writes RESULT.json: the import
time, the peak RSS of the server plus its reaped pool children, and
with ``--trace`` the span summary, counters and per-job queue waits.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

from child import peak_rss_mb


def main(argv: list[str]) -> int:
    split = argv.index("--")
    opts, serve_args = argv[:split], argv[split + 1:]
    out_path = Path(opts[0])
    spans_path = Path(opts[2]) if len(opts) > 2 and opts[1] == "--trace" else None
    t0 = perf_counter()
    import repro.cli

    t1 = perf_counter()
    tracer = None
    if spans_path is not None:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracing.install_serving(tracer)
    try:
        code = repro.cli.main(["serve", *serve_args])
    finally:
        result = {"peak_rss_mb": peak_rss_mb(),
                  "setup": {"cli.import_s": t1 - t0}}
        if tracer is not None:
            result["spans"] = tracer.summary()
            result["counts"] = dict(tracer.counts)
            result["queue_waits_ms"] = tracing.queue_waits_ms(tracer)
            tracer.dump(spans_path)
        out_path.write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
