"""One batch sample in a fresh interpreter: set up, run one spec, report.

Usage (``run.py`` starts this; ``src/`` must be on ``PYTHONPATH``)::

    python3 perfbench/child.py SPEC.json RESULT.json [--trace SPANS.jsonl]

Set-up is what every CLI call pays: ``import repro.cli``, loading the
scenario file and ``ExecutionConfig.resolve``.  The run is
``run_scenario`` through to the rendered text.  RESULT.json carries
``perf_counter`` stamps (one clock for all processes on a host), the
output digest and the peak RSS; with ``--trace`` it also carries the
span summary and counters, and SPANS.jsonl every span.
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MB."""
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    # ru_maxrss is KiB on Linux and bytes on macOS.
    return kb / (1024.0 * 1024.0) if platform.system() == "Darwin" else kb / 1024.0


def main(argv: list[str]) -> int:
    spec_path, out_path = Path(argv[0]), Path(argv[1])
    spans_path = Path(argv[3]) if len(argv) > 3 and argv[2] == "--trace" else None
    import workloads  # perfbench/ is the script dir, so first on sys.path

    t0 = perf_counter()
    import repro.cli  # noqa: F401  (the per-process import every CLI run pays)

    t1 = perf_counter()
    tracer = None
    if spans_path is not None:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    t2 = perf_counter()
    from repro.scenarios import load_scenario, run_scenario

    spec = load_scenario(spec_path)
    t3 = perf_counter()
    rx = spec.execution.resolve()
    ready = perf_counter()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run_scenario(spec, rx)
    done = perf_counter()
    text = buf.getvalue()
    result = {
        "ready": ready,
        "done": done,
        "exit_code": code,
        "output_sha256": workloads.output_digest(text),
        "output_bytes": len(text.encode()),
        "peak_rss_mb": peak_rss_mb(),
        "backend": rx.backend.name if rx.backend is not None else "local",
        "engine": rx.engine,
        "setup": {"cli.import_s": t1 - t0, "scenarios.load_s": t3 - t2,
                  "runtime.config.resolve_s": ready - t3},
    }
    if tracer is not None:
        result["spans"] = tracer.summary()
        result["counts"] = dict(tracer.counts)
        tracer.dump(spans_path)
    out_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
