"""The ``serve_mixed`` load generator: a closed loop of ``query_server`` calls.

Usage (``run.py`` starts this; ``src/`` must be on ``PYTHONPATH``)::

    python3 perfbench/loadgen.py URL REQUESTS.json THREADS TIMEOUT_S RESULT.json

REQUESTS.json is a list of ``{"spec": ..., "expected": sha256}``.  Each
of THREADS client threads takes the next request, sends it as a sync
``/run`` and waits for the reply before taking another.  Every reply is
checked against its reference digest.  RESULT.json holds the wall time
of the whole loop and one row per request.
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path
from time import perf_counter

import workloads


def check_response(snap: dict, expected: str, ms: float) -> dict:
    """One served response: correct bytes, and warm (no misses) or not."""
    result = snap.get("result") or {}
    store = result.get("store") or {}
    output = result.get("output")
    ok = (snap.get("state") == "done" and result.get("exit_code") == 0
          and isinstance(output, str)
          and workloads.output_digest(output) == expected)
    row = {
        "ok": ok,
        "ms": ms,
        "job": snap.get("id"),
        "warm": store.get("misses", 1) == 0,
        "lookups": store.get("hits", 0) + store.get("misses", 0),
    }
    if not ok:
        row["error"] = f"job {snap.get('id')} {snap.get('state')}: " + (
            snap.get("error") or "output differs from the reference")
    return row


def closed_loop(url: str, requests: list[dict], threads: int,
                timeout: float) -> list[dict]:
    from repro.serving import query_server

    rows: list[dict] = [
        {"ok": False, "ms": 0.0, "job": None, "warm": False, "lookups": 0,
         "error": "not sent"} for _ in requests]
    cursor = iter(range(len(requests)))
    lock = threading.Lock()

    def client() -> None:
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            t0 = perf_counter()
            try:
                snap = query_server(url, {"scenario": requests[i]["spec"]},
                                    mode="sync", timeout=timeout)
            except Exception as exc:  # noqa: BLE001 - every failure is a row
                rows[i].update(error=f"{type(exc).__name__}: {exc}",
                               ms=(perf_counter() - t0) * 1000.0)
                continue
            rows[i] = check_response(snap, requests[i]["expected"],
                                     (perf_counter() - t0) * 1000.0)

    pool = [threading.Thread(target=client) for _ in range(threads)]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    return rows


def main(argv: list[str]) -> int:
    url, requests_path, threads, timeout, out_path = argv
    requests = json.loads(Path(requests_path).read_text())
    import repro.serving  # noqa: F401  (imported before the clock starts)

    t0 = perf_counter()
    rows = closed_loop(url, requests, int(threads), float(timeout))
    run_s = perf_counter() - t0
    Path(out_path).write_text(json.dumps({"run_s": run_s, "rows": rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
