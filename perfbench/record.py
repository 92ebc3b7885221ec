"""Record the reference output digest of every spec the benchmark can run.

Each reference comes from the serial interpreted spelling of the spec
(``workers: 1``, ``engine: interpreted``, no store, no shards), run
through ``repro.scenarios.run_scenario`` exactly as ``repro.cli
scenario run`` would.  The benchmark then checks every measured output,
and every served response, against these digests byte for byte.

Run from the repository root::

    python3 perfbench/record.py                 # full scale -> references.json
    python3 perfbench/record.py --scale tiny --out /path/refs.json

References are computed on one worker process per CPU.  Re-record only
when the program's output is meant to change.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import multiprocessing
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (perfbench/ is on sys.path as the script dir)


def reference(case: workloads.SpecCase) -> tuple[str, dict]:
    from repro.scenarios import ScenarioSpec, run_scenario

    spec = ScenarioSpec.from_dict(workloads.serial_reference_spec(case.spec))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run_scenario(spec)
    if code != 0:
        raise RuntimeError(f"{case.ref_id}: reference run exited {code}")
    text = buf.getvalue()
    return case.ref_id, {
        "spec": workloads.spec_digest(case.spec),
        "sha256": workloads.output_digest(text),
        "bytes": len(text.encode()),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=workloads.SCALES, default="full")
    parser.add_argument("--out", type=Path, default=HERE / "references.json")
    args = parser.parse_args(argv)
    cases = workloads.all_cases(args.scale)
    # Longest first, so a pool does not end on one long reference.
    cases.sort(key=lambda c: not c.ref_id.startswith("fig14_ensemble"))
    with multiprocessing.get_context("spawn").Pool(os.cpu_count()) as pool:
        entries = dict(pool.imap_unordered(reference, cases))
    args.out.write_text(json.dumps(dict(sorted(entries.items())), indent=1) + "\n")
    print(f"recorded {len(entries)} references to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
