"""Compare two sets of benchmark run records, refusing mixed hosts.

Usage, from the repository root::

    python3 perfbench/compare.py --base perfbench/_work/records/A*.json \
        --new perfbench/_work/records/B*.json

For each workload and metric it prints the median and quartiles of
each side and the ratio of the medians.  Records whose host stamps
(hostname, machine, nproc, Python/numpy/scipy versions) differ are
never paired: the command exits 2 and names the difference.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from stamp import HOST_KEYS


def load(paths: list[Path]) -> list[dict]:
    return [json.loads(p.read_text()) for p in paths]


def host_mismatch(records: list[dict]) -> str | None:
    first = records[0]["stamp"]
    for rec in records[1:]:
        for key in HOST_KEYS:
            if rec["stamp"].get(key) != first.get(key):
                return (f"{key} differs: {first.get(key)!r} vs "
                        f"{rec['stamp'].get(key)!r}")
    return None


def metric_values(records: list[dict]) -> dict[tuple[str, str], list[float]]:
    out: dict[tuple[str, str], list[float]] = defaultdict(list)
    for rec in records:
        for name, m in rec["reported"].items():
            out[(rec["workload"], name)].append(m["value"])
        for name, value in rec.get("client", {}).items():
            out[(rec["workload"], name)].append(value)
    return out


def describe(values: list[float]) -> str:
    med = statistics.median(values)
    if len(values) < 2:
        return f"{med:.6g} (n=1)"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}] (n={len(values)})"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", type=Path, required=True)
    parser.add_argument("--new", nargs="+", type=Path, required=True)
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.new)
    problem = host_mismatch(base + new)
    if problem:
        print(f"refusing to compare records from different hosts: {problem}",
              file=sys.stderr)
        return 2
    bvals, nvals = metric_values(base), metric_values(new)
    for key in sorted(set(bvals) & set(nvals)):
        b, n = bvals[key], nvals[key]
        bmed = statistics.median(b)
        ratio = statistics.median(n) / bmed if bmed else float("nan")
        print(f"{key[0]:15s} {key[1]:30s} base {describe(b)}  "
              f"new {describe(n)}  new/base {ratio:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
