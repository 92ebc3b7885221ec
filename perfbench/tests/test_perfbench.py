"""Self-tests of the benchmark at tiny scale.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

They record tiny-scale references into a temporary file, then run the
benchmark exactly as a user would (``python3 perfbench/run.py ...``).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import loadgen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 3


@pytest.fixture(scope="module")
def refs(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("perfbench") / "refs.json"
    subprocess.run(
        [sys.executable, str(BENCH / "record.py"), "--scale", "tiny",
         "--out", str(path)],
        cwd=ROOT, check=True, capture_output=True)
    return path


def bench(workload: str, trace: int, refs: Path) -> tuple[int, dict, dict]:
    """Run the benchmark; return (exit code, final JSON line, run record)."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny", "--references", str(refs)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    record_line = next(l for l in lines if l.startswith("perfbench: record "))
    record = json.loads((ROOT / record_line.split(" ", 2)[2]).read_text())
    return proc.returncode, json.loads(lines[-1]), record


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_has_name_and_unit(workload, trace, refs):
    code, out, record = bench(workload, trace, refs)
    assert code == 0, record.get("errors")
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float))
               for v in out["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in out["metrics"].values())
    stamp = record["stamp"]
    for key in ("nproc", "python", "numpy", "scipy", "source_digest",
                "backend", "engine"):
        assert stamp[key], key
    assert record["seed"] == SEED


def test_corrupted_reference_fails_the_run(refs, tmp_path):
    entries = json.loads(refs.read_text())
    case = workloads.batch_case("fig14_ensemble", SEED, "tiny")
    entries[case.ref_id]["sha256"] = "0" * 64
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(entries))
    code, out, _record = bench("fig14_ensemble", 0, bad)
    assert code == 1
    assert out["correct"] is False
    assert out["failed"] == out["attempted"] > 0


def test_served_response_with_altered_bytes_is_a_failure():
    text = "Figure 14 ...\n"
    snap = {"id": "job-1", "state": "done",
            "result": {"exit_code": 0, "output": text,
                       "store": {"hits": 46, "misses": 0, "puts": 0}}}
    good = loadgen.check_response(snap, workloads.output_digest(text), 1.0)
    assert good["ok"] and good["warm"]
    snap["result"]["output"] = text.replace("14", "15")
    bad = loadgen.check_response(snap, workloads.output_digest(text), 1.0)
    assert not bad["ok"] and "differs" in bad["error"]


@pytest.mark.parametrize("workload", ["geo_churn", "serve_mixed"])
def test_two_runs_give_identical_exact_counts(workload, refs):
    first = bench(workload, 1, refs)[2]["exact_counts"]
    second = bench(workload, 1, refs)[2]["exact_counts"]
    assert first == second
    assert any(first.values())


def test_compare_refuses_records_from_different_hosts(tmp_path, capsys):
    record = {"workload": "geo_churn", "reported": {},
              "stamp": {"hostname": "a", "machine": "x86_64", "nproc": 1,
                        "python": "3.11", "numpy": "2", "scipy": "1"}}
    other = json.loads(json.dumps(record))
    other["stamp"]["nproc"] = 2
    paths = []
    for i, rec in enumerate((record, other)):
        paths.append(tmp_path / f"r{i}.json")
        paths[-1].write_text(json.dumps(rec))
    assert compare.main(["--base", str(paths[0]), "--new", str(paths[1])]) == 2
    assert "nproc" in capsys.readouterr().err


def test_benchmark_json_matches_what_run_emits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
