"""The repository's performance benchmark.  See perfbench/README.md.

Run from the repository root::

    python3 perfbench/run.py --workload fig14_ensemble --seed 1 --seconds 30 --trace 0

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A wrong output
byte, a failed sample or request, or an exact count that does not
repeat makes ``correct`` false and the exit code 1.  The full run
record (host stamp, every metric, every sample) is written under
``perfbench/_work/records/``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path
from time import perf_counter

import stamp
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
SPANS = WORK / "spans"  # span dumps of traced runs, kept after the run
BUDGET_S = 170.0  # every run must end within 180 s

MIN_SAMPLES = 3  # batch samples per run (each traced/untraced half in trace mode)
MAX_SAMPLES = 40
SETUP_PROBES = 5  # serve_mixed server starts per untraced run

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics: name -> unit.  ``*_s`` span metrics are summed
# self time; ``*_ms`` are medians per call.
PER_LAYER = {
    "cli.import_s": "s",
    "scenarios.load_s": "s",
    "runtime.config.resolve_s": "s",
    "core.fast.compile_s": "s",
    "core.fast.compiles": "count",
    "core.fast.ensemble_s": "s",
    "core.fast.rows": "count",
    "core.fast.firings": "count",
    "core.fast.firings_per_s": "1/s",
    "core.simulator.init_s": "s",
    "core.simulator.run_s": "s",
    "core.simulator.runs": "count",
    "core.simulator.firings": "count",
    "core.simulator.firings_per_s": "1/s",
    "models.build_s": "s",
    "models.builds": "count",
    "topology.generate_s": "s",
    "topology.churn_schedule_s": "s",
    "topology.segments": "count",
    "runtime.sharding.merge_s": "s",
    "runtime.sweep.map_s": "s",
    "runtime.backend.map_s": "s",
    "runtime.backend.tasks": "count",
    "runtime.task_s": "s",
    "runtime.store.gets": "count",
    "runtime.store.hit_ratio": "ratio",
    "runtime.store.get_s": "s",
    "runtime.store.puts": "count",
    "runtime.store.put_s": "s",
    "runtime.store.put_bytes": "bytes",
    "energy.render_s": "s",
    "serving.parse_s": "s",
    "serving.submit_ms": "ms",
    "serving.queue_wait_ms": "ms",
    "serving.job_ms": "ms",
    "serving.http_ms": "ms",
    "serving.coalesced": "count",
    "warm_p50_ms": "ms",
    "warm_p99_ms": "ms",
    "miss_p50_ms": "ms",
    "miss_p90_ms": "ms",
    "queries_per_s": "1/s",
    "bench.trace_overhead_s": "s",
}
_SPAN_SELF_S = {
    "core.fast.compile_s": "core.fast.compile",
    "core.fast.ensemble_s": "core.fast.ensemble",
    "core.simulator.init_s": "core.simulator.init",
    "core.simulator.run_s": "core.simulator.run",
    "models.build_s": "models.build",
    "topology.generate_s": "topology.generate",
    "topology.churn_schedule_s": "topology.churn_schedule",
    "runtime.sharding.merge_s": "runtime.sharding.merge",
    "runtime.sweep.map_s": "runtime.sweep.map",
    "runtime.backend.map_s": "runtime.backend.map",
    "runtime.task_s": "runtime.task",
    "runtime.store.get_s": "runtime.store.get",
    "runtime.store.put_s": "runtime.store.put",
    "energy.render_s": "energy.render",
    "serving.parse_s": "serving.parse",
}
_SPAN_MEDIAN_MS = {
    "serving.submit_ms": "serving.submit",
    "serving.job_ms": "serving.job",
    "serving.http_ms": "serving.http",
}
#: Counts that must repeat exactly between two batch runs of one seed.
EXACT_COUNTS = (
    "core.simulator.firings", "core.simulator.runs", "core.fast.firings",
    "core.fast.rows", "core.fast.compiles", "models.builds",
    "topology.segments", "runtime.backend.tasks", "runtime.store.gets",
    "runtime.store.puts", "runtime.store.hits",
)


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, no references)."""


def child_env() -> dict[str, str]:
    """Children see only ``src/`` and no ``REPRO_*`` overrides.

    ``PYTHONHASHSEED`` is pinned so set iteration order, and with it
    the cost of a run, does not change from one sample to the next.
    Bytecode caching is always on, as for an installed package, so
    ``setup_s`` does not depend on the caller's environment.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


class References:
    """Recorded reference digests, keyed by spec id."""

    def __init__(self, path: Path) -> None:
        try:
            self.entries = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            raise BenchError(f"cannot read references {path}: {exc}") from None

    def expected(self, case: workloads.SpecCase) -> str:
        entry = self.entries.get(case.ref_id)
        if entry is None or entry["spec"] != workloads.spec_digest(case.spec):
            raise BenchError(
                f"no current reference for {case.ref_id}; "
                "re-record with perfbench/record.py")
        return entry["sha256"]


# -- batch workloads ---------------------------------------------------------


def run_sample(spec_path: Path, out_dir: Path, index: int, traced: bool,
               expected: str, deadline: float) -> dict:
    out = out_dir / f"sample{index}.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(spec_path), str(out)]
    if traced:
        cmd += ["--trace", str(SPANS / f"{out_dir.name}-sample{index}.jsonl")]
    spawn = perf_counter()
    try:
        proc = subprocess.run(
            cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=max(5.0, deadline - spawn))
    except subprocess.TimeoutExpired:
        return {"ok": False, "traced": traced, "error": "timed out"}
    if proc.returncode != 0 or not out.exists():
        return {"ok": False, "traced": traced,
                "error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}
    res = json.loads(out.read_text())
    sample = {
        "traced": traced,
        "setup_s": res["ready"] - spawn,
        "run_s": res["done"] - res["ready"],
        "peak_rss_mb": res["peak_rss_mb"],
        "backend": res["backend"],
        "engine": res["engine"],
        "ok": res["exit_code"] == 0 and res["output_sha256"] == expected,
    }
    if not sample["ok"]:
        sample["error"] = (f"exit {res['exit_code']}, output sha256 "
                           f"{res['output_sha256']} != reference {expected}")
    if traced:
        sample["layers"] = layer_values(res["spans"], res["counts"], res["setup"])
        sample["counts"] = {k: res["counts"].get(k, 0) for k in EXACT_COUNTS}
    return sample


def run_batch(args: argparse.Namespace, refs: References, out_dir: Path) -> dict:
    case = workloads.batch_case(args.workload, args.seed, args.scale)
    expected = refs.expected(case)
    spec_path = out_dir / "spec.json"
    spec_path.write_text(json.dumps(case.spec, indent=1))
    start = perf_counter()
    deadline = start + BUDGET_S
    need = 2 * MIN_SAMPLES if args.trace else MIN_SAMPLES
    samples: list[dict] = []
    while len(samples) < MAX_SAMPLES:
        # Trace mode alternates traced and untraced samples.
        traced = bool(args.trace) and len(samples) % 2 == 0
        samples.append(run_sample(spec_path, out_dir, len(samples), traced,
                                  expected, deadline))
        elapsed = perf_counter() - start
        per_sample = elapsed / len(samples)
        if len(samples) >= need and elapsed + per_sample > args.seconds:
            break
        if elapsed + per_sample > BUDGET_S:
            break
    ok = [s for s in samples if s["ok"]]
    plain = [s for s in ok if not s["traced"]]
    traced = [s for s in ok if s["traced"]]
    result = {
        "spec": case.spec,
        "attempted": len(samples),
        "failed": len(samples) - len(ok),
        "errors": [s["error"] for s in samples if not s["ok"]][:5],
        "samples": samples,
        "backend": ok[0]["backend"] if ok else None,
        "engine": ok[0]["engine"] if ok else None,
        "metrics": {
            "setup_s": median_or_zero([s["setup_s"] for s in plain]),
            "run_s": median_or_zero([s["run_s"] for s in plain]),
            "peak_rss_mb": median_or_zero([s["peak_rss_mb"] for s in plain]),
        },
        "count_mismatches": [],
    }
    if args.trace:
        layers = {name: median_or_zero([s["layers"][name] for s in traced])
                  for name in PER_LAYER if traced}
        layers["bench.trace_overhead_s"] = (
            median_or_zero([s["run_s"] for s in traced])
            - result["metrics"]["run_s"])
        result["layers"] = layers
        if len(traced) < 2:
            result["count_mismatches"].append("fewer than two traced samples")
        for s in traced[1:]:
            for key, value in s["counts"].items():
                if value != traced[0]["counts"][key]:
                    result["count_mismatches"].append(
                        f"{key}: {traced[0]['counts'][key]} then {value}")
        result["exact_counts"] = traced[0]["counts"] if traced else {}
    return result


def layer_values(spans: dict, counts: dict, setup: dict) -> dict[str, float]:
    """Per-layer metric values from one traced process's summary."""
    out = {name: 0.0 for name in PER_LAYER}
    for metric, span in _SPAN_SELF_S.items():
        if span in spans:
            out[metric] = spans[span]["self_s"]
    for metric, span in _SPAN_MEDIAN_MS.items():
        if span in spans:
            out[metric] = spans[span]["median_ms"]
    for key, value in counts.items():
        if key in out:
            out[key] = value
    out.update(setup)
    if "runtime.config.resolve" in spans and "runtime.config.resolve_s" not in setup:
        out["runtime.config.resolve_s"] = spans["runtime.config.resolve"]["total_s"]
    if out["core.fast.ensemble_s"] > 0:
        out["core.fast.firings_per_s"] = out["core.fast.firings"] / out["core.fast.ensemble_s"]
    if out["core.simulator.run_s"] > 0:
        out["core.simulator.firings_per_s"] = (
            out["core.simulator.firings"] / out["core.simulator.run_s"])
    gets = counts.get("runtime.store.gets", 0)
    if gets:
        out["runtime.store.hit_ratio"] = counts.get("runtime.store.hits", 0) / gets
    return out


# -- serve_mixed -------------------------------------------------------------


class Server:
    """One ``repro.cli serve`` process with a fresh store."""

    def __init__(self, out_dir: Path, tag: str, traced: bool, workers: int) -> None:
        self.result_path = out_dir / f"{tag}.json"
        self.log = out_dir / f"{tag}.out"
        store = out_dir / f"{tag}.store"
        shutil.rmtree(store, ignore_errors=True)
        cmd = [sys.executable, str(HERE / "server.py"), str(self.result_path)]
        if traced:
            cmd += ["--trace", str(SPANS / f"{out_dir.name}-{tag}.jsonl")]
        cmd += ["--", "--backend", "processes", "--workers", str(workers),
                "--store", str(store), "--host", "127.0.0.1", "--port", "0"]
        spawn = perf_counter()
        with open(self.log, "w") as out, open(out_dir / f"{tag}.err", "w") as err:
            self.proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT,
                                         stdout=out, stderr=err)
        try:
            self.url = self._await_listening(spawn + 60.0)
            self._await_stats(spawn + 60.0)
        except BaseException:
            self.stop()
            raise
        self.setup_s = perf_counter() - spawn

    def _await_listening(self, deadline: float) -> str:
        pattern = re.compile(r"listening on ([0-9.]+):(\d+)")
        while perf_counter() < deadline:
            match = pattern.search(self.log.read_text())
            if match:
                return f"http://{match.group(1)}:{match.group(2)}"
            if self.proc.poll() is not None:
                raise BenchError(f"server exited {self.proc.returncode} at start")
            time.sleep(0.002)
        raise BenchError("server did not announce its port")

    def _await_stats(self, deadline: float) -> None:
        while True:
            try:
                with urllib.request.urlopen(self.url + "/stats", timeout=5) as r:
                    r.read()
                return
            except OSError:
                if perf_counter() > deadline:
                    raise BenchError("server never answered /stats") from None
                time.sleep(0.002)

    def stop(self) -> dict:
        """SIGINT (the server's clean shutdown), then its result record."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        try:
            return json.loads(self.result_path.read_text())
        except (OSError, ValueError):
            return {}


def serve_round(args: argparse.Namespace, refs: References, out_dir: Path,
                seq: list[workloads.SpecCase], traced: bool, probes: int,
                tag: str, deadline: float) -> dict:
    workers = min(2, os.cpu_count() or 1)
    requests_path = out_dir / f"{tag}-requests.json"
    requests_path.write_text(json.dumps(
        [{"spec": c.spec, "expected": refs.expected(c)} for c in seq]))
    setups: list[float] = []
    server: Server | None = None
    load_path = out_dir / f"{tag}-load.json"
    try:
        for k in range(probes):
            if server is not None:
                server.stop()  # a set-up probe only
            server = Server(out_dir, f"{tag}-server{k}",
                            traced and k == probes - 1, workers)
            setups.append(server.setup_s)
        cmd = [sys.executable, str(HERE / "loadgen.py"), server.url,
               str(requests_path), str(workers),
               str(max(5.0, deadline - perf_counter())), str(load_path)]
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=max(5.0, deadline - perf_counter()))
        if proc.returncode != 0 or not load_path.exists():
            raise BenchError(f"load generator exited {proc.returncode}: "
                             f"{proc.stderr[-2000:]}")
        load = json.loads(load_path.read_text())
        with urllib.request.urlopen(server.url + "/stats", timeout=30) as r:
            stats = json.loads(r.read())
    finally:
        srv = server.stop() if server is not None else {}
    if not srv:
        raise BenchError(f"server exited {server.proc.returncode} without a result")
    run_s, responses = load["run_s"], load["rows"]
    seen: set[str] = set()
    coalesced = coalesced_lookups = 0
    for r in responses:
        if r.get("job") in seen:
            coalesced += 1
            coalesced_lookups += r["lookups"]
        seen.add(r.get("job"))
    st = stats["store"]
    # Coalesced requests do no store lookups of their own; adding back
    # the lookups they would have made (all hits: their twin just wrote
    # every entry) gives counts that do not depend on request timing.
    counts = {
        "runtime.store.gets": st["hits"] + st["misses"] + coalesced_lookups,
        "runtime.store.hits": st["hits"] + coalesced_lookups,
        "runtime.store.puts": st["puts"],
    }
    ok = [r for r in responses if r["ok"]]
    warm = [r["ms"] for r in ok if r["warm"]]
    miss = [r["ms"] for r in ok if not r["warm"]]
    return {
        "setup_s": statistics.median(setups),
        "setups": setups,
        "run_s": run_s,
        "peak_rss_mb": srv.get("peak_rss_mb", 0.0),
        "attempted": len(seq),
        "failed": len(seq) - len(ok),
        "errors": [r["error"] for r in responses if not r["ok"]][:5],
        "warm_n": len(warm),
        "miss_n": len(miss),
        "client": {
            "warm_p50_ms": median_or_zero(warm),
            "warm_p99_ms": percentile(warm, 99),
            "miss_p50_ms": median_or_zero(miss),
            "miss_p90_ms": percentile(miss, 90),
            "queries_per_s": len(ok) / run_s,
            "error_rate": (len(seq) - len(ok)) / len(seq),
            "coalesced": coalesced,
        },
        "counts": counts,
        "server": srv,
        "stats": stats,
    }


def run_serve(args: argparse.Namespace, refs: References, out_dir: Path) -> dict:
    seq = workloads.serve_sequence(
        args.seed, workloads.serve_request_count(args.seconds, args.scale),
        args.scale)
    deadline = perf_counter() + BUDGET_S
    plain = serve_round(args, refs, out_dir, seq, False,
                        1 if args.trace else SETUP_PROBES, "plain", deadline)
    result = {
        "requests": len(seq),
        "attempted": plain["attempted"],
        "failed": plain["failed"],
        "errors": plain["errors"],
        "backend": "processes",
        "engine": "interpreted",
        "metrics": {k: plain[k] for k in END_TO_END},
        "client": plain["client"],
        "warm_n": plain["warm_n"],
        "miss_n": plain["miss_n"],
        "setups": plain["setups"],
        "exact_counts": plain["counts"],
        "count_mismatches": [],
    }
    if args.trace:
        traced = serve_round(args, refs, out_dir, seq, True, 1, "traced", deadline)
        result["attempted"] += traced["attempted"]
        result["failed"] += traced["failed"]
        result["errors"] += traced["errors"]
        srv = traced["server"]
        layers = layer_values(srv.get("spans", {}), srv.get("counts", {}),
                              srv.get("setup", {}))
        layers["serving.queue_wait_ms"] = median_or_zero(srv.get("queue_waits_ms", []))
        layers.update({k: v for k, v in plain["client"].items() if k in PER_LAYER})
        layers["bench.trace_overhead_s"] = traced["run_s"] - plain["run_s"]
        result["layers"] = layers
        result["traced_client"] = traced["client"]
        for key, value in plain["counts"].items():
            if traced["counts"][key] != value:
                result["count_mismatches"].append(
                    f"{key}: {value} untraced, {traced['counts'][key]} traced")
        span_counts = srv.get("counts", {})
        stats_store = traced["stats"]["store"]
        if span_counts.get("runtime.store.gets", 0) != (
                stats_store["hits"] + stats_store["misses"]):
            result["count_mismatches"].append(
                "traced store gets disagree with /stats hits + misses")
    return result


# -- entry point -------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=workloads.SCALES, default="full",
                        help="'tiny' is for the benchmark's own self-tests")
    parser.add_argument("--references", type=Path,
                        default=HERE / "references.json")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an error, so every server and child is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if not (ROOT / "src" / "repro" / "__init__.py").is_file():
            raise BenchError(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
        refs = References(args.references)
        out_dir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        SPANS.mkdir(parents=True, exist_ok=True)
        try:
            run = (run_serve if args.workload == "serve_mixed" else run_batch)(
                args, refs, out_dir)
        finally:
            # Scratch stores are large; the record keeps the numbers.
            shutil.rmtree(out_dir, ignore_errors=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    correct = run["failed"] == 0 and not run["count_mismatches"]
    names = PER_LAYER if args.trace else END_TO_END
    values = run["layers"] if args.trace else run["metrics"]
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
               for name, unit in names.items()}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "stamp": stamp.run_stamp(ROOT, run["backend"], run["engine"]),
        "correct": correct,
        "error_rate": run["failed"] / max(1, run["attempted"]),
        **{k: v for k, v in run.items() if k != "layers"},
        "reported": metrics,
    }
    path = stamp.write_record(WORK / "records", record)
    print(f"perfbench: record {path.relative_to(ROOT)}")
    for problem in run["errors"] + run["count_mismatches"]:
        print(f"perfbench: FAIL {problem}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
