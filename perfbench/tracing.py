"""In-memory span tracing around the program's public entry points.

Nothing under ``src/`` knows about this module.  :func:`install` wraps
methods on classes (``Simulation.run``, ``ResultStore.get``/``put``,
``Backend.map``, ``NetworkResult.merge``, ...) and replaces module-level
functions (``compile_net``, ``run_ensemble``, ``map_sweep``, the
``format_*`` renderers, ...) in *every* loaded ``repro`` module that
holds them, so each import spelling is caught.

A span is ``(id, name, start, end, parent_id)`` with the parent taken
from a per-thread stack.  Spans stay in memory until :meth:`Tracer.dump`
writes them out.  A span's *self time* is its duration minus the
durations of its child spans (children nest within their parent on one
thread, so they never overlap).
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import sys
import threading
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

CountHook = Callable[[Counter, tuple, dict, Any], None]


class Tracer:
    """Span and counter recorder; one per traced process."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.counts: Counter = Counter()
        self.service: Any = None  # the traced SweepService, if any
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str | None,
             count: CountHook | None = None) -> Callable:
        """``fn`` recording a span named ``name`` (None: counts only)."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if name is None:
                result = fn(*args, **kwargs)
            else:
                stack = self._stack()
                sid = next(self._ids)
                parent = stack[-1] if stack else None
                stack.append(sid)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    self.spans.append((sid, name, start, end, parent))
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        traced.__wrapped_by_perfbench__ = True
        return traced

    def summary(self) -> dict[str, dict[str, Any]]:
        """Per span name: calls, total and self seconds, per-call ms."""
        child_time: dict[int, float] = defaultdict(float)
        for _sid, _name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict[str, Any]] = {}
        for sid, name, start, end, _parent in self.spans:
            row = out.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "ms": []})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[sid]
            row["ms"].append((end - start) * 1000.0)
        for row in out.values():
            row["median_ms"] = statistics.median(row.pop("ms"))
        return out

    def dump(self, path: Path) -> None:
        """Write every span (one JSON array per line) and the counters."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# -- patching ---------------------------------------------------------------


def _patch_function(tracer: Tracer, module: Any, attr: str, name: str,
                    count: CountHook | None = None) -> None:
    """Replace ``module.attr`` everywhere a ``repro`` module holds it."""
    orig = getattr(module, attr)
    if getattr(orig, "__wrapped_by_perfbench__", False):
        return  # re-exported from a module patched earlier
    traced = tracer.wrap(orig, name, count)
    for mod_name, mod in list(sys.modules.items()):
        if not mod_name.startswith("repro") or mod is None:
            continue
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, traced)


def _patch_method(tracer: Tracer, cls: type, attr: str, name: str | None,
                  count: CountHook | None = None) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(tracer.wrap(raw.__func__, name, count)))
    else:
        setattr(cls, attr, tracer.wrap(raw, name, count))


def _subclasses(cls: type) -> list[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


def _bump(key: str, amount: Callable[[tuple, dict, Any], int]) -> CountHook:
    def hook(counts: Counter, args: tuple, kwargs: dict, result: Any) -> None:
        counts[key] += amount(args, kwargs, result)
    return hook


def _hooks(*hooks: CountHook) -> CountHook:
    def hook(counts: Counter, args: tuple, kwargs: dict, result: Any) -> None:
        for h in hooks:
            h(counts, args, kwargs, result)
    return hook


def _one(*_: Any) -> int:
    return 1


def _put_bytes(args: tuple, _kwargs: dict, _result: Any) -> int:
    store, key = args[0], args[1]
    if not store.enabled:
        return 0
    path = store._entry_path(key)
    return path.stat().st_size if path.exists() else 0


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry points.  Call after ``import repro.cli``."""
    import repro.core.fast as fast
    import repro.energy.report as report
    import repro.experiments.network as exp_network
    import repro.experiments.tables as tables
    import repro.models.cpu_petri as cpu_petri
    import repro.models.simple_node as simple_node
    import repro.models.wsn_node as wsn_node
    import repro.runtime.backend as backend
    import repro.runtime.store as store
    import repro.runtime.sweep as sweep
    from repro.core.simulator import Simulation
    from repro.models.network import NetworkResult
    from repro.runtime.config import ExecutionConfig
    from repro.topology.dynamics import ChurnModel, ChurnSchedule
    from repro.topology.generators import RandomGeometricTopology

    # Engines.
    _patch_function(tracer, fast, "compile_net", "core.fast.compile",
                    _bump("core.fast.compiles", _one))
    _patch_function(
        tracer, fast, "run_ensemble", "core.fast.ensemble",
        _hooks(_bump("core.fast.rows", lambda a, k, r: len(r)),
               _bump("core.fast.firings",
                     lambda a, k, r: sum(x.firings for x in r))))
    _patch_method(tracer, Simulation, "__init__", "core.simulator.init")
    _patch_method(
        tracer, Simulation, "run", "core.simulator.run",
        _hooks(_bump("core.simulator.runs", _one),
               _bump("core.simulator.firings", lambda a, k, r: r.firings)))
    # Net builds.
    for cls in (wsn_node.WSNNodeModel, simple_node.SimpleNodeModel,
                cpu_petri.CPUPetriModel):
        _patch_method(tracer, cls, "build", "models.build",
                      _bump("models.builds", _one))
    # Topology generation and churn.
    layout = RandomGeometricTopology.__dict__["_layout"]
    layout.func = tracer.wrap(layout.func, "topology.generate")
    _patch_method(tracer, ChurnModel, "schedule", "topology.churn_schedule")
    _patch_method(tracer, ChurnSchedule, "node_segments", None,
                  _bump("topology.segments", lambda a, k, r: len(r)))
    # Runtime.
    _patch_method(tracer, NetworkResult, "merge", "runtime.sharding.merge")
    # The sweep layer: map_sweep and the store-aware maps that the
    # experiment modules call directly (the Fig. 14/15 sweep never goes
    # through map_sweep).
    _patch_function(tracer, sweep, "map_sweep", "runtime.sweep.map")
    _patch_function(tracer, store, "cached_map", "runtime.sweep.map")
    _patch_function(tracer, store, "cached_ensemble_map", "runtime.sweep.map")
    _patch_method(tracer, ExecutionConfig, "resolve", "runtime.config.resolve")
    for cls in _subclasses(backend.Backend):
        if "map" in cls.__dict__:
            _patch_backend_map(tracer, cls)
    _patch_method(
        tracer, store.ResultStore, "get", "runtime.store.get",
        _hooks(_bump("runtime.store.gets", _one),
               _bump("runtime.store.hits", lambda a, k, r: int(r[0]))))
    _patch_method(
        tracer, store.ResultStore, "put", "runtime.store.put",
        _hooks(_bump("runtime.store.puts", _one),
               _bump("runtime.store.put_bytes", _put_bytes)))
    # Rendering: every format_* renderer.
    for module in (report, tables, exp_network):
        for attr in [a for a in vars(module) if a.startswith("format_")]:
            if callable(getattr(module, attr)):
                _patch_function(tracer, module, attr, "energy.render")


def _patch_backend_map(tracer: Tracer, cls: type) -> None:
    """Span ``Backend.map``; in-process maps also span each task.

    Task spans keep in-process task work (engines, accounting) out of
    the backend's self time, which is then dispatch plus transport.
    Pool backends get no task wrapper: ``fn`` must stay picklable.
    """
    from repro.runtime.backend import SerialBackend

    orig = cls.__dict__["map"]

    def map_(self: Any, fn: Callable, items: Any, *args: Any, **kwargs: Any):
        items = list(items)
        tracer.counts["runtime.backend.tasks"] += len(items)
        if isinstance(self, SerialBackend):
            fn = tracer.wrap(fn, "runtime.task")
        return orig(self, fn, items, *args, **kwargs)

    setattr(cls, "map", tracer.wrap(functools.wraps(orig)(map_),
                                    "runtime.backend.map"))


def install_serving(tracer: Tracer) -> None:
    """Wrap the serving layer (server process only)."""
    import repro.serving.service as service
    from repro.serving.server import _Handler

    def keep(_counts: Counter, args: tuple, _kwargs: dict, _r: Any) -> None:
        tracer.service = args[0]

    _patch_method(tracer, service.SweepService, "__init__", None, keep)
    _patch_function(tracer, service, "parse_request", "serving.parse")
    _patch_method(
        tracer, service.SweepService, "submit", "serving.submit",
        _bump("serving.coalesced", lambda a, k, r: int(not r[1])))
    _patch_method(tracer, service.SweepService, "_execute", "serving.job")
    _patch_method(tracer, _Handler, "_dispatch", "serving.http")


def queue_waits_ms(tracer: Tracer) -> list[float]:
    """Per-job wait between submission and start, from the job records."""
    if tracer.service is None:
        return []
    return [(job.started - job.created) * 1000.0
            for job in tracer.service.jobs() if job.started is not None]
