"""The execution seam: pinned store keys and counters, one knob list.

Every replicating caller runs its grid × replications through the one
replication loop, :func:`repro.runtime.run_adaptive_rounds`, and every
driver takes its execution knobs only as ``exec_cfg``.  Routing never
changes what is computed, so this suite pins the observable contract
to exact values recorded before the loops were merged:

* the store keys each caller writes (a digest of the sorted keys of a
  small run) — a changed key silently orphans every warmed store;
* the store hit/miss/put counters of a fixed run, a ``replications``
  top-up and an adaptive top-up on both engines — the ensemble shape
  serves each point's cached *prefix*, so its misses differ from the
  interpreted shape's;
* no driver signature grows a loose keyword named after an
  :class:`~repro.runtime.ExecutionConfig` field again.
"""

import dataclasses
import hashlib
import inspect
import math

import pytest

from repro.experiments.figures import CPUComparisonConfig, run_cpu_comparison
from repro.experiments.network import (
    run_network_lifetime_sweep,
    run_network_scenario,
)
from repro.experiments.node_energy import NodeSweepConfig, run_node_energy_sweep
from repro.experiments.sensitivity import node_optimum_vs_rate
from repro.experiments.validation import (
    ValidationConfig,
    run_simple_node_validation,
)
from repro.models.network import LineTopology, SensorNetworkModel
from repro.models.wsn_node import NodeParameters
from repro.runtime import ExecutionConfig, ResultStore, map_sweep

NODE = NodeSweepConfig(
    workload="closed", horizon=2.0, thresholds=(0.001, 0.00178), seed=2010
)
CPU = CPUComparisonConfig(horizon=10.0, thresholds=(0.1, 1.0), seed=2010)
VALIDATION = ValidationConfig(n_events=5, petri_horizon=60.0, petri_warmup=0.0)


def _network():
    return SensorNetworkModel(
        LineTopology(4), NodeParameters(power_down_threshold=0.01)
    )


def _rx(store, **knobs):
    return ExecutionConfig(**knobs).bind(store=store)


# ``math.copysign`` is a module-level pure (threshold, seed) function
# whose store identity does not depend on how this module is imported.
RUNS = {
    "run_cpu_comparison": lambda s: run_cpu_comparison(
        0.1, CPU, exec_cfg=_rx(s, replications=2)
    ),
    "run_node_energy_sweep": lambda s: run_node_energy_sweep(
        NODE, exec_cfg=_rx(s, replications=2)
    ),
    "run_simple_node_validation": lambda s: run_simple_node_validation(
        VALIDATION, exec_cfg=_rx(s, replications=2)
    ),
    "node_optimum_vs_rate": lambda s: node_optimum_vs_rate(
        [0.5, 1.0], thresholds=(0.001, 1.0), horizon=5.0, exec_cfg=_rx(s)
    ),
    "map_sweep": lambda s: map_sweep(
        math.copysign,
        [0.5, 1.5],
        seed=7,
        exec_cfg=ExecutionConfig(replications=3).bind(store=s),
    ),
    "simulate": lambda s: _network().simulate(
        5.0, seed=7, base_rate=0.5, exec_cfg=_rx(s)
    ),
}

#: (entries, SHA-256 of the comma-joined sorted keys), recorded before
#: the fixed-count and adaptive paths were merged into one loop.
PINNED_KEYS = {
    "run_cpu_comparison": (
        4, "5744984813758944a858e4c3c547f79fd394eeb3eeea40da07e1bbe9e00aa0ed"
    ),
    "run_node_energy_sweep": (
        4, "0b0db889cd6f8a34995d083f746f67eb2b7f617d85cb5aecd606850a27fea766"
    ),
    "run_simple_node_validation": (
        2, "afe9048a3e3cf944f5e7776bc307e27f19404e3e169a9a7a6b2441427bb4b00d"
    ),
    "node_optimum_vs_rate": (
        4, "82b44c319256a629beb0fb317ca38a2d8cc8809482e99c1ca70728c112959dc3"
    ),
    "map_sweep": (
        6, "6e0bd654d46b1994e13eadde4cb41728e37de66a1398cc22c37fc94871aa71c2"
    ),
    "simulate": (
        4, "689ff6be588577f343b213319b3317ed053b53ee62e477cf4199a5f60c764b55"
    ),
}


@pytest.mark.parametrize("caller", sorted(RUNS))
def test_store_keys_are_pinned(caller, tmp_path):
    store = ResultStore(tmp_path)
    RUNS[caller](store)
    keys = sorted(p.name for p in store._entry_files())
    digest = hashlib.sha256(",".join(keys).encode()).hexdigest()
    assert (len(keys), digest) == PINNED_KEYS[caller]


def _counters(store):
    return (store.hits, store.misses, store.puts)


#: Cumulative (hits, misses, puts) after each step of a top-up series.
PINNED_COUNTERS = {
    ("node", "interpreted"): [(0, 4, 4), (4, 8, 8), (12, 12, 12)],
    ("node", "vectorized"): [(0, 2, 4), (4, 4, 8), (12, 6, 12)],
    ("cpu", "interpreted"): [(0, 4, 4), (4, 6, 6)],
    ("cpu", "vectorized"): [(0, 2, 4), (4, 4, 6)],
}


@pytest.mark.parametrize("engine", ["interpreted", "vectorized"])
def test_node_sweep_top_up_counters_are_pinned(engine, tmp_path):
    # Fixed R=2, a replications top-up to R=4, then an adaptive run
    # whose unreachable target drives every point to 6 replications.
    store = ResultStore(tmp_path)
    steps = []
    for knobs in (
        dict(replications=2),
        dict(replications=4),
        dict(ci_target=1e-9, max_replications=6),
    ):
        run_node_energy_sweep(NODE, exec_cfg=_rx(store, engine=engine, **knobs))
        steps.append(_counters(store))
    assert steps == PINNED_COUNTERS[("node", engine)]


@pytest.mark.parametrize("engine", ["interpreted", "vectorized"])
def test_cpu_comparison_top_up_counters_are_pinned(engine, tmp_path):
    store = ResultStore(tmp_path)
    steps = []
    for replications in (2, 3):
        run_cpu_comparison(
            0.1, CPU, exec_cfg=_rx(store, engine=engine, replications=replications)
        )
        steps.append(_counters(store))
    assert steps == PINNED_COUNTERS[("cpu", engine)]


ENTRY_POINTS = [
    map_sweep,
    run_cpu_comparison,
    run_node_energy_sweep,
    run_simple_node_validation,
    node_optimum_vs_rate,
    run_network_scenario,
    run_network_lifetime_sweep,
    SensorNetworkModel.simulate,
    SensorNetworkModel.sweep_thresholds,
]


@pytest.mark.parametrize("fn", ENTRY_POINTS, ids=lambda fn: fn.__qualname__)
def test_entry_points_take_no_loose_execution_knobs(fn):
    knobs = {f.name for f in dataclasses.fields(ExecutionConfig)}
    # The historical spelling of the store_dir knob.
    knobs.add("store")
    params = inspect.signature(fn).parameters
    assert not knobs & set(params)
    assert params["exec_cfg"].kind is inspect.Parameter.KEYWORD_ONLY
