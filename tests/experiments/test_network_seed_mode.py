"""``execution.seed_mode`` reaches every network run.

The network drivers pass their resolved execution straight down to
:meth:`SensorNetworkModel.simulate`, so a scenario (or a served
request) with ``seed_mode: spawn`` must render exactly what a direct
``simulate`` with spawn seeds renders — and differ from the
``legacy`` run.  This pins the single-run, sweep and adaptive paths
and the serving path.
"""

import io
from contextlib import redirect_stdout

import pytest

from repro.experiments.network import (
    NetworkScenarioConfig,
    format_network_summary,
    run_network_lifetime_sweep,
    run_network_scenario,
)
from repro.models.network import LineTopology
from repro.models.wsn_node import NodeParameters
from repro.runtime import ExecutionConfig
from repro.scenarios import ScenarioSpec, run_scenario
from repro.serving import SweepService

PARAMS = {
    "topology": "line",
    "nodes": 4,
    "threshold": 0.01,
    "horizon": 5.0,
    "base_rate": 0.5,
    "seed": 7,
}
CONFIG = NetworkScenarioConfig(
    topology=LineTopology(4),
    horizon=5.0,
    base_rate=0.5,
    seed=7,
    params=NodeParameters(power_down_threshold=0.01),
)


def _scenario(seed_mode):
    return {
        "version": 1,
        "name": f"line-{seed_mode}",
        "model": "network",
        "params": PARAMS,
        "execution": {"seed_mode": seed_mode},
    }


def _direct(seed_mode):
    return CONFIG.model().simulate(
        CONFIG.horizon,
        seed=CONFIG.seed,
        base_rate=CONFIG.base_rate,
        exec_cfg=ExecutionConfig(seed_mode=seed_mode),
    )


def _run_scenario(seed_mode):
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert run_scenario(ScenarioSpec.from_dict(_scenario(seed_mode))) == 0
    return buf.getvalue()


def test_scenario_output_follows_seed_mode():
    spawn, legacy = _run_scenario("spawn"), _run_scenario("legacy")
    assert format_network_summary(_direct("spawn")) in spawn
    assert format_network_summary(_direct("legacy")) in legacy
    assert spawn != legacy


def test_served_output_follows_seed_mode(tmp_path):
    with SweepService(
        ExecutionConfig(store_dir=str(tmp_path / "store")),
        progress_interval=0.0,
    ) as service:
        job = service.run({"scenario": _scenario("spawn")}, timeout=300)
    assert job.state == "done", job.error
    assert format_network_summary(_direct("spawn")) in job.result["output"]
    assert job.result["output"] == _run_scenario("spawn")


def test_sweep_follows_seed_mode():
    cfg = NetworkScenarioConfig(
        topology=CONFIG.topology,
        horizon=CONFIG.horizon,
        base_rate=CONFIG.base_rate,
        seed=CONFIG.seed,
        thresholds=(0.01,),
    )
    [spawn] = run_network_lifetime_sweep(
        cfg, exec_cfg=ExecutionConfig(seed_mode="spawn")
    ).results
    assert spawn == _direct("spawn")
    assert spawn != _direct("legacy")


@pytest.mark.parametrize("seed_mode", ["legacy", "spawn"])
def test_adaptive_replication_zero_follows_seed_mode(seed_mode):
    replicated = run_network_scenario(
        CONFIG,
        exec_cfg=ExecutionConfig(
            seed_mode=seed_mode, ci_target=1e-9, max_replications=2
        ),
    )
    assert replicated.result == _direct(seed_mode)
