"""Render a validated :class:`~repro.scenarios.spec.ScenarioSpec` to text.

This is the one run path: ``repro.cli scenario run``, the flag-spelled
run subcommands (which build a spec from their flags) and the serving
layer all call :func:`render_scenario`, which picks the model's
renderer and returns the text a run prints.  So a flag run, a scenario
run and a served response are byte-identical by construction — still
asserted per gallery scenario, across engines and backends, in
``tests/scenarios/test_runner.py`` and diffed in CI by the
``scenario`` group of ``scripts/ci_smoke.sh``.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping
from typing import Any

from ..energy import (
    format_breakdown_sweep,
    format_energy_series,
    format_state_percentages,
    format_table,
)
from ..experiments import (
    CPUComparisonConfig,
    NodeSweepConfig,
    ValidationConfig,
    format_delta_table,
    format_optimum_summary,
    format_steady_state_table,
    format_validation_table,
    run_cpu_comparison,
    run_node_energy_sweep,
    run_simple_node_validation,
)
from ..experiments.network import (
    NetworkScenarioConfig,
    format_network_summary,
    make_topology,
    run_network_lifetime_sweep,
    run_network_scenario,
)
from ..models import NodeParameters
from ..runtime.config import ResolvedExecution
from ..topology import ChurnModel, MMPPTraffic
from .spec import ScenarioSpec, current_params

__all__ = ["render_scenario", "run_scenario", "topology_from_params"]

_FIG_TO_PUD = {4: 0.001, 5: 0.3, 6: 10.0, 7: 0.001, 8: 0.3, 9: 10.0}
_TABLE_TO_PUD = {4: 0.001, 5: 0.3, 6: 10.0}
_TABLE_NUMERALS = {4: "IV", 5: "V", 6: "VI"}

Params = Mapping[str, Any]


def _text(lines: list[str]) -> str:
    """``lines`` as one ``print`` call each would have written them."""
    return "".join(f"{line}\n" for line in lines)


def _format_pm(ci) -> str:
    """``± width`` for a usable interval, ``n/a`` for an R=1 one.

    A single replication has an infinite half-width; printing ``± inf``
    reads like a formatting bug, so say what it is instead.
    """
    if not math.isfinite(ci.half_width):
        n = ci.batches
        return f"n/a ({n} replication{'s' if n != 1 else ''})"
    return f"± {ci.half_width:.4f}"


def _convergence_tag(replications: int, converged: bool) -> str:
    """The per-point adaptive outcome, e.g. ``[ 4 reps, converged]``."""
    status = "converged" if converged else "hit max"
    return f"[{replications:3d} reps, {status}]"


def _adaptive_point_ci_lines(sweep, metric_label: str) -> list[str]:
    """Per-point adaptive outcome lines shared by every sweep model."""
    lines = [
        f"\nadaptive replications (ci-target {sweep.ci_target:g}, "
        f"{metric_label}, 95% t-interval):"
    ]
    for threshold, ci, n, ok in zip(
        sweep.thresholds,
        sweep.energy_ci(),
        sweep.replication_counts,
        sweep.converged,
    ):
        lines.append(
            f"  PDT {threshold:<12g} {ci.mean:10.4f} J "
            f"{_format_pm(ci)}  {_convergence_tag(n, ok)}"
        )
    return lines


def _replication_ci_lines(sweep) -> list[str]:
    """Per-point mean ± t-interval rows for a replicated node sweep."""
    if sweep.ci_target is not None:
        return _adaptive_point_ci_lines(sweep, "total energy")
    if sweep.replications <= 1:
        return []
    lines = [
        f"\nacross {sweep.replications} replications "
        "(total energy, 95% t-interval):"
    ]
    for threshold, ci in zip(sweep.thresholds, sweep.energy_ci()):
        lines.append(
            f"  PDT {threshold:<12g} {ci.mean:10.4f} J {_format_pm(ci)}"
        )
    return lines


def _cpu_replication_ci_lines(result) -> list[str]:
    """Per-point energy t-intervals for a replicated CPU sweep."""
    if result.replications <= 1 or result.energy_ci is None:
        return []
    if result.ci_target is not None:
        lines = [
            f"\nadaptive replications (ci-target {result.ci_target:g}, "
            "energy, 95% t-interval; printed values above are means):"
        ]
    else:
        lines = [
            f"\nacross {result.replications} replications "
            "(energy, 95% t-interval; printed values above are means):"
        ]
    for est in ("simulation", "petri"):
        lines.append(f"  {est}:")
        for i, (threshold, ci) in enumerate(
            zip(result.thresholds, result.energy_ci[est])
        ):
            tag = (
                "  "
                + _convergence_tag(
                    result.replication_counts[i], result.converged[i]
                )
                if result.ci_target is not None
                else ""
            )
            lines.append(
                f"    PDT {threshold:<8g} {ci.mean:10.4f} J "
                f"{_format_pm(ci)}{tag}"
            )
    lines.append("  markov: deterministic (no sampling variance)")
    return lines


def _node_sweep_text(
    workload: str, horizon: float, seed: int, title: str,
    rx: ResolvedExecution,
) -> str:
    """The Figs. 14/15 threshold sweep: breakdowns, optimum, intervals."""
    sweep = run_node_energy_sweep(
        NodeSweepConfig(workload=workload, horizon=horizon, seed=seed),
        exec_cfg=rx,
    )
    t_opt, e_opt = sweep.optimum()
    return _text(
        [
            format_breakdown_sweep(
                sweep.thresholds, sweep.breakdowns, title=title
            ),
            format_optimum_summary(
                workload, t_opt, e_opt,
                sweep.savings_vs_immediate(), sweep.savings_vs_never(),
            ),
            *_replication_ci_lines(sweep),
        ]
    )


def _render_fig(p: Params, rx: ResolvedExecution) -> str:
    """One figure: Figs. 4-6 state shares, 7-9 energy, 14/15 node sweeps."""
    number = p["number"]
    if number in (14, 15):
        workload = "closed" if number == 14 else "open"
        horizon = p["horizon"] if p["horizon"] is not None else 900.0
        return _node_sweep_text(
            workload, horizon, p["seed"],
            f"Figure {number} ({workload} model, {horizon:.0f} s)", rx,
        )
    pud = _FIG_TO_PUD[number]
    horizon = p["horizon"] if p["horizon"] is not None else 1000.0
    result = run_cpu_comparison(
        pud, CPUComparisonConfig(horizon=horizon, seed=p["seed"]), exec_cfg=rx
    )
    lines: list[str] = []
    if number <= 6:
        for est in ("simulation", "markov", "petri"):
            lines.append(
                format_state_percentages(
                    result.thresholds,
                    result.fractions[est],
                    title=f"Figure {number} (PUD={pud:g}s) — {est}",
                )
            )
            lines.append("")
    else:
        lines.append(
            format_energy_series(
                result.thresholds,
                {
                    "Simulation": result.energy_j["simulation"],
                    "Markov": result.energy_j["markov"],
                    "Petri Net": result.energy_j["petri"],
                },
                title=f"Figure {number} (PUD={pud:g}s)",
            )
        )
    return _text(lines + _cpu_replication_ci_lines(result))


def _render_table(p: Params, rx: ResolvedExecution) -> str:
    """One delta table (IV-VI)."""
    pud = _TABLE_TO_PUD[p["number"]]
    result = run_cpu_comparison(
        pud,
        CPUComparisonConfig(horizon=p["horizon"], seed=p["seed"]),
        exec_cfg=rx,
    )
    return _text(
        [
            format_delta_table(
                result.delta_energy(), pud, _TABLE_NUMERALS[p["number"]]
            ),
            *_cpu_replication_ci_lines(result),
        ]
    )


def _render_node_sweep(p: Params, rx: ResolvedExecution) -> str:
    """The Figs. 14/15 sweep at any workload and horizon."""
    return _node_sweep_text(
        p["workload"], p["horizon"], p["seed"],
        f"Node sweep ({p['workload']}, {p['horizon']:.0f} s)", rx,
    )


def _render_validate(p: Params, rx: ResolvedExecution) -> str:
    """The Section V validation tables and the headline interval."""
    result = run_simple_node_validation(
        ValidationConfig(seed=p["seed"]), exec_cfg=rx
    )
    lines = [
        format_steady_state_table(result.petri.stage_probabilities),
        "",
        format_validation_table(result.table_rows()),
    ]
    n = result.replications
    if n > 1:
        ci = result.percent_difference_ci()
        line = (
            f"\npercent difference across {n} replications: "
            f"{ci.mean:.2f}% {_format_pm(ci)} (95% t-interval)"
        )
        if result.converged is not None:
            line += f"  {_convergence_tag(n, result.converged)}"
        lines.append(line)
    else:
        lines.append("\npercent difference uncertainty: n/a (1 replication)")
    return _text(lines)


def topology_from_params(p: Params):
    """The topology a ``network`` params mapping describes."""
    width, height = p["grid"]
    return make_topology(
        p["topology"],
        nodes=p["nodes"],
        width=width,
        height=height,
        radius=p["radius"],
        fanout=p["fanout"],
        depth=p["depth"],
        seed=p["seed"],
    )


def _render_network(p: Params, rx: ResolvedExecution) -> str:
    """One network scenario or threshold sweep.

    The scenario-diversity knobs compose freely: generated topologies
    (``geometric`` / ``cluster-tree`` with ``radius`` / ``fanout`` /
    ``depth``), node churn (``failure_rate`` / ``duty_spread``) and
    bursty arrivals (``traffic="bursty"`` with the ``burst_*`` shape).
    All default to the paper's static Poisson setup.
    """
    dynamics = ChurnModel(
        failure_rate=p["failure_rate"], duty_spread=p["duty_spread"]
    )
    config = NetworkScenarioConfig(
        topology=topology_from_params(p),
        horizon=p["horizon"],
        base_rate=p["base_rate"],
        seed=p["seed"],
        params=NodeParameters(power_down_threshold=p["threshold"]),
        dynamics=dynamics if dynamics.is_active() else None,
        traffic=(
            MMPPTraffic(
                burst_on_s=p["burst_on"],
                burst_off_s=p["burst_off"],
                off_fraction=p["burst_off_fraction"],
            )
            if p["traffic"] == "bursty"
            else None
        ),
    )
    # Shards are contiguous chunks of the node list; the word stays in
    # the run-info line, whose bytes the pinned output digests cover.
    run_info = f"(workers={rx.workers}, shards={rx.shards}, contiguous)"
    if p["sweep"]:
        sweep = run_network_lifetime_sweep(config, exec_cfg=rx)
        lines = [
            format_table(
                [
                    "PDT (s)",
                    "network energy (J)",
                    "network lifetime (d)",
                    "hotspot node",
                    "imbalance (x)",
                ],
                sweep.rows(),
                title=f"Network lifetime sweep: {sweep.topology} {run_info}",
            )
        ]
        if sweep.ci_target is not None:
            lines += _adaptive_point_ci_lines(sweep, "network energy")
        best = sweep.best()
        lines.append(
            f"\nbest threshold for the network: "
            f"{best.power_down_threshold:g} s -> "
            f"{best.network_lifetime_days:.2f} days"
        )
        return _text(lines)
    result = run_network_scenario(config, exec_cfg=rx)
    if rx.ci_target is None:
        return _text(
            [f"network scenario {run_info}", format_network_summary(result)]
        )
    energy_ci = result.energy_ci()
    lifetime_ci = result.lifetime_ci()
    return _text(
        [
            f"network scenario {run_info}",
            format_network_summary(result.result),
            f"adaptive replication   : "
            f"{_convergence_tag(result.replications, result.converged)} "
            f"at ci-target {result.ci_target:g}\n"
            f"energy across reps     : {energy_ci.mean:.4f} J "
            f"{_format_pm(energy_ci)}\n"
            f"lifetime across reps   : {lifetime_ci.mean:.2f} days "
            f"{_format_pm(lifetime_ci)}",
        ]
    )


_RENDERERS: dict[str, Callable[[Params, ResolvedExecution], str]] = {
    "fig": _render_fig,
    "table": _render_table,
    "node-sweep": _render_node_sweep,
    "validate": _render_validate,
    "network": _render_network,
}


def render_scenario(spec: ScenarioSpec, rx: ResolvedExecution) -> str:
    """Run one scenario on a resolved execution; return the text it prints.

    The params are read under the current schema (a version-1 spec gets
    the later keys' defaults), so every renderer sees every key.
    """
    params = current_params(spec.model, spec.params)
    return _RENDERERS[spec.model](params, rx)


def run_scenario(spec: ScenarioSpec, rx: ResolvedExecution | None = None) -> int:
    """Run one scenario, print its text and return the exit code.

    ``rx`` defaults to the spec's own ``execution`` resolved here
    (backend and store built once).  Store counters are flushed on the
    way out, so ``store stats`` sees this run's hits and misses.
    """
    if rx is None:
        rx = spec.execution.resolve()
    try:
        text = render_scenario(spec, rx)
    finally:
        if rx.store is not None:
            rx.store.flush_counters()
    print(text, end="")
    return 0
