"""Adaptive replication control: run each point until its CI is tight.

A fixed ``--replications`` count spends the same effort on every sweep
point — wasteful on low-variance points, under-powered on noisy ones.
This module replaces the fixed count with a *sequential, rounds-based
stopping rule*: evaluate every still-open point a batch of replications
at a time through the run's :class:`~repro.runtime.backend.Backend`,
recompute each point's across-replication
:func:`~repro.core.statistics.replication_interval` after the round,
and close a point once ``relative_half_width() <= ci_target`` (or it
hits ``max_replications``).  Points stop independently, so
heterogeneous sweeps finish in the time of their noisiest point's need,
not ``n_points × max_replications``.

Reproducibility contract
------------------------
Per-point seed plans are fixed *before* any work runs and always cover
the full ``max_replications``; the controller merely consumes a prefix.
:meth:`numpy.random.SeedSequence.spawn` hands out the same first ``k``
children regardless of how many siblings are eventually spawned, so the
replications an adaptive run executes are a **bit-identical prefix** of
the fixed ``max_replications`` run at the same seed — for every
``workers`` setting, chunking and start method.  Convergence decisions
are made in the parent from the gathered values only, so they cannot
depend on execution order either.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any

from ..core.statistics import replication_interval
from .backend import Backend, SerialBackend
from .store import ResultStore

__all__ = ["AdaptiveSettings", "AdaptivePointRun", "run_adaptive_rounds"]

#: Confidence level of the stopping intervals.
CONFIDENCE = 0.95


@dataclass(frozen=True)
class AdaptiveSettings:
    """Stopping rule of a sequential replication controller.

    Parameters
    ----------
    ci_target:
        Target relative CI half-width: a point is converged once the
        :data:`CONFIDENCE` interval's ``relative_half_width() <=
        ci_target`` for every tracked metric.  ``None`` is a fixed
        count: every point runs exactly one round of
        ``min_replications`` (which must then equal
        ``max_replications``) and no interval is computed.
    min_replications:
        Replications every point runs per round, so also before the
        rule is first checked (at least 2 under a ``ci_target`` — a
        single replication has an infinite half-width).
    max_replications:
        Hard cap per point; a point reaching it closes unconverged.
    """

    ci_target: float | None
    min_replications: int = 2
    max_replications: int = 64

    def __post_init__(self) -> None:
        if self.ci_target is None:
            if self.min_replications < 1:
                raise ValueError(
                    f"replications must be >= 1, got {self.min_replications}"
                )
            if self.max_replications != self.min_replications:
                raise ValueError(
                    "a fixed count (ci_target=None) runs one round: "
                    f"min_replications {self.min_replications} must equal "
                    f"max_replications {self.max_replications}"
                )
        elif not math.isfinite(self.ci_target) or self.ci_target <= 0:
            raise ValueError(f"ci_target must be finite and > 0, got {self.ci_target}")
        elif self.min_replications < 2:
            raise ValueError(
                "min_replications must be >= 2 (one replication has an "
                f"infinite half-width), got {self.min_replications}"
            )
        if self.max_replications < self.min_replications:
            raise ValueError(
                f"max_replications {self.max_replications} must be >= "
                f"min_replications {self.min_replications}"
            )


@dataclass
class AdaptivePointRun:
    """One point's outcome under the adaptive controller.

    ``values`` holds the raw evaluation results in replication order —
    by the seed-plan contract, a bit-identical prefix of the fixed
    ``max_replications`` run.  ``converged`` is ``None`` for a fixed
    count (no interval is computed).
    """

    values: list[Any]
    converged: bool | None

    @property
    def replications(self) -> int:
        """Replications actually executed for this point."""
        return len(self.values)


def _metric_values(
    metrics: Callable[[Any], float | Sequence[float]], value: Any
) -> tuple[float, ...]:
    out = metrics(value)
    if isinstance(out, (tuple, list)):
        return tuple(float(v) for v in out)
    return (float(out),)


def _converged(
    values: list[Any],
    metrics: Callable[[Any], float | Sequence[float]],
    settings: AdaptiveSettings,
) -> bool:
    """Whether every metric's interval meets ``settings.ci_target``."""
    samples = [_metric_values(metrics, v) for v in values]
    return all(
        replication_interval([s[m] for s in samples], CONFIDENCE).relative_half_width()
        <= settings.ci_target
        for m in range(len(samples[0]))
    )


def run_adaptive_rounds(
    fn: Callable[[Any], Any],
    task_for: Callable[[int, int], Any],
    n_points: int,
    settings: AdaptiveSettings,
    metrics: Callable[[Any], float | Sequence[float]] = float,
    backend: Backend | None = None,
    ensemble_fn: Callable[[Any], list[Any]] | None = None,
    ensemble_task_for: Callable[[int, int, int], Any] | None = None,
    store: ResultStore | None = None,
) -> list[AdaptivePointRun]:
    """Drive ``fn`` over ``(point, replication)`` tasks until CIs close.

    This is the one replication loop every driver runs on: a fixed
    replication count is the special case ``settings.ci_target=None``
    (one round, no interval).

    Parameters
    ----------
    fn:
        The task evaluator (module-level/picklable for an
        out-of-process backend).
    task_for:
        ``(point_index, replication_index) -> item`` — called in the
        parent, so it may close over local state; the returned items
        must be picklable for an out-of-process backend.  It must be a
        pure function of its indices: the controller relies on task
        ``(i, r)`` being identical whenever it is requested, which is
        what makes the executed replications a prefix of the fixed run.
    n_points:
        Number of independent design points.
    settings:
        The stopping rule (:class:`AdaptiveSettings`).
    metrics:
        Maps one evaluation result to the float (or several floats)
        whose interval must tighten; a point converges only when
        *every* metric meets ``ci_target``.  Applied in the parent.
    backend:
        The :class:`~repro.runtime.backend.Backend` each round's batch
        is submitted through (default: in-process).
    ensemble_fn / ensemble_task_for:
        The ``engine="vectorized"`` round shape: when both are given,
        each round submits **one task per open point** covering all of
        that round's new replications — ``ensemble_task_for(point,
        first_replication, count)`` builds the item and
        ``ensemble_fn(item)`` returns the ``count`` per-replication
        values in seed-plan order.  Chunking thus batches sweep points,
        not replications; the stopping rule, seed-plan prefix contract
        and returned values are unchanged (the vectorized engine is
        bit-identical per replication).
    store:
        Optional :class:`~repro.runtime.store.ResultStore`.  Each
        round runs through :func:`~repro.runtime.store.cached_map` (or
        :func:`~repro.runtime.store.cached_ensemble_map` for the
        ensemble shape), so new replications are keyed by
        ``task_key(fn, task_for(i, r))`` — always the *interpreted*
        task shape, so both engines share entries — cached values are
        served without submitting work and computed values are written
        back.  Raising ``max_replications`` on a warmed store therefore
        schedules only the delta replications.

    Returns
    -------
    list[AdaptivePointRun]
        One entry per point, in point order.
    """
    # Looked up at call time, so a wrapper installed on the store
    # module's maps (e.g. a profiler) sees every round.
    from .store import cached_ensemble_map, cached_map

    if n_points < 0:
        raise ValueError(f"n_points must be >= 0, got {n_points}")
    if (ensemble_fn is None) != (ensemble_task_for is None):
        raise ValueError(
            "ensemble_fn and ensemble_task_for must be given together"
        )
    if backend is None:
        backend = SerialBackend()
    fixed = settings.ci_target is None
    runs = [
        AdaptivePointRun(values=[], converged=None if fixed else False)
        for _ in range(n_points)
    ]
    open_points = list(range(n_points))
    while open_points:
        # (point, first new replication, new replication count)
        batch: list[tuple[int, int, int]] = []
        for i in open_points:
            done = len(runs[i].values)
            want = min(settings.min_replications, settings.max_replications - done)
            batch.append((i, done, want))
        rep_items = [[task_for(i, done + r) for r in range(n)] for i, done, n in batch]
        if ensemble_fn is None:
            flat = iter(
                cached_map(
                    backend, fn, [item for items in rep_items for item in items], store
                )
            )
            per_point = [[next(flat) for _ in items] for items in rep_items]
        else:
            per_point = cached_ensemble_map(
                backend,
                ensemble_fn,
                [ensemble_task_for(i, done, n) for i, done, n in batch],
                store,
                key_fn=fn,
                rep_items=rep_items,
                rebuild_tail=lambda k, start: ensemble_task_for(
                    batch[k][0], batch[k][1] + start, batch[k][2] - start
                ),
            )
        for (i, _, _), values in zip(batch, per_point):
            runs[i].values.extend(values)
        if fixed:
            break
        still_open: list[int] = []
        for i in open_points:
            run = runs[i]
            run.converged = _converged(run.values, metrics, settings)
            if not run.converged and run.replications < settings.max_replications:
                still_open.append(i)
        open_points = still_open
    return runs
