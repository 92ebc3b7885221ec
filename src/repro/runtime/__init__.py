"""``repro.runtime`` — the parallel replication/sweep execution runtime.

The paper's headline artifacts (Figs. 4–9 threshold sweeps, the
23-point Figs. 14/15 grids, the Section V validation) are
embarrassingly parallel: every grid point and every replication is an
independent simulation.  This package turns that structure into wall
time:

* :mod:`repro.runtime.backend` — the one placement seam: a
  :class:`Backend` is a chunked, ordered map.  :class:`SerialBackend`
  (in-process, the ``workers=1`` default, bit-identical to the old
  for-loops), :class:`ProcessPoolBackend` (local cores, the default
  for ``workers > 1``) and :func:`make_backend` for CLI-style
  selection; a failing item re-raises as :class:`TaskError`;
* :mod:`repro.runtime.remote` — multi-host execution:
  ``SocketBackend`` dispatches task chunks to remote
  ``repro.cli worker --serve PORT`` processes over a length-prefixed
  TCP pickle protocol, load-balancing across hosts and re-queuing the
  chunks of dropped workers;
* :mod:`repro.runtime.seeding` — spawn-safe, collision-free seed plans
  via :meth:`numpy.random.SeedSequence.spawn`, and
  :func:`shard_node_seeds`, which keys a network's per-node seeds by
  global node index so no shard count can change the numbers;
* :func:`map_sweep` — the public grid × replications API, returning
  :class:`~repro.experiments.sweep.SweepPoint` rows whose values carry
  across-replication confidence intervals when ``replications > 1``;
* :mod:`repro.runtime.adaptive` — sequential replication control:
  :func:`run_adaptive_rounds` evaluates every open point in rounds and
  stops each one independently once its interval's relative half-width
  crosses an :class:`AdaptiveSettings` target, consuming a prefix of
  the fixed-count seed plan so converged runs stay bit-reproducible
  (``map_sweep`` with a ``ci_target`` in its ``exec_cfg`` is the
  sweep-level entry point);
* :mod:`repro.runtime.store` — content-addressed result memoization:
  :class:`ResultStore` keeps per-replication results on disk under a
  canonical SHA-256 :func:`task_key` of the task spec (parameters,
  seed entry, horizon — never execution knobs), written atomically and
  checksummed on read, so re-runs, figure regeneration and adaptive
  top-ups recompute only what the cache has never seen.
  :func:`cached_map` / :func:`cached_ensemble_map` are the
  store-through-backend primitives the sweep, adaptive and network
  layers build on;
* :mod:`repro.runtime.config` — the declarative seam over all of the
  above: :class:`ExecutionConfig` bundles workers / backend spec /
  engine / store dir / seed mode / shards / adaptive settings into one
  frozen, serialisable value whose :meth:`~ExecutionConfig.resolve`
  builds the live backend/store once — a :class:`ResolvedExecution`
  always holds its backend — and every driver, :func:`map_sweep`
  included, takes it as its only execution parameter, ``exec_cfg=``
  (normalised once by :func:`resolve_execution` and passed straight
  down).

Every experiment driver (``repro.experiments.figures``,
``node_energy``, ``sensitivity``, ``validation``) and :func:`map_sweep`
run their grid × replications through the one loop,
:func:`run_adaptive_rounds` (a fixed count is a single round); the
network lifetime model routes its node set through the same backend
and store, one :func:`cached_map` call whose chunk count is the
``shards`` knob.  The CLI exposes the knobs as ``--workers`` /
``--replications`` / ``--ci-target`` / ...
"""

from .adaptive import AdaptivePointRun, AdaptiveSettings, run_adaptive_rounds
from .config import (
    ENGINE_NAMES,
    ExecutionConfig,
    ResolvedExecution,
    resolve_execution,
)
from .backend import (
    BACKEND_NAMES,
    Backend,
    ProcessPoolBackend,
    SerialBackend,
    TaskError,
    make_backend,
)
from .seeding import (
    SEED_MODES,
    replication_seeds,
    sequence_to_seed,
    shard_node_seeds,
    spawn_seeds,
    spawn_sequences,
    substream_seed,
    substream_sequence,
)
from .store import (
    ResultStore,
    StoreStats,
    StoreWarning,
    cached_ensemble_map,
    cached_map,
    canonical_json,
    canonicalize,
    request_key,
    task_key,
)
from .sweep import ReplicatedValue, map_sweep

__all__ = [
    "ExecutionConfig",
    "ResolvedExecution",
    "resolve_execution",
    "ENGINE_NAMES",
    "TaskError",
    "Backend",
    "SerialBackend",
    "ProcessPoolBackend",
    "BACKEND_NAMES",
    "make_backend",
    "map_sweep",
    "ReplicatedValue",
    "AdaptiveSettings",
    "AdaptivePointRun",
    "run_adaptive_rounds",
    "replication_seeds",
    "sequence_to_seed",
    "spawn_seeds",
    "spawn_sequences",
    "substream_seed",
    "substream_sequence",
    "SEED_MODES",
    "shard_node_seeds",
    "ResultStore",
    "StoreStats",
    "StoreWarning",
    "task_key",
    "request_key",
    "canonicalize",
    "canonical_json",
    "cached_map",
    "cached_ensemble_map",
]
