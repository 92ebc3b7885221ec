"""Command-line interface: regenerate any paper artifact from the shell.

Usage::

    python -m repro.cli list
    python -m repro.cli fig 7 --horizon 1000
    python -m repro.cli table 6
    python -m repro.cli node-sweep --workload open --workers 4 --replications 8
    python -m repro.cli validate --ci-target 0.05 --max-replications 32
    python -m repro.cli network --topology grid --grid 10x10 --shards 8
    python -m repro.cli topology describe --topology geometric --nodes 200
    python -m repro.cli scenario run scenarios/fig14.yaml --smoke
    python -m repro.cli store stats --store ~/.repro-store

The run subcommands (``fig``, ``table``, ``node-sweep``, ``validate``,
``network``) generate their model flags from the scenario schema
(:mod:`repro.scenarios.spec`) and share the execution flags of
:func:`add_execution_args`.  Each one builds a
:class:`~repro.scenarios.ScenarioSpec` from its flags and runs it
exactly as ``scenario run`` does.  ``docs/running-experiments.md``
walks through every command; ``docs/cli-reference.md`` lists every
flag.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable, Mapping, Sequence
from typing import Any

from .energy.battery import LinearBattery, NodeLifetimeEstimator
from .models import NodeParameters, WSNNodeModel
from .runtime import BACKEND_NAMES
from .runtime.config import ExecutionConfig
from .scenarios import ScenarioError, ScenarioSpec, load_scenario, run_scenario
from .scenarios.runner import topology_from_params
from .scenarios.spec import SCENARIO_MODELS, params_schema, parse_value
from .topology import describe_topology

#: The network keys ``topology describe`` takes, in flag order.
_TOPOLOGY_KEYS = (
    "topology", "nodes", "grid", "radius", "fanout", "depth", "base_rate",
    "seed",
)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _ci_target(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _param_type(
    key: str, check: Callable[[str, Any], Any]
) -> Callable[[str], Any]:
    """argparse ``type=`` for a schema parameter.

    The text is read as ``--override params.KEY=VALUE`` reads it (JSON
    if it parses, else a string), then passes the parameter's own
    check; a rejection becomes an argparse error naming the flag.
    """

    def parse(text: str) -> Any:
        try:
            return check(f"params.{key}", parse_value(text))
        except ScenarioError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _add_param_args(
    sub_parser: argparse.ArgumentParser,
    model: str,
    keys: Sequence[str] | None = None,
    helps: Mapping[str, str] | None = None,
) -> None:
    """Generate ``model``'s parameter flags from the scenario schema.

    Defaults, checks, choices, help and metavar all come from the
    schema; a required parameter becomes a positional.  ``keys`` picks
    and orders a subset, ``helps`` replaces help texts.
    """
    schema = params_schema(model)
    for key in keys or schema:
        param = schema[key]
        flag = "--" + key.replace("_", "-")
        help_text = (helps or {}).get(key, param.help)
        if param.switch:
            sub_parser.add_argument(flag, action="store_true", help=help_text)
            continue
        kwargs = {
            "type": _param_type(key, param.check),
            "choices": param.choices,
            "metavar": param.metavar,
            "help": help_text,
        }
        if param.required:
            sub_parser.add_argument(key, **kwargs)
        else:
            sub_parser.add_argument(flag, default=param.default, **kwargs)


def _add_adaptive_args(sub_parser: argparse.ArgumentParser) -> None:
    sub_parser.add_argument(
        "--ci-target",
        type=_ci_target,
        default=None,
        metavar="REL",
        help=(
            "adaptive replication control: replicate each point until its "
            "95%% interval's relative half-width is <= REL (e.g. 0.05), "
            "then stop that point"
        ),
    )
    sub_parser.add_argument(
        "--max-replications",
        type=_positive_int,
        default=64,
        help="per-point replication cap under --ci-target (default 64)",
    )


def _add_backend_args(sub_parser: argparse.ArgumentParser) -> None:
    sub_parser.add_argument(
        "--backend",
        choices=list(BACKEND_NAMES),
        default=None,
        help=(
            "execution backend: 'local' (in-process), 'processes' "
            "(local pool of --workers), 'socket' (remote workers from "
            "--connect); default: processes when --workers > 1, else "
            "local"
        ),
    )
    sub_parser.add_argument(
        "--connect",
        action="append",
        default=None,
        metavar="HOST:PORT",
        help=(
            "worker address for --backend socket (repeat for several "
            "hosts; start each with 'python -m repro.cli worker "
            "--serve PORT')"
        ),
    )


def _add_engine_arg(sub_parser: argparse.ArgumentParser) -> None:
    sub_parser.add_argument(
        "--engine",
        choices=["interpreted", "vectorized"],
        default="interpreted",
        help=(
            "simulation engine: 'interpreted' (per-event Python loop, "
            "default) or 'vectorized' (all replications of a sweep "
            "point in NumPy lockstep; bit-identical results, chunking "
            "batches sweep points instead of replications)"
        ),
    )


def _add_store_args(sub_parser: argparse.ArgumentParser) -> None:
    sub_parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help=(
            "content-addressed result store directory: cached "
            "replications are served without re-simulating and new ones "
            "are written back (default: $REPRO_STORE if set, else off)"
        ),
    )
    sub_parser.add_argument(
        "--no-store",
        action="store_true",
        help=(
            "disable the result store even if $REPRO_STORE is set "
            "(contradicts --store DIR; passing both is an error)"
        ),
    )


def add_execution_args(
    sub_parser: argparse.ArgumentParser,
    *,
    replications: bool = True,
    engine: bool = True,
    shards: bool = False,
) -> None:
    """Attach the shared execution flags to a run subcommand.

    One flag set for every run subcommand — workers, replications,
    engine, adaptive control, backend, store, and (for sharded node
    sets) shards.  :func:`execution_config_from_args` is the inverse:
    it folds whatever subset a subcommand carries into one
    :class:`~repro.runtime.config.ExecutionConfig`.
    """
    sub_parser.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help=(
            "process-pool size for grid points / replications / shard "
            "tasks (default 1)"
        ),
    )
    if replications:
        sub_parser.add_argument(
            "--replications",
            type=_positive_int,
            default=1,
            help=(
                "independent replications per stochastic point (default 1); "
                "with --ci-target this is the minimum per point"
            ),
        )
    if engine:
        _add_engine_arg(sub_parser)
    _add_adaptive_args(sub_parser)
    _add_backend_args(sub_parser)
    _add_store_args(sub_parser)
    if shards:
        sub_parser.add_argument(
            "--shards",
            type=_positive_int,
            default=1,
            help=(
                "worker-group shards over the node set "
                "(default 1 = unsharded)"
            ),
        )


def _store_dir(args: argparse.Namespace) -> str | None:
    """``--store DIR``, else ``$REPRO_STORE``, else ``None``."""
    return getattr(args, "store", None) or os.environ.get("REPRO_STORE") or None


def execution_config_from_args(
    args: argparse.Namespace,
    parser: argparse.ArgumentParser | None = None,
) -> ExecutionConfig:
    """Fold the shared execution flags into one ``ExecutionConfig``.

    Validates the cross-flag constraints (socket needs ``--connect``,
    ``--store`` contradicts ``--no-store``, the adaptive replication
    floor) and resolves the store directory precedence explicitly:
    ``--no-store`` > ``--store DIR`` > ``$REPRO_STORE`` > off.  With a
    ``parser``, violations are argparse errors (exit 2); without one,
    they raise :class:`ValueError` — so programmatic callers get an
    exception instead of a ``sys.exit``.
    """

    def fail(message: str) -> None:
        if parser is not None:
            parser.error(message)
        raise ValueError(message)

    backend = getattr(args, "backend", None)
    connect = getattr(args, "connect", None)
    if backend == "socket" and not connect:
        fail(
            "--backend socket requires at least one --connect HOST:PORT "
            "(start workers with 'python -m repro.cli worker --serve PORT')"
        )
    if connect and backend != "socket":
        fail("--connect only applies with --backend socket")
    if connect:
        from .runtime.remote import parse_address

        try:
            for address in connect:
                parse_address(address)
        except ValueError as exc:
            fail(str(exc))
    if (
        getattr(args, "ci_target", None) is not None
        and getattr(args, "replications", 1) > args.max_replications
    ):
        fail(
            f"--replications {args.replications} is the per-point floor "
            f"under --ci-target and must be <= --max-replications "
            f"{args.max_replications}"
        )
    no_store = getattr(args, "no_store", False)
    if no_store and args.store:
        fail(
            "--store DIR and --no-store contradict each other; pass at "
            "most one (--no-store exists to override $REPRO_STORE for "
            "one run)"
        )
    store_dir = None if no_store else _store_dir(args)
    try:
        return ExecutionConfig(
            workers=getattr(args, "workers", 1),
            replications=getattr(args, "replications", 1),
            backend=backend,
            connect=tuple(connect or ()),
            engine=getattr(args, "engine", "interpreted"),
            store_dir=store_dir,
            shards=getattr(args, "shards", 1),
            ci_target=getattr(args, "ci_target", None),
            max_replications=getattr(args, "max_replications", 64),
        )
    except ValueError as exc:
        fail(str(exc))
        raise AssertionError("unreachable") from exc


def scenario_spec_from_args(
    args: argparse.Namespace,
    parser: argparse.ArgumentParser | None = None,
) -> ScenarioSpec:
    """The :class:`ScenarioSpec` a run subcommand's flags spell.

    The subcommand is the model, its generated flags are the params
    and the execution flags fold into the spec's ``execution`` — so
    ``repro fig 14 --horizon 2`` is ``scenario run`` of this spec.
    """
    params = {key: getattr(args, key) for key in params_schema(args.command)}
    return ScenarioSpec(
        name=args.command,
        model=args.command,
        params=params,
        execution=execution_config_from_args(args, parser),
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate artifacts of Shareef & Zhu (ICPP 2010).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available artifacts")

    runs = {
        "fig": ("regenerate a figure (4-9, 14, 15)", {}),
        "table": ("regenerate a delta table (4-6)", {}),
        "node-sweep": ("Figs. 14/15 node threshold sweep", {}),
        "validate": ("Section V IMote2 validation (Tables VIII-X)", {}),
        "network": (
            "sharded multi-node network scenario",
            {"replications": False, "engine": False, "shards": True},
        ),
    }
    for model, (help_text, execution) in runs.items():
        run = sub.add_parser(model, help=help_text)
        _add_param_args(run, model)
        add_execution_args(run, **execution)

    topology = sub.add_parser(
        "topology",
        help="inspect a topology without simulating it",
    )
    topology.add_argument(
        "action",
        choices=["describe"],
        help=(
            "describe: print node count, depth histogram and per-hop "
            "relay load for the selected topology"
        ),
    )
    _add_param_args(
        topology,
        "network",
        keys=_TOPOLOGY_KEYS,
        helps={"seed": "layout seed for generated topologies (default 2010)"},
    )

    scenario = sub.add_parser(
        "scenario",
        help="run, validate or show a declarative scenario file",
    )
    scenario.add_argument(
        "action",
        choices=["run", "validate", "show"],
        help=(
            "run: execute the scenario; validate: schema-check it; "
            "show: print the validated spec as canonical JSON"
        ),
    )
    scenario.add_argument("file", help="scenario spec (.yaml/.yml/.json)")
    scenario.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help=(
            "dotted-path spec override, e.g. params.horizon=5, "
            "execution.workers=2 or params.grid=[3,3]; repeatable, "
            "applied in order (after --smoke)"
        ),
    )
    scenario.add_argument(
        "--smoke",
        action="store_true",
        help=(
            "apply the spec's own smoke: override block first — the "
            "scenario's CI-scale shape"
        ),
    )

    store_cmd = sub.add_parser(
        "store", help="inspect or maintain a result store"
    )
    store_cmd.add_argument(
        "action",
        choices=["stats", "verify", "gc"],
        help=(
            "stats: entry/byte/hit counters; verify: checksum every "
            "entry; gc: remove corrupt entries and stale temp files"
        ),
    )
    store_cmd.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="store directory (default: $REPRO_STORE)",
    )

    worker = sub.add_parser(
        "worker",
        help="serve this host's cores to a --backend socket dispatcher",
    )
    worker.add_argument(
        "--serve",
        type=int,
        required=True,
        metavar="PORT",
        help="TCP port to listen on (0 picks a free port; the bound "
        "address is announced on stdout)",
    )
    worker.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface to bind (default 127.0.0.1; use 0.0.0.0 only "
        "on trusted networks — the protocol is unauthenticated pickle)",
    )
    worker.add_argument(
        "--max-sessions",
        type=_positive_int,
        default=None,
        help="exit after serving this many dispatcher sessions "
        "(default: serve forever)",
    )

    serve = sub.add_parser(
        "serve",
        help="serve sweep queries over HTTP from one long-lived store",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port to listen on (default 0 picks a free port; the "
        "bound address is announced on stdout)",
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface to bind (default 127.0.0.1; the API is "
        "unauthenticated — expose it only on trusted networks)",
    )
    serve.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="process-pool size for cache-miss tasks (default 1); the "
        "pool is kept alive across requests",
    )
    serve.add_argument(
        "--progress-interval",
        type=float,
        default=0.2,
        metavar="SECONDS",
        help="minimum seconds between per-task job progress events "
        "(default 0.2; 0 emits one per store access)",
    )
    _add_backend_args(serve)
    _add_store_args(serve)

    query = sub.add_parser(
        "query",
        help="run a scenario file against a 'serve' server",
    )
    query.add_argument(
        "file",
        nargs="?",
        default=None,
        help="scenario spec (.yaml/.yml/.json) — same files "
        "'scenario run' takes; optional with --stats",
    )
    query.add_argument(
        "--server",
        required=True,
        metavar="URL",
        help="server base URL, e.g. http://127.0.0.1:8123 (the "
        "address 'serve' announces)",
    )
    query.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="dotted-path spec override, exactly as in 'scenario run'; "
        "repeatable, applied in order (after --smoke)",
    )
    query.add_argument(
        "--smoke",
        action="store_true",
        help="apply the spec's own smoke: override block first",
    )
    query.add_argument(
        "--mode",
        choices=["sync", "poll", "stream"],
        default="sync",
        help="sync: one blocking request (default); poll: submit then "
        "poll the job endpoint; stream: follow NDJSON events live",
    )
    query.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        metavar="SECONDS",
        help="overall client-side deadline (default 600)",
    )
    query.add_argument(
        "--stats",
        action="store_true",
        help="print the server's /stats JSON and exit (no FILE needed)",
    )

    life = sub.add_parser("lifetime", help="battery lifetime at a threshold")
    life.add_argument("--threshold", type=float, default=0.00178)
    life.add_argument("--workload", choices=["closed", "open"], default="closed")
    life.add_argument("--horizon", type=float, default=300.0)
    life.add_argument("--capacity-mah", type=float, default=1000.0)
    life.add_argument("--voltage", type=float, default=4.5)
    life.add_argument("--seed", type=int, default=2010)

    return parser


def _cmd_store(args: argparse.Namespace) -> int:
    from .runtime.store import ResultStore

    store = ResultStore(args.store)
    if args.action == "stats":
        for line in store.stats().lines():
            print(line)
        return 0
    if args.action == "verify":
        n_ok, corrupt = store.verify()
        print(
            f"verified: {n_ok} intact entr{'y' if n_ok == 1 else 'ies'}, "
            f"{len(corrupt)} corrupt"
        )
        for path in corrupt:
            print(f"  corrupt: {path}")
        return 1 if corrupt else 0
    files_removed, bytes_reclaimed = store.gc()
    print(
        f"gc: removed {files_removed} file(s), "
        f"reclaimed {bytes_reclaimed} bytes"
    )
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from .runtime.remote import serve_worker

    served = serve_worker(
        args.serve, args.host, max_sessions=args.max_sessions
    )
    print(f"repro worker done: {served} chunk(s) served")
    return 0


def _cmd_serve(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    from .serving import SweepService, make_server

    execution = execution_config_from_args(args, parser)
    service = SweepService(
        execution, progress_interval=args.progress_interval
    )
    server = make_server(service, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    # The announcement format is shared with `worker --serve` and
    # parsed by scripts/ci_smoke.sh (worker_port): keep the trailing
    # "host:port" shape.
    print(f"repro serve listening on {host}:{port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        service.close()
    stats = service.stats()
    print(
        f"repro serve done: {stats['requests']['total']} request(s), "
        f"{stats['jobs']['total']} job(s)"
    )
    return 0


def _cmd_query(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    from .serving import ServerError, fetch_stats, query_server

    try:
        if args.stats:
            stats = fetch_stats(args.server, timeout=args.timeout)
            print(json.dumps(stats, indent=2, sort_keys=True))
            return 0
        if not args.file:
            parser.error("query needs a scenario FILE (or --stats)")
        # Validated here exactly as `scenario run` validates; the
        # server re-validates the round-tripped spec the same way.
        spec = load_scenario(
            args.file, overrides=args.override, smoke=args.smoke
        )
        snapshot = query_server(
            args.server,
            {"scenario": spec.to_dict()},
            mode=args.mode,
            timeout=args.timeout,
        )
    except (ScenarioError, ServerError, TimeoutError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = snapshot.get("result") or {}
    output = result.get("output")
    if output:
        # Verbatim, so stdout diffs clean against `scenario run`.
        print(output, end="", flush=True)
    if snapshot["state"] != "done":
        detail = snapshot.get("error") or snapshot["state"]
        print(
            f"error: job {snapshot['id']} {snapshot['state']}: {detail}",
            file=sys.stderr,
        )
        return 2
    exit_code = result.get("exit_code")
    return exit_code if isinstance(exit_code, int) else 0


def _cmd_list() -> int:
    print(
        "figures: 4 5 6 (state shares) 7 8 9 (energy) 14 15 (node sweeps)\n"
        "tables:  4 5 6 (delta energy) + validate (VIII-X)\n"
        "extras:  node-sweep, lifetime, network (sharded multi-node), "
        "scenario (declarative spec files)"
    )
    return 0


def _run(spec: ScenarioSpec) -> int:
    """Run one spec; a configuration error is a message and exit 2."""
    try:
        return run_scenario(spec)
    except ValueError as exc:
        # e.g. a spec pairing engine=vectorized with a network model —
        # a user configuration error, not a crash.
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_scenario(args: argparse.Namespace) -> int:
    try:
        spec = load_scenario(
            args.file, overrides=args.override, smoke=args.smoke
        )
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.action == "validate":
        print(
            f"OK: {args.file}: scenario {spec.name!r} "
            f"(model {spec.model}, schema v{spec.version}) is valid"
        )
        return 0
    if args.action == "show":
        print(json.dumps(spec.to_dict(), indent=2, sort_keys=True))
        return 0
    return _run(spec)


def _cmd_topology(args: argparse.Namespace) -> int:
    """A deterministic structural report; no simulation runs."""
    print(describe_topology(topology_from_params(vars(args)), args.base_rate))
    return 0


def _cmd_lifetime(args: argparse.Namespace) -> int:
    params = NodeParameters(power_down_threshold=args.threshold)
    result = WSNNodeModel(params, args.workload).simulate(
        args.horizon, seed=args.seed
    )
    mean_power_mw = result.total_energy_j / result.duration * 1000.0
    estimator = NodeLifetimeEstimator(
        LinearBattery(args.capacity_mah, args.voltage, usable_fraction=0.85)
    )
    days = estimator.lifetime_days(mean_power_mw)
    print(
        f"threshold {args.threshold:g} s ({args.workload}): "
        f"mean power {mean_power_mw:.3f} mW -> "
        f"{days:.1f} days on {args.capacity_mah:g} mAh @ {args.voltage:g} V"
    )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "worker" and not 0 <= args.serve <= 65535:
        parser.error(f"--serve port must be in 0..65535, got {args.serve}")
    if args.command == "serve" and not 0 <= args.port <= 65535:
        parser.error(f"--port must be in 0..65535, got {args.port}")
    if args.command in SCENARIO_MODELS:
        return _run(scenario_spec_from_args(args, parser))
    if args.command == "store":
        args.store = _store_dir(args)
        if not args.store:
            parser.error("store requires --store DIR (or $REPRO_STORE)")
        return _cmd_store(args)
    if args.command == "worker":
        return _cmd_worker(args)
    if args.command == "list":
        return _cmd_list()
    if args.command == "lifetime":
        return _cmd_lifetime(args)
    if args.command == "topology":
        return _cmd_topology(args)
    if args.command == "scenario":
        return _cmd_scenario(args)
    if args.command == "serve":
        return _cmd_serve(args, parser)
    if args.command == "query":
        return _cmd_query(args, parser)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
