"""Flag-spelled run subcommands are scenario specs.

The ``fig``/``table``/``node-sweep``/``validate``/``network`` flags are
generated from the scenario schema, so:

* a flag spells the same spec as ``--override params.KEY=VALUE``, and
  its default is the schema default;
* a bad flag value is an argparse error (exit 2) naming the flag,
  never a traceback;
* the printed output of a set of flag runs is pinned by digest, so a
  change to the run path that moves one byte fails here.
"""

import argparse
import hashlib

import pytest

from repro.cli import _build_parser, main, scenario_spec_from_args
from repro.scenarios import ScenarioSpec
from repro.scenarios.spec import SCENARIO_MODELS, params_schema


@pytest.fixture(autouse=True)
def _no_ambient_store(monkeypatch):
    monkeypatch.delenv("REPRO_STORE", raising=False)


#: A valid, non-default value for every schema key, as a flag reads it.
SAMPLES = {
    "number": "5",
    "horizon": "2.5",
    "seed": "7",
    "workload": "open",
    "topology": "geometric",
    "nodes": "4",
    "grid": "3x4",
    "threshold": "0.02",
    "sweep": "true",
    "base_rate": "0.25",
    "radius": "0.6",
    "fanout": "2",
    "depth": "4",
    "failure_rate": "0.1",
    "duty_spread": "0.2",
    "traffic": "bursty",
    "burst_on": "2",
    "burst_off": "3",
    "burst_off_fraction": "0.3",
}

#: The positional every ``fig``/``table`` invocation needs.
REQUIRED = {"fig": ["4"], "table": ["4"]}

CASES = [
    (model, key)
    for model in SCENARIO_MODELS
    for key in params_schema(model)
]


def _flag_spec(argv):
    parser = _build_parser()
    return scenario_spec_from_args(parser.parse_args(argv), parser)


def _subparser(model):
    [sub] = [
        a for a in _build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    return sub.choices[model]


def _argv(model, key, value):
    """``repro MODEL`` with ``key`` set to ``value`` by its flag."""
    schema = params_schema(model)
    positional = list(REQUIRED.get(model, []))
    if schema[key].required:
        return [model, value]
    flag = "--" + key.replace("_", "-")
    if schema[key].switch:
        return [model, *positional, flag]
    return [model, *positional, flag, value]


class TestGeneratedFlags:
    @pytest.mark.parametrize(("model", "key"), CASES)
    def test_flag_equals_override(self, model, key):
        value = SAMPLES[key]
        base = {"number": int(REQUIRED[model][0])} if model in REQUIRED else {}
        by_override = ScenarioSpec(
            name=model, model=model, params=base
        ).with_overrides([f"params.{key}={value}"])
        assert _flag_spec(_argv(model, key, value)) == by_override

    @pytest.mark.parametrize(
        ("model", "key"),
        [(m, k) for m, k in CASES if not params_schema(m)[k].required],
    )
    def test_flag_default_is_schema_default(self, model, key):
        param = params_schema(model)[key]
        [action] = [a for a in _subparser(model)._actions if a.dest == key]
        assert action.default == param.default
        assert type(action.default) is type(param.default)

    def test_bare_subcommand_is_the_default_spec(self):
        assert _flag_spec(["network"]) == ScenarioSpec(
            name="network", model="network"
        )

    def test_topology_describe_flags_come_from_the_network_schema(self):
        schema = params_schema("network")
        args = _build_parser().parse_args(["topology", "describe"])
        for key in ("topology", "nodes", "grid", "radius", "fanout",
                    "depth", "base_rate", "seed"):
            assert getattr(args, key) == schema[key].default


#: Flag values the schema rejects; each crashed with a traceback when
#: the flags were hand-written.
BAD_FLAGS = [
    (["fig", "7", "--horizon", "0"], "--horizon"),
    (["table", "4", "--horizon", "-1"], "--horizon"),
    (["node-sweep", "--horizon", "0"], "--horizon"),
    (["network", "--threshold", "-1"], "--threshold"),
    (["network", "--base-rate", "0"], "--base-rate"),
    (
        ["network", "--topology", "geometric", "--nodes", "10",
         "--radius", "-1"],
        "--radius",
    ),
    (["topology", "describe", "--base-rate", "-1"], "--base-rate"),
    (["network", "--seed", "-1"], "--seed"),
    (["fig", "7", "--seed", "-1"], "--seed"),
]


@pytest.mark.parametrize(
    ("argv", "flag"), BAD_FLAGS, ids=[" ".join(a) for a, _ in BAD_FLAGS]
)
def test_bad_flag_value_is_a_usage_error(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"argument {flag}:" in err
    assert "Traceback" not in err


#: sha256 of stdout for flag-spelled runs, recorded before the flag
#: commands became scenario specs.  Both engines print the same bytes.
PINNED = {
    "fig 4": (
        ["fig", "4", "--horizon", "2", "--replications", "2"],
        "04715d5671c9f4ba9a4e5923e9ade758f6c5508a0897400dde6b11f6ec4dac57",
    ),
    "fig 7": (
        ["fig", "7", "--horizon", "2", "--replications", "2"],
        "ef7f9b03469d8392b1c98bf7676b7beba8df250f7167fc62c374812febc841f1",
    ),
    "fig 14": (
        ["fig", "14", "--horizon", "2", "--replications", "2"],
        "b48d2a1d3b15649f67ddca9b529c49f7f8979e6f508283363769d73eb94229ad",
    ),
    "table 5": (
        ["table", "5", "--horizon", "2"],
        "91b8d6bdea255e17a914271c0c126511cc8b355f5f38038d197ee98402f36294",
    ),
    "node-sweep open": (
        ["node-sweep", "--workload", "open", "--horizon", "2"],
        "b4eab4334daae1912fc170dbdcf5818fc5af0dc284be438c7e156c24208fc742",
    ),
    "validate R=2": (
        ["validate", "--replications", "2"],
        "426798afee74db2676f78c262f0f3fc8c2296c03cdb843450b08c2e00ef938b0",
    ),
    "validate adaptive": (
        ["validate", "--ci-target", "0.5", "--max-replications", "4"],
        "43a7d577200ac0ce5cf613f6d6e02ccc8627a506286c7d257338feea44a1e63a",
    ),
    "network single": (
        ["network", "--nodes", "3", "--horizon", "5"],
        "77a11ba7239428734db79e4dc070ec1545443e023e302ab3312641d168e2db89",
    ),
    "network sweep": (
        ["network", "--topology", "star", "--nodes", "2", "--horizon", "5",
         "--sweep"],
        "6f2e66dc28d986a2605588b7f662ae6b4fb97ddbe3b77aab70888b708df26120",
    ),
    "network adaptive": (
        ["network", "--nodes", "2", "--horizon", "5", "--ci-target", "0.5",
         "--max-replications", "3"],
        "426114c36ac10fd93276e1ade02203e5001a704b0e74ce629c59ae3f46a47b8b",
    ),
    "network geometric churn bursty": (
        ["network", "--topology", "geometric", "--nodes", "8",
         "--horizon", "20", "--failure-rate", "0.05", "--duty-spread", "0.2",
         "--traffic", "bursty", "--burst-on", "2", "--burst-off", "4",
         "--burst-off-fraction", "0.1", "--shards", "2"],
        "9db1695a053d94ccf00233ea33f8c67844c4e1a00d6d4d44fa98315c1cd72ce5",
    ),
    "topology describe": (
        ["topology", "describe", "--topology", "geometric", "--nodes", "12"],
        "f0c206b76d0e10f228496a2c0ff83772bd8d4a8d7492b396660dbabf7cbc77c6",
    ),
}

PINNED_RUNS = [
    (name, argv, digest)
    for name, (argv, digest) in PINNED.items()
    if not name.startswith("fig")
] + [
    (f"{name} {engine}", [*argv, "--engine", engine], digest)
    for name, (argv, digest) in PINNED.items()
    if name.startswith("fig")
    for engine in ("interpreted", "vectorized")
]


@pytest.mark.parametrize(
    ("argv", "digest"),
    [(argv, digest) for _, argv, digest in PINNED_RUNS],
    ids=[name for name, _, _ in PINNED_RUNS],
)
def test_pinned_output(capsys, argv, digest):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
