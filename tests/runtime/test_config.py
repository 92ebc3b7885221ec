"""Tests for the ExecutionConfig seam (repro.runtime.config)."""

import pytest

from repro.runtime.backend import ProcessPoolBackend, SerialBackend
from repro.runtime.config import (
    ExecutionConfig,
    ResolvedExecution,
    resolve_execution,
)
from repro.runtime.store import ResultStore


class TestValidation:
    def test_defaults_are_valid(self):
        cfg = ExecutionConfig()
        assert cfg.workers == 1
        assert cfg.engine == "interpreted"
        assert cfg.backend is None
        assert cfg.store_dir is None

    @pytest.mark.parametrize(
        "field", ["workers", "replications", "shards", "max_replications"]
    )
    def test_positive_int_fields_name_the_field(self, field):
        for bad in (0, -1, 1.5, "2", True):
            with pytest.raises(ValueError, match=field):
                ExecutionConfig(**{field: bad})

    @pytest.mark.parametrize(
        ("field", "bad"),
        [
            ("engine", "turbo"),
            ("backend", "quantum"),
            ("seed_mode", "fixed"),
        ],
    )
    def test_choice_fields_name_the_field(self, field, bad):
        with pytest.raises(ValueError, match=field):
            ExecutionConfig(**{field: bad})

    def test_bare_string_connect_rejected(self):
        # A bare string would silently iterate per character.
        with pytest.raises(ValueError, match="connect"):
            ExecutionConfig(backend="socket", connect="host:9000")

    def test_connect_requires_socket_backend(self):
        with pytest.raises(ValueError, match="connect"):
            ExecutionConfig(backend="processes", connect=("h:1",))

    def test_socket_backend_requires_connect(self):
        with pytest.raises(ValueError, match="socket"):
            ExecutionConfig(backend="socket")

    def test_list_connect_coerced_to_tuple(self):
        cfg = ExecutionConfig(backend="socket", connect=["h:1", "h:2"])
        assert cfg.connect == ("h:1", "h:2")

    def test_ci_target_must_be_positive(self):
        with pytest.raises(ValueError, match="ci_target"):
            ExecutionConfig(ci_target=0.0)
        with pytest.raises(ValueError, match="ci_target"):
            ExecutionConfig(ci_target=True)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_ci_target_must_be_finite(self, bad):
        # NaN compares false against 0, so "> 0" alone lets it pass.
        with pytest.raises(ValueError, match="ci_target must be finite"):
            ExecutionConfig(ci_target=bad)

    def test_shard_strategy_is_not_a_knob(self):
        # Shards are contiguous chunks; there is no strategy to pick.
        with pytest.raises(ValueError, match="shard_strategy"):
            ExecutionConfig.from_dict({"shard_strategy": "round-robin"})

    def test_replication_floor_above_cap_rejected_under_ci_target(self):
        with pytest.raises(ValueError, match="max_replications"):
            ExecutionConfig(ci_target=0.1, replications=65)
        # Without adaptive control the same counts are fine.
        ExecutionConfig(replications=65)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ExecutionConfig().workers = 4


class TestSerialisation:
    def test_round_trip(self):
        cfg = ExecutionConfig(
            workers=4,
            replications=8,
            backend="socket",
            connect=("a:1", "b:2"),
            engine="vectorized",
            store_dir="/tmp/s",
            shards=3,
            ci_target=0.05,
        )
        assert ExecutionConfig.from_dict(cfg.to_dict()) == cfg

    def test_to_dict_is_json_plain(self):
        import json

        data = ExecutionConfig(backend="socket", connect=("a:1",)).to_dict()
        assert data["connect"] == ["a:1"]
        json.dumps(data)  # must not raise

    def test_from_dict_unknown_key_named(self):
        with pytest.raises(ValueError, match="turbo_mode"):
            ExecutionConfig.from_dict({"turbo_mode": True})

    def test_with_overrides_revalidates(self):
        cfg = ExecutionConfig(workers=2)
        assert cfg.with_overrides(workers=4).workers == 4
        with pytest.raises(ValueError, match="workers"):
            cfg.with_overrides(workers=0)


class TestResolve:
    def test_default_resolves_to_serial_backend_no_store(self):
        rx = ExecutionConfig().resolve()
        assert isinstance(rx, ResolvedExecution)
        assert isinstance(rx.backend, SerialBackend)
        assert rx.store is None

    def test_workers_alone_resolve_to_a_per_call_pool(self):
        rx = ExecutionConfig(workers=3).resolve()
        assert isinstance(rx.backend, ProcessPoolBackend)
        assert (rx.backend.workers, rx.backend.keep_alive) == (3, False)
        kept = ExecutionConfig(workers=3).resolve(keep_alive=True)
        assert kept.backend.keep_alive

    def test_backend_and_store_constructed(self, tmp_path):
        rx = ExecutionConfig(
            backend="processes", workers=2, store_dir=str(tmp_path)
        ).resolve()
        assert isinstance(rx.backend, ProcessPoolBackend)
        assert isinstance(rx.store, ResultStore)

    def test_local_backend(self):
        rx = ExecutionConfig(backend="local").resolve()
        assert isinstance(rx.backend, SerialBackend)

    def test_backend_spec_wins_over_workers(self):
        rx = ExecutionConfig(backend="local", workers=2).resolve()
        assert isinstance(rx.backend, SerialBackend)
        assert rx.backend.map(_square, [1, 2, 3]) == [1, 4, 9]


class TestResolveExecutionShim:
    """``resolve_execution`` normalises ``exec_cfg``; loose keywords are gone."""

    def test_legacy_keywords_alone(self):
        with pytest.raises(TypeError, match="workers"):
            resolve_execution(workers=3, engine="vectorized")

    def test_exec_cfg_resolved(self):
        rx = resolve_execution(ExecutionConfig(workers=2))
        assert isinstance(rx, ResolvedExecution)
        assert rx.workers == 2

    def test_resolved_passthrough(self):
        rx = ExecutionConfig(workers=7).resolve()
        assert resolve_execution(rx) is rx

    def test_conflicting_non_default_keyword_rejected(self):
        with pytest.raises(TypeError, match="workers"):
            resolve_execution(ExecutionConfig(), workers=4)

    def test_unknown_keyword_rejected(self):
        with pytest.raises(TypeError, match="turbo"):
            resolve_execution(turbo=True)

    def test_wrong_type_rejected(self):
        with pytest.raises(TypeError, match="ExecutionConfig"):
            resolve_execution({"workers": 2})

    def test_none_resolves_the_defaults(self):
        rx = resolve_execution(None)
        assert isinstance(rx.backend, SerialBackend)
        assert rx == ExecutionConfig().bind(backend=rx.backend)


class TestBind:
    """``bind`` is the one place a config's knobs are copied."""

    def test_every_knob_is_copied(self, tmp_path):
        cfg = ExecutionConfig(
            workers=3,
            replications=4,
            engine="vectorized",
            seed_mode="spawn",
            shards=2,
            ci_target=0.1,
            max_replications=9,
            min_replications=3,
        )
        store = ResultStore(tmp_path)
        backend = SerialBackend()
        rx = cfg.bind(backend=backend, store=store)
        assert rx.backend is backend
        assert rx.store is store
        for name in (
            "workers",
            "replications",
            "engine",
            "seed_mode",
            "shards",
            "ci_target",
            "max_replications",
            "min_replications",
        ):
            assert getattr(rx, name) == getattr(cfg, name), name

    def test_bind_without_a_backend_builds_the_configs_own(self):
        assert isinstance(ExecutionConfig().bind().backend, SerialBackend)
        rx = ExecutionConfig(workers=2).bind()
        assert isinstance(rx.backend, ProcessPoolBackend)
        assert rx.backend.workers == 2

    def test_resolve_binds_the_objects_it_builds(self, tmp_path):
        cfg = ExecutionConfig(store_dir=str(tmp_path), replications=3)
        rx = cfg.resolve()
        assert rx == cfg.bind(backend=rx.backend, store=rx.store)

    def test_replication_settings_fixed_and_adaptive(self):
        fixed = ExecutionConfig(replications=3).resolve().replication_settings()
        assert (fixed.ci_target, fixed.min_replications) == (None, 3)
        assert fixed.max_replications == 3
        adaptive = (
            ExecutionConfig(ci_target=0.1, replications=5, max_replications=8)
            .resolve()
            .replication_settings()
        )
        assert adaptive.min_replications == 5  # replications is the floor
        assert adaptive.max_replications == 8
        single = ExecutionConfig(replications=3).resolve()
        assert single.replication_settings(replications=1).max_replications == 1


class TestDriversAcceptExecCfg:
    """A config and its resolved form run bit-identically."""

    def test_node_sweep_equivalence(self):
        from repro.experiments import NodeSweepConfig, run_node_energy_sweep

        cfg = NodeSweepConfig(horizon=2.0, seed=5)
        resolved = run_node_energy_sweep(
            cfg, exec_cfg=ExecutionConfig(replications=2).resolve()
        )
        seamed = run_node_energy_sweep(
            cfg, exec_cfg=ExecutionConfig(replications=2)
        )
        assert seamed.breakdowns == resolved.breakdowns
        assert seamed.replicates == resolved.replicates

    def test_network_equivalence(self):
        from repro.experiments import (
            NetworkScenarioConfig,
            run_network_scenario,
        )
        from repro.models import LineTopology

        cfg = NetworkScenarioConfig(
            topology=LineTopology(3), horizon=5.0, seed=5
        )
        serial = run_network_scenario(cfg)
        seamed = run_network_scenario(cfg, exec_cfg=ExecutionConfig(shards=2))
        assert seamed == serial

    def test_mixing_styles_rejected(self):
        from repro.experiments import NodeSweepConfig, run_node_energy_sweep

        with pytest.raises(TypeError, match="replications"):
            run_node_energy_sweep(
                NodeSweepConfig(horizon=2.0),
                replications=2,
                exec_cfg=ExecutionConfig(),
            )


def _square(x):
    return x * x
