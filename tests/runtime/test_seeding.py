"""Spawn-safe seeding: collision-freedom, determinism, legacy head."""

import math

import numpy as np
import pytest

from repro.runtime.seeding import (
    replication_seeds,
    sequence_to_seed,
    shard_node_seeds,
    spawn_seeds,
    spawn_sequences,
)


def chunks(items, shards):
    """Contiguous chunks of ``ceil(len / shards)``, as network runs use."""
    size = math.ceil(len(items) / shards)
    return [items[i : i + size] for i in range(0, len(items), size)]


class TestSpawnSeeds:
    def test_deterministic_for_fixed_root(self):
        assert spawn_seeds(2010, 8) == spawn_seeds(2010, 8)

    def test_distinct_within_family(self):
        seeds = spawn_seeds(7, 64)
        assert len(set(seeds)) == 64

    def test_distinct_across_roots(self):
        assert set(spawn_seeds(1, 16)).isdisjoint(spawn_seeds(2, 16))

    def test_children_produce_distinct_streams(self):
        # The regression the runtime exists to prevent: replications
        # must see genuinely different randomness.
        a, b = (np.random.default_rng(s).random(16) for s in spawn_seeds(3, 2))
        assert not np.array_equal(a, b)

    def test_sequence_to_seed_is_128_bit(self):
        seq = np.random.SeedSequence(5)
        seed = sequence_to_seed(seq)
        assert 0 <= seed < 2**128
        assert seed == sequence_to_seed(np.random.SeedSequence(5))


class TestSpawnSequences:
    def test_matches_numpy_spawn_tree(self):
        ours = spawn_sequences(11, 3)
        theirs = np.random.SeedSequence(11).spawn(3)
        for a, b in zip(ours, theirs):
            assert a.generate_state(4).tolist() == b.generate_state(4).tolist()


class TestReplicationSeeds:
    def test_single_replication_is_legacy_seed(self):
        assert replication_seeds(2010, 1) == [2010]

    def test_head_is_legacy_rest_are_spawned(self):
        seeds = replication_seeds(2010, 4)
        assert seeds[0] == 2010
        assert len(set(seeds)) == 4
        assert seeds[1:] == spawn_seeds(2010, 3)

    def test_rejects_zero_replications(self):
        import pytest

        with pytest.raises(ValueError):
            replication_seeds(1, 0)


class TestShardNodeSeeds:
    def test_legacy_matches_historical_scheme(self):
        assert shard_node_seeds(2010, 4) == [2010, 2011, 2012, 2013]

    def test_legacy_requires_integer_seed(self):
        with pytest.raises(ValueError):
            shard_node_seeds(None, 3, mode="legacy")

    def test_spawn_mode_reproducible_and_entropy_ok(self):
        a = shard_node_seeds(7, 16, mode="spawn")
        b = shard_node_seeds(7, 16, mode="spawn")
        assert a == b
        assert len(shard_node_seeds(None, 4, mode="spawn")) == 4

    @pytest.mark.parametrize("mode", ["legacy", "spawn"])
    def test_collision_free_across_shards(self, mode):
        # Every shard's seed set is disjoint from every other shard's —
        # seeds are keyed by global node index.
        seeds = shard_node_seeds(42, 50, mode=mode)
        assert len(set(seeds)) == len(seeds)
        per_shard = [set(chunk) for chunk in chunks(seeds, 6)]
        union = set().union(*per_shard)
        assert len(union) == sum(len(s) for s in per_shard)

    def test_seed_plan_invariant_to_shard_count(self):
        # The seed of node i never depends on how the nodes are grouped.
        seeds = shard_node_seeds(9, 12, mode="spawn")
        for shards in (1, 3, 12):
            gathered = [s for chunk in chunks(seeds, shards) for s in chunk]
            assert gathered == seeds

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            shard_node_seeds(1, 3, mode="bogus")
