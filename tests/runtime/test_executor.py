"""A resolved run's placement: ordering, chunking, fallback and errors.

Every driver maps its tasks through ``rx.backend``, the one
:class:`~repro.runtime.backend.Backend` an
:class:`~repro.runtime.ExecutionConfig` resolves to: in-process for
``workers=1``, a per-call process pool for ``workers > 1``.
"""

import pytest

from repro.runtime import ExecutionConfig, TaskError
from repro.runtime.backend import ProcessPoolBackend, SerialBackend, _run_chunk


def square(x):
    return x * x


def fail_on_three(x):
    if x == 3:
        raise ValueError("boom at three")
    return x


def placed(workers=1):
    """The backend a run with ``workers`` resolves to."""
    return ExecutionConfig(workers=workers).resolve().backend


class TestValidation:
    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError, match="workers"):
            ExecutionConfig(workers=0)
        with pytest.raises(ValueError):
            ProcessPoolBackend(0)

    def test_rejects_bad_chunk_size(self):
        with pytest.raises(ValueError):
            placed(workers=2).map(square, [1, 2], chunk_size=0)


class TestSerialFallback:
    def test_maps_in_order(self):
        backend = placed(workers=1)
        assert isinstance(backend, SerialBackend)
        assert backend.map(square, [3, 1, 2]) == [9, 1, 4]

    def test_empty_items(self):
        assert placed(workers=1).map(square, []) == []

    def test_closures_allowed_serially(self):
        out = placed(workers=1).map(lambda x: x + 1, [1, 2])
        assert out == [2, 3]

    def test_error_carries_item_and_index(self):
        with pytest.raises(TaskError) as exc_info:
            placed(workers=1).map(fail_on_three, [1, 3, 5])
        assert exc_info.value.index == 1
        assert exc_info.value.item == 3
        assert "boom at three" in str(exc_info.value.__cause__)

    def test_single_item_on_a_per_call_pool_runs_in_process(self):
        # Spinning up a pool for one task costs more than the task: a
        # lambda (unpicklable) proves the item never left the process.
        backend = placed(workers=3)
        assert isinstance(backend, ProcessPoolBackend)
        assert not backend.keep_alive
        assert backend.map(lambda x: x + 1, [1]) == [2]
        with pytest.raises(TaskError) as exc_info:
            backend.map(fail_on_three, [3])
        assert exc_info.value.index == 0
        assert isinstance(exc_info.value.__cause__, ValueError)


class TestParallel:
    def test_results_ordered_and_identical_to_serial(self):
        items = list(range(17))
        serial = placed(workers=1).map(square, items)
        parallel = placed(workers=4).map(square, items)
        assert parallel == serial

    def test_chunk_size_does_not_change_results(self):
        items = list(range(11))
        expected = [square(x) for x in items]
        for chunk in (1, 2, 5, 100):
            got = placed(workers=2).map(square, items, chunk_size=chunk)
            assert got == expected

    def test_error_carries_global_index(self):
        with pytest.raises(TaskError) as exc_info:
            placed(workers=2).map(
                fail_on_three, [0, 1, 2, 3, 4], chunk_size=1
            )
        assert exc_info.value.index == 3
        assert exc_info.value.item == 3

    @pytest.mark.slow
    def test_spawn_context_is_safe(self):
        # 'spawn' workers import everything fresh: proves the task
        # closure-free/pickling contract end to end.
        out = ProcessPoolBackend(2, mp_context="spawn").map(
            square, [2, 4, 6]
        )
        assert out == [4, 16, 36]


class TestChunkHelpers:
    def test_default_chunk_size_balances_load(self, monkeypatch):
        sizes = []

        def submit_chunks(self, fn, chunks):
            sizes.append([len(items) for _, items in chunks])
            return SerialBackend().submit_chunks(fn, chunks)

        monkeypatch.setattr(ProcessPoolBackend, "submit_chunks", submit_chunks)
        pool = placed(workers=4)
        assert pool.map(square, range(16)) == [x * x for x in range(16)]
        assert pool.map(square, range(160)) == [x * x for x in range(160)]
        assert sizes == [[1] * 16, [10] * 16]

    def test_run_chunk_offsets_index(self):
        with pytest.raises(TaskError) as exc_info:
            _run_chunk(fail_on_three, 10, [1, 3])
        assert exc_info.value.index == 11
