"""Unit tests for the utility helpers."""

import logging
import time

import numpy as np
import pytest
from scipy import sparse

from repro.utils.logging import configure_logging, get_logger
from repro.utils.memory import MemoryTracker, format_bytes, nbytes_of
from repro.utils.rng import ensure_rng, random_seed_from, spawn_rngs
from repro.utils.timing import Timer, record_time, timed
from repro.utils.validation import (
    check_node_index,
    check_non_negative,
    check_positive,
    check_positive_int,
    check_probability,
    check_vector_length,
)


class TestRng:
    def test_ensure_rng_from_int_is_deterministic(self):
        assert ensure_rng(7).integers(0, 100) == ensure_rng(7).integers(0, 100)

    def test_ensure_rng_passthrough(self):
        rng = np.random.default_rng(1)
        assert ensure_rng(rng) is rng

    def test_ensure_rng_from_none(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_ensure_rng_from_seed_sequence(self):
        assert isinstance(ensure_rng(np.random.SeedSequence(5)), np.random.Generator)

    def test_ensure_rng_rejects_strings(self):
        with pytest.raises(TypeError):
            ensure_rng("seed")  # type: ignore[arg-type]

    def test_spawn_rngs_independent_and_reproducible(self):
        first = [rng.integers(0, 1000) for rng in spawn_rngs(3, 4)]
        second = [rng.integers(0, 1000) for rng in spawn_rngs(3, 4)]
        assert first == second
        assert len(set(first)) > 1

    def test_spawn_rngs_negative_count(self):
        with pytest.raises(ValueError):
            spawn_rngs(1, -1)

    def test_random_seed_from(self):
        seed = random_seed_from(np.random.default_rng(3))
        assert isinstance(seed, int) and seed >= 0


class TestTiming:
    def test_timer_context_manager(self):
        timer = Timer()
        with timer:
            time.sleep(0.01)
        assert timer.elapsed >= 0.005
        assert len(timer.laps) == 1
        assert timer.last_lap == timer.laps[-1]

    def test_timer_accumulates(self):
        timer = Timer()
        for _ in range(3):
            with timer:
                pass
        assert len(timer.laps) == 3
        assert timer.elapsed == pytest.approx(sum(timer.laps))

    def test_timer_misuse(self):
        timer = Timer()
        with pytest.raises(RuntimeError):
            timer.stop()
        timer.start()
        with pytest.raises(RuntimeError):
            timer.start()
        timer.stop()

    def test_timer_reset(self):
        timer = Timer()
        with timer:
            pass
        timer.reset()
        assert timer.elapsed == 0.0 and not timer.laps and not timer.running

    def test_last_lap_requires_laps(self):
        with pytest.raises(ValueError):
            Timer().last_lap

    def test_timed(self):
        result, seconds = timed(sum, range(100))
        assert result == 4950
        assert seconds >= 0.0

    def test_record_time(self):
        store = {}
        with record_time(store, "block"):
            pass
        assert store["block"] >= 0.0


class TestMemory:
    def test_nbytes_of_arrays(self):
        array = np.zeros(10, dtype=np.float64)
        assert nbytes_of(array) == 80

    def test_nbytes_of_sparse(self):
        matrix = sparse.csr_matrix(np.eye(4))
        expected = matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
        assert nbytes_of(matrix) == expected

    def test_nbytes_of_containers(self):
        payload = {"a": np.zeros(2), "b": [np.zeros(3), None]}
        assert nbytes_of(payload) == 16 + 24

    def test_nbytes_of_none_and_scalars(self):
        assert nbytes_of(None) == 0
        assert nbytes_of(42) == 0
        assert nbytes_of(b"abcd") == 4

    def test_nbytes_of_memory_bytes_protocol(self, toy_graph):
        assert nbytes_of(toy_graph) == toy_graph.memory_bytes()

    def test_format_bytes(self):
        assert format_bytes(512) == "512.00 B"
        assert format_bytes(1536) == "1.50 KiB"
        assert "MiB" in format_bytes(5 * 1024 * 1024)

    def test_memory_tracker(self):
        tracker = MemoryTracker()
        tracker.add("scores", np.zeros(10))
        tracker.add_bytes("index", 100)
        assert tracker.total_bytes == 180
        assert "total" in tracker.summary()


class TestValidation:
    def test_check_probability_bounds(self):
        assert check_probability(0.5, "p") == 0.5
        with pytest.raises(ValueError):
            check_probability(1.5, "p")
        with pytest.raises(ValueError):
            check_probability(0.0, "p", inclusive_low=False)
        with pytest.raises(ValueError):
            check_probability(1.0, "p", inclusive_high=False)

    def test_check_positive_and_non_negative(self):
        assert check_positive(1.0, "x") == 1.0
        with pytest.raises(ValueError):
            check_positive(0.0, "x")
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                check_positive(value, "x")
        assert check_non_negative(0.0, "x") == 0.0
        with pytest.raises(ValueError):
            check_non_negative(-1.0, "x")

    def test_check_node_index(self):
        assert check_node_index(3, 5) == 3
        with pytest.raises(ValueError):
            check_node_index(5, 5)
        with pytest.raises(TypeError):
            check_node_index(1.5, 5)  # type: ignore[arg-type]

    def test_check_vector_length(self):
        vector = check_vector_length(np.zeros(4), 4)
        assert vector.shape == (4,)
        with pytest.raises(ValueError):
            check_vector_length(np.zeros((2, 2)), 4)
        with pytest.raises(ValueError):
            check_vector_length(np.zeros(3), 4)

    def test_check_positive_int(self):
        assert check_positive_int(3, "n") == 3
        with pytest.raises(ValueError):
            check_positive_int(0, "n")
        with pytest.raises(TypeError):
            check_positive_int(1.5, "n")  # type: ignore[arg-type]


class TestLogging:
    def test_get_logger_namespacing(self):
        assert get_logger().name == "repro"
        assert get_logger("exactsim").name == "repro.exactsim"
        assert get_logger("repro.core").name == "repro.core"

    def test_configure_logging_idempotent(self):
        first = configure_logging(level=logging.WARNING)
        count = len(first.handlers)
        second = configure_logging(level=logging.WARNING)
        assert len(second.handlers) == count
