"""The simulated backend's matrix paths and memo.

``time_algorithms_matrix`` and ``predict_times_matrix`` share one memo
per ``(kind, distinct algorithm names)`` and run every algorithm's
missing rows through one fused machine call; each column must equal the
one-algorithm batch call on a fresh backend bit for bit.  All memos of
a backend share one byte budget and are cleared past it, which must
change no value.
"""

import sys

import numpy as np
import pytest

import repro.backends.simulated as simulated
from repro.backends.base import Backend
from repro.backends.simulated import SimulatedBackend
from repro.core.discriminants import BenchmarkDiscriminant
from repro.core.searchspace import paper_box
from repro.expressions.registry import get_expression
from repro.kernels.types import KernelName
from repro.machine.presets import paper_machine

MATRIX_PATHS = {
    "time": ("time_algorithms_matrix", "time_algorithms"),
    "predict": ("predict_times_matrix", "predict_times"),
}


def float_bytes(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def machine():
    return paper_machine(seed=3, schedule="max-interference")


def sampled(n_dims, count, seed):
    import random

    return paper_box(n_dims).sample_many(random.Random(seed), count)


def column_oracle(single, algorithms, instances):
    """Per-algorithm batch calls, each on a fresh backend."""
    return np.stack(
        [
            getattr(SimulatedBackend(machine()), single)(a, instances)
            for a in algorithms
        ],
        axis=1,
    )


@pytest.mark.parametrize("kind", sorted(MATRIX_PATHS))
@pytest.mark.parametrize("family", ("aatb", "sum3", "tri4"))
def test_matrix_columns_equal_single_algorithm_calls(kind, family):
    matrix, single = MATRIX_PATHS[kind]
    expression = get_expression(family)
    algorithms = expression.algorithms()
    instances = sampled(expression.n_dims, 6, seed=1)
    # Repeated rows, and repeated algorithm names (served by the first
    # algorithm of that name's column).
    instances = instances + instances[:3]
    doubled = algorithms + algorithms[:2]
    backend = SimulatedBackend(machine())
    # Partly warm: half the rows already in the memo of these names.
    getattr(backend, matrix)(doubled, instances[::2])
    got = getattr(backend, matrix)(doubled, instances)
    expected = column_oracle(single, algorithms, instances)
    n = len(algorithms)
    assert got.shape == (len(instances), n + 2)
    assert float_bytes(got[:, :n]) == float_bytes(expected)
    assert float_bytes(got[:, n:]) == float_bytes(expected[:, :2])


@pytest.mark.parametrize("kind", sorted(MATRIX_PATHS))
def test_matrix_of_empty_batch(kind):
    matrix, single = MATRIX_PATHS[kind]
    algorithms = get_expression("aatb").algorithms()
    backend = SimulatedBackend(machine())
    assert getattr(backend, matrix)(algorithms, np.zeros((0, 3))).shape == (
        0, len(algorithms)
    )
    assert getattr(backend, single)(algorithms[0], np.zeros((0, 3))).shape == (
        0,
    )
    assert backend.time_kernels(KernelName.GEMM, np.zeros((0, 3))).shape == (
        0,
    )


def test_base_backend_matrix_default_stacks_single_calls():
    algorithms = get_expression("aatb").algorithms()
    instances = sampled(3, 5, seed=2)
    backend = SimulatedBackend(machine())
    stacked = Backend.time_algorithms_matrix(backend, algorithms, instances)
    assert float_bytes(stacked) == float_bytes(
        column_oracle("time_algorithms", algorithms, instances)
    )


def test_each_distinct_row_is_stored_once_per_kind_and_names():
    algorithms = get_expression("aatb").algorithms()
    names = tuple(a.name for a in algorithms)
    distinct = sampled(3, 7, seed=4)
    instances = distinct + distinct[:4] + distinct[2:3]
    backend = SimulatedBackend(machine())
    first = backend.time_algorithms_matrix(algorithms, instances)
    again = backend.time_algorithms_matrix(algorithms[::-1], instances)
    assert float_bytes(again) == float_bytes(first[:, ::-1])
    backend.time_algorithms_matrix(algorithms + algorithms[:1], instances)
    backend.predict_times_matrix(algorithms, instances)
    backend.time_algorithms(algorithms[0], instances)
    sizes = {key: memo.size for key, memo in backend._memos.items()}
    assert sizes == {
        ("time", names): len(distinct),
        ("time", names[::-1]): len(distinct),
        ("predict", names): len(distinct),
        ("time", names[:1]): len(distinct),
    }


def test_scalar_paths_share_the_width_one_memo():
    algorithm = get_expression("chain4").algorithms()[1]
    instances = sampled(5, 4, seed=5)
    backend = SimulatedBackend(machine())
    batch = backend.predict_times(algorithm, instances)
    memo = backend._memos[("predict", (algorithm.name,))]
    assert memo.size == len(instances)
    scalar = [backend.predict_time(algorithm, inst) for inst in instances]
    assert memo.size == len(instances)
    oracle = SimulatedBackend(machine())
    assert float_bytes(batch) == float_bytes(scalar) == float_bytes(
        [oracle.predict_time(algorithm, inst) for inst in instances]
    )


def memo_bytes_held(backend):
    """The budgeted cost of the rows every memo actually holds."""
    return sum(
        memo.size * simulated._row_cost(
            len(next(iter(memo.index))), memo.values.shape[1]
        )
        for memo in backend._memos.values()
        if memo.size
    )


def test_memo_budget_bounds_bytes_and_keeps_values(monkeypatch):
    budget = 1500
    monkeypatch.setattr(simulated, "_MEMO_MAX_BYTES", budget)
    expression = get_expression("aatb")
    algorithms = expression.algorithms()
    oracle = SimulatedBackend(machine())
    discriminant = BenchmarkDiscriminant(SimulatedBackend(machine()))
    backend = discriminant.backend
    stored = 0
    for seed in range(60):
        instances = sampled(3, 3, seed=seed % 40)
        picks = discriminant.select_batch(algorithms, instances)
        times = backend.time_algorithms_matrix(algorithms, instances)
        kernel_dims = [inst[:2] for inst in instances]
        kernel_times = backend.time_kernels(KernelName.SYRK, kernel_dims)
        scalar = backend.time_algorithm(algorithms[1], instances[0])
        assert picks == [
            int(np.argmin([oracle.predict_time(a, inst) for a in algorithms]))
            for inst in instances
        ]
        assert float_bytes(times) == float_bytes(
            oracle.time_algorithms_matrix(algorithms, instances)
        )
        assert float_bytes(kernel_times) == float_bytes(
            oracle.time_kernels(KernelName.SYRK, kernel_dims)
        )
        assert scalar == oracle.time_algorithm(algorithms[1], instances[0])
        assert backend._memo_bytes == memo_bytes_held(backend) <= budget
        stored += 2 * len(instances) * simulated._row_cost(24, len(algorithms))
    # The budget really was exceeded many times over, and cleared.
    assert stored > 10 * budget


@pytest.mark.parametrize("n_dims, width", [(3, 1), (3, 6), (6, 42)])
def test_memo_row_cost_bounds_traced_bytes(n_dims, width):
    """The budget's per-row cost is an upper bound on what a memo
    really allocates: keys, dict slots, row ints and the value array."""
    import tracemalloc

    rows = 20_000
    arr = np.random.default_rng(0).integers(
        1, 10**6, size=(rows, n_dims), dtype=np.int64
    )
    keys = simulated._row_keys(arr)
    tracemalloc.start()
    try:
        memo = simulated._RowMemo(width)
        for start in range(0, rows, 500):
            chunk = keys[start:start + 500]
            memo.append(chunk, np.zeros((len(chunk), width)))
        traced, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Keys were allocated before tracing started; count them back in.
    traced += sum(sys.getsizeof(key) for key in keys)
    assert memo.size == rows
    assert traced <= rows * simulated._row_cost(8 * n_dims, width)
