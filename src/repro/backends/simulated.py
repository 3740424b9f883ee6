"""The deterministic simulated backend.

Delegates all timing to a :class:`repro.machine.machine.MachineModel`;
see that module for the analytic effects (ramps, variant dispatch,
thread balance, inter-kernel cache interference, noise).  Results are
memoised in an array-backed store — the experiment pipelines revisit
points constantly, and the model is stateless so memoisation is exact.

The batch methods are the fast path: a whole batch of instances flows
through the vectorized machine in one call.  An algorithm's kernel
structure is instance-independent (only the dims vary), so the call
sequence is built *once* by feeding the calls builder whole instance
columns — the same polynomial machinery that serves the symbolic
analysis — and stacking the resulting per-call dim columns into
``(n, arity)`` matrices.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backends.base import Backend
from repro.expressions.base import Algorithm
from repro.expressions.scheduler import scheduled_call_batches, scheduled_calls
from repro.kernels.types import KernelCallBatch, KernelName
from repro.machine.machine import MachineModel


class _ArrayMemo:
    """Append-only float64 store indexed by instance-row byte keys.

    Values live in one contiguous array so a batch lookup is a single
    vectorized gather; the dict maps each key (the raw little-endian
    int64 bytes of an instance row) to its row index only.
    """

    __slots__ = ("_index", "_values", "_size")

    def __init__(self) -> None:
        self._index: Dict[bytes, int] = {}
        self._values = np.empty(1024, dtype=np.float64)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def get(self, key: bytes) -> Optional[float]:
        row = self._index.get(key)
        return None if row is None else float(self._values[row])

    def _reserve(self, extra: int) -> None:
        needed = self._size + extra
        capacity = self._values.shape[0]
        if needed > capacity:
            while capacity < needed:
                capacity *= 2
            grown = np.empty(capacity, dtype=np.float64)
            grown[: self._size] = self._values[: self._size]
            self._values = grown

    def put(self, key: bytes, value: float) -> None:
        if key in self._index:
            return
        self._reserve(1)
        self._values[self._size] = value
        self._index[key] = self._size
        self._size += 1

    def put_many(self, keys: Sequence[bytes], values: np.ndarray) -> None:
        """Insert distinct fresh keys with their computed values."""
        self._reserve(len(keys))
        index, size = self._index, self._size
        self._values[size:size + len(keys)] = values
        for key in keys:
            index[key] = size
            size += 1
        self._size = size

    def lookup(self, keys: Sequence[bytes]):
        """Rows per key (-1 where missing), the missing positions, and
        each distinct missing key's first position."""
        index = self._index
        rows = np.fromiter(
            (index.get(key, -1) for key in keys),
            dtype=np.int64,
            count=len(keys),
        )
        missing = np.nonzero(rows < 0)[0].tolist()
        first_seen: Dict[bytes, int] = {}
        for position in missing:
            first_seen.setdefault(keys[position], position)
        return rows, missing, first_seen

    def complete(self, rows, missing, keys, first_seen, values) -> None:
        """Store the computed ``values`` of the distinct missing keys
        and point their ``rows`` at them."""
        self.put_many(list(first_seen), values)
        index = self._index
        for position in missing:
            rows[position] = index[keys[position]]

    def gather(self, rows: np.ndarray) -> np.ndarray:
        return self._values[rows]


def _row_keys(arr: np.ndarray) -> List[bytes]:
    """Hashable per-row keys: each row's raw int64 bytes."""
    width = arr.shape[1] * 8
    buffer = arr.tobytes()
    return [buffer[i:i + width] for i in range(0, len(buffer), width)]


def _instance_key(instance) -> bytes:
    return np.asarray(
        [int(d) for d in instance], dtype=np.int64
    ).tobytes()


class SimulatedBackend(Backend):
    def __init__(self, machine: Optional[MachineModel] = None) -> None:
        if machine is None:
            from repro.machine.presets import paper_machine

            machine = paper_machine()
        self.machine = machine
        self._memos: Dict[Tuple[str, str], _ArrayMemo] = {}

    def _memo(self, kind: str, name: str) -> _ArrayMemo:
        memo = self._memos.get((kind, name))
        if memo is None:
            memo = self._memos[(kind, name)] = _ArrayMemo()
        return memo

    @property
    def peak_flops(self) -> float:
        return self.machine.peak_flops

    # ------------------------------------------------------------------
    # Scalar protocol
    # ------------------------------------------------------------------

    def time_algorithm(self, algorithm: Algorithm, instance: Sequence[int]) -> float:
        memo = self._memo("time", algorithm.name)
        key = _instance_key(instance)
        cached = memo.get(key)
        if cached is None:
            instance = tuple(int(d) for d in instance)
            calls = self._scheduled(algorithm, algorithm.kernel_calls(instance))
            cached = self.machine.measure_algorithm(calls, context=algorithm.name)
            memo.put(key, cached)
        return cached

    def predict_time(self, algorithm: Algorithm, instance: Sequence[int]) -> float:
        memo = self._memo("predict", algorithm.name)
        key = _instance_key(instance)
        cached = memo.get(key)
        if cached is None:
            instance = tuple(int(d) for d in instance)
            calls = self._scheduled(algorithm, algorithm.kernel_calls(instance))
            cached = self.machine.predict_algorithm(calls, context=algorithm.name)
            memo.put(key, cached)
        return cached

    def time_kernel(self, kernel: KernelName, dims: Sequence[int]) -> float:
        memo = self._memo("kernel", kernel.value)
        key = _instance_key(dims)
        cached = memo.get(key)
        if cached is None:
            cached = self.machine.measure_kernel(
                kernel, tuple(int(d) for d in dims)
            )
            memo.put(key, cached)
        return cached

    # ------------------------------------------------------------------
    # Batch protocol — vectorized through the machine
    # ------------------------------------------------------------------

    @staticmethod
    def _instances_matrix(instances) -> np.ndarray:
        arr = np.asarray(instances, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError(
                f"instances must be a (n, n_dims) matrix, got shape {arr.shape!r}"
            )
        return arr

    def _scheduled(self, algorithm: Algorithm, calls):
        # Non-default machine schedules permute each plan's step order
        # by the model's interference term (the schedule-as-scenario
        # axis); the default schedule returns the calls untouched.
        if self.machine.schedule == "default":
            return calls
        return scheduled_calls(algorithm, calls, self.machine)

    def _batched_calls(
        self, algorithm: Algorithm, arr: np.ndarray
    ) -> Tuple[KernelCallBatch, ...]:
        # Compiled per-plan builder when the algorithm carries one
        # (shape indices resolved at codegen time); interpreted
        # column batching otherwise.  Same batches either way.
        batches = algorithm.kernel_call_batches(arr)
        if self.machine.schedule == "default":
            return batches
        return scheduled_call_batches(algorithm, batches, self.machine)

    def _memoised_batch(
        self,
        memo: _ArrayMemo,
        arr: np.ndarray,
        compute,
    ) -> np.ndarray:
        """Gather ``arr`` rows from ``memo``, batch-computing the misses.

        ``compute`` maps a sub-matrix of ``arr`` rows to values; each
        distinct missing row is computed exactly once.
        """
        keys = _row_keys(arr)
        rows, missing, first_seen = memo.lookup(keys)
        if missing:
            values = compute(arr[list(first_seen.values())])
            memo.complete(rows, missing, keys, first_seen, values)
        return memo.gather(rows)

    def time_algorithms(
        self, algorithm: Algorithm, instances: Sequence[Sequence[int]]
    ) -> np.ndarray:
        arr = self._instances_matrix(instances)
        if arr.shape[0] == 0:
            return np.zeros(0, dtype=np.float64)
        return self._memoised_batch(
            self._memo("time", algorithm.name),
            arr,
            lambda sub: self.machine.measure_algorithm_batch(
                self._batched_calls(algorithm, sub), context=algorithm.name
            ),
        )

    def predict_times(
        self,
        algorithm: Algorithm,
        instances: Sequence[Sequence[int]],
        timed=None,
    ) -> np.ndarray:
        # ``timed`` (the real-backend cross-plan benchmark memo) is
        # deliberately ignored: the machine folds the algorithm name
        # into every measurement's noise stream, so predictions are
        # context-dependent and cannot be shared across plans.  The
        # noise-free dedupe lives in MachineModel's base-seconds
        # cache instead.
        arr = self._instances_matrix(instances)
        if arr.shape[0] == 0:
            return np.zeros(0, dtype=np.float64)
        return self._memoised_batch(
            self._memo("predict", algorithm.name),
            arr,
            lambda sub: self.machine.predict_algorithm_batch(
                self._batched_calls(algorithm, sub), context=algorithm.name
            ),
        )

    def predict_times_matrix(
        self,
        algorithms: Sequence[Algorithm],
        instances: Sequence[Sequence[int]],
    ) -> np.ndarray:
        """``(n, A)`` predictions with one noise pass for all the misses.

        Each algorithm's memo rows are gathered as in
        :meth:`predict_times`; the distinct missing rows of *every*
        algorithm then go through one
        :meth:`MachineModel.predict_algorithms_batch` call.  Ids keep
        each algorithm's own noise context and scheduled call order, so
        every column equals the per-algorithm :meth:`predict_times`
        bit for bit, and the memos end up holding the same values.
        """
        arr = self._instances_matrix(instances)
        out = np.empty((arr.shape[0], len(algorithms)))
        if arr.shape[0] == 0:
            return out
        keys = _row_keys(arr)
        # Algorithms sharing a name share a memo: the first one's
        # column serves them all, as the sequential memo would.
        first_column: Dict[str, int] = {}
        pending = []
        jobs = []
        for j, algorithm in enumerate(algorithms):
            if first_column.setdefault(algorithm.name, j) != j:
                continue
            memo = self._memo("predict", algorithm.name)
            rows, missing, first_seen = memo.lookup(keys)
            if missing:
                sub = arr[list(first_seen.values())]
                jobs.append(
                    (self._batched_calls(algorithm, sub), algorithm.name)
                )
                pending.append((j, memo, rows, missing, first_seen))
            else:
                out[:, j] = memo.gather(rows)
        if jobs:
            computed = self.machine.predict_algorithms_batch(jobs)
            for (j, memo, rows, missing, first_seen), values in zip(
                pending, computed
            ):
                memo.complete(rows, missing, keys, first_seen, values)
                out[:, j] = memo.gather(rows)
        for j, algorithm in enumerate(algorithms):
            first = first_column[algorithm.name]
            if first != j:
                out[:, j] = out[:, first]
        return out

    def time_kernels(
        self, kernel: KernelName, dims: Sequence[Sequence[int]]
    ) -> np.ndarray:
        arr = np.asarray(dims, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError(
                f"dims must be a (n, arity) matrix, got shape {arr.shape!r}"
            )
        if arr.shape[0] == 0:
            return np.zeros(0, dtype=np.float64)
        return self._memoised_batch(
            self._memo("kernel", kernel.value),
            arr,
            lambda sub: self.machine.measure_kernel_batch(kernel, sub),
        )
