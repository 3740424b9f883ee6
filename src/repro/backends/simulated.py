"""The deterministic simulated backend.

Delegates all timing to a :class:`repro.machine.machine.MachineModel`;
see that module for the analytic effects (ramps, variant dispatch,
thread balance, inter-kernel cache interference, noise).  Results are
memoised — the experiment pipelines revisit points constantly, and the
model is stateless so memoisation is exact.

The matrix methods are the fast path.  ``time_algorithms_matrix`` and
``predict_times_matrix`` answer a whole ``(n, n_dims)`` instance batch
for every algorithm of an expression: one memo keyed by ``(kind,
distinct algorithm names)`` maps each instance row to one row of all
the algorithms' values, so a batch costs one dict lookup per row, and
the distinct missing rows of every algorithm go through one fused
machine call (one noise/median pass).  ``time_algorithms``,
``predict_times`` and ``time_kernels`` are the width-1 case.  An
algorithm's kernel structure is instance-independent (only the dims
vary), so its call sequence is built *once* per batch by feeding the
calls builder whole instance columns.

The scalar methods (``time_algorithm``, ``predict_time``,
``time_kernel``) keep their own one-instance machine path — the oracle
the batch paths are tested against — and share the width-1 memos.
All memos together are bounded by :data:`_MEMO_MAX_BYTES`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backends.base import Backend
from repro.expressions.base import Algorithm
from repro.expressions.scheduler import scheduled_call_batches, scheduled_calls
from repro.kernels.types import KernelCallBatch, KernelName
from repro.machine.machine import MachineModel


#: Byte budget of all of a backend's memos together, each row counted
#: by :func:`_row_cost`.  Past it every memo is cleared, which is exact
#: because the model is stateless; it only bounds the long-lived
#: service, whose random-dims requests almost never hit.  Full-scale
#: studies stay below it, so none clears mid-run: under 7 MiB for each
#: registered family on the paper box, 17 MiB for ``sum4``, 91 MiB for
#: the largest measured (``chain6`` on ``huge_box``).
_MEMO_MAX_BYTES = 128 * 1024 * 1024

#: Per-row bytes a memo holds beyond the key bytes and the values: the
#: ``bytes`` object header, the dict slot and its share of the table's
#: slack, and the row-number int.  tracemalloc measures 94-117 B on
#: CPython 3.11, depending on the dict's fill.
_ROW_OVERHEAD_BYTES = 128


def _row_cost(key_bytes: int, width: int) -> int:
    """Bytes counted against the budget for one memo row: its key, the
    fixed per-row overhead, and its ``width`` float64 values twice over,
    since the doubling value array can be up to half empty."""
    return key_bytes + _ROW_OVERHEAD_BYTES + 16 * width


class _RowMemo:
    """Append-only ``(rows, width)`` float64 store indexed by row keys.

    One memo serves one ``(kind, names)`` pair: the dict maps each
    instance row's key (its raw little-endian int64 bytes) to a row of
    ``values`` holding all ``width`` names' results, so a batch does
    one dict lookup per row whatever its width.
    """

    __slots__ = ("index", "values", "size")

    def __init__(self, width: int) -> None:
        self.index: Dict[bytes, int] = {}
        self.values = np.empty((64, width), dtype=np.float64)
        self.size = 0

    def append(self, keys: Sequence[bytes], values: np.ndarray) -> None:
        """Store the rows of distinct fresh ``keys``."""
        size = self.size
        needed = size + len(keys)
        capacity = self.values.shape[0]
        if needed > capacity:
            while capacity < needed:
                capacity *= 2
            grown = np.empty((capacity, self.values.shape[1]))
            grown[:size] = self.values[:size]
            self.values = grown
        self.values[size:needed] = values
        self.index.update(zip(keys, range(size, needed)))
        self.size = needed


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
        self._memos: Dict[Tuple[str, Tuple[str, ...]], _RowMemo] = {}
        self._memo_bytes = 0

    @property
    def peak_flops(self) -> float:
        return self.machine.peak_flops

    # ------------------------------------------------------------------
    # Memos
    # ------------------------------------------------------------------

    def _memo(
        self, kind: str, names: Tuple[str, ...], rows: int, key_bytes: int
    ) -> _RowMemo:
        """The ``(kind, names)`` memo, with room for ``rows`` more rows.

        Every memo is cleared first when that many fresh rows could take
        them past :data:`_MEMO_MAX_BYTES`, so a batch never loses its
        memo between lookup and store.
        """
        row_cost = _row_cost(key_bytes, len(names))
        if self._memo_bytes + rows * row_cost > _MEMO_MAX_BYTES:
            self._memos.clear()
            self._memo_bytes = 0
        memo = self._memos.get((kind, names))
        if memo is None:
            memo = self._memos[(kind, names)] = _RowMemo(len(names))
        return memo

    def _store(self, memo: _RowMemo, keys: List[bytes], values) -> None:
        memo.append(keys, values)
        row_cost = _row_cost(len(keys[0]), memo.values.shape[1])
        self._memo_bytes += len(keys) * row_cost

    def _memoised_rows(
        self, kind: str, names: Tuple[str, ...], arr: np.ndarray, compute
    ) -> np.ndarray:
        """``(n, len(names))`` memo rows of ``arr``, computing the misses.

        One dict lookup per row; ``compute`` maps the sub-matrix of the
        distinct missing rows (in first-seen order) to their
        ``(m, len(names))`` values and runs at most once.
        """
        if arr.shape[0] == 0:
            return np.empty((0, len(names)))
        keys = _row_keys(arr)
        memo = self._memo(kind, names, len(keys), arr.shape[1] * 8)
        get = memo.index.get
        rows = [get(key, -1) for key in keys]
        # Missing rows get the memo row their key will be stored at;
        # a repeated missing key reuses its first occurrence's row.
        fresh: Dict[bytes, int] = {}
        first: List[int] = []
        for position, row in enumerate(rows):
            if row < 0:
                next_row = memo.size + len(first)
                row = fresh.setdefault(keys[position], next_row)
                rows[position] = row
                if row == next_row:
                    first.append(position)
        if first:
            self._store(memo, list(fresh), compute(arr[first]))
        return memo.values[rows]

    def _memoised_scalar(
        self, kind: str, name: str, instance: Sequence[int], compute
    ) -> float:
        key = _instance_key(instance)
        memo = self._memo(kind, (name,), 1, len(key))
        row = memo.index.get(key)
        if row is not None:
            return float(memo.values[row, 0])
        value = compute()
        self._store(memo, [key], value)
        return value

    # ------------------------------------------------------------------
    # Scalar protocol — one-instance machine path
    # ------------------------------------------------------------------

    def _algorithm_scalar(
        self, kind: str, measure, algorithm: Algorithm, instance
    ) -> float:
        def compute() -> float:
            calls = algorithm.kernel_calls(tuple(int(d) for d in instance))
            return measure(
                self._scheduled(algorithm, calls), context=algorithm.name
            )

        return self._memoised_scalar(kind, algorithm.name, instance, compute)

    def time_algorithm(self, algorithm: Algorithm, instance: Sequence[int]) -> float:
        return self._algorithm_scalar(
            "time", self.machine.measure_algorithm, algorithm, instance
        )

    def predict_time(self, algorithm: Algorithm, instance: Sequence[int]) -> float:
        return self._algorithm_scalar(
            "predict", self.machine.predict_algorithm, algorithm, instance
        )

    def time_kernel(self, kernel: KernelName, dims: Sequence[int]) -> float:
        return self._memoised_scalar(
            "kernel", kernel.value, dims,
            lambda: self.machine.measure_kernel(
                kernel, tuple(int(d) for d in dims)
            ),
        )

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

    def _algorithms_matrix(
        self, kind: str, algorithms: Sequence[Algorithm], instances, fused
    ) -> np.ndarray:
        """``(n, A)`` values of ``kind`` through one memo and, for all
        the misses, one ``fused`` machine call (see the module
        docstring).  Ids keep each algorithm's own noise context and
        scheduled call order, so every column equals the one-algorithm
        call bit for bit."""
        arr = self._instances_matrix(instances)
        # Algorithms sharing a name share a column: the first one's
        # values serve them all, as a per-name memo would.
        distinct: Dict[str, Algorithm] = {}
        for algorithm in algorithms:
            distinct.setdefault(algorithm.name, algorithm)
        if not distinct:
            return np.empty((arr.shape[0], 0))

        def compute(sub: np.ndarray) -> np.ndarray:
            return np.column_stack(fused([
                (self._batched_calls(algorithm, sub), name)
                for name, algorithm in distinct.items()
            ]))

        names = tuple(distinct)
        values = self._memoised_rows(kind, names, arr, compute)
        if len(names) == len(algorithms):
            return values
        column = {name: j for j, name in enumerate(names)}
        return values[:, [column[a.name] for a in algorithms]]

    def time_algorithms_matrix(
        self,
        algorithms: Sequence[Algorithm],
        instances: Sequence[Sequence[int]],
    ) -> np.ndarray:
        """``(n, A)`` measured times with one noise pass for all the
        misses (:meth:`MachineModel.measure_algorithms_batch`)."""
        return self._algorithms_matrix(
            "time", algorithms, instances,
            self.machine.measure_algorithms_batch,
        )

    def predict_times_matrix(
        self,
        algorithms: Sequence[Algorithm],
        instances: Sequence[Sequence[int]],
    ) -> np.ndarray:
        """``(n, A)`` predictions with one noise pass for all the misses
        (:meth:`MachineModel.predict_algorithms_batch`)."""
        return self._algorithms_matrix(
            "predict", algorithms, instances,
            self.machine.predict_algorithms_batch,
        )

    def time_algorithms(
        self, algorithm: Algorithm, instances: Sequence[Sequence[int]]
    ) -> np.ndarray:
        return self.time_algorithms_matrix([algorithm], instances)[:, 0]

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
        return self.predict_times_matrix([algorithm], instances)[:, 0]

    def time_kernels(
        self, kernel: KernelName, dims: Sequence[Sequence[int]]
    ) -> np.ndarray:
        arr = np.asarray(dims, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError(
                f"dims must be a (n, arity) matrix, got shape {arr.shape!r}"
            )

        def compute(sub: np.ndarray) -> np.ndarray:
            return self.machine.measure_kernel_batch(kernel, sub)[:, None]

        return self._memoised_rows(
            "kernel", (kernel.value,), arr, compute
        )[:, 0]
