"""Analytic machine model: kernel efficiency and execution time.

The model composes four effects, each traceable to a mechanism the
paper discusses:

1. **Efficiency ramps** — each kernel approaches its plateau as
   ``d / (d + ramp_d)`` per dimension, limited by its *worst*
   dimension.  GEMM tolerates one small extent (rank-k updates);
   SYRK/SYMM degrade sharply when their symmetric extent is small.
   This asymmetry is what makes the FLOP-cheapest ``A Aᵀ B``
   algorithms slow at small ``d0`` (the paper's anomalous regions),
   and it is *gradual* — the paper's second transition type.

2. **Variant dispatch** — below an internal blocking boundary a
   kernel runs a different variant at lower efficiency, producing
   *abrupt* efficiency jumps (§4.3).  Disabled in
   :func:`repro.machine.presets.no_variants_machine`.

3. **Thread balance** — work splits across ``cores`` chunks along the
   kernel's parallel dimension; the last partial chunk idles cores,
   a staircase that matters below ~20 chunks.

4. **Inter-kernel cache effects** — inside a multi-kernel algorithm a
   consumer kernel streams over data the producer left cache-resident
   in an unfavourable layout; the resulting conflict misses are
   invisible to isolated (flushed-cache) kernel benchmarks.  This is
   the paper's explanation for Experiment 3's false negatives.
   Disabled in :func:`repro.machine.presets.no_cache_machine`.

Measured times add stateless multiplicative noise (median of
``reps`` repetitions, the paper's protocol).

Every quantity is computed **batch-first** over ``(n, arity)`` dims
matrices (the ``*_batch`` methods); the scalar methods run the batch
path on one-element arrays.  NumPy selects its ufunc inner loops by
dtype and machine, never by array length, so grouping measurements
into batches cannot change a single bit of any result — the
equivalence suite in ``tests/test_batch_equivalence.py`` pins this.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.kernels.flops import kernel_flops_batch
from repro.kernels.types import (
    KERNEL_ARITY,
    KernelCall,
    KernelCallBatch,
    KernelName,
    batch_kernel_calls,
)
from repro.machine.noise import NoiseModel, fold
from repro.machine.spec import MachineSpec

#: Known step-schedule policies (the machine presets' ``schedule``
#: knob, threaded through study keys and the runner's ``--schedule``).
#: ``default`` keeps each plan's compiled step order; the other two
#: let :func:`repro.expressions.scheduler.schedule_order` pick the
#: dependency-respecting permutation this model's cache-interference
#: term scores fastest/slowest.  Reordering changes which step pairs
#: are producer/consumer adjacent — and therefore the measured times —
#: so non-default schedules are a distinct study scenario, never a
#: cache-compatible variation of the default one.
SCHEDULES = ("default", "min-interference", "max-interference")

#: Relative cost of the conflict misses a *producer* kernel's cache
#: residue inflicts on its consumer.  SYRK leaves a packed triangle
#: behind — the consumer re-reads it as a symmetric matrix through a
#: layout the producer never streamed, the worst case; a GEMM producer
#: leaves a contiguously written full matrix, the best case.
_INTERFERENCE = {
    KernelName.SYRK: 0.15,
    KernelName.SYMM: 0.06,
    KernelName.GEMM: 0.02,
    # ADD streams its output contiguously, like GEMM's best case.
    KernelName.ADD: 0.02,
    # TRSM overwrites B in place column by column — better than a
    # packed triangle, worse than one contiguous output sweep.
    KernelName.TRSM: 0.05,
}

#: Integer tokens folded into measurement ids (stable across runs).
_KERNEL_TOKEN = {
    KernelName.GEMM: 1,
    KernelName.SYRK: 2,
    KernelName.SYMM: 3,
    KernelName.ADD: 4,
    KernelName.TRSM: 5,
}

#: Noise-stream context for isolated kernel benchmarks — separate
#: from every algorithm's stream, like a standalone benchmark run.
_BENCH_CONTEXT = "kernel-benchmark"

#: Byte budget of the noise-free base-seconds cache, each entry
#: counted by :func:`_base_entry_cost`.
#: Within one evaluation batch, equivalent plans revisit the same
#: ``(kernel, dims-column)`` slots; the analytic base time is
#: noise-free and context-free, so it is the one quantity that *can*
#: be shared across plans.  Bounded by bytes (not entries) because
#: both the key and the value scale with the batch length.  Full-scale
#: studies stay far below it (6 MiB at most, ``sum3``), so none clears
#: mid-run; it bounds the long-lived service.
_BASE_CACHE_MAX_BYTES = 32 * 1024 * 1024

#: Per-entry bytes the base-seconds cache holds beyond the key's and
#: the value's data: the key tuple, the ``bytes`` header, the ndarray
#: view object, the dict slot and its share of the table's slack.
#: tracemalloc measures 220-262 B on CPython 3.11, depending on the
#: dict's fill.
_BASE_ENTRY_OVERHEAD_BYTES = 320


def _base_entry_cost(key_bytes: int, value_bytes: int) -> int:
    """Bytes counted against the budget for one base-seconds entry."""
    return key_bytes + value_bytes + _BASE_ENTRY_OVERHEAD_BYTES


def _as_dims_matrix(kernel: KernelName, dims) -> np.ndarray:
    arr = np.asarray(dims, dtype=np.int64)
    arity = KERNEL_ARITY[kernel]
    if arr.ndim != 2 or arr.shape[1] != arity:
        raise ValueError(
            f"{kernel.value} batch expects (n, {arity}) dims, "
            f"got shape {arr.shape!r}"
        )
    return arr


class MachineModel:
    """Deterministic timing model for one machine configuration."""

    def __init__(
        self,
        spec: MachineSpec,
        noise: Optional[NoiseModel] = None,
        reps: int = 5,
        variant_dispatch: bool = True,
        cache_effects: bool = True,
        schedule: str = "default",
    ) -> None:
        if reps < 1:
            raise ValueError("reps must be >= 1")
        if schedule not in SCHEDULES:
            raise ValueError(
                f"schedule must be one of {SCHEDULES}, got {schedule!r}"
            )
        self.spec = spec
        self.noise = noise if noise is not None else NoiseModel()
        self.reps = reps
        self.variant_dispatch = variant_dispatch
        self.cache_effects = cache_effects
        self.schedule = schedule
        #: Per-plan step orders chosen by the scheduler for this
        #: machine's ``schedule`` (owned by
        #: :func:`repro.expressions.scheduler.schedule_order`).
        self.schedule_cache: dict = {}
        self._stream_base_cache: dict = {}
        # Noise-free base seconds keyed by (kernel, dims-matrix bytes);
        # shared across algorithm contexts (see _BASE_CACHE_MAX_BYTES).
        self._base_seconds_cache: dict = {}
        self._base_cache_bytes = 0
        self.base_seconds_cache_hits = 0

    @property
    def peak_flops(self) -> float:
        return self.spec.peak_flops

    # ------------------------------------------------------------------
    # Noise-free analytic quantities
    # ------------------------------------------------------------------

    def efficiency_batch(self, kernel: KernelName, dims) -> np.ndarray:
        """Fraction of machine peak each call of a batch sustains."""
        dims = _as_dims_matrix(kernel, dims)
        perf = self.spec.kernel_perf[kernel]
        if np.any(dims < 1):
            raise ValueError("dims must be positive")
        d = dims.astype(np.float64)
        factors = [
            np.power(d[:, j] / (d[:, j] + ramp), exponent)
            for j, (ramp, exponent) in enumerate(
                zip(perf.ramps, perf.exponents)
            )
        ]
        eff = np.full(dims.shape[0], perf.plateau)
        if perf.ramp_mode == "product":
            for factor in factors:
                eff = eff * factor
        else:
            worst = factors[0]
            for factor in factors[1:]:
                worst = np.minimum(worst, factor)
            eff = eff * worst
        if self.variant_dispatch:
            for dim, boundary, below_factor in perf.variant_boundaries:
                eff = np.where(
                    dims[:, dim] < boundary, eff * below_factor, eff
                )
        # Thread balance along the parallel dimension.
        d_par = d[:, perf.parallel_dim]
        cores = self.spec.cores
        eff = eff * (d_par / (np.ceil(d_par / cores) * cores))
        return eff

    def efficiency(self, kernel: KernelName, dims: Sequence[int]) -> float:
        """Fraction of machine peak this kernel call sustains."""
        perf = self.spec.kernel_perf[kernel]
        if len(dims) != len(perf.ramps):
            raise ValueError(
                f"{kernel.value} expects {len(perf.ramps)} dims, "
                f"got {tuple(dims)!r}"
            )
        if any(d < 1 for d in dims):
            raise ValueError(f"dims must be positive, got {tuple(dims)!r}")
        return float(self.efficiency_batch(kernel, [tuple(dims)])[0])

    def kernel_seconds_batch(self, kernel: KernelName, dims) -> np.ndarray:
        """Noise-free times of a batch of isolated kernel calls."""
        dims = _as_dims_matrix(kernel, dims)
        flops = kernel_flops_batch(kernel, dims).astype(np.float64)
        return flops / (self.efficiency_batch(kernel, dims) * self.peak_flops)

    def kernel_seconds(self, kernel: KernelName, dims: Sequence[int]) -> float:
        """Noise-free execution time of one isolated kernel call."""
        return float(self.kernel_seconds_batch(kernel, [tuple(dims)])[0])

    def interference_penalty_batch(
        self, producer: KernelCallBatch, consumer: KernelCallBatch
    ) -> np.ndarray:
        """Per-instance consumer slowdown from the producer's residue."""
        if not self.cache_effects:
            return np.zeros(consumer.n)
        ws_bytes = 8 * consumer.operand_elements()
        residue_bytes = 8 * producer.output_elements()
        occupancy = np.minimum(
            1.0, (ws_bytes + residue_bytes) / self.spec.l2_bytes
        )
        return _INTERFERENCE[producer.kernel] * occupancy

    def interference_penalty(
        self, producer: KernelCall, consumer: KernelCall
    ) -> float:
        """Relative slowdown of ``consumer`` from the producer's cache residue.

        Scales with how much of the private cache the consumer's
        working set plus the producer's just-written residue occupy —
        so two schedules of the same plan whose final product consumes
        differently-sized residues are genuinely (not just noise-)
        distinct.
        """
        if not self.cache_effects:
            return 0.0
        ws_bytes = 8 * int(consumer.operand_elements())
        residue_bytes = 8 * int(producer.output_elements())
        occupancy = min(
            1.0, (ws_bytes + residue_bytes) / self.spec.l2_bytes
        )
        return _INTERFERENCE[producer.kernel] * occupancy

    # ------------------------------------------------------------------
    # Measurements (noise + median-of-reps)
    # ------------------------------------------------------------------

    def _stream_base(self, context: str) -> int:
        base = self._stream_base_cache.get(context)
        if base is None:
            base = self.noise.stream_base(context)
            self._stream_base_cache[context] = base
        return base

    def _measurement_ids(
        self,
        context_base: int,
        index: Optional[int],
        kernel: KernelName,
        dims: np.ndarray,
    ) -> np.ndarray:
        """Fold the measurement coordinates into per-instance noise ids."""
        ids = np.full(dims.shape[0], context_base, dtype=np.uint64)
        if index is not None:
            ids = fold(ids, index)
        ids = fold(ids, _KERNEL_TOKEN[kernel])
        for j in range(dims.shape[1]):
            ids = fold(ids, dims[:, j])
        return ids

    def _measure_batch(
        self, base_seconds: np.ndarray, ids: np.ndarray
    ) -> np.ndarray:
        factors = self.noise.factors_from_ids(ids, self.reps)
        return np.median(base_seconds[:, None] * factors, axis=1)

    def measure_kernel_batch(self, kernel: KernelName, dims) -> np.ndarray:
        """Median measured times of isolated (flushed-cache) calls."""
        dims = _as_dims_matrix(kernel, dims)
        base = self.kernel_seconds_batch(kernel, dims)
        ids = self._measurement_ids(
            self._stream_base(_BENCH_CONTEXT), None, kernel, dims
        )
        return self._measure_batch(base, ids)

    def measure_kernel(self, kernel: KernelName, dims: Sequence[int]) -> float:
        """Median measured time of one isolated (flushed-cache) call."""
        return float(self.measure_kernel_batch(kernel, [tuple(dims)])[0])

    def _base_seconds_memo(
        self, calls: Sequence[Tuple[KernelName, np.ndarray]]
    ) -> List[np.ndarray]:
        """Noise-free base seconds, memoised across algorithm contexts.

        Equivalent plans evaluated over the same instance batch issue
        largely overlapping ``(kernel, dims-column)`` calls; the base
        time depends only on those coordinates (no context, no noise),
        so it is computed once per distinct column.  The distinct
        uncached columns of one kernel go through one stacked
        :meth:`kernel_seconds_batch` call — every quantity in it is
        elementwise per row, so each column gets exactly the values a
        call of its own would.  Callers must not mutate the returned
        arrays (the interference multiply rebinds, never writes in
        place).
        """
        cache = self._base_seconds_cache
        keys = [
            (kernel, np.ascontiguousarray(dims).tobytes())
            for kernel, dims in calls
        ]
        found = [cache.get(key) for key in keys]
        misses: Dict[KernelName, Dict[bytes, np.ndarray]] = {}
        for (kernel, raw), (_, dims), base in zip(keys, calls, found):
            if base is None:
                misses.setdefault(kernel, {}).setdefault(raw, dims)
        computed: dict = {}
        for kernel, columns in misses.items():
            values = self.kernel_seconds_batch(
                kernel, np.concatenate(list(columns.values()))
            )
            offset = 0
            for raw, dims in columns.items():
                base = values[offset:offset + dims.shape[0]]
                offset += dims.shape[0]
                computed[(kernel, raw)] = base
                size = _base_entry_cost(len(raw), base.nbytes)
                if self._base_cache_bytes + size > _BASE_CACHE_MAX_BYTES:
                    cache.clear()
                    self._base_cache_bytes = 0
                cache[(kernel, raw)] = base
                self._base_cache_bytes += size
        self.base_seconds_cache_hits += len(keys) - len(computed)
        return [
            computed[key] if base is None else base
            for key, base in zip(keys, found)
        ]

    def _fused_batches(
        self,
        jobs: Sequence[Tuple[Sequence[KernelCallBatch], str]],
        with_interference: bool,
    ) -> List[np.ndarray]:
        """One noise/median pass over many ``(calls, context)`` runs.

        Bit-equal to a per-call measurement loop by construction: each
        call's base seconds and measurement-id coordinates (its run's
        context base, its index in the run, kernel, dims) are exactly
        the ones :meth:`_measurement_ids` folds for that call alone.  Calls of equal arity fold their ids as one
        stacked array (:func:`fold` is elementwise), the noise factors
        and the median-of-reps then run once over the stacked
        ``(rows, reps)`` block — :meth:`NoiseModel.factors_from_ids` is
        elementwise per id and ``np.median`` sorts each row
        independently — and each run sums its calls' rows in its own
        sequential call order (never a pairwise ``np.sum`` reduction,
        which would reorder the float additions for k >= 8).  This
        amortizes the per-call NumPy dispatch: the study hot loop and
        benchmark-sum selection fuse every algorithm's calls of one
        evaluation batch.
        """
        # Every call of every run as (context base, index, call,
        # previous call), runs as ranges over that flat list.
        flat = []
        runs = []
        for calls, context in jobs:
            if not calls:
                raise ValueError("algorithm batch needs at least one call")
            context_base = self._stream_base(context)
            runs.append((calls[0].n, range(len(flat), len(flat) + len(calls))))
            previous: Optional[KernelCallBatch] = None
            for index, call in enumerate(calls):
                flat.append((context_base, index, call, previous))
                previous = call
        bases = self._base_seconds_memo(
            [(call.kernel, call.dims) for _, _, call, _ in flat]
        )
        if with_interference:
            for k, (_, _, call, previous) in enumerate(flat):
                if previous is not None and call.reads_previous:
                    bases[k] = bases[k] * (
                        1.0 + self.interference_penalty_batch(previous, call)
                    )
        by_arity: Dict[int, List[int]] = {}
        for k, (_, _, call, _) in enumerate(flat):
            by_arity.setdefault(call.dims.shape[1], []).append(k)
        ids: list = []
        order: List[int] = []
        for arity, members in by_arity.items():
            counts = [flat[k][2].n for k in members]

            def column(values, dtype):
                return np.repeat(np.array(values, dtype=dtype), counts)

            group_ids = column([flat[k][0] for k in members], np.uint64)
            group_ids = fold(
                group_ids, column([flat[k][1] for k in members], np.int64)
            )
            group_ids = fold(group_ids, column(
                [_KERNEL_TOKEN[flat[k][2].kernel] for k in members], np.int64
            ))
            dims = np.concatenate([flat[k][2].dims for k in members])
            for j in range(arity):
                group_ids = fold(group_ids, dims[:, j])
            ids.append(group_ids)
            order.extend(members)
        starts = [0] * len(flat)
        offset = 0
        for k in order:
            starts[k] = offset
            offset += flat[k][2].n
        factors = self.noise.factors_from_ids(np.concatenate(ids), self.reps)
        measured = np.median(
            np.concatenate([bases[k] for k in order])[:, None] * factors,
            axis=1,
        )
        totals = []
        for n, members in runs:
            total = np.zeros(n)
            for k in members:
                total = total + measured[starts[k]:starts[k] + n]
            totals.append(total)
        return totals

    def measure_algorithm_batch(
        self, calls: Sequence[KernelCallBatch], context: str = ""
    ) -> np.ndarray:
        """Median measured times of whole multi-kernel algorithm runs.

        ``context`` (typically the algorithm name) decorrelates the
        noise of these runs from every other measurement: two
        algorithms sharing an identical kernel call still time it
        independently, as they would on real hardware.
        """
        return self.measure_algorithms_batch([(calls, context)])[0]

    def predict_algorithm_batch(
        self, calls: Sequence[KernelCallBatch], context: str = ""
    ) -> np.ndarray:
        """Sums of per-kernel times (Experiment 3's benchmark predictor).

        Uses the same noise stream as :meth:`measure_algorithm_batch`
        so the prediction error isolates exactly what isolated
        benchmarks cannot see — the inter-kernel cache effects.
        """
        return self.predict_algorithms_batch([(calls, context)])[0]

    def measure_algorithms_batch(
        self, jobs: Sequence[Tuple[Sequence[KernelCallBatch], str]]
    ) -> List[np.ndarray]:
        """:meth:`measure_algorithm_batch` of many ``(calls, context)``
        runs at once, each bit-equal to its own call, through one
        noise/median pass (see :meth:`_fused_batches`)."""
        return self._fused_batches(jobs, with_interference=True)

    def predict_algorithms_batch(
        self, jobs: Sequence[Tuple[Sequence[KernelCallBatch], str]]
    ) -> List[np.ndarray]:
        """:meth:`predict_algorithm_batch` of many ``(calls, context)``
        runs at once, each bit-equal to its own call, through one
        noise/median pass (see :meth:`_fused_batches`)."""
        return self._fused_batches(jobs, with_interference=False)

    def measure_algorithm(
        self, calls: Sequence[KernelCall], context: str = ""
    ) -> float:
        """Median measured time of a whole multi-kernel algorithm run."""
        if not calls:
            return 0.0
        return float(
            self.measure_algorithm_batch(batch_kernel_calls(calls, 1), context)[0]
        )

    def predict_algorithm(
        self, calls: Sequence[KernelCall], context: str = ""
    ) -> float:
        """Sum of per-kernel times for one instance (see batch variant)."""
        if not calls:
            return 0.0
        return float(
            self.predict_algorithm_batch(batch_kernel_calls(calls, 1), context)[0]
        )
