"""Algorithm-selection discriminants (paper §5).

A discriminant picks one algorithm for an instance *without measuring
the candidate algorithms on that instance*:

* :class:`MinFlopsDiscriminant` — minimum FLOP count; what Linnea,
  Armadillo and Julia implement (the paper's subject).
* :class:`ProfiledTimeDiscriminant` — minimum time predicted from
  one-off interpolated kernel performance profiles.
* :class:`FlopsProfileHybrid` — the paper's conjectured combination:
  shortlist by FLOPs (discard anything more than ``margin`` above the
  minimum), then rank the shortlist by profile-predicted time.
* :class:`BenchmarkDiscriminant` — per-instance isolated kernel
  benchmarks, summed (Experiment 3's predictor, an oracle-ish upper
  bound that still misses inter-kernel cache effects).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.backends.base import Backend
from repro.expressions.base import Algorithm
from repro.expressions.shapes import SizeExpr, dim_symbols
from repro.kernels.types import KernelName
from repro.profiles.benchmark import Profile


class Discriminant:
    """Interface: pick the index of the algorithm to run."""

    name: str = ""

    def select(
        self, algorithms: Sequence[Algorithm], instance: Sequence[int]
    ) -> int:
        raise NotImplementedError

    def select_batch(
        self,
        algorithms: Sequence[Algorithm],
        instances: Sequence[Sequence[int]],
    ) -> List[int]:
        """Pick per instance; ties break to the lowest index, exactly
        like :meth:`select`.  Override when the scoring vectorizes."""
        return [self.select(algorithms, inst) for inst in instances]


class MinFlopsDiscriminant(Discriminant):
    name = "min-flops"

    def select(
        self, algorithms: Sequence[Algorithm], instance: Sequence[int]
    ) -> int:
        flop_counts = [int(a.flops(instance)) for a in algorithms]
        return flop_counts.index(min(flop_counts))

    def select_batch(
        self,
        algorithms: Sequence[Algorithm],
        instances: Sequence[Sequence[int]],
    ) -> List[int]:
        from repro.core.classify import batch_flops

        arr = np.asarray(instances, dtype=np.int64)
        return np.argmin(batch_flops(algorithms, arr), axis=1).tolist()


#: Selection plans kept per discriminant, one per algorithm tuple in
#: use (one per served expression); past this the cache starts afresh.
_PLAN_CACHE_SIZE = 64

#: Batch FLOP counts are int64 (:func:`repro.core.classify.batch_flops`).
_INT64_MAX = 2**63 - 1


def _as_size_expr(dim) -> SizeExpr:
    return dim if isinstance(dim, SizeExpr) else SizeExpr.constant(dim)


def _symbol_index(expr: SizeExpr) -> Optional[int]:
    """The dim index when ``expr`` is one bare dim symbol, else None."""
    if len(expr.coeffs) == 1:
        ((mono, coeff),) = expr.coeffs.items()
        if coeff == 1 and len(mono) == 1:
            return mono[0]
    return None


class SelectionPlan:
    """Profile-predicted times of one algorithm tuple, built once.

    Equivalent plans of one expression share most subproducts (chain4
    issues 18 call slots but only 10 distinct ones), so the plan
    dedupes call slots across all algorithms by ``(kernel, symbolic
    dims)``, read from each algorithm's kernel calls over
    :func:`~repro.expressions.shapes.dim_symbols`.  Per request it
    stacks every distinct slot of a kernel into one
    :meth:`~repro.profiles.benchmark.Profile.predict_batch` call, then
    sums each algorithm's slots in its own call order starting from
    zero.  ``predict_batch`` is elementwise per row and the additions
    are the scalar loop's, so every total equals
    :meth:`_ProfileMixin.predicted_time` bit for bit.
    """

    def __init__(
        self,
        algorithms: Sequence[Algorithm],
        n_dims: int,
        profiles: Dict[KernelName, Profile],
    ) -> None:
        #: Held so the ids keying the plan cache stay unique.
        self.algorithms = tuple(algorithms)
        symbols = dim_symbols(n_dims)
        slots: Dict[KernelName, Dict[tuple, None]] = {}
        call_keys = []
        #: Algorithm index -> first kernel it calls that has no profile.
        self.missing: Dict[int, KernelName] = {}
        for j, algorithm in enumerate(self.algorithms):
            keys = []
            for call in algorithm.kernel_calls(symbols):
                key = (call.kernel, tuple(map(_as_size_expr, call.dims)))
                slots.setdefault(call.kernel, {})[key] = None
                keys.append(key)
                if call.kernel not in profiles:
                    self.missing.setdefault(j, call.kernel)
            call_keys.append(keys)
        # Dims that are not a bare symbol get a computed column after
        # the instance columns.
        extra: Dict[SizeExpr, int] = {}

        def column(expr: SizeExpr) -> int:
            index = _symbol_index(expr)
            if index is None:
                index = n_dims + extra.setdefault(expr, len(extra))
            return index

        self._kernels = []
        slot_row: Dict[tuple, int] = {}
        for kernel, kernel_slots in slots.items():
            self._kernels.append((
                profiles.get(kernel),
                np.array(
                    [[column(d) for d in dims] for _, dims in kernel_slots],
                    dtype=np.intp,
                ),
            ))
            for key in kernel_slots:
                slot_row[key] = len(slot_row)
        self._extra = tuple(extra)
        # Shorter call lists pad with the all-zero row after the last
        # slot: adding 0.0 leaves every (positive) time unchanged.
        zero_row = len(slot_row)
        width = max(map(len, call_keys), default=0)
        self._slot_rows = np.array(
            [
                [slot_row[key] for key in keys]
                + [zero_row] * (width - len(keys))
                for keys in call_keys
            ],
            dtype=np.intp,
        ).reshape(len(call_keys), width)

    def require_profiles(self, indices) -> None:
        """Raise like the scalar path if any algorithm lacks a profile."""
        for j in indices:
            kernel = self.missing.get(j)
            if kernel is not None:
                raise KeyError(f"no profile for kernel {kernel.value}")

    def times(self, arr: np.ndarray) -> np.ndarray:
        """``(n, A)`` predicted times over an ``(n, n_dims)`` matrix.

        Algorithms calling an unprofiled kernel get +inf.
        """
        n = arr.shape[0]
        if self._extra:
            arr = np.concatenate(
                [arr] + [e.evaluate_columns(arr)[:, None] for e in self._extra],
                axis=1,
            )
        blocks = []
        for profile, columns in self._kernels:
            n_slots, arity = columns.shape
            if profile is None:
                blocks.append(np.full((n_slots, n), np.inf))
                continue
            # Slot-major rows: slot s of instance i at row s*n + i.
            dims = arr[:, columns].transpose(1, 0, 2).reshape(-1, arity)
            blocks.append(profile.predict_batch(dims).reshape(n_slots, n))
        blocks.append(np.zeros((1, n)))
        slot_times = np.concatenate(blocks)
        totals = np.zeros((self._slot_rows.shape[0], n))
        for position in range(self._slot_rows.shape[1]):
            totals += slot_times[self._slot_rows[:, position]]
        return totals.T


class _ProfileMixin:
    def __init__(self, profiles: Dict[KernelName, Profile]) -> None:
        self.profiles = profiles
        self._plans: Dict[tuple, SelectionPlan] = {}

    def predicted_time(
        self, algorithm: Algorithm, instance: Sequence[int]
    ) -> float:
        total = 0.0
        for call in algorithm.kernel_calls(tuple(instance)):
            profile = self.profiles.get(call.kernel)
            if profile is None:
                raise KeyError(
                    f"no profile for kernel {call.kernel.value}"
                )
            total += profile.predict(call.dims)
        return total

    def plan_for(
        self, algorithms: Sequence[Algorithm], n_dims: int
    ) -> SelectionPlan:
        """The cached :class:`SelectionPlan` of an algorithm tuple."""
        key = (n_dims, *map(id, algorithms))
        plan = self._plans.get(key)
        if plan is None:
            if len(self._plans) >= _PLAN_CACHE_SIZE:
                self._plans.clear()
            plan = SelectionPlan(algorithms, n_dims, self.profiles)
            self._plans[key] = plan
        return plan


class ProfiledTimeDiscriminant(_ProfileMixin, Discriminant):
    name = "profiled-time"

    def select(
        self, algorithms: Sequence[Algorithm], instance: Sequence[int]
    ) -> int:
        times = [self.predicted_time(a, instance) for a in algorithms]
        return times.index(min(times))

    def select_batch(
        self,
        algorithms: Sequence[Algorithm],
        instances: Sequence[Sequence[int]],
    ) -> List[int]:
        if len(instances) == 0:
            return []
        arr = np.asarray(instances, dtype=np.int64)
        plan = self.plan_for(algorithms, arr.shape[1])
        plan.require_profiles(range(len(algorithms)))
        return np.argmin(plan.times(arr), axis=1).tolist()


class FlopsProfileHybrid(_ProfileMixin, Discriminant):
    """Shortlist by FLOPs, then rank the shortlist by profiled time.

    The shortlist holds every algorithm whose FLOP count is at most
    ``(1 + margin)`` times the minimum, compared exactly (integer
    arithmetic on the margin's exact binary fraction), so it always
    contains every min-FLOP algorithm and the scalar and batch paths
    agree at any size.

    Tie behaviour is guaranteed: when several shortlisted algorithms
    share the minimum profile-predicted time, the *lowest algorithm
    index* wins — exactly the rule every other discriminant applies
    (``list.index(min(...))`` / first ``argmin``), so a hybrid pick is
    reproducible and comparable across discriminants.
    """

    def __init__(
        self, profiles: Dict[KernelName, Profile], margin: float = 0.5
    ) -> None:
        super().__init__(profiles)
        if margin < 0:
            raise ValueError("margin must be non-negative")
        self.margin = margin
        self.name = f"flops+profile(margin={margin:g})"
        ratio = Fraction(margin)
        # flops <= min * (1 + margin)  <=>  flops * den <= min * bound
        self._den = ratio.denominator
        self._bound = ratio.denominator + ratio.numerator

    def select(
        self, algorithms: Sequence[Algorithm], instance: Sequence[int]
    ) -> int:
        flop_counts = [int(a.flops(instance)) for a in algorithms]
        cutoff = min(flop_counts) * self._bound
        shortlist = [
            i for i, flops in enumerate(flop_counts)
            if flops * self._den <= cutoff
        ]
        times = {
            i: self.predicted_time(algorithms[i], instance)
            for i in shortlist
        }
        # min() keeps the first of equally-fast candidates, and the
        # shortlist is in ascending index order: ties break low.
        return min(shortlist, key=times.__getitem__)

    def select_batch(
        self,
        algorithms: Sequence[Algorithm],
        instances: Sequence[Sequence[int]],
    ) -> List[int]:
        if len(instances) == 0:
            return []
        from repro.core.classify import batch_flops

        arr = np.asarray(instances, dtype=np.int64)
        flops = batch_flops(algorithms, arr)
        if int(flops.max()) > _INT64_MAX // self._bound:
            flops = flops.astype(object)  # exact Python-int products
        shortlisted = np.asarray(
            flops * self._den
            <= flops.min(axis=1, keepdims=True) * self._bound,
            dtype=bool,
        )
        plan = self.plan_for(algorithms, arr.shape[1])
        plan.require_profiles(np.nonzero(shortlisted.any(axis=0))[0])
        # argmin over +inf-masked times: first (lowest-index) minimum
        # inside the shortlist, matching the scalar tie rule.
        return np.argmin(
            np.where(shortlisted, plan.times(arr), np.inf), axis=1
        ).tolist()


class BenchmarkDiscriminant(Discriminant):
    name = "benchmark-sum"

    def __init__(self, backend: Backend) -> None:
        self.backend = backend

    def select(
        self, algorithms: Sequence[Algorithm], instance: Sequence[int]
    ) -> int:
        times = [
            self.backend.predict_time(a, instance) for a in algorithms
        ]
        return times.index(min(times))

    def select_batch(
        self,
        algorithms: Sequence[Algorithm],
        instances: Sequence[Sequence[int]],
    ) -> List[int]:
        # One matrix call so the backend can dedupe identical
        # (kernel, dims) benchmarks across plans (see
        # Backend.predict_times_matrix).
        times = self.backend.predict_times_matrix(algorithms, instances)
        return np.argmin(times, axis=1).tolist()
