"""Instance evaluation and the paper's §3.3 anomaly classification.

For one instance, every equivalent algorithm is measured; then:

* the **cheapest** set holds the algorithms of minimum FLOP count;
* the **fastest** set holds the algorithms of minimum measured time;
* the **time score** is the fraction of time saved by the overall
  fastest relative to the best (fastest) minimum-FLOP algorithm,
  ``1 - t_min / t_best_cheapest``;
* the **FLOP score** is the fraction of extra FLOPs the fastest
  algorithm spends, ``1 - f_min / f_fastest`` (in ``[0, 1)``).

An instance is an **anomaly** at threshold θ when the time score
exceeds θ — picking by FLOPs forfeits more than θ of the attainable
performance.  The paper uses θ = 10% in Experiment 1 and 5% in
Experiments 2–3.

The batch entry points (:func:`evaluate_instances` /
:func:`classify_batch`) evaluate whole instance sets at once through
the backends' matrix API (one call for all the algorithms) and apply
the rule above with row-wise array arithmetic.  Every operation is
either exact (integer mins, masked selections, comparisons of values
below 2**53) or the elementwise float64 op the scalar path performs,
so a batched verdict equals the scalar verdict bit for bit.  The
verdicts of a batch stay columnar (:class:`BatchVerdicts`): the hot
loops read the anomaly flags and scores as plain lists, and a
:class:`Verdict` is built only for the rows that ask for one — in
practice, the anomalies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple, overload

import numpy as np

from repro.backends.base import Backend
from repro.expressions.base import Algorithm

#: Relative tolerance when intersecting "minimum" sets: measured times
#: are floats, FLOP counts exact ints; both use the same rule.
_REL_TOL = 1e-9


@dataclass(frozen=True)
class Evaluation:
    """All algorithms of one expression measured at one instance."""

    instance: Tuple[int, ...]
    algorithm_names: Tuple[str, ...]
    flops: Tuple[int, ...]
    seconds: Tuple[float, ...]

    def __post_init__(self) -> None:
        if not (
            len(self.algorithm_names) == len(self.flops) == len(self.seconds)
        ):
            raise ValueError("ragged evaluation")
        if not self.algorithm_names:
            raise ValueError("evaluation needs at least one algorithm")

    def cheapest_indices(self) -> List[int]:
        fmin = min(self.flops)
        return [
            i for i, f in enumerate(self.flops) if f <= fmin * (1 + _REL_TOL)
        ]

    def fastest_indices(self) -> List[int]:
        tmin = min(self.seconds)
        return [
            i for i, t in enumerate(self.seconds) if t <= tmin * (1 + _REL_TOL)
        ]


@dataclass(frozen=True)
class Verdict:
    """The §3.3 classification of one evaluated instance."""

    is_anomaly: bool
    time_score: float
    flop_score: float
    threshold: float
    cheapest: Tuple[str, ...]
    fastest: Tuple[str, ...]


def evaluate_instance(
    backend: Backend,
    algorithms: Sequence[Algorithm],
    instance: Sequence[int],
) -> Evaluation:
    """Measure every algorithm at one instance on the given backend."""
    instance = tuple(int(d) for d in instance)
    return Evaluation(
        instance=instance,
        algorithm_names=tuple(a.name for a in algorithms),
        flops=tuple(int(a.flops(instance)) for a in algorithms),
        seconds=tuple(
            float(backend.time_algorithm(a, instance)) for a in algorithms
        ),
    )


def classify(evaluation: Evaluation, threshold: float = 0.10) -> Verdict:
    """Apply the paper's anomaly rule to an evaluation."""
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    cheapest = evaluation.cheapest_indices()
    fastest = evaluation.fastest_indices()
    t_min = min(evaluation.seconds)
    t_best_cheapest = min(evaluation.seconds[i] for i in cheapest)
    time_score = 1.0 - t_min / t_best_cheapest
    f_min = min(evaluation.flops)
    f_fastest = min(evaluation.flops[i] for i in fastest)
    flop_score = 1.0 - f_min / f_fastest if f_fastest else 0.0
    return Verdict(
        is_anomaly=time_score > threshold,
        time_score=time_score,
        flop_score=flop_score,
        threshold=threshold,
        cheapest=tuple(evaluation.algorithm_names[i] for i in cheapest),
        fastest=tuple(evaluation.algorithm_names[i] for i in fastest),
    )


@dataclass(frozen=True)
class BatchEvaluation:
    """All algorithms of one expression measured at many instances.

    ``instances`` is ``(n, n_dims)`` int64, ``flops`` is ``(n, A)``
    int64 and ``seconds`` is ``(n, A)`` float64, with one column per
    algorithm.  Row ``i`` carries exactly the data of the scalar
    :class:`Evaluation` of instance ``i`` (see :meth:`evaluation`).
    """

    instances: np.ndarray
    algorithm_names: Tuple[str, ...]
    flops: np.ndarray
    seconds: np.ndarray

    def __post_init__(self) -> None:
        n, a = self.seconds.shape
        if self.flops.shape != (n, a) or self.instances.shape[0] != n:
            raise ValueError("ragged batch evaluation")
        if len(self.algorithm_names) != a or a == 0:
            raise ValueError("batch evaluation needs at least one algorithm")

    def __len__(self) -> int:
        return self.instances.shape[0]

    def evaluation(self, i: int) -> Evaluation:
        """Row ``i`` as a scalar :class:`Evaluation`."""
        return Evaluation(
            instance=tuple(int(v) for v in self.instances[i]),
            algorithm_names=self.algorithm_names,
            flops=tuple(int(f) for f in self.flops[i]),
            seconds=tuple(float(s) for s in self.seconds[i]),
        )


def batch_flops(
    algorithms: Sequence[Algorithm], instances_matrix: np.ndarray
) -> np.ndarray:
    """Exact ``(n, A)`` int64 FLOP counts, one column per algorithm.

    Algorithms carrying a codegen provider evaluate through their
    compiled column expression; plans sharing one FLOP polynomial
    share one compiled function *object*, so those evaluations are
    deduped by function identity and computed once per batch (aatb's
    five algorithms, for instance, hold only three distinct
    polynomials).  Algorithms without a provider fall back to the
    interpreted whole-column polynomial evaluation.
    """
    n = instances_matrix.shape[0]
    out = np.empty((n, len(algorithms)), dtype=np.int64)
    shared: dict = {}
    columns = None
    for j, algorithm in enumerate(algorithms):
        fn = algorithm.flops_batch_function()
        if fn is not None:
            key = id(fn)
            column = shared.get(key)
            if column is None:
                column = shared[key] = fn(instances_matrix)
            out[:, j] = column
        else:
            if columns is None:
                columns = tuple(
                    instances_matrix[:, i]
                    for i in range(instances_matrix.shape[1])
                )
            out[:, j] = np.asarray(algorithm.flops(columns), dtype=np.int64)
    return out


def evaluate_instances(
    backend: Backend,
    algorithms: Sequence[Algorithm],
    instances: Sequence[Sequence[int]],
    predict: bool = False,
) -> BatchEvaluation:
    """Measure every algorithm at every instance on the given backend.

    FLOP counts come from evaluating each algorithm's polynomial over
    whole instance columns; times come from the backend's batch API
    (vectorized on the simulated machine, a scalar loop otherwise).
    With ``predict=True`` the seconds are the benchmark-based
    predictions (``Backend.predict_times``) instead of whole-algorithm
    measurements — Experiment 3's view of the same instances.  Either
    way it is one matrix call for all the algorithms, so the backend
    can share work across plans: one memo lookup per row and one noise
    pass on the simulated machine, one benchmark per distinct kernel
    call on a real one.
    """
    arr = np.asarray(instances, dtype=np.int64)
    if arr.ndim != 2:
        raise ValueError(
            f"instances must be a (n, n_dims) matrix, got shape {arr.shape!r}"
        )
    if predict:
        seconds = backend.predict_times_matrix(algorithms, arr)
    else:
        seconds = backend.time_algorithms_matrix(algorithms, arr)
    return BatchEvaluation(
        instances=arr,
        algorithm_names=tuple(a.name for a in algorithms),
        flops=batch_flops(algorithms, arr),
        seconds=seconds,
    )


class BatchVerdicts(Sequence[Verdict]):
    """The verdicts of one :class:`BatchEvaluation`, kept as columns.

    ``is_anomaly``, ``time_scores`` and ``flop_scores`` are plain lists
    with one entry per row.  Indexing builds row ``i``'s
    :class:`Verdict` on demand (a slice gives a list of them); its
    ``cheapest``/``fastest`` name tuples are interned by mask
    bit-pattern, since the same membership patterns recur across most
    rows of a batch.
    """

    __slots__ = (
        "is_anomaly", "time_scores", "flop_scores", "threshold",
        "_names", "_cheap_mask", "_fast_mask", "_name_cache",
    )

    def __init__(
        self,
        is_anomaly: List[bool],
        time_scores: List[float],
        flop_scores: List[float],
        threshold: float,
        names: Tuple[str, ...],
        cheap_mask: np.ndarray,
        fast_mask: np.ndarray,
    ) -> None:
        self.is_anomaly = is_anomaly
        self.time_scores = time_scores
        self.flop_scores = flop_scores
        self.threshold = threshold
        self._names = names
        self._cheap_mask = cheap_mask
        self._fast_mask = fast_mask
        self._name_cache: dict = {}

    def __len__(self) -> int:
        return len(self.is_anomaly)

    def __iter__(self) -> Iterator[Verdict]:
        return (self[i] for i in range(len(self)))

    def _names_for(self, mask_row: np.ndarray) -> Tuple[str, ...]:
        key = mask_row.tobytes()
        got = self._name_cache.get(key)
        if got is None:
            got = self._name_cache[key] = tuple(
                self._names[j] for j in np.nonzero(mask_row)[0]
            )
        return got

    @overload
    def __getitem__(self, i: int) -> Verdict: ...

    @overload
    def __getitem__(self, i: slice) -> List[Verdict]: ...

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return Verdict(
            is_anomaly=self.is_anomaly[i],
            time_score=self.time_scores[i],
            flop_score=self.flop_scores[i],
            threshold=self.threshold,
            cheapest=self._names_for(self._cheap_mask[i]),
            fastest=self._names_for(self._fast_mask[i]),
        )


def classify_batch(
    batch: BatchEvaluation, threshold: float = 0.10
) -> BatchVerdicts:
    """Apply the paper's anomaly rule to every row of a batch."""
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    flops, seconds = batch.flops, batch.seconds
    f_min = flops.min(axis=1)
    cheap_mask = flops <= f_min[:, None] * (1 + _REL_TOL)
    t_min = seconds.min(axis=1)
    fast_mask = seconds <= t_min[:, None] * (1 + _REL_TOL)
    t_best_cheapest = np.where(cheap_mask, seconds, np.inf).min(axis=1)
    time_scores = 1.0 - t_min / t_best_cheapest
    f_fastest = np.where(fast_mask, flops, np.iinfo(np.int64).max).min(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        flop_scores = np.where(
            f_fastest != 0, 1.0 - f_min / f_fastest, 0.0
        )
    return BatchVerdicts(
        is_anomaly=(time_scores > threshold).tolist(),
        time_scores=time_scores.tolist(),
        flop_scores=flop_scores.tolist(),
        threshold=threshold,
        names=batch.algorithm_names,
        cheap_mask=cheap_mask,
        fast_mask=fast_mask,
    )
