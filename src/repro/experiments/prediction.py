"""Experiment 3: predicting anomalies from isolated kernel benchmarks.

For every cell the region traversal classified (ground truth), build
the same classification from *predicted* algorithm times — the sum of
each algorithm's isolated kernel benchmark times.  Agreement means an
anomaly could have been anticipated from one-off per-kernel data; the
disagreements measure what only inter-kernel (cache) effects explain.

All cells are predicted as one batch through the backend's
``predict_times_matrix`` — one memo lookup per cell and one noise pass
on the simulated machine, one benchmark per distinct kernel call on a
real one — and classified from the verdict columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.backends.base import Backend
from repro.core.classify import classify_batch, evaluate_instances
from repro.experiments.regions import Regions
from repro.expressions.base import Expression


@dataclass(frozen=True)
class PredictionRecord:
    instance: Tuple[int, ...]
    actual_anomaly: bool
    predicted_anomaly: bool
    actual_score: float
    predicted_score: float


@dataclass(frozen=True)
class Prediction:
    expression: str
    threshold: float
    records: Tuple[PredictionRecord, ...]


def predict_from_benchmarks(
    backend: Backend,
    expression: Expression,
    regions: Regions,
) -> Prediction:
    if regions.expression != expression.name:
        raise ValueError(
            f"regions are for {regions.expression!r}, "
            f"not {expression.name!r}"
        )
    algorithms = expression.algorithms()
    if not regions.cells:
        return Prediction(
            expression=expression.name,
            threshold=regions.threshold,
            records=(),
        )
    predicted = evaluate_instances(
        backend,
        algorithms,
        [cell.instance for cell in regions.cells],
        predict=True,
    )
    verdicts = classify_batch(predicted, threshold=regions.threshold)
    return Prediction(
        expression=expression.name,
        threshold=regions.threshold,
        records=tuple(
            PredictionRecord(
                instance=cell.instance,
                actual_anomaly=cell.is_anomaly,
                predicted_anomaly=is_anomaly,
                actual_score=cell.time_score,
                predicted_score=time_score,
            )
            for cell, is_anomaly, time_score in zip(
                regions.cells, verdicts.is_anomaly, verdicts.time_scores
            )
        ),
    )
