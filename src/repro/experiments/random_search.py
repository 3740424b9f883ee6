"""Experiment 1: random search for anomalous instances (paper §4.1).

Sample instances uniformly from the box, measure every equivalent
algorithm, classify, and collect anomalies until a target count or a
sample budget is reached.  Abundance is anomalies per sample drawn.

Sampling proceeds in batches: a chunk of instances is drawn
(:meth:`Box.sample_many`, in the same rng order a point-by-point loop
would use), evaluated through the backend's matrix API in one call,
and the anomaly flags scanned in draw order — so results are identical
for every ``batch_size``, including the degenerate scalar loop
``batch_size=1``.  Only the anomalies get a :class:`Verdict` built.
When a target anomaly count is hit mid-chunk the scan stops exactly
where the scalar loop would have, and the surplus evaluations only
warm the backend memo.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from repro.backends.base import Backend
from repro.core.classify import Verdict, classify_batch, evaluate_instances
from repro.core.searchspace import Box
from repro.expressions.base import Expression

#: Chunk size balancing vectorization width against overshoot past a
#: ``target_anomalies`` stop.
DEFAULT_BATCH_SIZE = 128


@dataclass(frozen=True)
class Anomaly:
    instance: Tuple[int, ...]
    verdict: Verdict


@dataclass(frozen=True)
class SearchResult:
    expression: str
    threshold: float
    anomalies: Tuple[Anomaly, ...]
    n_samples: int

    @property
    def abundance(self) -> float:
        """Fraction of sampled instances that are anomalous."""
        return len(self.anomalies) / self.n_samples if self.n_samples else 0.0

    @property
    def time_scores(self) -> Tuple[float, ...]:
        return tuple(a.verdict.time_score for a in self.anomalies)

    @property
    def flop_scores(self) -> Tuple[float, ...]:
        return tuple(a.verdict.flop_score for a in self.anomalies)


def random_search(
    backend: Backend,
    expression: Expression,
    box: Box,
    threshold: float = 0.10,
    target_anomalies: int | None = None,
    max_samples: int = 10_000,
    seed: int = 0,
    batch_size: int | None = None,
) -> SearchResult:
    if box.n_dims != expression.n_dims:
        raise ValueError(
            f"{expression.name} needs a {expression.n_dims}-dim box"
        )
    if max_samples < 1:
        raise ValueError("max_samples must be positive")
    if batch_size is None:
        batch_size = DEFAULT_BATCH_SIZE
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    rng = random.Random(seed)
    algorithms = expression.algorithms()
    anomalies: List[Anomaly] = []
    n_samples = 0
    done = target_anomalies is not None and target_anomalies <= 0
    while not done and n_samples < max_samples:
        chunk = min(batch_size, max_samples - n_samples)
        instances = box.sample_many(rng, chunk)
        verdicts = classify_batch(
            evaluate_instances(backend, algorithms, instances),
            threshold=threshold,
        )
        flagged = [i for i, hit in enumerate(verdicts.is_anomaly) if hit]
        if (
            target_anomalies is not None
            and len(anomalies) + len(flagged) >= target_anomalies
        ):
            # Stop at the sample that reaches the target.
            flagged = flagged[:target_anomalies - len(anomalies)]
            n_samples += flagged[-1] + 1
            done = True
        else:
            n_samples += chunk
        anomalies.extend(
            Anomaly(instance=instances[i], verdict=verdicts[i])
            for i in flagged
        )
    return SearchResult(
        expression=expression.name,
        threshold=threshold,
        anomalies=tuple(anomalies),
        n_samples=n_samples,
    )
