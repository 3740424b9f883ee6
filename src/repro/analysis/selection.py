"""Selection quality: how good is a discriminant on random instances?

For each sampled instance the discriminant picks an algorithm without
per-instance algorithm measurements; the pick is then scored against
the measured-fastest oracle.  ``miss_rate`` applies the paper's
anomaly rule to the *choice*: a miss is a pick more than ``threshold``
slower than the fastest (time score of the chosen algorithm).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.backends.base import Backend
from repro.core.classify import evaluate_instances
from repro.core.discriminants import Discriminant
from repro.core.searchspace import Box
from repro.expressions.base import Expression


@dataclass(frozen=True)
class SelectionQuality:
    discriminant: str
    expression: str
    n_instances: int
    threshold: float
    miss_rate: float
    mean_regret: float
    worst_regret: float
    worst_instance: Optional[Tuple[int, ...]]

    def summary(self) -> str:
        worst = (
            f" (worst {self.worst_regret:.1%} at {self.worst_instance})"
            if self.worst_instance is not None
            else ""
        )
        return (
            f"{self.discriminant:<28} miss rate {self.miss_rate:>6.1%}   "
            f"mean regret {self.mean_regret:>6.2%}{worst}"
        )


def selection_quality(
    discriminant: Discriminant,
    backend: Backend,
    expression: Expression,
    box: Box,
    n_instances: int = 300,
    threshold: float = 0.10,
    seed: int = 0,
) -> SelectionQuality:
    if n_instances < 1:
        raise ValueError("n_instances must be positive")
    rng = random.Random(seed)
    algorithms = expression.algorithms()
    misses = 0
    total_regret = 0.0
    worst_regret = -1.0
    worst_instance: Optional[Tuple[int, ...]] = None
    instances = box.sample_many(rng, n_instances)
    choices = discriminant.select_batch(algorithms, instances)
    batch = evaluate_instances(backend, algorithms, instances)
    t_chosen_all = batch.seconds[np.arange(len(instances)), choices]
    t_min_all = batch.seconds.min(axis=1)
    for instance, t_chosen, t_min in zip(
        instances, t_chosen_all.tolist(), t_min_all.tolist()
    ):
        regret = t_chosen / t_min - 1.0
        total_regret += regret
        if regret > worst_regret:
            worst_regret = regret
            worst_instance = instance
        if 1.0 - t_min / t_chosen > threshold:
            misses += 1
    return SelectionQuality(
        discriminant=discriminant.name,
        expression=expression.name,
        n_instances=n_instances,
        threshold=threshold,
        miss_rate=misses / n_instances,
        mean_regret=total_regret / n_instances,
        worst_regret=worst_regret,
        worst_instance=worst_instance,
    )
