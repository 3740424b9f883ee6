"""Experiment 2: mapping anomalous regions (paper §4.2, §3.4).

From each anomaly found by Experiment 1, traverse every requested
dimension in both directions, classifying as we go.  The paper's
hole-tolerance rule (§3.4.2) keeps walking through up to
``hole_tolerance`` consecutive non-anomalous samples so measurement
noise near the 5% threshold does not truncate a region.

Each directed walk is a *ray* — the step positions from the origin
toward the box face — evaluated in batched rounds: every round sends
the next ``RAY_CHUNK`` steps of every still-live ray through the
backend as one call, and holes are resolved post hoc: the anomaly
flags (read from the batch's verdict columns) are scanned in step
order and the walk "stops" at exactly the position the step-by-step
loop would have stopped at.  Up to a chunk of positions past the stop
were still evaluated (they warm the backend's memo) but are not
recorded as cells, so the result is identical to the scalar
traversal.

The traversal yields, per region and dimension, the *extent* (the
interval between extreme anomalous positions — its length is the
"thickness" plotted in Figures 7/10) and the set of all evaluated
*cells*, which Experiment 3 reuses as labelled ground truth.  The
origin's verdict is recorded exactly once per region, and cells are
deduplicated by instance: overlapping walks (rays from nearby origins,
or a repeated origin) contribute one cell per distinct instance, the
first time it is visited.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.backends.base import Backend
from repro.core.classify import classify_batch, evaluate_instances
from repro.core.searchspace import Box
from repro.expressions.base import Expression

DEFAULT_STEP = 16
DEFAULT_HOLE_TOLERANCE = 2

#: Steps of each ray evaluated per batching round.  Rays stop early
#: (hole rule), so evaluating whole rays at once would waste most of
#: the batch on positions past the stop; chunking bounds the overshoot
#: per ray while every round still batches across *all* live rays.
RAY_CHUNK = 24


@dataclass(frozen=True)
class RegionCell:
    """One classified sample produced during region traversal."""

    instance: Tuple[int, ...]
    time_score: float
    is_anomaly: bool


@dataclass(frozen=True)
class DimExtent:
    """Anomalous extent of one region along one dimension."""

    dim: int
    lo: int
    hi: int

    @property
    def thickness(self) -> int:
        return self.hi - self.lo


@dataclass(frozen=True)
class Region:
    origin: Tuple[int, ...]
    extents: Dict[int, DimExtent]

    def thickness(self, dim: int) -> int:
        extent = self.extents.get(dim)
        return extent.thickness if extent else 0

    def widest_dim(self) -> int:
        return max(self.extents, key=lambda d: self.extents[d].thickness)


@dataclass(frozen=True)
class Regions:
    expression: str
    threshold: float
    n_dims: int
    regions: Tuple[Region, ...]
    cells: Tuple[RegionCell, ...]

    def thicknesses(self, dim: int) -> List[int]:
        return [r.thickness(dim) for r in self.regions if dim in r.extents]


class _CellRecorder:
    """Order-preserving cell collector, deduplicated by instance."""

    def __init__(self) -> None:
        self.cells: List[RegionCell] = []
        self._seen: Set[Tuple[int, ...]] = set()

    def record(
        self, instance: Tuple[int, ...], time_score: float, is_anomaly: bool
    ) -> None:
        if instance in self._seen:
            return
        self._seen.add(instance)
        self.cells.append(
            RegionCell(
                instance=instance,
                time_score=time_score,
                is_anomaly=is_anomaly,
            )
        )


class _Ray:
    """One directed walk: step positions out to the box face, evaluated
    chunk by chunk until the hole rule stops it."""

    def __init__(
        self, origin: Tuple[int, ...], dim: int, box: Box, step: int,
        direction: int, hole_tolerance: int,
    ) -> None:
        self.origin = origin
        self.dim = dim
        self.hole_tolerance = hole_tolerance
        positions: List[int] = []
        position = origin[dim]
        while True:
            position += direction * step
            if not box.lows[dim] <= position <= box.highs[dim]:
                break
            positions.append(position)
        self.positions = tuple(positions)
        # Verdict columns of the evaluated prefix, in step order.
        self.anomalous: List[bool] = []
        self.time_scores: List[float] = []
        self._holes = 0
        self._stopped = not positions

    def instance_at(self, index: int) -> Tuple[int, ...]:
        origin, dim = self.origin, self.dim
        return origin[:dim] + (self.positions[index],) + origin[dim + 1:]

    def next_chunk(self) -> List[Tuple[int, ...]]:
        """The instances of the next unevaluated chunk; [] when done."""
        if self._stopped:
            return []
        start = len(self.anomalous)
        return [
            self.instance_at(i)
            for i in range(start, min(start + RAY_CHUNK, len(self.positions)))
        ]

    def absorb(
        self, anomalous: Sequence[bool], time_scores: Sequence[float]
    ) -> None:
        """Take one chunk's verdict columns and advance the hole-rule
        scan."""
        self.anomalous.extend(anomalous)
        self.time_scores.extend(time_scores)
        for is_anomaly in anomalous:
            if is_anomaly:
                self._holes = 0
            elif not self._stopped:
                self._holes += 1
                if self._holes > self.hole_tolerance:
                    self._stopped = True
        if len(self.anomalous) == len(self.positions):
            self._stopped = True

    def resolve(
        self, hole_tolerance: int, recorder: _CellRecorder
    ) -> int:
        """Scan the evaluated prefix; return the extreme anomalous position.

        Applies the hole rule post hoc: cells are recorded in step
        order up to (and including) the step where the tolerance is
        exceeded, exactly where a step-by-step walk would stop.
        """
        extreme = self.origin[self.dim]
        holes = 0
        for index, (is_anomaly, time_score) in enumerate(
            zip(self.anomalous, self.time_scores)
        ):
            recorder.record(self.instance_at(index), time_score, is_anomaly)
            if is_anomaly:
                extreme = self.positions[index]
                holes = 0
            else:
                holes += 1
                if holes > hole_tolerance:
                    break
        return extreme


def explore_regions(
    backend: Backend,
    expression: Expression,
    origins: Sequence[Sequence[int]],
    box: Box,
    threshold: float = 0.05,
    dims: Optional[Sequence[int]] = None,
    step: int = DEFAULT_STEP,
    hole_tolerance: int = DEFAULT_HOLE_TOLERANCE,
) -> Regions:
    if step < 1:
        raise ValueError("step must be positive")
    traversal_dims = tuple(dims) if dims is not None else tuple(
        range(expression.n_dims)
    )
    for dim in traversal_dims:
        if not 0 <= dim < expression.n_dims:
            raise ValueError(f"dim {dim} out of range")
    algorithms = expression.algorithms()
    normalized = [tuple(int(v) for v in origin) for origin in origins]
    recorder = _CellRecorder()
    origin_anomalous: List[bool] = []
    origin_scores: List[float] = []
    if normalized:
        origin_verdicts = classify_batch(
            evaluate_instances(backend, algorithms, normalized),
            threshold=threshold,
        )
        origin_anomalous = origin_verdicts.is_anomaly
        origin_scores = origin_verdicts.time_scores
    # Trace every walk of every anomalous region, then evaluate the
    # rays in rounds: each round batches the next RAY_CHUNK steps of
    # every still-live ray through the backend in one call, and the
    # per-ray hole rule decides which rays continue.  The backend memo
    # and stateless noise make the grouping invisible in the results —
    # only in the wall time.
    rays: Dict[Tuple[int, int, int], _Ray] = {}
    for region_index, (origin, is_anomaly) in enumerate(
        zip(normalized, origin_anomalous)
    ):
        if is_anomaly:
            for dim in traversal_dims:
                for direction in (-1, +1):
                    rays[(region_index, dim, direction)] = _Ray(
                        origin, dim, box, step, direction, hole_tolerance
                    )
    while True:
        chunks = [(ray, ray.next_chunk()) for ray in rays.values()]
        chunks = [(ray, chunk) for ray, chunk in chunks if chunk]
        if not chunks:
            break
        flat_verdicts = classify_batch(
            evaluate_instances(
                backend,
                algorithms,
                [instance for _, chunk in chunks for instance in chunk],
            ),
            threshold=threshold,
        )
        offset = 0
        for ray, chunk in chunks:
            end = offset + len(chunk)
            ray.absorb(
                flat_verdicts.is_anomaly[offset:end],
                flat_verdicts.time_scores[offset:end],
            )
            offset = end
    regions: List[Region] = []
    for region_index, (origin, is_anomaly, time_score) in enumerate(
        zip(normalized, origin_anomalous, origin_scores)
    ):
        recorder.record(origin, time_score, is_anomaly)
        extents: Dict[int, DimExtent] = {}
        if is_anomaly:
            for dim in traversal_dims:
                lo = rays[(region_index, dim, -1)].resolve(
                    hole_tolerance, recorder
                )
                hi = rays[(region_index, dim, +1)].resolve(
                    hole_tolerance, recorder
                )
                extents[dim] = DimExtent(dim=dim, lo=lo, hi=hi)
        regions.append(Region(origin=origin, extents=extents))
    return Regions(
        expression=expression.name,
        threshold=threshold,
        n_dims=expression.n_dims,
        regions=tuple(regions),
        cells=tuple(recorder.cells),
    )
