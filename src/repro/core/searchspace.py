"""Instance search spaces: integer boxes of operand dimensions.

The paper explores dims independently drawn from ``[20, 1200]``
(its Table: 20..1200 per dimension) — :func:`paper_box`.  Larger
exploration volumes are registered by name in :data:`NAMED_BOXES`
(:func:`named_box`), so figure configs and study-cache keys can refer
to a box with a stable string.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

PAPER_LOW = 20
PAPER_HIGH = 1200


@dataclass(frozen=True)
class Box:
    """An axis-aligned integer box; samples are uniform per axis."""

    lows: Tuple[int, ...]
    highs: Tuple[int, ...]

    def __init__(self, lows: Sequence[int], highs: Sequence[int]) -> None:
        lows = tuple(int(v) for v in lows)
        highs = tuple(int(v) for v in highs)
        if len(lows) != len(highs):
            raise ValueError("lows/highs length mismatch")
        if not lows:
            raise ValueError("box needs at least one dimension")
        if any(lo > hi for lo, hi in zip(lows, highs)):
            raise ValueError(f"empty box: {lows} .. {highs}")
        if any(lo < 1 for lo in lows):
            raise ValueError("dimensions must be positive")
        object.__setattr__(self, "lows", lows)
        object.__setattr__(self, "highs", highs)

    @property
    def n_dims(self) -> int:
        return len(self.lows)

    def sample(self, rng: random.Random) -> Tuple[int, ...]:
        """One uniform sample; deterministic given the caller's rng."""
        return self.sample_many(rng, 1)[0]

    def sample_many(
        self, rng: random.Random, n: int
    ) -> List[Tuple[int, ...]]:
        """``n`` uniform samples, drawn axis by axis in sample order.

        Each value is exactly what ``rng.randint(lo, hi)`` would return:
        this inlines CPython's ``randint``/``randrange`` rejection loop
        — ``getrandbits(k)`` until the draw falls below the axis width,
        ``k`` being the width's bit length — so the rng ends in the same
        state too, without ``randint``'s three Python frames per value.
        """
        axes = [
            (lo, hi - lo + 1, (hi - lo + 1).bit_length())
            for lo, hi in zip(self.lows, self.highs)
        ]
        getrandbits = rng.getrandbits
        samples = []
        for _ in range(n):
            instance = []
            for lo, width, bits in axes:
                r = getrandbits(bits)
                while r >= width:
                    r = getrandbits(bits)
                instance.append(lo + r)
            samples.append(tuple(instance))
        return samples

    def contains(self, instance: Sequence[int]) -> bool:
        return len(instance) == self.n_dims and all(
            lo <= v <= hi
            for v, lo, hi in zip(instance, self.lows, self.highs)
        )

    def clamp(self, instance: Sequence[int]) -> Tuple[int, ...]:
        return tuple(
            min(max(int(v), lo), hi)
            for v, lo, hi in zip(instance, self.lows, self.highs)
        )

    def span(self, dim: int) -> int:
        return self.highs[dim] - self.lows[dim]


def paper_box(n_dims: int) -> Box:
    """The paper's exploration box: every dim in [20, 1200]."""
    return Box((PAPER_LOW,) * n_dims, (PAPER_HIGH,) * n_dims)


#: Named per-dim ranges usable as the ``box`` knob of a figure config.
#: ``paper_box`` is the paper's [20, 1200]; the wider boxes keep the
#: paper's lower edge (small dims drive the anomalies) and extend the
#: upper edge beyond the published search volume.
NAMED_BOXES: Dict[str, Tuple[int, int]] = {
    "paper_box": (PAPER_LOW, PAPER_HIGH),
    "wide_box": (PAPER_LOW, 2 * PAPER_HIGH),
    "huge_box": (PAPER_LOW, 4 * PAPER_HIGH),
}


def named_box(name: str, n_dims: int) -> Box:
    """Resolve a registered box name to a concrete ``n_dims`` box."""
    try:
        low, high = NAMED_BOXES[name]
    except KeyError:
        raise KeyError(
            f"unknown box {name!r}; known: {', '.join(sorted(NAMED_BOXES))}"
        ) from None
    return Box((low,) * n_dims, (high,) * n_dims)
