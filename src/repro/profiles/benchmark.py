"""Kernel performance profiles: benchmark once per machine, reuse forever.

A profile stores measured isolated-kernel times on a per-axis size
grid and predicts the time of an arbitrary call by multilinear
interpolation in log-log space (BLAS times are near power-law in each
dimension, so log-log interpolation stays accurate across the
20..1400 range with a handful of grid points).

Prediction is batch-first: :meth:`Profile.predict_batch` interpolates
whole ``(n, arity)`` dim matrices with array arithmetic, and the
scalar :meth:`Profile.predict` *is* a one-row batch — so scalar and
batched predictions are bit-for-bit identical by construction (the
repo-wide batching contract, see ``tests/test_batch_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.backends.base import Backend
from repro.kernels.types import KERNEL_ARITY, KernelName


@dataclass(frozen=True)
class Profile:
    kernel: KernelName
    axes: Tuple[Tuple[int, ...], ...]
    times: np.ndarray  # shape = tuple(len(axis) for axis in axes)

    def __post_init__(self) -> None:
        expected = tuple(len(axis) for axis in self.axes)
        if tuple(self.times.shape) != expected:
            raise ValueError(
                f"times shape {self.times.shape} != grid {expected}"
            )
        if any(len(axis) < 2 for axis in self.axes):
            raise ValueError("each axis needs at least two grid points")
        flat_log = np.log(np.ascontiguousarray(self.times)).reshape(-1)
        object.__setattr__(self, "_flat_log_times", flat_log)
        # Row-major strides (in elements) into the flattened grid.
        n_axes = len(self.axes)
        strides = np.ones(n_axes, dtype=np.int64)
        for i in range(n_axes - 2, -1, -1):
            strides[i] = strides[i + 1] * len(self.axes[i + 1])
        object.__setattr__(self, "_strides", strides)
        axes_f = tuple(
            np.asarray(axis, dtype=np.float64) for axis in self.axes
        )
        object.__setattr__(self, "_axes_f", axes_f)
        object.__setattr__(
            self, "_grid_lo", np.array([a[0] for a in axes_f])
        )
        object.__setattr__(
            self, "_grid_hi", np.array([a[-1] for a in axes_f])
        )
        object.__setattr__(
            self,
            "_top_cell",
            np.array([len(a) - 1 for a in axes_f], dtype=np.int64),
        )
        # Every axis's log grid in one table; a cell's lower edge on
        # axis i sits at index ``lo + _log_axis_offset[i]``.
        object.__setattr__(
            self, "_log_axes", np.concatenate([np.log(a) for a in axes_f])
        )
        object.__setattr__(
            self,
            "_log_axis_offset",
            np.cumsum([0] + [len(a) for a in axes_f[:-1]]).astype(np.int64),
        )
        # Corner ``mask`` of a cell takes the upper grid point on axis
        # i iff bit i is set: its bits per axis and its flat-index
        # offset from the cell's lower corner.
        corners = np.arange(1 << n_axes)
        bits = (corners[:, None] >> np.arange(n_axes)) & 1
        object.__setattr__(self, "_corner_bits", bits)
        object.__setattr__(self, "_corner_offsets", bits @ strides)

    @property
    def n_points(self) -> int:
        return int(self.times.size)

    def predict(self, dims: Sequence[int]) -> float:
        """Interpolated time for one call; clamped outside the grid."""
        return float(self.predict_batch(np.asarray(dims)[None, :])[0])

    def predict_batch(self, dims_matrix: np.ndarray) -> np.ndarray:
        """Interpolated times for ``(n, arity)`` calls at once.

        Vectorized log-log multilinear interpolation: per axis, the
        bracketing grid cell and log-space weight for every row; then
        the blend over the 2^arity cell corners as array arithmetic.
        Values outside the grid are clamped, exactly like the scalar
        path (which is this method on a one-row matrix).
        """
        dims = np.asarray(dims_matrix, dtype=np.float64)
        if dims.ndim != 2 or dims.shape[1] != len(self.axes):
            raise ValueError(
                f"{self.kernel.value} takes (n, {len(self.axes)}) dims, "
                f"got shape {dims.shape!r}"
            )
        n_axes = dims.shape[1]
        v = np.minimum(np.maximum(dims, self._grid_lo), self._grid_hi)
        hi = np.empty(dims.shape, dtype=np.int64)
        for axis_i, axis_f in enumerate(self._axes_f):
            hi[:, axis_i] = np.searchsorted(axis_f, v[:, axis_i], side="left")
        lo = np.minimum(np.maximum(hi, 1), self._top_cell) - 1
        lo_at = lo + self._log_axis_offset
        log_axes = self._log_axes
        log_lo = log_axes[lo_at]
        weights = (np.log(v) - log_lo) / (log_axes[lo_at + 1] - log_lo)
        # Multilinear blend over the 2^n cell corners: each corner's
        # weight multiplies its per-axis factors in axis order, and the
        # corners accumulate in mask order, so results are
        # reproducible bit-for-bit.
        factors = np.stack((1.0 - weights, weights))
        bits = self._corner_bits
        weight = factors[bits[:, 0], :, 0]
        for axis_i in range(1, n_axes):
            weight = weight * factors[bits[:, axis_i], :, axis_i]
        corner_index = (lo @ self._strides) + self._corner_offsets[:, None]
        terms = weight * self._flat_log_times[corner_index]
        total = terms[0]
        for term in terms[1:]:
            total = total + term
        return np.exp(total)

def build_profile(
    backend: Backend, kernel: KernelName, axes: Sequence[Sequence[int]]
) -> Profile:
    """Benchmark one kernel over the full grid of axis values."""
    axes_t = tuple(tuple(int(v) for v in axis) for axis in axes)
    if len(axes_t) != KERNEL_ARITY[kernel]:
        raise ValueError(
            f"{kernel.value} takes {KERNEL_ARITY[kernel]} axes, "
            f"got {len(axes_t)}"
        )
    shape = tuple(len(axis) for axis in axes_t)
    # One batched timing call over the whole grid (C-order, so the
    # reshape matches np.ndindex iteration).
    grid = [
        tuple(axis[i] for axis, i in zip(axes_t, index))
        for index in np.ndindex(*shape)
    ]
    times = backend.time_kernels(kernel, grid).reshape(shape)
    return Profile(kernel=kernel, axes=axes_t, times=times)


#: Per-dimension grid of the standard profile-benchmarking pass —
#: shared by the selection service, the discriminant ablation bench
#: and the ablation harness so their profile-based discriminants are
#: comparable.
PROFILE_AXIS = (24, 64, 160, 400, 800, 1400)


def build_all_profiles(
    backend: Backend,
    axes_by_kernel: Dict[KernelName, Sequence[Sequence[int]]],
) -> Dict[KernelName, Profile]:
    """The one-off per-machine benchmarking pass (paper §5's proposal)."""
    return {
        kernel: build_profile(backend, kernel, axes)
        for kernel, axes in axes_by_kernel.items()
    }


def standard_profiles(backend: Backend) -> Dict[KernelName, Profile]:
    """Every kernel profiled over the :data:`PROFILE_AXIS` grid."""
    return build_all_profiles(
        backend,
        {
            kernel: (PROFILE_AXIS,) * KERNEL_ARITY[kernel]
            for kernel in KernelName
        },
    )
