"""Dense optical flow and its reduction to a scalar change-rate map.

A pair of registered images taken some years apart is turned into a
per-pixel velocity field with the classic Horn-Schunck scheme (brightness
constancy plus a smoothness penalty, solved by Jacobi iteration), and the
field is reduced to its divergence: positive where the image content
locally expands, negative where it contracts.  Flow is expressed per year
so subjects with different scan gaps are comparable.

Each Jacobi sweep takes the neighbourhood averages of u and v, stacked as
one ``(2, H, W)`` array, with a single ``scipy.ndimage.correlate`` whose
``"mirror"`` border is numpy's ``np.pad(..., mode="reflect")``.  The flow is
bit for bit that of padding and adding the eight weighted shifted
neighbours: the correlation skips the zero centre tap and sums
``0 + w0*x0 + w1*x1 + ...`` over the others in row-major order, as they did.
``scipy.ndimage`` is imported by the first flow, so a process that never
computes one (a scan or pool worker) does not load it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ShapeError

HS_DEFAULT_SMOOTHNESS = 0.5
HS_DEFAULT_ITERATIONS = 200

# Horn-Schunck neighbourhood average: 1/6 edges, 1/12 corners, zero centre;
# the leading axis of length one keeps the stacked u and v apart.
_AVG_KERNEL = np.array([[[1, 2, 1], [2, 0, 2], [1, 2, 1]]]) / 12


@dataclass(frozen=True)
class ImagePair:
    """Two same-shape scans of one subject plus the conditioning scalars."""

    first: np.ndarray
    second: np.ndarray
    time_gap: float
    age_at_first: float

    def __post_init__(self):
        first = _as_plane_3d(self.first)
        second = _as_plane_3d(self.second)
        if first.shape != second.shape:
            raise ShapeError(f"image shapes differ: {first.shape} vs {second.shape}")
        if not (np.all(np.isfinite(first)) and np.all(np.isfinite(second))):
            raise DataError("non-finite pixel values")
        if not 0 < self.time_gap < math.inf:
            raise DataError(f"time gap must be positive and finite, got {self.time_gap}")
        if not math.isfinite(self.age_at_first):
            raise DataError(f"age at first scan must be finite, got {self.age_at_first}")
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "second", second)


@dataclass(frozen=True)
class FlowField:
    """Per-pixel velocity in pixels per year: u horizontal, v vertical."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=np.float64)
        v = np.asarray(self.v, dtype=np.float64)
        if u.shape != v.shape or u.ndim != 2:
            raise ShapeError(f"flow components must be equal 2-D arrays, got {u.shape}, {v.shape}")
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
            raise DataError("non-finite flow values")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)


@dataclass(frozen=True)
class ScalarFlowMap:
    """Signed change-rate map: positive = local growth, negative = shrinkage."""

    values: np.ndarray

    def __post_init__(self):
        values = _as_plane_3d(self.values)
        if not np.all(np.isfinite(values)):
            raise DataError("non-finite map values")
        object.__setattr__(self, "values", values)


def _as_plane_3d(arr) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[None, :, :]
    if arr.ndim != 3 or arr.shape[0] != 1:
        raise ShapeError(f"expected a single-channel image, got shape {arr.shape}")
    if arr.size == 0:
        raise ShapeError(f"image is empty: shape {arr.shape}")
    return arr


def horn_schunck(pair: ImagePair, smoothness: float = HS_DEFAULT_SMOOTHNESS,
                 iterations: int = HS_DEFAULT_ITERATIONS) -> FlowField:
    """Horn-Schunck flow between the pair, in pixels per year.

    Spatial gradients are central differences of the two-frame mean with
    reflective borders (the interior of ``np.gradient`` of the
    reflect-padded mean); the temporal gradient is the forward difference.
    Starting from zero flow, each Jacobi sweep replaces the field by its
    neighbourhood average (one ``ndimage.correlate`` over the stacked u and
    v, mirror borders = reflect padding, same sum order as shifted adds)
    corrected along the image gradient.  The raw displacement is divided
    by the scan gap, so identical images yield an exactly zero field.
    """
    if not 0 < smoothness < math.inf:
        raise DataError(f"smoothness must be positive and finite, got {smoothness}")
    if not isinstance(iterations, numbers.Integral) or iterations < 1:
        raise DataError(f"need a whole number of iterations >= 1, got {iterations!r}")
    i1 = pair.first[0]
    i2 = pair.second[0]
    padded = np.pad(0.5 * (i1 + i2), 1, mode="reflect")
    gy, gx = (g[1:-1, 1:-1] for g in np.gradient(padded))
    gt = i2 - i1
    denom = smoothness ** 2 + gx * gx + gy * gy

    from scipy import ndimage  # on first use: scan and pool workers never need it
    g = np.stack((gx, gy))
    uv = np.zeros_like(g)
    avg = np.empty_like(g)
    for _ in range(iterations):
        ndimage.correlate(uv, _AVG_KERNEL, output=avg, mode="mirror")
        scale = (gx * avg[0] + gy * avg[1] + gt) / denom
        uv = avg - g * scale
    return FlowField(uv[0] / pair.time_gap, uv[1] / pair.time_gap)


def divergence(flow: FlowField) -> ScalarFlowMap:
    """du/dx + dv/dy, central differences inside, one-sided at the borders."""
    if min(flow.u.shape) < 2:
        raise ShapeError(f"divergence needs both sides >= 2, got shape {flow.u.shape}")
    return ScalarFlowMap(np.gradient(flow.u, axis=1) + np.gradient(flow.v, axis=0))


def standardize_cohort(maps):
    """Centers and scales all maps by the pooled scalar mean and std.

    The statistics are computed over every pixel of every map (population
    std) and returned so future inputs can be put on the same scale.
    """
    if len(maps) < 2:
        raise DataError(f"need at least two maps to standardize, got {len(maps)}")
    pooled = np.concatenate([m.values.reshape(-1) for m in maps])
    mean = float(pooled.mean())
    std = float(pooled.std())
    if std == 0.0:
        raise DataError("cohort has zero variance; cannot standardize")
    standardized = [ScalarFlowMap((m.values - mean) / std) for m in maps]
    return standardized, mean, std


def standardize_conditions(conditions):
    """Standardizes each condition column to mean 0, variance 1.

    ``conditions`` is (n, k) with one row per subject (for this pipeline
    k = 2: age at first scan, scan time gap).  Returns the standardized
    array plus the per-column means and stds for reuse on new subjects.
    """
    conds = np.asarray(conditions, dtype=np.float64)
    if conds.ndim != 2 or conds.shape[0] < 2:
        raise DataError(f"need an (n >= 2, k) condition array, got {conds.shape}")
    if not np.all(np.isfinite(conds)):
        raise DataError("non-finite condition values")
    means = conds.mean(axis=0)
    stds = conds.std(axis=0)
    if np.any(stds == 0.0):
        raise DataError("a condition column has zero variance")
    return (conds - means) / stds, means, stds


def conditions_of(pairs) -> np.ndarray:
    """(age, time_gap) rows extracted from a list of image pairs."""
    return np.array([[p.age_at_first, p.time_gap] for p in pairs], dtype=np.float64)
