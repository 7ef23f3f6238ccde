"""The anomaly detector: reconstruct, difference, threshold, mask.

Four steps turn a flow map into a set of flagged pixels: the CVAE predicts
the healthy-looking version of the image, the signed per-pixel difference
between input and prediction is taken, pixels whose absolute error strictly
exceeds a calibrated threshold are selected, and the selection is restricted
to the region of interest.  The threshold is the empirical quantile
(nearest rank, no interpolation) of the pooled absolute errors of a healthy
calibration set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ShapeError
from .model import ModelWeights, reconstruct


@dataclass(frozen=True)
class RoiMask:
    """Boolean pixel membership for the region under test."""

    member: np.ndarray

    def __post_init__(self):
        member = np.asarray(self.member).reshape(-1).astype(bool)
        if int(member.sum()) < 2:
            raise DataError("ROI needs at least two pixels (region plus complement)")
        object.__setattr__(self, "member", member)

    @property
    def count(self) -> int:
        return int(self.member.sum())

    @property
    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.member)

    @classmethod
    def centered_square(cls, side: int, fraction: float = 0.25) -> "RoiMask":
        """Square ROI centered in a side x side image covering ``fraction``."""
        if not 0 < fraction <= 1:
            raise DataError(f"fraction must be in (0, 1], got {fraction}")
        sq = max(2, int(round(side * math.sqrt(fraction))))
        sq = min(sq, side)
        start = (side - sq) // 2
        member = np.zeros((side, side), dtype=bool)
        member[start:start + sq, start:start + sq] = True
        return cls(member)


@dataclass(frozen=True)
class Threshold:
    """Calibrated detection threshold and its provenance."""

    value: float
    source_quantile: float
    calibration_count: int

    def __post_init__(self):
        if not self.value >= 0:
            raise DataError(f"threshold must be nonnegative, got {self.value}")
        _check_quantile(self.source_quantile)


@dataclass(frozen=True)
class AnomalyMask:
    """Sorted flat indices of the flagged pixels."""

    pixels: np.ndarray

    def __post_init__(self):
        pixels = np.unique(np.asarray(self.pixels, dtype=np.int64).reshape(-1))
        object.__setattr__(self, "pixels", pixels)

    def __len__(self) -> int:
        return int(self.pixels.size)

    def as_bool(self, n_pixels: int) -> np.ndarray:
        out = np.zeros(n_pixels, dtype=bool)
        out[self.pixels] = True
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, AnomalyMask):
            return NotImplemented
        return np.array_equal(self.pixels, other.pixels)


def reconstruction_error(x: np.ndarray, recon: np.ndarray) -> np.ndarray:
    """Signed per-pixel difference x - recon."""
    x = np.asarray(x, dtype=np.float64)
    recon = np.asarray(recon, dtype=np.float64)
    if x.shape != recon.shape:
        raise ShapeError(f"shapes differ: {x.shape} vs {recon.shape}")
    return x - recon


def _check_quantile(q):
    if not 0 < q < 1:
        raise DataError(f"quantile must be in (0,1), got {q}")


def calibrate_threshold(healthy_errors, roi: RoiMask, q: float) -> Threshold:
    """Nearest-rank empirical q-quantile of pooled |error| over ROI pixels.

    The rank is ceil(q * N) over the N pooled values (numpy's
    ``"inverted_cdf"`` quantile), so the returned value is always one of the
    observed errors (reproducible, no interpolation).
    """
    _check_quantile(q)
    pools = []
    for err in healthy_errors:
        flat = np.asarray(err, dtype=np.float64).reshape(-1)
        if flat.size != roi.member.size:
            raise ShapeError(f"error map size {flat.size} vs ROI {roi.member.size}")
        pools.append(np.abs(flat[roi.member]))
    if not pools:
        raise DataError("no healthy error maps to calibrate from")
    pooled = np.concatenate(pools)
    value = float(np.quantile(pooled, q, method="inverted_cdf"))
    return Threshold(value=value, source_quantile=q, calibration_count=pooled.size)


def extract_mask(error: np.ndarray, threshold: Threshold, roi: RoiMask) -> AnomalyMask:
    """Pixels inside the ROI whose |error| strictly exceeds the threshold."""
    flat = np.asarray(error, dtype=np.float64).reshape(-1)
    if flat.size != roi.member.size:
        raise ShapeError(f"error map size {flat.size} vs ROI {roi.member.size}")
    hits = roi.member & (np.abs(flat) > threshold.value)
    return AnomalyMask(np.flatnonzero(hits))


def detect(x: np.ndarray, cond, weights: ModelWeights, threshold: Threshold,
           roi: RoiMask) -> AnomalyMask:
    """Full detector: reconstruct, difference, threshold within the ROI.

    Deterministic in ``x`` (the latent mean path never samples), so repeated
    calls agree and the mask is a piecewise-constant set function of the
    image.
    """
    side = weights.arch.side
    img = np.asarray(x, dtype=np.float64)
    if img.size != side * side:
        raise ShapeError(f"image has {img.size} pixels, the model expects {side}x{side}")
    img = img.reshape(1, side, side)
    recon = reconstruct(img, cond, weights)
    err = reconstruction_error(img, recon)
    return extract_mask(err, threshold, roi)
