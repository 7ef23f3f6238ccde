"""Hypothesis tests for detected anomaly regions.

Three p-values are computed for the mean contrast between flagged and
unflagged ROI pixels: the naive two-sided normal test (which ignores that
the region was chosen by looking at the same data and is therefore badly
anti-conservative), a Bonferroni correction over every mask the detector
could have produced, and the selective test, which conditions on the event
that the detector reproduces the observed mask.  The selective test works
along the line through the observation in the direction of the contrast:
the detector is decomposed into exact linear pieces over ±(|z_obs| + 20
sigma).  On each piece a pixel's error is within the threshold on one closed
band of the line parameter; the set where every unflagged ROI pixel is inside
its band and every flagged one outside is found for all pieces in one array
pass, and the p-value comes from the normal distribution truncated to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr

from .anomaly import AnomalyMask, RoiMask, Threshold, detect
from .errors import (DataError, DegenerateMaskError, NumericalDiagnosticError,
                     ShapeError)
from .model import ModelWeights
from .parametric import AffineLine, parametric_infer

WINDOW_SIGMAS = 20.0  # the window reaches this many sigma past |z_obs|
STATUS_TESTED = "tested"
STATUS_SKIPPED = "degenerate-skip"


@dataclass(frozen=True)
class NoiseModel:
    """Isotropic pixel noise: covariance sigma2 times the identity."""

    sigma2: float
    provenance: str = "known-by-construction"

    def __post_init__(self):
        if not self.sigma2 > 0:
            raise DataError(f"noise variance must be positive, got {self.sigma2}")
        if self.provenance not in ("known-by-construction", "estimated"):
            raise DataError(f"unknown provenance {self.provenance!r}")


@dataclass(frozen=True)
class TruncationSet:
    """Disjoint sorted z-intervals on which the detector output is the
    observed mask."""

    intervals: tuple

    def __post_init__(self):
        ivals = tuple((float(lo), float(hi)) for lo, hi in self.intervals)
        for lo, hi in ivals:
            if not lo < hi:
                raise DataError(f"empty truncation interval [{lo}, {hi}]")
        for (_, prev_hi), (lo, _) in zip(ivals[:-1], ivals[1:]):
            if not prev_hi < lo:
                raise DataError("truncation intervals overlap or are unsorted")
        object.__setattr__(self, "intervals", ivals)

    def __len__(self) -> int:
        return len(self.intervals)

    def contains(self, z: float, tol: float = 0.0) -> bool:
        return any(lo - tol <= z <= hi + tol for lo, hi in self.intervals)

    def total_length(self) -> float:
        return sum(hi - lo for lo, hi in self.intervals)


@dataclass(frozen=True)
class TestOutcome:
    """Everything the harness records for one subject."""

    status: str
    mask_size: int
    t_obs: float | None = None
    sigma_t: float | None = None
    p_naive: float | None = None
    p_bonferroni: float | None = None
    p_selective: float | None = None
    truncation: TruncationSet | None = None

    @property
    def tested(self) -> bool:
        return self.status == STATUS_TESTED

    @property
    def interval_count(self) -> int:
        return 0 if self.truncation is None else len(self.truncation)


def contrast_vector(mask: AnomalyMask, roi: RoiMask) -> np.ndarray:
    """Weights +1/|mask| on flagged ROI pixels, -1/|complement| on the rest
    of the ROI, zero outside; sums to zero by construction."""
    n = roi.member.size
    in_mask = mask.as_bool(n)
    if np.any(in_mask & ~roi.member):
        raise ShapeError("mask contains pixels outside the ROI")
    comp = roi.member & ~in_mask
    n_mask = int(in_mask.sum())
    n_comp = int(comp.sum())
    if n_mask == 0 or n_comp == 0:
        raise DegenerateMaskError(
            f"mask size {n_mask} of ROI {roi.count}: no testable contrast")
    eta = np.zeros(n, dtype=np.float64)
    eta[in_mask] = 1.0 / n_mask
    eta[comp] = -1.0 / n_comp
    return eta


def test_statistic(x: np.ndarray, eta: np.ndarray) -> float:
    """Inner product of image and contrast: mean over the mask minus mean
    over the in-ROI complement."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    eta = np.asarray(eta, dtype=np.float64).reshape(-1)
    if x.shape != eta.shape:
        raise ShapeError(f"lengths differ: {x.shape} vs {eta.shape}")
    return float(eta @ x)


def sigma_of_contrast(eta: np.ndarray, noise: NoiseModel) -> float:
    """Standard deviation of the contrast statistic under the noise model."""
    eta = np.asarray(eta, dtype=np.float64).reshape(-1)
    return float(math.sqrt(noise.sigma2 * float(eta @ eta)))


def estimate_noise(images) -> NoiseModel:
    """Pixelwise sample variance averaged over pixels, from held-out images."""
    stack = np.stack([np.asarray(im, dtype=np.float64).reshape(-1) for im in images])
    if stack.shape[0] < 2:
        raise DataError(f"need at least two images, got {stack.shape[0]}")
    per_pixel = stack.var(axis=0, ddof=1)
    return NoiseModel(sigma2=float(per_pixel.mean()), provenance="estimated")


def naive_pvalue(t_obs: float, sigma_t: float) -> float:
    """Two-sided normal tail probability, erfc-based for stability."""
    if not sigma_t > 0:
        raise DataError(f"sigma must be positive, got {sigma_t}")
    return float(math.erfc(abs(t_obs) / (sigma_t * math.sqrt(2.0))))


def bonferroni_pvalue(p_naive: float, roi_size: int) -> float:
    """Correction over all 2^roi_size masks the detector could output.

    Evaluated in log space so the astronomically large multiplicity cannot
    overflow: min(1, 2^K * p) = exp(min(0, ln p + K ln 2)).
    """
    if roi_size < 1:
        raise DataError(f"ROI size must be >= 1, got {roi_size}")
    if not 0 <= p_naive <= 1:
        raise DataError(f"p-value out of range: {p_naive}")
    if p_naive == 0.0:
        return 0.0
    return float(math.exp(min(0.0, math.log(p_naive) + roi_size * math.log(2.0))))


def line_decomposition(x: np.ndarray, eta: np.ndarray, noise: NoiseModel,
                       window_sigmas: float = WINDOW_SIGMAS):
    """Splits the observation into the contrast coordinate and its nuisance.

    Returns ``(line, z_obs)`` with ``line.at(z_obs) == x`` and
    ``eta . line.at(z) == z`` for every z.  The window extends
    ``window_sigmas`` standard deviations past the observation on both
    sides of the origin, symmetric so each tail of the two-sided test is
    covered.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    eta = np.asarray(eta, dtype=np.float64).reshape(-1)
    sig = noise.sigma2 * float(eta @ eta)
    if sig <= 0:
        raise DataError("degenerate contrast: zero variance")
    sigma_t = math.sqrt(sig)
    z_obs = float(eta @ x)
    direction = (noise.sigma2 * eta) / sig
    offset = x - direction * z_obs
    half_width = abs(z_obs) + window_sigmas * sigma_t
    line = AffineLine(offset, direction, (-half_width, half_width))
    return line, z_obs


def _matching_runs(ends: np.ndarray, e_off: np.ndarray, e_slope: np.ndarray,
                   flagged: np.ndarray, t: float, merge_tol: float) -> list:
    """Maximal z-intervals on which ``|error| > t`` is exactly ``flagged``.

    On piece ``p``, spanning ``ends[p]``, ROI pixel ``i`` has the error
    ``e_off[p, i] + e_slope[p, i] * z``, within t on a closed band of z.
    The unflagged pixels' bands intersect in one interval per piece; the
    flagged pixels' bands, sorted by start, leave a gap wherever one starts
    past the running maximum of the ends before it.  Runs from all pieces
    then merge across gaps of at most ``merge_tol``.
    """
    sloped = e_slope != 0.0
    slope = np.where(sloped, e_slope, 1.0)
    up, down = (t - e_off) / slope, (-t - e_off) / slope
    # a zero-slope pixel's band is all of z, or none of it as (inf, inf)
    flat_lo = np.where(np.abs(e_off) <= t, -np.inf, np.inf)
    band_lo = np.where(sloped, np.minimum(up, down), flat_lo)
    band_hi = np.where(sloped, np.maximum(up, down), np.inf)
    lo = np.maximum(ends[:, 0], band_lo[:, ~flagged].max(axis=1, initial=-np.inf))
    hi = np.minimum(ends[:, 1], band_hi[:, ~flagged].min(axis=1, initial=np.inf))
    flag_lo, flag_hi = band_lo[:, flagged], band_hi[:, flagged]
    order = np.argsort(flag_lo, axis=1)
    starts = np.take_along_axis(flag_lo, order, axis=1)
    reach = np.maximum.accumulate(np.take_along_axis(flag_hi, order, axis=1), axis=1)
    edge = np.full((len(ends), 1), np.inf)
    gap_lo = np.maximum(lo[:, None], np.concatenate([-edge, reach], axis=1))
    gap_hi = np.minimum(hi[:, None], np.concatenate([starts, edge], axis=1))
    kept = gap_lo < gap_hi
    run_lo, run_hi = gap_lo[kept], gap_hi[kept]
    if run_lo.size == 0:
        return []
    # runs come sorted and disjoint, so each one's left neighbour ends last
    first = np.flatnonzero(np.concatenate([[True], run_lo[1:] > run_hi[:-1] + merge_tol]))
    return list(zip(run_lo[first].tolist(), np.maximum.reduceat(run_hi, first).tolist()))


def truncation_region(line: AffineLine, cond, weights: ModelWeights,
                      threshold: Threshold, roi: RoiMask,
                      observed: AnomalyMask, z_obs: float) -> TruncationSet:
    """All z in the window where the detector reproduces the observed mask.

    Each linear piece of the reconstruction gives affine per-pixel errors;
    ``_matching_runs`` keeps the z where every unflagged ROI pixel's error
    is within the threshold and every flagged one's is not, for all pieces
    at once.  The interval containing ``z_obs`` must be found, otherwise
    something is numerically wrong.
    """
    pieces = parametric_infer(line, cond, weights)
    roi_idx = roi.indices
    e_off = line.a[roi_idx] - np.array([p.recon_offset for p in pieces])[:, roi_idx]
    e_slope = line.b[roi_idx] - np.array([p.recon_slope for p in pieces])[:, roi_idx]
    merge_tol = 1e-12 * max(1.0, abs(line.window[0]), abs(line.window[1]))
    matched = _matching_runs(np.array([(p.lo, p.hi) for p in pieces]), e_off, e_slope,
                             observed.as_bool(roi.member.size)[roi_idx],
                             threshold.value, merge_tol)
    if not matched:
        raise NumericalDiagnosticError("no interval reproduces the observed mask")
    cover_tol = 1e-9 * max(1.0, abs(z_obs))
    if not any(lo - cover_tol <= z_obs <= hi + cover_tol for lo, hi in matched):
        raise NumericalDiagnosticError(
            f"observation z={z_obs} not covered by its truncation set")
    return TruncationSet(tuple(matched))


def _log_right_tail_mass(lo: float, hi: float) -> float:
    """log P(lo <= Z <= hi) for standard Z and 0 <= lo < hi, via log tails.

    Stays finite far in the tail, where the mass itself underflows.
    """
    log_upper = log_ndtr(-lo)   # log P(Z >= lo)
    log_lower = log_ndtr(-hi)   # log P(Z >= hi)
    kept = -math.expm1(log_lower - log_upper)
    return float(log_upper + math.log(kept)) if kept > 0.0 else -math.inf


def _log_sum_exp(logs) -> float:
    """log(sum(exp(v) for v in logs)), with exact summation of the scaled terms."""
    top = max(logs, default=-math.inf)
    if top == -math.inf:
        return top
    return top + math.log(math.fsum(math.exp(v - top) for v in logs))


def _log_interval_mass(lo: float, hi: float) -> float:
    """Log standard normal mass of [lo, hi], split at zero to avoid cancellation."""
    if lo >= 0.0:
        return _log_right_tail_mass(lo, hi)
    if hi <= 0.0:
        return _log_right_tail_mass(-hi, -lo)
    return _log_sum_exp([_log_right_tail_mass(0.0, hi), _log_right_tail_mass(0.0, -lo)])


def truncated_normal_pvalue(z_obs: float, sigma_t: float,
                            trunc: TruncationSet) -> float:
    """Two-sided selective p-value from the truncated normal distribution.

    Computes P(|Z| >= |z_obs| and Z in S) / P(Z in S) for Z centered with
    standard deviation ``sigma_t`` and S the truncation set.  Interval
    masses come from differences of stable log tails, and the ratio is taken
    in log space (a log-sum-exp over the interval log-masses), so a set far
    in the tail, whose masses underflow, still gives a p-value.  The result
    is clamped to [0, 1].
    """
    if not sigma_t > 0:
        raise DataError(f"sigma must be positive, got {sigma_t}")
    cut = abs(z_obs) / sigma_t
    den_parts, num_parts = [], []
    for lo, hi in trunc.intervals:
        lo_u, hi_u = lo / sigma_t, hi / sigma_t
        den_parts.append(_log_interval_mass(lo_u, hi_u))
        # intersection with {|u| >= cut}: a left and a right segment
        right_lo = max(lo_u, cut)
        if right_lo < hi_u:
            num_parts.append(_log_interval_mass(right_lo, hi_u))
        left_hi = min(hi_u, -cut)
        if lo_u < left_hi:
            num_parts.append(_log_interval_mass(lo_u, left_hi))
    log_denominator = _log_sum_exp(den_parts)
    if log_denominator == -math.inf:
        raise NumericalDiagnosticError("truncation set carries no probability mass")
    ratio = math.exp(_log_sum_exp(num_parts) - log_denominator)
    return float(min(1.0, max(0.0, ratio)))


def selective_pvalue(x: np.ndarray, cond, weights: ModelWeights,
                     threshold: Threshold, roi: RoiMask, noise: NoiseModel) -> TestOutcome:
    """Runs the detector once and computes all three p-values from its mask.

    An empty mask or a mask covering the whole ROI admits no contrast, so
    the subject is reported as a degenerate skip with no p-values.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    mask = detect(x, cond, weights, threshold, roi)
    if len(mask) == 0 or len(mask) == roi.count:
        return TestOutcome(status=STATUS_SKIPPED, mask_size=len(mask))

    eta = contrast_vector(mask, roi)
    sigma_t = sigma_of_contrast(eta, noise)
    t_obs = test_statistic(x, eta)
    p_naive = naive_pvalue(t_obs, sigma_t)
    p_bonf = bonferroni_pvalue(p_naive, roi.count)
    line, z_obs = line_decomposition(x, eta, noise)
    trunc = truncation_region(line, cond, weights, threshold, roi, mask, z_obs)
    p_sel = truncated_normal_pvalue(z_obs, sigma_t, trunc)
    return TestOutcome(status=STATUS_TESTED, mask_size=len(mask), t_obs=t_obs,
                       sigma_t=sigma_t, p_naive=p_naive,
                       p_bonferroni=p_bonf, p_selective=p_sel, truncation=trunc)


def ks_statistic(pvals) -> float:
    """Sup distance between the empirical CDF of the p-values and U(0,1)."""
    arr = np.sort(np.asarray(pvals, dtype=np.float64).reshape(-1))
    if arr.size == 0:
        raise DataError("no p-values given")
    if np.any(arr < 0) or np.any(arr > 1):
        raise DataError("p-values must lie in [0, 1]")
    n = arr.size
    grid = np.arange(1, n + 1, dtype=np.float64) / n
    d_plus = float(np.max(grid - arr))
    d_minus = float(np.max(arr - (grid - 1.0 / n)))
    return max(d_plus, d_minus)
