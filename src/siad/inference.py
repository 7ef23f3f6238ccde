"""Hypothesis tests for detected anomaly regions.

Three p-values are computed for the mean contrast between flagged and
unflagged ROI pixels: the naive two-sided normal test (which ignores that
the region was chosen by looking at the same data and is therefore badly
anti-conservative), a Bonferroni correction over every mask the detector
could have produced, and the selective test, which conditions on the event
that the detector reproduces the observed mask.  The selective test works
along the line through the observation in the direction of the contrast:
the detector is decomposed into exact linear pieces over ±(|z_obs| + 20
sigma), each kept at the ROI pixels only.  On each piece a pixel's error is
within the threshold on one closed band of the line parameter (a pixel
whose error at the observation lies within the scan's value error of the
threshold keeps its observed side there); the set where every unflagged ROI
pixel is inside its band and every flagged one outside is found by array
passes over fixed chunks of pieces, whose runs join across chunk ends, and
the p-value comes from the normal distribution truncated to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr, logsumexp

from .anomaly import AnomalyMask, RoiMask, Threshold, detect
from .errors import (DataError, DegenerateMaskError, NumericalDiagnosticError,
                     ShapeError)
from .model import ModelWeights
from .parametric import VALUE_TOL, AffineLine, parametric_infer

WINDOW_SIGMAS = 20.0  # the window reaches this many sigma past |z_obs|
BAND_CHUNK = 256  # pieces per band pass: bounds its arrays to this many rows
STATUS_TESTED = "tested"
STATUS_SKIPPED = "degenerate-skip"


@dataclass(frozen=True)
class NoiseModel:
    """Isotropic pixel noise: covariance sigma2 times the identity."""

    sigma2: float
    provenance: str = "known-by-construction"

    def __post_init__(self):
        if not 0 < self.sigma2 < math.inf:
            raise DataError(f"noise variance must be positive and finite, got {self.sigma2}")
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
    """Everything the harness records for one subject, with the detector's
    mask that the contrast was taken over."""

    status: str
    mask: AnomalyMask
    t_obs: float | None = None
    sigma_t: float | None = None
    p_naive: float | None = None
    p_bonferroni: float | None = None
    p_selective: float | None = None
    truncation: TruncationSet | None = None

    @property
    def mask_size(self) -> int:
        return len(self.mask)

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


def line_decomposition(x: np.ndarray, eta: np.ndarray, noise: NoiseModel):
    """Splits the observation into the contrast coordinate and its nuisance.

    Returns ``(line, z_obs)`` with ``line.at(z_obs) == x`` and
    ``eta . line.at(z) == z`` for every z.  The window extends
    WINDOW_SIGMAS standard deviations past the observation on both sides
    of the origin, symmetric so each tail of the two-sided test is covered.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    eta = np.asarray(eta, dtype=np.float64).reshape(-1)
    sig = noise.sigma2 * float(eta @ eta)
    if sig <= 0:
        raise DataError("degenerate contrast: zero variance")
    sigma_t = math.sqrt(sig)
    z_obs = test_statistic(x, eta)
    direction = (noise.sigma2 * eta) / sig
    offset = x - direction * z_obs
    half_width = abs(z_obs) + WINDOW_SIGMAS * sigma_t
    line = AffineLine(offset, direction, (-half_width, half_width))
    return line, z_obs


def _matching_runs(ends: np.ndarray, e_off: np.ndarray, e_slope: np.ndarray,
                   flagged: np.ndarray, t: float, merge_tol: float) -> list:
    """Maximal z-intervals on which ``|error| > t`` is exactly ``flagged``.

    On piece ``p``, spanning ``ends[p]``, ROI pixel ``i`` has the error
    ``e_off[p, i] + e_slope[p, i] * z``, within t on a closed band of z
    (``t`` is one threshold for every pixel, or one per pixel).
    The unflagged pixels' bands intersect in one interval per piece; the
    flagged pixels' bands, sorted by start, leave a gap wherever one starts
    past the running maximum of the ends before it.  Runs from all the
    given pieces then merge across gaps of at most ``merge_tol``.
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

    Each linear piece of the reconstruction, kept at the ROI pixels only,
    gives affine per-pixel errors; ``_matching_runs`` keeps the z where
    every unflagged ROI pixel's error is within the threshold and every
    flagged one's is not, for ``BAND_CHUNK`` pieces at a time, and each
    chunk's first run joins the previous chunk's last by the same
    ``merge_tol`` rule that joins runs within a chunk.  The pieces give
    each error to within ``VALUE_TOL`` (relative to t above 1), so a pixel
    whose error at ``z_obs`` lies that close to the threshold, on a piece
    containing ``z_obs``, counts as on its observed side there: its band is
    widened by that margin, outward if it is unflagged and inward if it is
    flagged.  The interval containing ``z_obs`` must then be found,
    otherwise something is numerically wrong.
    """
    roi_idx = roi.indices
    pieces = parametric_infer(line, cond, weights, pixels=roi_idx)
    a, b = line.a[roi_idx], line.b[roi_idx]
    flagged = observed.as_bool(roi.member.size)[roi_idx]
    t = threshold.value
    delta = VALUE_TOL * max(1.0, t)
    near = np.zeros(roi_idx.size, dtype=bool)
    for p in pieces:
        if p.lo <= z_obs <= p.hi:
            e_obs = np.abs(a - p.recon_offset + (b - p.recon_slope) * z_obs)
            near |= np.abs(e_obs - t) <= delta
    levels = np.where(near, np.where(flagged, max(t - delta, 0.0), t + delta), t)
    merge_tol = 1e-12 * max(1.0, abs(line.window[0]), abs(line.window[1]))
    matched = []
    for start in range(0, len(pieces), BAND_CHUNK):
        chunk = pieces[start:start + BAND_CHUNK]
        ends = np.array([(p.lo, p.hi) for p in chunk])
        e_off = a - np.array([p.recon_offset for p in chunk])
        e_slope = b - np.array([p.recon_slope for p in chunk])
        runs = _matching_runs(ends, e_off, e_slope, flagged, levels, merge_tol)
        if matched and runs and runs[0][0] <= matched[-1][1] + merge_tol:
            matched[-1] = (matched[-1][0], max(matched[-1][1], runs.pop(0)[1]))
        matched += runs
    if not matched:
        raise NumericalDiagnosticError("no interval reproduces the observed mask")
    trunc = TruncationSet(tuple(matched))
    if not trunc.contains(z_obs, 1e-9 * max(1.0, abs(z_obs))):
        raise NumericalDiagnosticError(
            f"observation z={z_obs} not covered by its truncation set")
    return trunc


def _log_right_tail_mass(lo: float, hi: float) -> float:
    """log P(lo <= Z <= hi) for standard Z and 0 <= lo < hi, via log tails.

    Stays finite far in the tail, where the mass itself underflows.
    """
    log_upper = log_ndtr(-lo)   # log P(Z >= lo)
    log_lower = log_ndtr(-hi)   # log P(Z >= hi)
    kept = -math.expm1(log_lower - log_upper)
    return float(log_upper + math.log(kept)) if kept > 0.0 else -math.inf


def _log_interval_mass(lo: float, hi: float) -> float:
    """Log standard normal mass of [lo, hi], split at zero to avoid cancellation."""
    if lo >= 0.0:
        return _log_right_tail_mass(lo, hi)
    if hi <= 0.0:
        return _log_right_tail_mass(-hi, -lo)
    return logsumexp([_log_right_tail_mass(0.0, hi), _log_right_tail_mass(0.0, -lo)])


def truncated_normal_pvalue(z_obs: float, sigma_t: float,
                            trunc: TruncationSet) -> float:
    """Two-sided selective p-value from the truncated normal distribution.

    Computes P(|Z| >= |z_obs| and Z in S) / P(Z in S) for Z centered with
    standard deviation ``sigma_t`` and S the truncation set.  Interval
    masses come from differences of stable log tails, and the ratio is taken
    in log space (``scipy.special.logsumexp`` over the interval log-masses),
    so a set far in the tail, whose masses underflow, still gives a p-value.
    The result is clamped to [0, 1].
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
    log_denominator = logsumexp(den_parts)
    if log_denominator == -math.inf:
        raise NumericalDiagnosticError("truncation set carries no probability mass")
    ratio = math.exp(logsumexp(num_parts) - log_denominator)
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
        return TestOutcome(status=STATUS_SKIPPED, mask=mask)

    eta = contrast_vector(mask, roi)
    sigma_t = sigma_of_contrast(eta, noise)
    line, t_obs = line_decomposition(x, eta, noise)
    p_naive = naive_pvalue(t_obs, sigma_t)
    p_bonf = bonferroni_pvalue(p_naive, roi.count)
    trunc = truncation_region(line, cond, weights, threshold, roi, mask, t_obs)
    p_sel = truncated_normal_pvalue(t_obs, sigma_t, trunc)
    return TestOutcome(status=STATUS_TESTED, mask=mask, t_obs=t_obs,
                       sigma_t=sigma_t, p_naive=p_naive,
                       p_bonferroni=p_bonf, p_selective=p_sel, truncation=trunc)


def ks_statistic(pvals) -> float:
    """Sup distance between the p-values' empirical CDF and U(0,1), by ``stats.kstest``."""
    arr = np.asarray(pvals, dtype=np.float64).reshape(-1)
    if arr.size == 0:
        raise DataError("no p-values given")
    if not np.all((arr >= 0) & (arr <= 1)):
        raise DataError("p-values must lie in [0, 1]")
    from scipy import stats  # on first use: about 45 MB and 0.75 s that scans never need
    return float(stats.kstest(arr, "uniform").statistic)
