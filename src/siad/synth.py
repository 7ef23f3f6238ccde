"""Seeded synthetic cohorts standing in for the restricted clinical data.

All randomness comes from a counter-based keyed stream (Philox keyed by the
cohort seed, a purpose tag, and the subject index), so any subject can be
regenerated independently of generation order and the whole cohort is a
pure function of its spec.  Normal variates are the inverse normal CDF
applied to uniforms from that stream: deterministic, no rejection loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import DataError
from .opticalflow import ImagePair

# purpose tags keep the per-subject streams disjoint
_TAG_NULL = 1
_TAG_DISEASED = 2
_TAG_PAIRS = 3
_TAG_CONDITIONS = 4

# every synthetic subject's age and scan gap, in years, is uniform over these
DESK_AGE_RANGE = (60.0, 85.0)
DESK_GAP_RANGE = (1.0, 5.0)


def keyed_rng(seed: int, tag: int, index: int) -> np.random.Generator:
    """Independent generator for one (seed, purpose, subject) triple."""
    word = (int(tag) << 40) ^ int(index)
    return np.random.Generator(np.random.Philox(key=[np.uint64(seed) & np.uint64(2**64 - 1),
                                                     np.uint64(word)]))


def standard_normals(rng: np.random.Generator, shape) -> np.ndarray:
    """Inverse-CDF normals from 53-bit uniforms strictly inside (0, 1)."""
    raw = rng.integers(0, 2 ** 53, size=shape)
    return ndtri((raw + 0.5) * 2.0 ** -53)


@dataclass(frozen=True)
class SignalSpec:
    """Planted true signal: a pixel region and how the amplitude fills it."""

    region: tuple
    amplitude: float
    shape: str = "plateau"

    def __post_init__(self):
        region = tuple(sorted(int(i) for i in self.region))
        if not region:
            raise DataError("signal region is empty")
        if len(set(region)) != len(region):
            raise DataError("signal region has duplicate pixels")
        if self.shape not in ("plateau", "ramp"):
            raise DataError(f"unknown signal shape {self.shape!r}")
        if not math.isfinite(self.amplitude):
            raise DataError("amplitude must be finite")
        object.__setattr__(self, "region", region)

    def field(self, n_pixels: int) -> np.ndarray:
        """The noise-free signal as a flat image."""
        s = np.zeros(n_pixels, dtype=np.float64)
        idx = np.asarray(self.region)
        if idx.max() >= n_pixels:
            raise DataError("signal region exceeds the image")
        if self.shape == "plateau":
            s[idx] = self.amplitude
        else:
            ranks = np.arange(1, idx.size + 1, dtype=np.float64)
            s[idx] = self.amplitude * ranks / idx.size
        return s


@dataclass(frozen=True)
class CohortSpec:
    """Sizes, seed, and noise level of one synthetic cohort.

    Desk-scale defaults; the full-scale split (600/100/100/88 plus the whole
    diseased group) is available as the `paper` preset of the command line
    harness.
    """

    n_healthy_train: int = 200
    n_healthy_test: int = 50
    n_inference: int = 100
    n_variance: int = 50
    n_diseased: int = 100
    side: int = 16
    sigma2: float = 1.0
    seed: int = 0
    signal: SignalSpec | None = None

    def __post_init__(self):
        for name in ("n_healthy_train", "n_healthy_test", "n_inference",
                     "n_variance", "n_diseased"):
            if getattr(self, name) < 0:
                raise DataError(f"{name} must be >= 0")
        if not 0 < self.sigma2 < math.inf:
            raise DataError(f"noise variance sigma2 must be positive and finite, "
                            f"got {self.sigma2}")
        if self.n_diseased > 0 and self.signal is None:
            raise DataError("diseased subjects need a signal spec")


@dataclass(frozen=True)
class Subject:
    """One generated subject: image plus conditions plus provenance."""

    id: str
    role: str
    image: np.ndarray
    age: float
    time_gap: float
    truth_region: tuple | None = None


def _check_count(count):
    if count < 1:
        raise DataError(f"count must be >= 1, got {count}")


def gen_null_cohort(count: int, side: int, sigma2: float, seed: int,
                    tag: int = _TAG_NULL, start_index: int = 0):
    """i.i.d. isotropic Gaussian noise images from the keyed stream."""
    _check_count(count)
    scale = math.sqrt(sigma2)
    return [scale * standard_normals(keyed_rng(seed, tag, start_index + i),
                                     (1, side, side))
            for i in range(count)]


def gen_diseased(count: int, side: int, signal: SignalSpec, sigma2: float,
                 seed: int, start_index: int = 0):
    """Noise images from the diseased stream with the planted signal added."""
    s = signal.field(side * side).reshape(1, side, side)
    return [s + noise for noise in gen_null_cohort(count, side, sigma2, seed,
                                                   _TAG_DISEASED, start_index)]


@dataclass(frozen=True)
class MotionSpec:
    """Ground-truth motion between the two frames of a synthetic pair:
    translation along x, or dilation about the image centre."""

    kind: str = "none"          # none | translate | dilate
    dx: float = 0.0             # pixels per year (translate)
    rate: float = 0.0           # relative expansion per year (dilate)

    def __post_init__(self):
        if self.kind not in ("none", "translate", "dilate"):
            raise DataError(f"unknown motion kind {self.kind!r}")


@dataclass(frozen=True)
class SyntheticPair:
    """An image pair plus the exact flow that generated it."""

    pair: ImagePair
    true_u: np.ndarray
    true_v: np.ndarray


def _blob_field(rng: np.random.Generator, side: int):
    """Sum of three Gaussians as an intensity field, returned as a closure
    over (y, x)."""
    centers = rng.uniform(0.25 * side, 0.75 * side, size=(3, 2))
    widths = rng.uniform(side / 10.0, side / 5.0, size=3)
    amps = rng.uniform(0.5, 1.5, size=3)

    def evaluate(yy, xx):
        total = np.zeros_like(yy, dtype=np.float64)
        for (cy, cx), wdt, amp in zip(centers, widths, amps):
            total += amp * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * wdt ** 2))
        return total

    return evaluate


def gen_image_pairs(count: int, side: int, motion: MotionSpec, seed: int,
                    age_range=DESK_AGE_RANGE, gap_range=DESK_GAP_RANGE):
    """Smooth blob images warped by the requested motion, with known flow.

    The second frame samples the same analytic blob field at the preimage
    of each pixel under the motion, so the true displacement over the scan
    gap is known exactly and is retained for flow-estimation tests.
    """
    if count < 1:
        raise DataError(f"count must be >= 1, got {count}")
    yy, xx = np.mgrid[0:side, 0:side].astype(np.float64)
    out = []
    for i in range(count):
        rng = keyed_rng(seed, _TAG_PAIRS, i)
        blob = _blob_field(rng, side)
        age = rng.uniform(*age_range)
        gap = rng.uniform(*gap_range)
        first = blob(yy, xx)
        if motion.kind == "none":
            second = first.copy()
            true_u = np.zeros_like(first)
            true_v = np.zeros_like(first)
        elif motion.kind == "translate":
            second = blob(yy, xx - motion.dx * gap)
            true_u = np.full_like(first, motion.dx)
            true_v = np.zeros_like(first)
        else:
            cy = cx = (side - 1) / 2.0
            factor = 1.0 + motion.rate * gap
            second = blob(cy + (yy - cy) / factor, cx + (xx - cx) / factor)
            true_u = motion.rate * (xx - cx)
            true_v = motion.rate * (yy - cy)
        pair = ImagePair(first=first, second=second, time_gap=gap, age_at_first=age)
        out.append(SyntheticPair(pair=pair, true_u=true_u, true_v=true_v))
    return out


def subject_conditions(seed: int, index: int):
    """Age and scan gap of the synthetic subject at ``index``."""
    rng = keyed_rng(seed, _TAG_CONDITIONS, index)
    return float(rng.uniform(*DESK_AGE_RANGE)), float(rng.uniform(*DESK_GAP_RANGE))


def make_cohort(spec: CohortSpec, roi_member: np.ndarray | None = None):
    """All subjects of a cohort, with stable ids and per-role streams.

    When an ROI membership array is given the signal region is validated
    against it (planted anomalies must lie inside the tested region).
    """
    if spec.signal is not None and roi_member is not None:
        outside = [i for i in spec.signal.region if not roi_member.reshape(-1)[i]]
        if outside:
            raise DataError(f"signal region pixels {outside[:4]} fall outside the ROI")

    subjects = []
    roles = (("train", spec.n_healthy_train), ("test", spec.n_healthy_test),
             ("inference", spec.n_inference), ("variance", spec.n_variance),
             ("diseased", spec.n_diseased))
    offset = 0
    for role, count in roles:
        if count == 0:
            continue
        if role == "diseased":
            # the diseased stream has its own tag, so its indices restart at 0
            images = gen_diseased(count, spec.side, spec.signal, spec.sigma2, spec.seed)
            truth = spec.signal.region
        else:
            images = gen_null_cohort(count, spec.side, spec.sigma2, spec.seed,
                                     start_index=offset)
            truth = None
        for j, img in enumerate(images):
            age, gap = subject_conditions(spec.seed, offset + j)
            subjects.append(Subject(id=f"{role}-{j:04d}", role=role, image=img,
                                    age=age, time_gap=gap, truth_region=truth))
        offset += count
    return subjects
