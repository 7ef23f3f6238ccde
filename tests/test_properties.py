"""Property tests on random tiny networks.

Each case draws a one- or two-block network (side 4-8, at most 3 channels
per block) with random weights and biases, and a line through image space
whose offset and direction may repeat pixels in 2x2 blocks (exact maxpool
ties) and hold the direction at zero on some pixels (zero-slope pixels).
The band pass behind ``truncation_region`` is also checked exactly against
a per-piece midpoint reference, on those networks and on hand-built arrays.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from siad.anomaly import RoiMask, Threshold, detect
from siad.inference import (NoiseModel, _matching_runs, contrast_vector,
                            line_decomposition, truncation_region)
from siad.model import ArchitectureSpec, init_weights, reconstruct
from siad.parametric import AffineLine, _LinePlan, parametric_infer

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None,
                             suppress_health_check=[HealthCheck.too_slow])


@st.composite
def networks(draw):
    blocks = draw(st.integers(1, 2))
    side = draw(st.sampled_from([s for s in (4, 6, 8) if s % 2 ** blocks == 0]))
    arch = ArchitectureSpec(side=side,
                            channels=tuple(draw(st.lists(st.integers(1, 3), min_size=blocks,
                                                         max_size=blocks))),
                            latent_dim=draw(st.integers(1, 3)),
                            cond_count=draw(st.integers(0, 2)))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    weights = init_weights(arch, seed)
    for name, shape in arch.layer_shapes():
        if name.endswith("_b"):
            weights.params[name] = 0.3 * rng.normal(size=shape)
    return weights, rng.normal(size=arch.cond_count), rng


def _image(rng, side, blocky):
    """A random image; ``blocky`` repeats each pixel over a 2x2 block."""
    if blocky:
        return np.kron(rng.normal(size=(side // 2, side // 2)), np.ones((2, 2))).reshape(-1)
    return rng.normal(size=side * side)


def _reference_runs(ends, e_off, e_slope, flagged, t, merge_tol):
    """Reference for ``_matching_runs``, one piece at a time: split the piece
    at every threshold crossing inside it, test the mask at the midpoint of
    each sub-interval, and merge the matching sub-intervals in order."""
    matched = []
    for (p_lo, p_hi), eo_row, es_row in zip(ends, e_off, e_slope):
        sloped = es_row != 0.0
        eo, es = eo_row[sloped], es_row[sloped]
        cuts = np.concatenate([(level - eo) / es for level in (t, -t)])
        cuts = np.sort(cuts[(cuts > p_lo) & (cuts < p_hi)])
        bounds = np.concatenate([[p_lo], cuts, [p_hi]])
        mids = 0.5 * (bounds[:-1] + bounds[1:])
        errs = eo_row[:, None] + es_row[:, None] * mids[None, :]
        agrees = np.all((np.abs(errs) > t) == flagged[:, None], axis=0)
        for k in np.flatnonzero(agrees):
            lo, hi = float(bounds[k]), float(bounds[k + 1])
            if hi <= lo:
                continue
            if matched and lo <= matched[-1][1] + merge_tol:
                matched[-1] = (matched[-1][0], max(matched[-1][1], hi))
            else:
                matched.append((lo, hi))
    return matched


def _runs(pieces, t=1.0, merge_tol=1e-12):
    """Both algorithms on hand-built pieces ``[(lo, hi), ...]`` that share
    pixels ``[(e_off, e_slope, flagged), ...]``."""
    ends, pixels = pieces
    e_off = np.array([[p[0] for p in pixels]] * len(ends), dtype=np.float64)
    e_slope = np.array([[p[1] for p in pixels]] * len(ends), dtype=np.float64)
    flagged = np.array([p[2] for p in pixels], dtype=bool)
    args = (np.array(ends, dtype=np.float64), e_off, e_slope, flagged, t, merge_tol)
    got = _matching_runs(*args)
    assert got == _reference_runs(*args)
    return got


WHOLE = [(0.0, 10.0)]
BAND_4_6 = (-5.0, 1.0, False)  # |z - 5| <= 1 on [4, 6]


def _spike(center, half_width_exponent):
    """A flagged pixel whose band is ``center`` +- 2**-half_width_exponent."""
    slope = 2.0 ** half_width_exponent
    return (-center * slope, slope, True)


@pytest.mark.parametrize("pieces, want", [
    # zero-slope pixels: |e| below, exactly at and above t
    ((WHOLE, [BAND_4_6, (0.5, 0.0, False), (-1.0, 0.0, False), (2.0, 0.0, True)]),
     [(4.0, 6.0)]),
    ((WHOLE, [BAND_4_6, (1.0, 0.0, True)]), []),
    ((WHOLE, [BAND_4_6, (0.5, 0.0, True)]), []),
    ((WHOLE, [BAND_4_6, (-2.0, 0.0, False)]), []),
    # flagged bands touching a piece end, from inside and from outside
    ((WHOLE, [(-1.0, 1.0, True)]), [(2.0, 10.0)]),
    ((WHOLE, [(-9.0, 1.0, True)]), [(0.0, 8.0)]),
    ((WHOLE, [(1.0, 1.0, True), (-11.0, 1.0, True)]), [(0.0, 10.0)]),
    ((WHOLE, [(4.0, -2.0, True)]), [(0.0, 1.5), (2.5, 10.0)]),
    # no pixel flagged, and every pixel flagged
    ((WHOLE, [(-4.0, 1.0, False), (-5.5, 1.0, False)]), [(4.5, 5.0)]),
    ((WHOLE, [(-4.0, 1.0, True), (-5.5, 1.0, True)]), [(0.0, 3.0), (6.5, 10.0)]),
    # runs split by a band narrower than merge_tol merge, wider ones do not
    ((WHOLE, [_spike(3.0, 44)]), [(0.0, 10.0)]),
    ((WHOLE, [_spike(3.0, 36)]), [(0.0, 3.0 - 2.0 ** -36), (3.0 + 2.0 ** -36, 10.0)]),
    # runs meeting at a piece boundary merge across it
    (([(0.0, 4.0), (4.0, 10.0)], [(-9.0, 1.0, True)]), [(0.0, 8.0)]),
    (([(0.0, 4.0), (4.0, 10.0)], [(-4.0, 2.0, True)]), [(0.0, 1.5), (2.5, 10.0)]),
], ids=["flat-below-at-above", "flat-at-t-flagged", "flat-below-flagged",
        "flat-above-unflagged", "touch-lo-inside", "touch-hi-inside", "touch-outside",
        "negative-slope", "none-flagged", "all-flagged", "merge-within-tol",
        "apart-beyond-tol", "merge-across-pieces", "gap-in-first-piece"])
def test_band_pass_matches_the_midpoint_reference(pieces, want):
    assert _runs(pieces) == want


@PROPERTY_SETTINGS
@given(networks(), st.booleans(), st.booleans(), st.floats(0.0, 0.5))
def test_affine_walk_matches_reconstruct_at_the_probe(net, blocky_a, blocky_b, zero_frac):
    weights, cond, rng = net
    side = weights.arch.side
    b = _image(rng, side, blocky_b)
    b[rng.random(b.size) < zero_frac] = 0.0
    assume(np.any(b != 0.0))
    line = AffineLine(_image(rng, side, blocky_a), b, (-3.0, 3.0))
    plan = _LinePlan(line, cond, weights)
    probes = sorted(rng.uniform(-3.0, 3.0, size=4))
    for z in probes:
        off, slope, crossing = plan.evaluate(z)
        want = reconstruct(line.at(z).reshape(side, side), cond, weights).reshape(-1)
        assert np.max(np.abs(off + slope * z - want)) < 1e-9
        if crossing < 3.0:
            # at a breakpoint the pattern is tied; both sides agree there
            off, slope, _ = plan.evaluate(crossing)
            want = reconstruct(line.at(crossing).reshape(side, side), cond,
                                   weights).reshape(-1)
            assert np.max(np.abs(off + slope * crossing - want)) < 1e-9


@PROPERTY_SETTINGS
@given(networks(), st.booleans(), st.integers(1, 3), st.booleans())
def test_truncation_region_matches_a_dense_grid(net, blocky, rank_quarter, whole_roi):
    weights, cond, rng = net
    side = weights.arch.side
    roi = (RoiMask(np.ones(side * side, dtype=bool)) if whole_roi
           else RoiMask.centered_square(side, 0.5))
    x = _image(rng, side, blocky)
    # a threshold between two of the observed ROI errors, so the mask is
    # neither empty nor the whole ROI
    err = np.abs(x - reconstruct(x.reshape(side, side), cond, weights).reshape(-1))[roi.member]
    levels = np.unique(err)
    assume(len(levels) >= 4)
    k = rank_quarter * len(levels) // 4
    threshold = Threshold(value=float(0.5 * (levels[k - 1] + levels[k])),
                          source_quantile=0.95, calibration_count=len(levels))
    mask = detect(x, cond, weights, threshold, roi)
    assume(0 < len(mask) < roi.count)
    eta = contrast_vector(mask, roi)
    line, z_obs = line_decomposition(x, eta, NoiseModel(1.0), window_sigmas=4.0)
    trunc = truncation_region(line, cond, weights, threshold, roi, mask, z_obs)
    pieces = parametric_infer(line, cond, weights)
    idx = roi.indices
    ends = np.array([(p.lo, p.hi) for p in pieces])
    e_off = line.a[idx] - np.array([p.recon_offset for p in pieces])[:, idx]
    e_slope = line.b[idx] - np.array([p.recon_slope for p in pieces])[:, idx]
    merge_tol = 1e-12 * max(1.0, abs(line.window[0]), abs(line.window[1]))
    assert trunc.intervals == tuple(_reference_runs(
        ends, e_off, e_slope, mask.as_bool(side * side)[idx], threshold.value, merge_tol))

    zs = np.linspace(line.window[0], line.window[1], 4001)
    member = np.empty(zs.size, dtype=bool)
    for start in range(0, zs.size, 500):
        chunk = zs[start:start + 500]
        images = line.a[None, :] + chunk[:, None] * line.b[None, :]
        recon = reconstruct(images.reshape(-1, side, side), np.tile(cond, (len(chunk), 1)),
                            weights).reshape(len(chunk), -1)
        hits = roi.member[None, :] & (np.abs(images - recon) > threshold.value)
        member[start:start + 500] = np.all(hits == mask.as_bool(side * side)[None, :],
                                           axis=1)
    in_set = np.zeros(zs.size, dtype=bool)
    for lo, hi in trunc.intervals:
        in_set |= (zs >= lo) & (zs <= hi)
    endpoints = np.array([e for iv in trunc.intervals for e in iv])
    near_edge = np.min(np.abs(zs[:, None] - endpoints[None, :]), axis=1) <= zs[1] - zs[0]
    assert not np.any((member != in_set) & ~near_edge)
    assert trunc.contains(z_obs, tol=1e-9 * max(1.0, abs(z_obs)))
