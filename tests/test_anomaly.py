"""Detector steps: error map, threshold calibration, mask extraction."""

import math

import numpy as np
import pytest

from siad.anomaly import (AnomalyMask, RoiMask, Threshold, calibrate_threshold,
                          detect, extract_mask, reconstruction_error)
from siad.errors import DataError, ShapeError
from siad.model import ArchitectureSpec, init_weights, zero_weights
from siad.synth import SignalSpec, gen_diseased

ARCH = ArchitectureSpec(side=8, channels=(4,), latent_dim=2)
COND = np.zeros(2)


def full_roi(n=64):
    return RoiMask(np.ones(n, dtype=bool))


class TestRoiMask:
    def test_centered_square_covers_quarter(self):
        roi = RoiMask.centered_square(16)
        assert roi.count == 64
        grid = roi.member.reshape(16, 16)
        assert grid[4:12, 4:12].all()
        assert not grid[0:4, :].any()

    def test_too_small_rejected(self):
        with pytest.raises(DataError):
            RoiMask(np.array([True, False, False]))


class TestReconstructionError:
    def test_perfect_reconstruction_zero(self):
        x = np.random.default_rng(0).normal(size=(1, 4, 4))
        np.testing.assert_array_equal(reconstruction_error(x, x), np.zeros_like(x))

    def test_signed_differences(self):
        err = reconstruction_error(np.array([1.0, 2.0]), np.array([0.0, 4.0]))
        np.testing.assert_array_equal(err, [1.0, -2.0])

    def test_antisymmetric(self):
        rng = np.random.default_rng(1)
        x, r = rng.normal(size=(1, 3, 3)), rng.normal(size=(1, 3, 3))
        np.testing.assert_array_equal(reconstruction_error(x, r),
                                      -reconstruction_error(r, x))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            reconstruction_error(np.zeros((1, 4, 4)), np.zeros((1, 2, 2)))


class TestCalibrateThreshold:
    def test_nearest_rank_95th_of_1_to_100(self):
        errors = [np.arange(1.0, 101.0)]
        thr = calibrate_threshold(errors, full_roi(100), 0.95)
        assert thr.value == 95.0
        assert thr.source_quantile == 0.95
        assert thr.calibration_count == 100

    def test_constant_pool(self):
        errors = [np.full(64, 3.3)]
        for q in (0.05, 0.5, 0.95):
            assert calibrate_threshold(errors, full_roi(), q).value == 3.3

    def test_median_of_three(self):
        errors = [np.array([1.0, 2.0, 3.0, 0.0])]
        roi = RoiMask(np.array([True, True, True, False]))
        assert calibrate_threshold(errors, roi, 0.5).value == 2.0

    def test_pools_across_maps_and_uses_absolute_values(self):
        errors = [np.array([-10.0, 1.0]), np.array([2.0, 3.0])]
        roi = RoiMask(np.array([True, True]))
        thr = calibrate_threshold(errors, roi, 0.95)
        assert thr.value == 10.0
        assert thr.calibration_count == 4

    @pytest.mark.parametrize("n", [2, 3, 7, 10, 64, 100, 397])
    def test_rank_is_ceil_q_n_at_and_beside_integers(self, n):
        """q = k/N puts q*N on an integer or one rounding off it (0.07 * 100
        is 7.000000000000001, rank 8); the neighbouring floats of k/N land
        just off it on either side.  Each must give rank ceil(q*N)."""
        pool = np.random.default_rng(n).permutation(np.arange(1.0, n + 1.0) * 0.37)
        roi = full_roi(n)
        qs = [k / n for k in range(1, n)]
        qs += [np.nextafter(q, side) for q in qs for side in (0.0, 1.0)]
        for q in qs:
            expected = sorted(pool)[math.ceil(q * n) - 1]
            assert calibrate_threshold([pool], roi, q).value == expected, q

    def test_empty_pool_rejected(self):
        with pytest.raises(DataError):
            calibrate_threshold([], full_roi(), 0.95)

    def test_bad_quantile_rejected(self):
        with pytest.raises(DataError):
            calibrate_threshold([np.ones(4)], full_roi(4), 1.0)


class TestExtractMask:
    def test_strict_exceedance(self):
        error = np.array([0.5, -2.0, 1.0])
        roi = RoiMask(np.array([True, True, True]))
        thr = Threshold(value=1.0, source_quantile=0.5, calibration_count=3)
        mask = extract_mask(error, thr, roi)
        np.testing.assert_array_equal(mask.pixels, [1])  # |1.0| is not > 1.0

    def test_zero_error_empty_mask(self):
        thr = Threshold(value=0.5, source_quantile=0.5, calibration_count=1)
        assert len(extract_mask(np.zeros(16), thr, full_roi(16))) == 0

    def test_roi_restriction(self):
        error = np.array([5.0, 0.0, 0.0, 0.0])
        roi = RoiMask(np.array([False, True, True, False]))
        thr = Threshold(value=1.0, source_quantile=0.5, calibration_count=1)
        assert len(extract_mask(error, thr, roi)) == 0

    def test_shrinking_roi_never_adds_pixels(self):
        rng = np.random.default_rng(2)
        error = rng.normal(size=36)
        thr = Threshold(value=0.8, source_quantile=0.5, calibration_count=1)
        big = RoiMask(np.ones(36, dtype=bool))
        small_member = np.zeros(36, dtype=bool)
        small_member[:18] = True
        small = RoiMask(small_member)
        big_mask = set(extract_mask(error, thr, big).pixels)
        small_mask = set(extract_mask(error, thr, small).pixels)
        assert small_mask <= big_mask


class TestDetect:
    def test_deterministic(self):
        w = init_weights(ARCH, 3)
        x = np.random.default_rng(3).normal(size=(1, 8, 8))
        thr = Threshold(value=0.9, source_quantile=0.95, calibration_count=10)
        roi = RoiMask.centered_square(8)
        assert detect(x, COND, w, thr, roi) == detect(x, COND, w, thr, roi)

    def test_zero_weight_closed_form(self):
        """With zero weights the reconstruction is zero, so the mask is
        exactly the ROI pixels whose |x| exceeds the threshold."""
        w = zero_weights(ARCH)
        x = np.random.default_rng(4).normal(size=(1, 8, 8))
        thr = Threshold(value=1.2, source_quantile=0.95, calibration_count=10)
        roi = RoiMask.centered_square(8)
        mask = detect(x, COND, w, thr, roi)
        expected = np.flatnonzero(roi.member & (np.abs(x.reshape(-1)) > 1.2))
        np.testing.assert_array_equal(mask.pixels, expected)

    def test_membership_recomputation_invariant(self):
        from siad.model import reconstruct
        w = init_weights(ARCH, 5)
        x = np.random.default_rng(5).normal(size=(1, 8, 8))
        thr = Threshold(value=0.7, source_quantile=0.95, calibration_count=10)
        roi = RoiMask.centered_square(8)
        mask = detect(x, COND, w, thr, roi)
        err = (x - reconstruct(x, COND, w)).reshape(-1)
        for i in range(64):
            should = roi.member[i] and abs(err[i]) > 0.7
            assert (i in set(mask.pixels)) == should

    def test_locally_constant_under_small_perturbations(self):
        w = init_weights(ARCH, 6)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(1, 8, 8))
        thr = Threshold(value=0.7, source_quantile=0.95, calibration_count=10)
        roi = RoiMask.centered_square(8)
        base = detect(x, COND, w, thr, roi)
        for _ in range(10):
            bumped = x + rng.uniform(-1e-9, 1e-9, size=x.shape)
            assert detect(bumped, COND, w, thr, roi) == base

    @pytest.mark.parametrize("size", [0, 16, 65])
    def test_image_of_the_wrong_size_is_a_shape_error(self, size):
        thr = Threshold(value=1.0, source_quantile=0.95, calibration_count=10)
        with pytest.raises(ShapeError, match="8x8"):
            detect(np.zeros(size), COND, zero_weights(ARCH), thr, RoiMask.centered_square(8))

    def test_planted_anomaly_is_detected(self):
        w = zero_weights(ARCH)
        roi = RoiMask.centered_square(8)
        region = tuple(int(i) for i in roi.indices[:4])
        img = gen_diseased(1, 8, SignalSpec(region, amplitude=20.0), 1.0, seed=7)[0]
        thr = Threshold(value=3.0, source_quantile=0.95, calibration_count=10)
        mask = detect(img, COND, w, thr, roi)
        assert len(mask) > 0
        assert set(region) <= set(int(i) for i in mask.pixels)


class TestAnomalyMask:
    def test_sorted_unique(self):
        mask = AnomalyMask(np.array([5, 1, 5, 3]))
        np.testing.assert_array_equal(mask.pixels, [1, 3, 5])

    def test_as_bool_roundtrip(self):
        mask = AnomalyMask(np.array([2, 7]))
        flags = mask.as_bool(10)
        assert flags.sum() == 2 and flags[2] and flags[7]
