"""Contrast construction, p-values, and the truncation machinery."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, stats

from siad import inference
from siad.anomaly import AnomalyMask, RoiMask, Threshold, detect
from siad.errors import (DataError, DegenerateMaskError,
                         NumericalDiagnosticError)
from siad.inference import test_statistic as contrast_statistic
from siad.inference import (STATUS_SKIPPED, STATUS_TESTED, NoiseModel,
                            TruncationSet, bonferroni_pvalue, contrast_vector,
                            estimate_noise, ks_statistic, line_decomposition,
                            naive_pvalue, selective_pvalue,
                            truncated_normal_pvalue,
                            truncation_region)
from siad.model import ArchitectureSpec, init_weights, reconstruct, zero_weights
from siad.parametric import AffineLine, parametric_infer
from siad.synth import gen_null_cohort


def roi_of(member):
    return RoiMask(np.asarray(member, dtype=bool))


class TestContrastVector:
    def test_two_pixel_singleton(self):
        eta = contrast_vector(AnomalyMask([0]), roi_of([True, True]))
        np.testing.assert_array_equal(eta, [1.0, -1.0])

    def test_half_and_half(self):
        eta = contrast_vector(AnomalyMask([0, 1]), roi_of([True] * 4))
        np.testing.assert_array_equal(eta, [0.5, 0.5, -0.5, -0.5])

    def test_zero_outside_roi_and_sums_to_zero(self):
        rng = np.random.default_rng(0)
        member = np.zeros(30, dtype=bool)
        member[5:25] = True
        mask_pixels = rng.choice(np.flatnonzero(member), size=6, replace=False)
        eta = contrast_vector(AnomalyMask(mask_pixels), roi_of(member))
        assert np.all(eta[~member] == 0.0)
        assert abs(eta.sum()) < 1e-12

    def test_degenerate_masks_rejected(self):
        roi = roi_of([True] * 4)
        with pytest.raises(DegenerateMaskError):
            contrast_vector(AnomalyMask([]), roi)
        with pytest.raises(DegenerateMaskError):
            contrast_vector(AnomalyMask([0, 1, 2, 3]), roi)


class TestTestStatistic:
    def test_hand_value(self):
        assert contrast_statistic(np.array([3.0, 1.0]), np.array([1.0, -1.0])) == 2.0

    def test_constant_image_gives_zero(self):
        roi = roi_of([True] * 6)
        eta = contrast_vector(AnomalyMask([1, 4]), roi)
        assert abs(contrast_statistic(np.full(6, 7.3), eta)) < 1e-12

    def test_equals_mean_difference(self):
        rng = np.random.default_rng(1)
        member = np.ones(40, dtype=bool)
        x = rng.normal(size=40)
        pixels = rng.choice(40, size=11, replace=False)
        eta = contrast_vector(AnomalyMask(pixels), roi_of(member))
        in_mask = np.zeros(40, dtype=bool)
        in_mask[pixels] = True
        expected = x[in_mask].mean() - x[~in_mask].mean()
        assert contrast_statistic(x, eta) == pytest.approx(expected, abs=1e-12)


class TestNoiseModel:
    @pytest.mark.parametrize("sigma2", [0.0, -1.0, float("inf"), float("nan")])
    def test_variance_must_be_positive_and_finite(self, sigma2):
        with pytest.raises(DataError, match="noise variance"):
            NoiseModel(sigma2)


class TestEstimateNoise:
    def test_recovers_unit_variance(self):
        imgs = gen_null_cohort(1000, 8, 1.0, seed=3)
        noise = estimate_noise(imgs)
        assert 0.9 <= noise.sigma2 <= 1.1
        assert noise.provenance == "estimated"

    def test_identical_images_rejected(self):
        img = np.ones((1, 4, 4))
        with pytest.raises(DataError):
            estimate_noise([img, img.copy()])

    def test_scaling_images_scales_variance_quadratically(self):
        imgs = gen_null_cohort(200, 8, 1.0, seed=4)
        base = estimate_noise(imgs).sigma2
        scaled = estimate_noise([3.0 * im for im in imgs]).sigma2
        assert scaled == pytest.approx(9.0 * base, rel=1e-10)

    def test_needs_two_images(self):
        with pytest.raises(DataError):
            estimate_noise([np.ones((1, 4, 4))])


class TestNaivePvalue:
    def test_zero_statistic_gives_one(self):
        assert naive_pvalue(0.0, 1.0) == 1.0

    def test_calibration_point(self):
        assert naive_pvalue(1.959964, 1.0) == pytest.approx(0.05, abs=1e-6)

    def test_monotone_in_statistic(self):
        ps = [naive_pvalue(t, 2.0) for t in np.linspace(0, 10, 50)]
        assert all(a >= b for a, b in zip(ps, ps[1:]))

    def test_invalid_sigma_rejected(self):
        with pytest.raises(DataError):
            naive_pvalue(1.0, 0.0)


class TestBonferroniPvalue:
    def test_log_space_hand_value(self):
        assert bonferroni_pvalue(1e-30, 64) == pytest.approx(1.844674e-11, rel=1e-5)

    def test_zero_stays_zero(self):
        assert bonferroni_pvalue(0.0, 64) == 0.0

    def test_never_below_naive(self):
        rng = np.random.default_rng(5)
        for p in rng.uniform(0, 1, size=20):
            assert bonferroni_pvalue(p, 32) >= p

    def test_clamped_at_one(self):
        assert bonferroni_pvalue(0.5, 64) == 1.0


class TestLineDecomposition:
    def _setup(self, seed=6, n=36):
        rng = np.random.default_rng(seed)
        member = np.ones(n, dtype=bool)
        x = rng.normal(size=n)
        eta = contrast_vector(AnomalyMask(rng.choice(n, 7, replace=False)),
                              roi_of(member))
        return x, eta

    def test_reconstruction_identity(self):
        x, eta = self._setup()
        line, z_obs = line_decomposition(x, eta, NoiseModel(1.7))
        np.testing.assert_allclose(line.at(z_obs), x, atol=1e-12)

    def test_contrast_of_direction_is_one(self):
        x, eta = self._setup(7)
        line, _ = line_decomposition(x, eta, NoiseModel(0.5))
        assert float(eta @ line.b) == pytest.approx(1.0, abs=1e-12)

    def test_offset_is_orthogonal_to_contrast(self):
        x, eta = self._setup(8)
        line, _ = line_decomposition(x, eta, NoiseModel(2.0))
        assert abs(float(eta @ line.a)) < 1e-12

    def test_window_is_symmetric_and_wide(self):
        x, eta = self._setup(9)
        noise = NoiseModel(1.0)
        line, z_obs = line_decomposition(x, eta, noise)
        sigma_t = math.sqrt(noise.sigma2 * float(eta @ eta))
        assert line.window[0] == -line.window[1]
        assert line.window[1] == pytest.approx(abs(z_obs) + 20 * sigma_t)


class TestTruncationRegion:
    def test_zero_weight_closed_form(self):
        """Zero weights: errors equal the image, so the region where the mask
        stays {i} solves one affine inequality per threshold sign."""
        arch = ArchitectureSpec(side=4, channels=(2,), latent_dim=2)
        w = zero_weights(arch)
        member = np.zeros(16, dtype=bool)
        member[5] = member[6] = True
        roi = roi_of(member)
        t = 1.0
        thr = Threshold(value=t, source_quantile=0.95, calibration_count=10)
        # pixel 5 rides the line; pixel 6 stays at 0 (never flagged)
        a = np.zeros(16)
        b = np.zeros(16)
        a[5], b[5] = 0.4, 1.0
        line = AffineLine(a, b, (-10.0, 10.0))
        observed = AnomalyMask([5])
        z_obs = 2.0  # inside the upper ray
        trunc = truncation_region(line, np.zeros(2), w, thr, roi, observed, z_obs)
        # |0.4 + z| > 1  <=>  z > 0.6 or z < -1.4
        assert len(trunc) == 2
        (lo1, hi1), (lo2, hi2) = trunc.intervals
        assert (lo1, hi1) == (pytest.approx(-10.0), pytest.approx(-1.4))
        assert (lo2, hi2) == (pytest.approx(0.6), pytest.approx(10.0))

    def test_observation_not_covered_raises(self):
        arch = ArchitectureSpec(side=4, channels=(2,), latent_dim=2)
        w = zero_weights(arch)
        member = np.zeros(16, dtype=bool)
        member[5] = member[6] = True
        thr = Threshold(value=1.0, source_quantile=0.95, calibration_count=10)
        a, b = np.zeros(16), np.zeros(16)
        a[5], b[5] = 0.4, 1.0
        line = AffineLine(a, b, (-10.0, 10.0))
        with pytest.raises(NumericalDiagnosticError):
            truncation_region(line, np.zeros(2), w, thr, roi_of(member),
                              AnomalyMask([5]), z_obs=0.0)  # mask at 0 is empty

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_grid_scan_on_tiny_net(self, seed):
        """Analytic truncation set vs brute-force detector sweep."""
        arch = ArchitectureSpec(side=4, channels=(3,), latent_dim=2)
        w = init_weights(arch, seed)
        rng = np.random.default_rng(100 + seed)
        roi = roi_of(np.ones(16, dtype=bool))
        thr = Threshold(value=0.8, source_quantile=0.95, calibration_count=10)
        cond = rng.normal(size=2)
        noise = NoiseModel(1.0)
        x = rng.normal(size=16)
        mask = detect(x, cond, w, thr, roi)
        if len(mask) in (0, roi.count):
            pytest.skip("degenerate draw")
        eta = contrast_vector(mask, roi)
        line, z_obs = line_decomposition(x, eta, noise)
        trunc = truncation_region(line, cond, w, thr, roi, mask, z_obs)

        zs = np.linspace(line.window[0], line.window[1], 20001)
        step = zs[1] - zs[0]
        endpoints = [e for iv in trunc.intervals for e in iv]
        for z in zs:
            if min(abs(z - e) for e in endpoints) <= step:
                continue
            assert trunc.contains(float(z)) == (detect(line.at(z), cond, w, thr, roi) == mask)


def _desk_case(seed):
    """A seeded null map through an untrained desk-size network, with the
    threshold at the 90% quantile of its ROI errors: the arguments of
    ``truncation_region`` and the scan's pieces (over a thousand)."""
    arch = ArchitectureSpec(side=16, channels=(8, 16), latent_dim=4)
    w = init_weights(arch, seed)
    x = gen_null_cohort(1, 16, 1.0, seed=seed)[0].reshape(-1)
    cond = np.random.default_rng(seed).normal(size=2)
    roi = RoiMask.centered_square(16)
    err = np.abs(x - reconstruct(x.reshape(16, 16), cond, w).reshape(-1))[roi.indices]
    thr = Threshold(value=float(np.quantile(err, 0.9)), source_quantile=0.9,
                    calibration_count=1)
    mask = detect(x, cond, w, thr, roi)
    line, z_obs = line_decomposition(x, contrast_vector(mask, roi), NoiseModel(1.0))
    return (line, cond, w, thr, roi, mask, z_obs), parametric_infer(line, cond, w)


class TestBandChunks:
    """The band pass takes the pieces ``BAND_CHUNK`` at a time, at the ROI
    pixels only, and joins runs across chunks as it does within one."""

    @pytest.mark.parametrize("seed", [0, 3])
    def test_chunks_join_to_the_one_chunk_answer(self, monkeypatch, seed):
        args, pieces = _desk_case(seed)
        monkeypatch.setattr(inference, "BAND_CHUNK", len(pieces))
        whole = truncation_region(*args).intervals
        for k in (1, 2, 3):
            monkeypatch.setattr(inference, "BAND_CHUNK", k)
            assert truncation_region(*args).intervals == whole
            cuts = [p.hi for p in pieces[k - 1:-1:k]]  # where one chunk ends
            assert any(lo < c < hi for lo, hi in whole for c in cuts)

    def test_peak_memory_below_a_pieces_by_pixels_array(self):
        """The pass never holds all pieces' full images, nor stacks them."""
        args, pieces = _desk_case(0)
        assert len(pieces) >= 1000
        tracemalloc.start()
        try:
            truncation_region(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(pieces) * args[0].a.size * 16


class TestTruncatedNormalPvalue:
    def test_full_line_reduces_to_naive(self):
        z_obs, sigma = 1.3, 0.8
        trunc = TruncationSet(((-60.0 * sigma, 60.0 * sigma),))
        p = truncated_normal_pvalue(z_obs, sigma, trunc)
        assert p == pytest.approx(naive_pvalue(z_obs, sigma), abs=1e-9)

    def test_observation_at_lower_edge_gives_one(self):
        z_obs = 1.7
        trunc = TruncationSet(((z_obs, 50.0),))
        assert truncated_normal_pvalue(z_obs, 1.0, trunc) == pytest.approx(1.0)

    def test_matches_quadrature_on_bounded_set(self):
        z_obs, sigma = 0.9, 1.3
        c = 2.2
        trunc = TruncationSet(((-c, c),))

        def density(z):
            return math.exp(-0.5 * (z / sigma) ** 2)

        num, _ = integrate.quad(density, abs(z_obs), c)
        num2, _ = integrate.quad(density, -c, -abs(z_obs))
        den, _ = integrate.quad(density, -c, c)
        expected = (num + num2) / den
        assert truncated_normal_pvalue(z_obs, sigma, trunc) == pytest.approx(
            expected, abs=1e-8)

    def test_matches_quadrature_on_multi_interval_set(self):
        z_obs, sigma = -1.1, 0.7
        intervals = ((-3.0, -0.5), (0.2, 0.9), (1.5, 4.0))
        trunc = TruncationSet(intervals)

        def density(z):
            return math.exp(-0.5 * (z / sigma) ** 2)

        den = sum(integrate.quad(density, lo, hi)[0] for lo, hi in intervals)
        num = 0.0
        for lo, hi in intervals:
            a, b = max(lo, abs(z_obs)), hi
            if a < b:
                num += integrate.quad(density, a, b)[0]
            a, b = lo, min(hi, -abs(z_obs))
            if a < b:
                num += integrate.quad(density, a, b)[0]
        assert truncated_normal_pvalue(z_obs, sigma, trunc) == pytest.approx(
            num / den, abs=1e-8)

    def test_deep_tail_interval_is_stable(self):
        # both masses are far-tail; the ratio must still be finite and sane
        trunc = TruncationSet(((10.0, 12.0),))
        p = truncated_normal_pvalue(10.5, 1.0, trunc)
        assert 0.0 <= p <= 1.0
        assert p == pytest.approx(
            (stats.norm.sf(10.5) - stats.norm.sf(12.0))
            / (stats.norm.sf(10.0) - stats.norm.sf(12.0)), rel=1e-6)

    @pytest.mark.parametrize("z_obs", [39.0, 60.0])
    @pytest.mark.parametrize("two_sided", [False, True])
    def test_far_tail_pvalue_matches_asymptotic_tails(self, z_obs, two_sided):
        """Masses near exp(-z^2/2) underflow to zero; their ratio must not.

        On [z-1, z+1] the p-value is Q(z) / Q(z-1) up to a relative
        Q(z+1) / Q(z) < 1e-17, with Q the upper normal tail, here from its
        asymptotic series (truncation error below 1e-12 for z >= 38).  The
        mirrored interval doubles both masses and leaves the ratio.
        """
        def log_q(x):
            series = 1.0 - 1.0 / x ** 2 + 3.0 / x ** 4 - 15.0 / x ** 6 + 105.0 / x ** 8
            return -0.5 * x * x - math.log(x * math.sqrt(2.0 * math.pi)) + math.log(series)

        intervals = ((z_obs - 1.0, z_obs + 1.0),)
        if two_sided:
            intervals = ((-z_obs - 1.0, -z_obs + 1.0),) + intervals
        p = truncated_normal_pvalue(z_obs, 1.0, TruncationSet(intervals))
        assert p == pytest.approx(math.exp(log_q(z_obs) - log_q(z_obs - 1.0)), rel=1e-9)

    def test_empty_mass_raises(self):
        # narrower than the resolution of the normal tail at zero
        trunc = TruncationSet(((0.0, 1e-300),))
        with pytest.raises(NumericalDiagnosticError):
            truncated_normal_pvalue(0.0, 1.0, trunc)


class TestSelectivePvalue:
    ARCH = ArchitectureSpec(side=8, channels=(4,), latent_dim=2)

    def test_degenerate_empty_mask_skips(self):
        w = zero_weights(self.ARCH)
        roi = RoiMask.centered_square(8)
        thr = Threshold(value=50.0, source_quantile=0.95, calibration_count=10)
        out = selective_pvalue(np.zeros(64), np.zeros(2), w, thr, roi, NoiseModel(1.0))
        assert out.status == STATUS_SKIPPED
        assert out.p_naive is None and out.p_selective is None

    @pytest.mark.parametrize("value,status", [(1.0, STATUS_TESTED), (50.0, STATUS_SKIPPED)])
    def test_outcome_carries_the_detected_mask(self, value, status):
        w = init_weights(self.ARCH, 11)
        roi = RoiMask.centered_square(8)
        thr = Threshold(value=value, source_quantile=0.95, calibration_count=10)
        x, cond = gen_null_cohort(1, 8, 1.0, seed=12)[0], np.array([0.3, -0.2])
        out = selective_pvalue(x, cond, w, thr, roi, NoiseModel(1.0))
        assert out.status == status
        assert out.mask == detect(x, cond, w, thr, roi)
        assert out.mask_size == len(out.mask)
        if status == STATUS_TESTED:
            assert out.t_obs == contrast_statistic(x, contrast_vector(out.mask, roi))

    def test_pvalues_lie_in_unit_interval_and_bonferroni_dominates(self):
        w = init_weights(self.ARCH, 11)
        roi = RoiMask.centered_square(8)
        thr = Threshold(value=1.0, source_quantile=0.95, calibration_count=10)
        noise = NoiseModel(1.0)
        imgs = gen_null_cohort(60, 8, 1.0, seed=12)
        rng = np.random.default_rng(12)
        tested = 0
        for img in imgs:
            out = selective_pvalue(img, rng.normal(size=2), w, thr, roi, noise)
            if out.status != STATUS_TESTED:
                continue
            tested += 1
            for p in (out.p_naive, out.p_bonferroni, out.p_selective):
                assert 0.0 <= p <= 1.0
            assert out.p_bonferroni >= out.p_naive
            assert out.truncation is not None and out.interval_count >= 1
            assert out.truncation.contains(out.t_obs, tol=1e-9)
        assert tested > 20

    def test_scale_equivariance_with_zero_bias_model(self):
        """Scaling x, sigma, and the threshold together leaves p-values put."""
        w = zero_weights(self.ARCH)
        roi = RoiMask.centered_square(8)
        rng = np.random.default_rng(13)
        x = rng.normal(size=64)
        c = 3.7
        thr1 = Threshold(value=1.0, source_quantile=0.95, calibration_count=10)
        thrc = Threshold(value=c, source_quantile=0.95, calibration_count=10)
        out1 = selective_pvalue(x, np.zeros(2), w, thr1, roi, NoiseModel(1.0))
        outc = selective_pvalue(c * x, np.zeros(2), w, thrc, roi, NoiseModel(c * c))
        assert out1.status == outc.status == STATUS_TESTED
        assert outc.p_naive == pytest.approx(out1.p_naive, abs=1e-9)
        assert outc.p_bonferroni == pytest.approx(out1.p_bonferroni, abs=1e-9)
        assert outc.p_selective == pytest.approx(out1.p_selective, abs=1e-9)


class TestKsStatistic:
    def test_single_value(self):
        assert ks_statistic([0.5]) == pytest.approx(0.5)

    def test_centered_grid(self):
        n = 40
        grid = (np.arange(1, n + 1) - 0.5) / n
        assert ks_statistic(grid) == pytest.approx(0.5 / n)

    def test_all_zeros(self):
        assert ks_statistic(np.zeros(10)) == pytest.approx(1.0)

    def test_rejects_out_of_range(self):
        with pytest.raises(DataError):
            ks_statistic([0.5, 1.5])

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            ks_statistic([])

    def test_rejects_nan(self):
        with pytest.raises(DataError):
            ks_statistic([0.5, float("nan")])
