"""Flow estimation, the divergence reduction, and cohort standardization."""

import numpy as np
import pytest

from siad.errors import DataError, ShapeError
from siad.opticalflow import (FlowField, ImagePair, ScalarFlowMap, divergence,
                              horn_schunck, standardize_cohort,
                              standardize_conditions)
from siad.synth import MotionSpec, gen_image_pairs


def _reference_horn_schunck(pair: ImagePair, smoothness: float, iterations: int):
    """The sweep as padding plus eight shifted adds, in the library's order."""
    weights = ((-1, -1, 1 / 12), (-1, 0, 1 / 6), (-1, 1, 1 / 12),
               (0, -1, 1 / 6), (0, 1, 1 / 6),
               (1, -1, 1 / 12), (1, 0, 1 / 6), (1, 1, 1 / 12))

    def neighbor_average(f):
        padded = np.pad(f, 1, mode="reflect")
        h, w = f.shape
        out = np.zeros_like(f)
        for di, dj, wgt in weights:
            out += wgt * padded[1 + di:1 + di + h, 1 + dj:1 + dj + w]
        return out

    i1, i2 = pair.first[0], pair.second[0]
    padded = np.pad(0.5 * (i1 + i2), 1, mode="reflect")
    gx = 0.5 * (padded[1:-1, 2:] - padded[1:-1, :-2])
    gy = 0.5 * (padded[2:, 1:-1] - padded[:-2, 1:-1])
    gt = i2 - i1
    denom = smoothness ** 2 + gx * gx + gy * gy
    u = np.zeros_like(i1)
    v = np.zeros_like(i1)
    for _ in range(iterations):
        u_avg = neighbor_average(u)
        v_avg = neighbor_average(v)
        scale = (gx * u_avg + gy * v_avg + gt) / denom
        u = u_avg - gx * scale
        v = v_avg - gy * scale
    return u / pair.time_gap, v / pair.time_gap


def _total_variation(flow: FlowField) -> float:
    return float(np.abs(np.diff(flow.u, axis=0)).sum()
                 + np.abs(np.diff(flow.u, axis=1)).sum()
                 + np.abs(np.diff(flow.v, axis=0)).sum()
                 + np.abs(np.diff(flow.v, axis=1)).sum())


class TestHornSchunck:
    def test_identical_images_zero_flow(self):
        rng = np.random.default_rng(0)
        img = rng.normal(size=(16, 16))
        pair = ImagePair(first=img, second=img.copy(), time_gap=2.0, age_at_first=70.0)
        flow = horn_schunck(pair, 0.5, 100)
        assert np.max(np.abs(flow.u)) < 1e-10
        assert np.max(np.abs(flow.v)) < 1e-10

    def test_flat_images_zero_flow(self):
        pair = ImagePair(first=np.full((8, 8), 2.0), second=np.full((8, 8), 5.0),
                         time_gap=1.0, age_at_first=65.0)
        flow = horn_schunck(pair, 0.5, 100)
        assert np.max(np.abs(flow.u)) < 1e-10
        assert np.max(np.abs(flow.v)) < 1e-10

    def test_recovers_unit_translation(self):
        sp = gen_image_pairs(1, 32, MotionSpec(kind="translate", dx=1.0),
                             seed=5, gap_range=(1.0, 1.0))[0]
        flow = horn_schunck(sp.pair, smoothness=0.5, iterations=200)
        interior = sp.pair.first[0] > 0.5 * sp.pair.first[0].max()
        assert abs(float(flow.u[interior].mean()) - 1.0) < 0.3
        assert abs(float(flow.v[interior].mean())) < 0.3

    def test_deterministic(self):
        sp = gen_image_pairs(1, 16, MotionSpec(kind="translate", dx=0.5),
                             seed=8)[0]
        f1 = horn_schunck(sp.pair, 0.5, 50)
        f2 = horn_schunck(sp.pair, 0.5, 50)
        np.testing.assert_array_equal(f1.u, f2.u)
        np.testing.assert_array_equal(f1.v, f2.v)

    def test_velocity_is_per_year(self):
        """Same displacement over a doubled gap halves the velocity."""
        sp = gen_image_pairs(1, 32, MotionSpec(kind="translate", dx=1.0),
                             seed=5, gap_range=(1.0, 1.0))[0]
        slow = ImagePair(first=sp.pair.first, second=sp.pair.second,
                         time_gap=2.0, age_at_first=sp.pair.age_at_first)
        f1 = horn_schunck(sp.pair, 0.5, 100)
        f2 = horn_schunck(slow, 0.5, 100)
        np.testing.assert_allclose(f2.u, 0.5 * f1.u, rtol=1e-12)

    def test_quadrupling_smoothness_does_not_raise_total_variation(self):
        sp = gen_image_pairs(1, 32, MotionSpec(kind="translate", dx=1.0),
                             seed=5, gap_range=(1.0, 1.0))[0]
        for smoothness in (0.5, 2.0):
            rough = _total_variation(horn_schunck(sp.pair, smoothness, 200))
            smooth = _total_variation(horn_schunck(sp.pair, 4 * smoothness, 200))
            assert smooth <= rough

    def test_bad_parameters_rejected(self):
        sp = gen_image_pairs(1, 8, MotionSpec(), seed=1)[0]
        with pytest.raises(DataError):
            horn_schunck(sp.pair, smoothness=0.0)
        with pytest.raises(DataError):
            horn_schunck(sp.pair, iterations=0)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ShapeError):
            ImagePair(first=np.zeros((8, 8)), second=np.zeros((6, 6)),
                      time_gap=1.0, age_at_first=70.0)

    def test_nonpositive_gap_rejected(self):
        with pytest.raises(DataError):
            ImagePair(first=np.zeros((4, 4)), second=np.zeros((4, 4)),
                      time_gap=0.0, age_at_first=70.0)

    def test_fractional_iterations_rejected(self):
        sp = gen_image_pairs(1, 8, MotionSpec(), seed=1)[0]
        with pytest.raises(DataError):
            horn_schunck(sp.pair, 0.5, 2.5)

    def test_numpy_integer_iterations_accepted(self):
        sp = gen_image_pairs(1, 8, MotionSpec(kind="translate", dx=0.5), seed=1)[0]
        flow = horn_schunck(sp.pair, 0.5, np.int64(7))
        np.testing.assert_array_equal(flow.u, horn_schunck(sp.pair, 0.5, 7).u)

    def test_infinite_smoothness_rejected(self):
        sp = gen_image_pairs(1, 8, MotionSpec(), seed=1)[0]
        with pytest.raises(DataError):
            horn_schunck(sp.pair, smoothness=np.inf)


class TestSweepOracle:
    """The correlate sweep reproduces padding plus shifted adds bit for bit."""

    @pytest.mark.parametrize("side", [1, 2, 3, 16, 17, 80])
    @pytest.mark.parametrize("smoothness,iterations", [(0.5, 200), (2.0, 7), (0.1, 1)])
    def test_bit_identical_to_shifted_adds(self, side, smoothness, iterations):
        rng = np.random.default_rng(side)
        pair = ImagePair(first=rng.normal(size=(side, side)),
                         second=rng.normal(size=(side, side)),
                         time_gap=1.7, age_at_first=70.0)
        flow = horn_schunck(pair, smoothness, iterations)
        u, v = _reference_horn_schunck(pair, smoothness, iterations)
        assert flow.u.tobytes() == u.tobytes()
        assert flow.v.tobytes() == v.tobytes()

    def test_bit_identical_on_a_rectangle(self):
        sp = gen_image_pairs(1, 17, MotionSpec(kind="dilate", rate=0.05), seed=3)[0]
        # on 1x5 and 5x1 a mirror border folds onto a one-pixel axis
        for rows, cols in ((5, 17), (1, 5), (5, 1)):
            pair = ImagePair(first=sp.pair.first[0, :rows, :cols],
                             second=sp.pair.second[0, :rows, :cols],
                             time_gap=sp.pair.time_gap, age_at_first=sp.pair.age_at_first)
            flow = horn_schunck(pair, 0.5, 50)
            u, v = _reference_horn_schunck(pair, 0.5, 50)
            assert flow.u.tobytes() == u.tobytes()
            assert flow.v.tobytes() == v.tobytes()

    @pytest.mark.parametrize("shape", [(2, 1, 1), (2, 1, 5), (2, 16, 16), (2, 80, 80)],
                             ids=["1x1", "1x5", "16x16", "80x80"])
    def test_sweep_average_is_the_public_correlate(self, shape, monkeypatch):
        """The sweep calls scipy's private correlation routine with fixed
        arguments; a scipy whose routine no longer gives ndimage.correlate's
        bits with them fails here."""
        from scipy import ndimage
        from scipy.ndimage import _nd_image
        real = _nd_image.correlate
        calls = []

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(_nd_image, "correlate", spy)
        rng = np.random.default_rng(shape[-1])
        horn_schunck(ImagePair(first=rng.normal(size=shape[1:]), second=rng.normal(size=shape[1:]),
                               time_gap=1.0, age_at_first=70.0), 0.5, 1)
        monkeypatch.undo()
        (stack, *fixed), = calls
        assert not np.may_share_memory(stack, fixed[1])
        uv = rng.normal(size=shape)
        avg = np.empty_like(uv)
        real(uv, fixed[0], avg, *fixed[2:])
        kernel = np.array([[[1, 2, 1], [2, 0, 2], [1, 2, 1]]]) / 12
        assert avg.tobytes() == ndimage.correlate(uv, kernel, mode="mirror").tobytes()


class TestImagePairValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixels_rejected(self, bad):
        img = np.zeros((4, 4))
        img[1, 2] = bad
        with pytest.raises(DataError):
            ImagePair(first=img, second=np.zeros((4, 4)), time_gap=1.0, age_at_first=70.0)
        with pytest.raises(DataError):
            ImagePair(first=np.zeros((4, 4)), second=img, time_gap=1.0, age_at_first=70.0)

    def test_empty_image_rejected(self):
        with pytest.raises(ShapeError):
            ImagePair(first=np.zeros((0, 0)), second=np.zeros((0, 0)),
                      time_gap=1.0, age_at_first=70.0)
        with pytest.raises(ShapeError):
            ScalarFlowMap(np.zeros((1, 0, 4)))

    @pytest.mark.parametrize("gap", [np.inf, np.nan])
    def test_non_finite_gap_rejected(self, gap):
        with pytest.raises(DataError):
            ImagePair(first=np.zeros((4, 4)), second=np.zeros((4, 4)),
                      time_gap=gap, age_at_first=70.0)

    def test_nan_age_rejected(self):
        with pytest.raises(DataError):
            ImagePair(first=np.zeros((4, 4)), second=np.zeros((4, 4)),
                      time_gap=1.0, age_at_first=np.nan)


class TestDivergence:
    def test_uniform_translation_field_is_zero(self):
        flow = FlowField(u=np.full((6, 6), 1.3), v=np.full((6, 6), -0.7))
        np.testing.assert_allclose(divergence(flow).values, 0.0, atol=1e-14)

    def test_radial_expansion_is_two(self):
        yy, xx = np.mgrid[0:8, 0:8].astype(float)
        flow = FlowField(u=xx - 3.5, v=yy - 3.5)
        div = divergence(flow).values[0]
        np.testing.assert_allclose(div, 2.0, atol=1e-12)

    def test_matches_independent_stencil(self):
        rng = np.random.default_rng(9)
        u, v = rng.normal(size=(7, 7)), rng.normal(size=(7, 7))
        div = divergence(FlowField(u=u, v=v)).values[0]
        dudx = np.empty_like(u)
        dudx[:, 1:-1] = 0.5 * (u[:, 2:] - u[:, :-2])
        dudx[:, 0] = u[:, 1] - u[:, 0]
        dudx[:, -1] = u[:, -1] - u[:, -2]
        dvdy = np.empty_like(v)
        dvdy[1:-1] = 0.5 * (v[2:] - v[:-2])
        dvdy[0] = v[1] - v[0]
        dvdy[-1] = v[-1] - v[-2]
        assert div.tobytes() == (dudx + dvdy).tobytes()

    @pytest.mark.parametrize("shape", [(1, 1), (1, 5), (5, 1)])
    def test_side_of_one_rejected(self, shape):
        with pytest.raises(ShapeError):
            divergence(FlowField(u=np.zeros(shape), v=np.zeros(shape)))

    def test_sign_convention_on_synthetic_dilation(self):
        sp = gen_image_pairs(1, 32, MotionSpec(kind="dilate", rate=0.05),
                             seed=6, gap_range=(1.0, 1.0))[0]
        flow = horn_schunck(sp.pair, 0.5, 200)
        div = divergence(flow).values[0]
        center = div[14:18, 14:18].mean()
        assert center > 0

        contraction = gen_image_pairs(1, 32, MotionSpec(kind="dilate", rate=-0.05),
                                      seed=6, gap_range=(1.0, 1.0))[0]
        flow = horn_schunck(contraction.pair, 0.5, 200)
        div = divergence(flow).values[0]
        assert div[14:18, 14:18].mean() < 0


class TestStandardizeCohort:
    def test_pooled_moments(self):
        rng = np.random.default_rng(10)
        maps = [ScalarFlowMap(rng.normal(2.0, 3.0, size=(1, 6, 6))) for _ in range(5)]
        standardized, _, _ = standardize_cohort(maps)
        pooled = np.concatenate([m.values.reshape(-1) for m in standardized])
        assert abs(pooled.mean()) < 1e-12
        assert abs(pooled.std() - 1.0) < 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(11)
        maps = [ScalarFlowMap(rng.normal(size=(1, 4, 4))) for _ in range(3)]
        shifted = [ScalarFlowMap(m.values + 5.0) for m in maps]
        s1, mean1, _ = standardize_cohort(maps)
        s2, mean2, _ = standardize_cohort(shifted)
        assert mean2 == pytest.approx(mean1 + 5.0)
        for a, b in zip(s1, s2):
            np.testing.assert_allclose(a.values, b.values, atol=1e-12)

    def test_two_map_hand_example(self):
        maps = [ScalarFlowMap(np.zeros((1, 1, 2))), ScalarFlowMap(np.full((1, 1, 2), 2.0))]
        standardized, mean, std = standardize_cohort(maps)
        assert (mean, std) == (1.0, 1.0)
        np.testing.assert_array_equal(standardized[0].values, np.full((1, 1, 2), -1.0))
        np.testing.assert_array_equal(standardized[1].values, np.full((1, 1, 2), 1.0))

    def test_zero_variance_rejected(self):
        maps = [ScalarFlowMap(np.ones((1, 2, 2))), ScalarFlowMap(np.ones((1, 2, 2)))]
        with pytest.raises(DataError):
            standardize_cohort(maps)


class TestStandardizeConditions:
    def test_two_age_example(self):
        std, means, stds = standardize_conditions([[60.0, 1.0], [80.0, 3.0]])
        np.testing.assert_allclose(std[:, 0], [-1.0, 1.0])
        assert means[0] == 70.0 and stds[0] == 10.0

    def test_idempotent_on_standardized_data(self):
        rng = np.random.default_rng(12)
        raw = rng.normal(size=(50, 2))
        once, _, _ = standardize_conditions(raw)
        twice, _, _ = standardize_conditions(once)
        np.testing.assert_allclose(twice, once, atol=1e-12)

    def test_constant_column_rejected(self):
        with pytest.raises(DataError):
            standardize_conditions([[70.0, 1.0], [70.0, 2.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_value_rejected(self, bad):
        with pytest.raises(DataError):
            standardize_conditions([[70.0, 1.0], [75.0, bad], [80.0, 3.0]])
