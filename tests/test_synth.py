"""Determinism and distribution of the synthetic cohorts."""

import hashlib

import numpy as np
import pytest

from siad import synth
from siad.errors import DataError
from siad.opticalflow import divergence, horn_schunck
from siad.synth import (CohortSpec, MotionSpec, SignalSpec, gen_diseased,
                        gen_image_pairs, gen_null_cohort, make_cohort)
from siad.synth import _TAG_DISEASED


class TestGenNullCohort:
    def test_same_seed_bit_identical(self):
        a = gen_null_cohort(5, 8, 1.0, seed=42)
        b = gen_null_cohort(5, 8, 1.0, seed=42)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_different_seeds_differ(self):
        a = gen_null_cohort(1, 8, 1.0, seed=1)[0]
        b = gen_null_cohort(1, 8, 1.0, seed=2)[0]
        assert np.any(a != b)

    def test_order_independent_by_index(self):
        whole = gen_null_cohort(6, 8, 1.0, seed=9)
        tail = gen_null_cohort(3, 8, 1.0, seed=9, start_index=3)
        for x, y in zip(whole[3:], tail):
            np.testing.assert_array_equal(x, y)

    def test_sample_mean_within_clt_bound(self):
        imgs = gen_null_cohort(1000, 16, 1.0, seed=5)
        pooled = np.concatenate([im.reshape(-1) for im in imgs])
        bound = 4.0 / np.sqrt(pooled.size)
        assert abs(pooled.mean()) < bound

    def test_pooled_variance_within_ten_percent(self):
        sigma2 = 2.5
        imgs = gen_null_cohort(1024, 16, sigma2, seed=6)
        pooled = np.concatenate([im.reshape(-1) for im in imgs])
        assert pooled.size >= 256_000
        assert 0.9 * sigma2 <= pooled.var() <= 1.1 * sigma2

    def test_count_must_be_positive(self):
        with pytest.raises(DataError):
            gen_null_cohort(0, 8, 1.0, seed=0)


class TestGenDiseased:
    REGION = (18, 19, 20, 26, 27, 28)

    def test_zero_amplitude_reduces_to_null_stream(self):
        sig = SignalSpec(region=self.REGION, amplitude=0.0)
        dis = gen_diseased(4, 8, sig, 1.0, seed=3)
        nul = gen_null_cohort(4, 8, 1.0, seed=3, tag=_TAG_DISEASED)
        for x, y in zip(dis, nul):
            np.testing.assert_array_equal(x, y)

    def test_region_mean_near_amplitude(self):
        amp = 3.0
        sig = SignalSpec(region=self.REGION, amplitude=amp)
        imgs = gen_diseased(400, 8, sig, 1.0, seed=4)
        at_region = np.array([im.reshape(-1)[list(self.REGION)] for im in imgs])
        clt = 4.0 / np.sqrt(at_region.size)
        assert abs(at_region.mean() - amp) < clt

    def test_ramp_shape_spans_amplitude(self):
        sig = SignalSpec(region=self.REGION, amplitude=2.0, shape="ramp")
        field = sig.field(64)
        values = field[list(self.REGION)]
        assert values[0] == pytest.approx(2.0 / len(self.REGION))
        assert values[-1] == pytest.approx(2.0)

    def test_truth_region_is_recorded_exactly(self):
        sig = SignalSpec(region=self.REGION, amplitude=1.0)
        spec = CohortSpec(n_healthy_train=2, n_healthy_test=0, n_inference=0,
                          n_variance=0, n_diseased=3, side=8, seed=1, signal=sig)
        subjects = make_cohort(spec)
        diseased = [s for s in subjects if s.role == "diseased"]
        assert len(diseased) == 3
        for s in diseased:
            assert s.truth_region == self.REGION

    def test_empty_region_rejected(self):
        with pytest.raises(DataError):
            SignalSpec(region=(), amplitude=1.0)


class TestGenImagePairs:
    def test_zero_motion_gives_identical_frames(self):
        sp = gen_image_pairs(2, 16, MotionSpec(kind="none"), seed=7)
        for item in sp:
            np.testing.assert_array_equal(item.pair.first, item.pair.second)
            assert np.all(item.true_u == 0.0)

    def test_seeded_determinism(self):
        a = gen_image_pairs(2, 16, MotionSpec(kind="translate", dx=1.0), seed=8)
        b = gen_image_pairs(2, 16, MotionSpec(kind="translate", dx=1.0), seed=8)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.pair.second, y.pair.second)
            assert x.pair.age_at_first == y.pair.age_at_first

    def test_dilation_yields_positive_divergence_at_center(self):
        sp = gen_image_pairs(1, 32, MotionSpec(kind="dilate", rate=0.05),
                             seed=6, gap_range=(1.0, 1.0))[0]
        flow = horn_schunck(sp.pair, 0.5, 200)
        div = divergence(flow).values[0]
        assert div[14:18, 14:18].mean() > 0

    def test_conditions_within_ranges(self):
        sp = gen_image_pairs(5, 8, MotionSpec(), seed=9,
                             age_range=(60.0, 70.0), gap_range=(1.0, 2.0))
        for item in sp:
            assert 60.0 <= item.pair.age_at_first <= 70.0
            assert 1.0 <= item.pair.time_gap <= 2.0


class TestMakeCohort:
    def test_roles_and_counts(self):
        spec = CohortSpec(n_healthy_train=4, n_healthy_test=3, n_inference=2,
                          n_variance=2, n_diseased=0, side=8, seed=5)
        subjects = make_cohort(spec)
        roles = [s.role for s in subjects]
        assert roles.count("train") == 4
        assert roles.count("test") == 3
        assert roles.count("inference") == 2
        assert roles.count("variance") == 2
        assert len({s.id for s in subjects}) == len(subjects)

    def test_roles_use_disjoint_noise(self):
        spec = CohortSpec(n_healthy_train=2, n_healthy_test=2, n_inference=0,
                          n_variance=0, n_diseased=0, side=8, seed=5)
        subjects = make_cohort(spec)
        assert np.any(subjects[0].image != subjects[2].image)

    def test_signal_outside_roi_rejected(self):
        sig = SignalSpec(region=(0, 1), amplitude=1.0)
        spec = CohortSpec(n_healthy_train=1, n_healthy_test=0, n_inference=0,
                          n_variance=0, n_diseased=1, side=8, seed=0, signal=sig)
        roi = np.zeros(64, dtype=bool)
        roi[20:40] = True
        with pytest.raises(DataError):
            make_cohort(spec, roi)

    def test_diseased_without_signal_rejected(self):
        with pytest.raises(DataError):
            CohortSpec(n_diseased=5, signal=None)

    @pytest.mark.parametrize("sigma2", [0.0, -1.0, float("inf"), float("nan")])
    def test_noise_variance_outside_zero_to_inf_rejected(self, sigma2):
        with pytest.raises(DataError, match="sigma2"):
            CohortSpec(n_diseased=0, sigma2=sigma2)


def _digest(subjects) -> str:
    """sha256 over each subject's provenance and image bytes, in order."""
    h = hashlib.sha256()
    for s in subjects:
        h.update(repr((s.id, s.role, s.age, s.time_gap, s.truth_region)).encode())
        h.update(np.ascontiguousarray(s.image, dtype="<f8").tobytes())
    return h.hexdigest()


_PLATEAU = SignalSpec(region=(14, 15, 20, 21), amplitude=3.0)
_RAMP = SignalSpec(region=(7, 8, 13, 14, 19), amplitude=-2.5, shape="ramp")


class TestGoldenStreams:
    """Digests taken before the generators were merged: a stream that moves
    fails here, however plausible the new draws look."""

    @pytest.mark.parametrize("seed,signal,digest", [
        (0, _PLATEAU, "01a99866f2a67d45d260a75a25dff69e11a3e1c12242dd8ad58cb01a7c1109af"),
        (11, _RAMP, "4722fd402c6e560a4ab18090e66b408252947f015baf0533c0a2ea94845f64f0"),
        (2**40 + 3, _RAMP, "7ed62d0d59e33ad3f87050e5f18f2dad965ead8107ce2bc44098cf6ae4a273bf"),
    ])
    def test_make_cohort_digest(self, monkeypatch, seed, signal, digest):
        # the digests were taken with these ranges, not the desk ones
        monkeypatch.setattr(synth, "DESK_AGE_RANGE", (55.0, 90.0))
        monkeypatch.setattr(synth, "DESK_GAP_RANGE", (0.5, 4.0))
        spec = CohortSpec(n_healthy_train=3, n_healthy_test=2, n_inference=2,
                          n_variance=1, n_diseased=3, side=6, sigma2=1.7, seed=seed,
                          signal=signal)
        assert _digest(make_cohort(spec)) == digest

    @pytest.mark.parametrize("seed,signal,digest", [
        (0, _PLATEAU, "46a57cf3a593119298af9e4495ba20961697d00f0b5ad803df753f8960fe8aac"),
        (11, _RAMP, "91442db78a85e04aa6ef5b72c8d86c84d377d4f8b4f49dc4c10731d29e2467fb"),
        (2**40 + 3, _RAMP, "8d03e1d866e256937fbb54276031b544a915c065d535b24d6236f7a6cb9fb8f2"),
    ])
    def test_gen_diseased_digest(self, seed, signal, digest):
        images = gen_diseased(4, 6, signal, 0.6, seed, start_index=2 * 10**6)
        h = hashlib.sha256()
        for img in images:
            h.update(np.ascontiguousarray(img, dtype="<f8").tobytes())
        assert h.hexdigest() == digest
