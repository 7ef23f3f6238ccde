"""Exactness and tiling of the piecewise-linear decomposition."""

import gc
import weakref

import numpy as np
import pytest

from siad import parametric
from siad.anomaly import AnomalyMask, RoiMask
from siad.errors import NumericalDiagnosticError
from siad.inference import NoiseModel, contrast_vector, line_decomposition
from siad.model import ArchitectureSpec, init_weights, reconstruct, zero_weights
from siad.ops import MaxPool2, Relu
from siad.parametric import AffineLine, _LinePlan, parametric_infer, scan_linear_pieces
from siad.synth import gen_null_cohort


def _relu_affine(off, slope, z_probe):
    """A relu layer's affine pass on separate offset and slope vectors."""
    out, crossing = Relu().affine(np.stack([off, slope]), z_probe)
    return out[0], out[1], crossing


class TestReluAffine:
    def test_single_neuron_breakpoint(self):
        """Pre-activation 1 + 2z on [-5, 5]: off below -0.5, linear above."""
        pieces = scan_linear_pieces(
            lambda z: _relu_affine(np.array([1.0]), np.array([2.0]), z), (-5.0, 5.0))
        assert len(pieces) == 2
        lo_piece, hi_piece = pieces
        assert lo_piece[0] == -5.0
        assert lo_piece[1] == pytest.approx(-0.5, abs=1e-9)
        np.testing.assert_allclose(lo_piece[2], [0.0])
        np.testing.assert_allclose(lo_piece[3], [0.0])
        assert hi_piece[1] == 5.0
        np.testing.assert_allclose(hi_piece[2], [1.0])
        np.testing.assert_allclose(hi_piece[3], [2.0])

    def test_inactive_unit_with_negative_slope_never_crosses(self):
        _, _, crossing = _relu_affine(np.array([-1.0]), np.array([-2.0]), 0.0)
        assert crossing == np.inf

    def test_zero_preactivation_gate_follows_slope(self):
        off, slope, _ = _relu_affine(np.array([0.0, 0.0]), np.array([1.0, -1.0]), 0.0)
        np.testing.assert_array_equal(slope, [1.0, 0.0])

    def test_probe_on_a_rounded_zero_ends_the_pattern_there(self):
        """0.215 - 0.355 z at its own computed zero rounds to +2.8e-17, so
        the unit reads as on although it turns off right away; the crossing
        is then the probe itself, not dropped."""
        z = -0.215 / -0.355
        _, slope, crossing = _relu_affine(np.array([0.215]), np.array([-0.355]), z)
        assert 0.215 + -0.355 * z > 0.0 and slope[0] == -0.355
        assert crossing == z


class TestMaxpoolAffine:
    """One window of four competitors, given as (offset, slope) 2x2 planes."""

    def test_overtake_crossing(self):
        # constant 1 vs the line z; they meet at z=1
        pair = np.array([[[1.0, 0.0], [-5.0, -5.0]],
                         [[0.0, 1.0], [0.0, 0.0]]])[:, :, :, None]
        pooled, crossing = MaxPool2().affine(pair, 0.0)
        assert pooled[0, 0, 0, 0] == 1.0 and pooled[1, 0, 0, 0] == 0.0
        assert crossing == pytest.approx(1.0)

    def test_tie_at_probe_prefers_larger_slope(self):
        pair = np.array([[[1.0, 1.0], [-5.0, -5.0]],
                         [[-1.0, 2.0], [0.0, 0.0]]])[:, :, :, None]
        pooled, _ = MaxPool2().affine(pair, 0.0)
        assert pooled[1, 0, 0, 0] == 2.0


class TestParametricInfer:
    def test_zero_weights_single_piece(self):
        arch = ArchitectureSpec(side=4, channels=(2,), latent_dim=2)
        w = zero_weights(arch)
        line = AffineLine(np.ones(16), np.full(16, 0.5), (-4.0, 4.0))
        pieces = parametric_infer(line, np.zeros(2), w)
        assert len(pieces) == 1
        assert (pieces[0].lo, pieces[0].hi) == (-4.0, 4.0)
        np.testing.assert_array_equal(pieces[0].recon_offset, np.zeros(16))
        np.testing.assert_array_equal(pieces[0].recon_slope, np.zeros(16))

    def test_always_positive_preactivations_single_linear_piece(self):
        """Zero conv weights with large positive biases freeze every gate on,
        so the whole window is one piece matching the direct forward."""
        arch = ArchitectureSpec(side=4, channels=(2,), latent_dim=2)
        w = zero_weights(arch)
        for name in ("enc0_b", "dec_dense_b"):
            w.params[name] = np.full_like(w.params[name], 3.0)
        cond = np.array([0.1, 0.2])
        line = AffineLine(np.zeros(16), np.ones(16), (-2.0, 2.0))
        pieces = parametric_infer(line, cond, w)
        assert len(pieces) == 1
        direct = reconstruct(line.at(0.7).reshape(1, 4, 4), cond, w).reshape(-1)
        np.testing.assert_allclose(pieces[0].at(0.7), direct, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_agrees_with_direct_inference_on_grid(self, seed):
        """Random two-block net on 4x4: pieces vs direct forward at 1000 z."""
        arch = ArchitectureSpec(side=4, channels=(3, 4), latent_dim=2)
        w = init_weights(arch, seed)
        rng = np.random.default_rng(seed)
        cond = rng.normal(size=2)
        line = AffineLine(rng.normal(size=16), rng.normal(size=16), (-3.0, 3.0))
        pieces = parametric_infer(line, cond, w)

        zs = np.linspace(-3.0, 3.0, 1000)
        idx = 0
        worst = 0.0
        for z in zs:
            while pieces[idx].hi < z and idx + 1 < len(pieces):
                idx += 1
            direct = reconstruct(line.at(z).reshape(1, 4, 4), cond, w).reshape(-1)
            worst = max(worst, float(np.max(np.abs(direct - pieces[idx].at(z)))))
        assert worst < 1e-9

    @pytest.mark.parametrize("seed", [3, 4])
    def test_tiling_invariants(self, seed):
        arch = ArchitectureSpec(side=4, channels=(3,), latent_dim=2)
        w = init_weights(arch, seed)
        rng = np.random.default_rng(seed)
        line = AffineLine(rng.normal(size=16), rng.normal(size=16), (-3.0, 3.0))
        pieces = parametric_infer(line, rng.normal(size=2), w)
        assert pieces[0].lo == -3.0
        assert pieces[-1].hi == 3.0
        for left, right in zip(pieces[:-1], pieces[1:]):
            assert left.hi == right.lo  # shared endpoints: no gaps, no overlaps
            assert left.lo < left.hi

    def test_piece_cap_raises_diagnostic(self, monkeypatch):
        arch = ArchitectureSpec(side=4, channels=(3,), latent_dim=2)
        w = init_weights(arch, 5)
        rng = np.random.default_rng(5)
        line = AffineLine(rng.normal(size=16), rng.normal(size=16), (-3.0, 3.0))
        assert len(parametric_infer(line, np.zeros(2), w)) > 1
        monkeypatch.setattr(parametric, "PIECE_CAP", 1)
        with pytest.raises(NumericalDiagnosticError):
            parametric_infer(line, np.zeros(2), w)

    def test_matches_reconstruct_at_observed_point(self):
        """The piece containing a specific z reproduces x(z)'s reconstruction."""
        arch = ArchitectureSpec(side=8, channels=(3, 5), latent_dim=3)
        w = init_weights(arch, 21)
        rng = np.random.default_rng(21)
        cond = rng.normal(size=2)
        x = rng.normal(size=64)
        direction = rng.normal(size=64)
        line = AffineLine(x - direction, direction, (0.0, 2.0))
        pieces = parametric_infer(line, cond, w)
        target = [p for p in pieces if p.lo <= 1.0 <= p.hi][0]
        direct = reconstruct(x.reshape(1, 8, 8), cond, w).reshape(-1)
        np.testing.assert_allclose(target.at(1.0), direct, atol=1e-9)


def _assert_same_as_fresh(plan, line, cond, w, z):
    """The plan's answer at z is bit-equal to a plan that has never probed."""
    got = plan.evaluate(z)
    want = _LinePlan(line, cond, w).evaluate(z)
    for g, e in zip(got, want):
        assert np.array_equal(g, e), f"stage cache differs from a fresh plan at z={z!r}"
    return got


class TestStageCache:
    """Resuming at the first stage whose crossing was reached is exact."""

    @pytest.mark.parametrize("arch,seed", [
        (ArchitectureSpec(side=4, channels=(3, 4), latent_dim=2), 0),
        (ArchitectureSpec(side=4, channels=(3, 4), latent_dim=2), 1),
        (ArchitectureSpec(side=8, channels=(3, 4, 5), latent_dim=2), 2),
    ])
    def test_every_probe_of_a_scan_matches_a_fresh_plan(self, arch, seed):
        w = init_weights(arch, seed)
        rng = np.random.default_rng(seed)
        cond = rng.normal(size=2)
        n = arch.n_pixels
        line = AffineLine(rng.normal(size=n), rng.normal(size=n), (-3.0, 3.0))
        plan = _LinePlan(line, cond, w)
        pieces = scan_linear_pieces(
            lambda z: _assert_same_as_fresh(plan, line, cond, w, z), line.window)
        assert len(pieces) > 20

    def test_probes_at_a_crossing_or_to_the_left_match_a_fresh_plan(self):
        arch = ArchitectureSpec(side=8, channels=(3, 4, 5), latent_dim=2)
        w = init_weights(arch, 3)
        rng = np.random.default_rng(3)
        cond = rng.normal(size=2)
        line = AffineLine(rng.normal(size=64), rng.normal(size=64), (-3.0, 3.0))
        plan = _LinePlan(line, cond, w)
        z = -2.9
        for _ in range(10):  # each probe exactly at the previous crossing
            _, _, z = _assert_same_as_fresh(plan, line, cond, w, z)
        for z in (2.5, 0.3, 1.1, -2.9, -2.9, 2.9):
            _assert_same_as_fresh(plan, line, cond, w, z)

    def test_desk_null_scan_reuses_stages(self):
        """A desk-size line through a null map: most pieces resume mid-network."""
        arch = ArchitectureSpec(side=16, channels=(8, 16), latent_dim=4)
        w = init_weights(arch, 7)
        x = gen_null_cohort(1, 16, 1.0, seed=7)[0]
        roi = RoiMask.centered_square(16)
        eta = contrast_vector(AnomalyMask(roi.indices[:4]), roi)
        line, _ = line_decomposition(x, eta, NoiseModel(1.0))
        plan = _LinePlan(line, np.zeros(2), w)
        pieces = scan_linear_pieces(plan.evaluate, line.window)
        z_dependent = len(plan.layers) - 1
        assert len(pieces) > 100
        assert plan.stages_run < len(pieces) * z_dependent

    def test_plan_is_freed_without_the_cycle_collector(self):
        """A plan holds every stage output; a reference cycle through its
        stages would keep them alive until the cyclic collector ran."""
        arch = ArchitectureSpec(side=8, channels=(3, 4, 5), latent_dim=2)
        rng = np.random.default_rng(4)
        line = AffineLine(rng.normal(size=64), rng.normal(size=64), (-3.0, 3.0))
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            plan = _LinePlan(line, np.zeros(2), init_weights(arch, 4))
            plan.evaluate(0.0)
            ref = weakref.ref(plan)
            del plan
            assert ref() is None
        finally:
            if was_enabled:
                gc.enable()
