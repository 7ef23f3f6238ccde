"""Network forward passes, the training objective, and their edge cases."""

import numpy as np
import pytest

from siad.errors import DataError, ShapeError
from siad.model import ArchitectureSpec, forward, init_weights, reconstruct, zero_weights
from siad.ops import LatentHead, Relu, UpConv
from siad.training import evaluate_loss

ARCH = ArchitectureSpec(side=8, channels=(3, 5), latent_dim=3)
COND = np.array([0.4, -1.2])


def _head(layers):
    """The latent head of a forward pass's layers."""
    return next(layer for layer in layers if isinstance(layer, LatentHead))


class TestArchitectureSpec:
    def test_side_must_divide(self):
        with pytest.raises(ShapeError):
            ArchitectureSpec(side=10, channels=(4, 8))

    def test_latent_positive(self):
        with pytest.raises(ShapeError):
            ArchitectureSpec(side=8, channels=(4,), latent_dim=0)

    def test_even_kernel_rejected(self):
        with pytest.raises(ShapeError):
            ArchitectureSpec(side=8, channels=(4,), kernel_size=4)

    @pytest.mark.parametrize("channels", [(0,), (8, 0), (-1, 4)])
    def test_channel_counts_below_one_rejected(self, channels):
        with pytest.raises(ShapeError, match="channel counts"):
            ArchitectureSpec(side=8, channels=channels)

    def test_layer_shapes_compose(self):
        shapes = dict(ARCH.layer_shapes())
        assert shapes["enc0_w"] == (3, 3, 3, 3)  # 1 image + 2 cond channels in
        assert shapes["mu_w"] == (3, 5 * 2 * 2)
        assert shapes["dec_dense_w"] == (20, 5)
        assert shapes["dec1_w"] == (3, 10, 3, 3)
        assert shapes["dec0_w"] == (1, 6, 3, 3)
        assert [name for name, _ in ARCH.layer_shapes()] == [
            "enc0_w", "enc0_b", "enc1_w", "enc1_b", "mu_w", "mu_b", "logvar_w",
            "logvar_b", "dec_dense_w", "dec_dense_b", "dec1_w", "dec1_b",
            "dec0_w", "dec0_b"]


class TestEncode:
    def test_zero_weights_give_zero_stats(self):
        _, layers = forward(np.random.default_rng(0).normal(size=(1, 8, 8)),
                            COND, zero_weights(ARCH))
        np.testing.assert_array_equal(_head(layers).mu, np.zeros((1, 3)))
        np.testing.assert_array_equal(_head(layers).logvar, np.zeros((1, 3)))
        # each decoder block reads the relu right after its encoder conv
        decoders = [layer for layer in layers if isinstance(layer, UpConv)]
        assert [layers.index(d.skip) for d in decoders] == [4, 1]
        assert all(isinstance(d.skip, Relu) for d in decoders)

    def test_deterministic(self):
        w = init_weights(ARCH, 5)
        x = np.random.default_rng(1).normal(size=(1, 8, 8))
        a = _head(forward(x, COND, w)[1])
        b = _head(forward(x, COND, w)[1])
        np.testing.assert_array_equal(a.mu, b.mu)
        np.testing.assert_array_equal(a.logvar, b.logvar)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            reconstruct(np.zeros((1, 6, 6)), COND, init_weights(ARCH, 0))
        with pytest.raises(ShapeError):
            reconstruct(np.zeros((1, 8, 8)), np.zeros(3), init_weights(ARCH, 0))
        with pytest.raises(ShapeError):
            reconstruct(np.zeros((2, 8, 8)), COND, init_weights(ARCH, 0))

    def test_mean_path_piecewise_linear_along_a_line(self):
        """Slopes of t -> mu(x + t*d) from both sides agree away from kinks."""
        w = init_weights(ARCH, 7)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 8, 8))
        d = rng.normal(size=(1, 8, 8))
        h = 1e-7
        agreements = 0
        samples = 50
        for t in np.linspace(-1.0, 1.0, samples):
            mu0 = _head(forward(x + (t - h) * d, COND, w)[1]).mu
            mu1 = _head(forward(x + t * d, COND, w)[1]).mu
            mu2 = _head(forward(x + (t + h) * d, COND, w)[1]).mu
            left = (mu1 - mu0) / h
            right = (mu2 - mu1) / h
            if np.allclose(left, right, rtol=1e-4, atol=1e-4):
                agreements += 1
        # kinks are isolated points; nearly every sampled t sits inside a piece
        assert agreements >= samples - 3


def _conv_loops(x, kernel, bias):
    """Zero-padded "same" convolution of a (C, H, W) map by nested loops."""
    c_out, c_in, k, _ = kernel.shape
    _, hh, ww = x.shape
    out = np.zeros((c_out, hh, ww))
    for o in range(c_out):
        for i in range(hh):
            for j in range(ww):
                acc = bias[o]
                for c in range(c_in):
                    for di in range(k):
                        for dj in range(k):
                            ii, jj = i + di - k // 2, j + dj - k // 2
                            if 0 <= ii < hh and 0 <= jj < ww:
                                acc += kernel[o, c, di, dj] * x[c, ii, jj]
                out[o, i, j] = acc
    return out


class TestDecode:
    def test_zero_weights_give_zero_image(self):
        x = np.random.default_rng(10).normal(size=(2, 8, 8))
        recon, _ = forward(x, np.ones((2, 2)), zero_weights(ARCH), eps=np.ones((2, 3)))
        np.testing.assert_array_equal(recon, np.zeros((2, 8, 8)))

    def test_positive_homogeneity_with_zero_bias(self):
        # biases are zero at init; relu and maxpool are positively
        # homogeneous, so with the conditions held at zero doubling the image
        # doubles the reconstruction
        w = init_weights(ARCH, 9)
        x = np.random.default_rng(3).normal(size=(1, 8, 8))
        zero_cond = np.zeros(2)
        np.testing.assert_allclose(reconstruct(2.0 * x, zero_cond, w),
                                   2.0 * reconstruct(x, zero_cond, w),
                                   rtol=1e-10, atol=1e-12)

    def test_matches_hand_unrolled_single_block(self):
        """Nested-loop re-implementation of a one-block network on 4x4."""
        arch = ArchitectureSpec(side=4, channels=(2,), latent_dim=2)
        w = init_weights(arch, 11)
        rng = np.random.default_rng(4)
        for name in ("enc0_b", "mu_b", "dec_dense_b", "dec0_b"):
            w.params[name] = rng.normal(size=w.params[name].shape)
        x = rng.normal(size=(4, 4))
        cond = np.array([0.3, -0.7])
        out = reconstruct(x, cond, w)

        inp = np.stack([x, np.full((4, 4), cond[0]), np.full((4, 4), cond[1])])
        skip = np.maximum(_conv_loops(inp, w["enc0_w"], w["enc0_b"]), 0.0)
        pooled = np.zeros((2, 2, 2))
        for c in range(2):
            for i in range(2):
                for j in range(2):
                    pooled[c, i, j] = skip[c, 2 * i:2 * i + 2, 2 * j:2 * j + 2].max()
        mu = w["mu_w"] @ pooled.reshape(-1) + w["mu_b"]
        zc = np.concatenate([mu, cond])
        g = w["dec_dense_w"] @ zc + w["dec_dense_b"]
        deep = np.maximum(g.reshape(2, 2, 2), 0.0)
        up = np.zeros((2, 4, 4))
        for c in range(2):
            for i in range(4):
                for j in range(4):
                    up[c, i, j] = deep[c, i // 2, j // 2]
        cat = np.concatenate([up, skip], axis=0)
        expected = _conv_loops(cat, w["dec0_w"], w["dec0_b"])
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)

    def test_latent_length_rejected(self):
        with pytest.raises(ShapeError):
            forward(np.zeros((1, 8, 8)), COND, init_weights(ARCH, 0), eps=np.zeros(4))


class TestReconstruct:
    def test_zero_weights_zero_output(self):
        x = np.random.default_rng(5).normal(size=(1, 8, 8))
        np.testing.assert_array_equal(reconstruct(x, COND, zero_weights(ARCH)),
                                      np.zeros((1, 8, 8)))

    def test_bit_identical_repeats(self):
        w = init_weights(ARCH, 13)
        x = np.random.default_rng(6).normal(size=(1, 8, 8))
        np.testing.assert_array_equal(reconstruct(x, COND, w),
                                      reconstruct(x, COND, w))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixel_is_data_error(self, bad):
        """Refused before any arithmetic, so with no RuntimeWarning."""
        x = np.zeros((2, 8, 8))
        x[1, 3, 4] = bad
        with pytest.raises(DataError, match="non-finite pixel"):
            reconstruct(x, np.zeros((2, 2)), init_weights(ARCH, 0))


class TestElboLoss:
    """The latent head's KL term and the training loss, by hand values."""

    def test_perfect_fit_is_zero(self):
        # zero weights reconstruct zero with mu = logvar = 0
        w, x = zero_weights(ARCH), np.zeros((1, 8, 8))
        _, layers = forward(x, COND, w)
        assert _head(layers).kl() == 0.0
        assert evaluate_loss(x, COND, w) == 0.0

    def test_unit_mean_costs_half(self):
        w = zero_weights(ARCH)
        w.params["mu_b"] = np.array([1.0, 0.0, 0.0])
        x = np.zeros((1, 8, 8))
        _, layers = forward(x, COND, w)
        assert _head(layers).kl() == 0.5
        assert evaluate_loss(x, COND, w) == 0.5

    def test_single_pixel_error_costs_half(self):
        x = np.zeros((1, 8, 8))
        x[0, 2, 5] = 1.0
        assert evaluate_loss(x, COND, zero_weights(ARCH)) == 0.5

    def test_decomposes_into_kl_plus_residual(self):
        rng = np.random.default_rng(8)
        w = init_weights(ARCH, 8)
        for name in ("mu_b", "logvar_b", "dec_dense_b", "dec0_b"):
            w.params[name] = rng.normal(size=w.params[name].shape)
        x = rng.normal(size=(3, 8, 8))
        cond = rng.normal(size=(3, 2))
        recon, layers = forward(x, cond, w)
        mu, logvar = _head(layers).mu, _head(layers).logvar
        kl = 0.5 * np.sum(mu ** 2 + np.exp(logvar) - 1.0 - logvar)
        assert _head(layers).kl() == pytest.approx(kl, rel=1e-12)
        expected = kl + 0.5 * np.sum((x - recon) ** 2)
        assert evaluate_loss(x, cond, w) == pytest.approx(expected, rel=1e-12)
