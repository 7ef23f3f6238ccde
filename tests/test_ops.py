"""Layer contracts: convolution, relu, pooling, upsampling, on batches laid
out channels-last (B, H, W, C)."""

import numpy as np
import pytest

from siad.errors import ShapeError
from siad.model import ArchitectureSpec, ModelWeights, init_weights
from siad.ops import Conv, MaxPool2, Relu, UpConv


def _conv(kernel, bias):
    """A conv layer bound to ``kernel`` (O, C, k, k) and ``bias`` (O,)."""
    c_out, c_in, k, _ = kernel.shape
    layer = Conv("c", c_in, c_out, k)
    layer.bind({"c_w": kernel, "c_b": bias})
    return layer


def _upsampler(x_shape):
    """An upsample + skip-concat + 1x1 conv layer whose conv copies the
    upsampled channels and drops the (zero) skip: its output is the
    nearest-neighbour upsampling of an input of ``x_shape``."""
    b, h, w, c = x_shape
    skip = Relu()
    skip.forward(np.zeros((b, 2 * h, 2 * w, c)))
    layer = UpConv("u", 2 * c, c, 1, skip)
    kernel = np.zeros((c, 2 * c, 1, 1))
    kernel[np.arange(c), np.arange(c)] = 1.0
    layer.bind({"u_w": kernel, "u_b": np.zeros(c)})
    return layer


def _mismatched(name, shape):
    """Weights of a small spec with one array replaced by zeros of ``shape``."""
    w = init_weights(ArchitectureSpec(side=4, channels=(2,), latent_dim=2), 0)
    params = dict(w.params)
    params[name] = np.zeros(shape)
    return w.arch, params


class TestConv2d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 5, 5, 1))
        out = _conv(np.ones((1, 1, 1, 1)), np.zeros(1)).forward(x)
        np.testing.assert_array_equal(out, x)

    def test_ones_kernel_on_constant_image(self):
        c = 3.5
        x = np.full((1, 6, 6, 1), c)
        out = _conv(np.ones((1, 1, 3, 3)), np.zeros(1)).forward(x)[0, :, :, 0]
        # interior pixels see all 9 neighbours, corners only 4
        assert out[2, 2] == pytest.approx(9 * c)
        assert out[0, 0] == pytest.approx(4 * c)
        assert out[0, 5] == pytest.approx(4 * c)
        assert out[5, 0] == pytest.approx(4 * c)
        assert out[0, 2] == pytest.approx(6 * c)  # edge, 6 neighbours

    def test_homogeneity_without_bias(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 4, 4, 2))
        conv = _conv(rng.normal(size=(3, 2, 3, 3)), np.zeros(3))
        alpha = 2.5
        np.testing.assert_allclose(conv.forward(alpha * x), alpha * conv.forward(x),
                                   rtol=1e-12)

    def test_additivity_without_bias(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 4, 4, 2))
        y = rng.normal(size=(2, 4, 4, 2))
        conv = _conv(rng.normal(size=(3, 2, 3, 3)), np.zeros(3))
        np.testing.assert_allclose(conv.forward(x + y), conv.forward(x) + conv.forward(y),
                                   atol=1e-12)

    def test_channel_mismatch_rejected(self):
        # kernels reach a conv layer only through ModelWeights, which checks
        # each one against the shapes the layer list declares
        with pytest.raises(ShapeError):
            ModelWeights(*_mismatched("enc0_w", (2, 2, 3, 3)))

    def test_even_kernel_rejected(self):
        with pytest.raises(ShapeError):
            ModelWeights(*_mismatched("dec0_w", (1, 4, 2, 2)))
        with pytest.raises(ShapeError):
            ArchitectureSpec(side=4, channels=(2,), kernel_size=2)

    def test_bias_shape_rejected(self):
        with pytest.raises(ShapeError):
            ModelWeights(*_mismatched("enc0_b", (3,)))

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 4, 4, 2))
        kernel = rng.normal(size=(3, 2, 3, 3))
        bias = rng.normal(size=3)
        target = rng.normal(size=(2, 4, 4, 3))

        def loss(xx, kk, bb):
            return 0.5 * np.sum((_conv(kk, bb).forward(xx) - target) ** 2)

        conv = _conv(kernel, bias)
        gx = conv.backward(conv.forward(x) - target)
        gk, gb = conv.grads["c_w"], conv.grads["c_b"]
        h = 1e-6
        for arr, grad in ((x, gx), (kernel, gk), (bias, gb)):
            flat = arr.reshape(-1)
            for idx in [0, flat.size // 2, flat.size - 1]:
                orig = flat[idx]
                flat[idx] = orig + h
                up = loss(x, kernel, bias)
                flat[idx] = orig - h
                down = loss(x, kernel, bias)
                flat[idx] = orig
                fd = (up - down) / (2 * h)
                assert np.asarray(grad).reshape(-1)[idx] == pytest.approx(
                    fd, rel=1e-5, abs=1e-8)


class TestRelu:
    def test_basic_values(self):
        np.testing.assert_array_equal(Relu().forward(np.array([-1.0, 0.0, 2.0])),
                                      np.array([0.0, 0.0, 2.0]))

    def test_nonnegative_unchanged(self):
        x = np.array([[0.0, 1.0], [3.5, 2.0]])
        np.testing.assert_array_equal(Relu().forward(x), x)

    def test_idempotent(self):
        x = np.random.default_rng(4).normal(size=(1, 5, 5, 3))
        once = Relu().forward(x)
        np.testing.assert_array_equal(Relu().forward(once), once)

    def test_backward_masks_nonpositive(self):
        relu = Relu()
        relu.forward(np.array([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(relu.backward(np.array([10.0, 10.0, 10.0])),
                                      [0.0, 0.0, 10.0])


class TestMaxpool2:
    def test_single_window(self):
        pool = MaxPool2()
        pooled = pool.forward(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 2, 1))
        assert pooled[0, 0, 0, 0] == 4.0
        assert pool.win[0, 0, 0, 0] == 3  # bottom-right in row-major window order

    def test_constant_image_tie_breaks_top_left(self):
        pool = MaxPool2()
        pooled = pool.forward(np.full((1, 4, 4, 2), 7.0))
        np.testing.assert_array_equal(pooled, np.full((1, 2, 2, 2), 7.0))
        np.testing.assert_array_equal(pool.win, np.zeros((1, 2, 2, 2), dtype=int))

    def test_matches_bruteforce_windows(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 4, 4, 3))
        pooled = MaxPool2().forward(x)
        for b in range(2):
            for c in range(3):
                for i in range(2):
                    for j in range(2):
                        window = x[b, 2 * i:2 * i + 2, 2 * j:2 * j + 2, c]
                        assert pooled[b, i, j, c] == window.max()

    def test_odd_extent_rejected(self):
        # a pool sees odd extents only if the spec's side is not divisible
        # by 2 per block, and the spec rejects that
        with pytest.raises(ShapeError):
            ArchitectureSpec(side=6, channels=(4, 8))

    def test_backward_routes_to_argmax(self):
        pool = MaxPool2()
        pool.forward(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 2, 1))
        grad = pool.backward(np.full((1, 1, 1, 1), 5.0))
        np.testing.assert_array_equal(grad[0, :, :, 0], [[0.0, 0.0], [0.0, 5.0]])


class TestUpsampleNearest:
    def test_single_pixel(self):
        x = np.full((1, 1, 1, 1), 5.0)
        out = _upsampler(x.shape).forward(x)
        np.testing.assert_array_equal(out, np.full((1, 2, 2, 1), 5.0))

    def test_homogeneous(self):
        x = np.random.default_rng(6).normal(size=(1, 3, 3, 2))
        up = _upsampler(x.shape)
        np.testing.assert_array_equal(up.forward(2.0 * x), 2.0 * up.forward(x))

    def test_additive(self):
        rng = np.random.default_rng(9)
        x, y = rng.normal(size=(1, 3, 3, 2)), rng.normal(size=(1, 3, 3, 2))
        up = _upsampler(x.shape)
        np.testing.assert_array_equal(up.forward(x + y), up.forward(x) + up.forward(y))

    def test_maxpool_roundtrip_identity(self):
        x = np.random.default_rng(7).normal(size=(2, 3, 3, 2))
        np.testing.assert_array_equal(MaxPool2().forward(_upsampler(x.shape).forward(x)), x)

    def test_backward_is_adjoint(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(1, 3, 3, 2))
        y = rng.normal(size=(1, 6, 6, 2))
        up = _upsampler(x.shape)
        lhs = np.sum(up.forward(x) * y)
        rhs = np.sum(x * up.backward(y))
        assert lhs == pytest.approx(rhs, rel=1e-12)
