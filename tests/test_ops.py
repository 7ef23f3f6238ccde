"""Layer contracts: convolution, relu, pooling, upsampling, on batches laid
out channels-last (B, H, W, C)."""

import tracemalloc

import numpy as np
import pytest
from conftest import within_ulps

from siad.errors import ShapeError
from siad.model import ArchitectureSpec, ModelWeights, init_weights
from siad.ops import (LOCAL_MIN, WHOLE, Conv, LatentHead, MaxPool2, Relu, UpConv, _shift_sum,
                      conv2d, conv2d_backward)

# (c_in, c_out): fewer inputs than outputs, as many, more, and one output
CHANNEL_PAIRS = [(2, 5), (4, 4), (5, 2), (3, 1)]
ONE_ROW = np.zeros((1, 2))  # the one condition row of a line's offset/slope pair


def _conv(kernel, bias, cond=None):
    """A conv layer bound to ``kernel`` (O, C, k, k) and ``bias`` (O,)."""
    c_out, c_in, k, _ = kernel.shape
    layer = Conv("c", c_in, c_out, k)
    layer.bind({"c_w": kernel, "c_b": bias}, cond)
    return layer


def _reference_conv(x, kernel, bias, biased):
    """The convolution one kernel tap at a time: ``kernel`` (O, C, k, k)."""
    b, h, w, _ = x.shape
    k = kernel.shape[2]
    p = k // 2
    padded = np.pad(x, ((0, 0), (p, p), (p, p), (0, 0)))
    out = np.zeros((b, h, w, kernel.shape[0]))
    out[:biased] += bias
    for di in range(k):
        for dj in range(k):
            out += padded[:, di:di + h, dj:dj + w] @ kernel[:, :, di, dj].T
    return out


def _kmat(kernel):
    """(O, C, k, k) -> the (C, k, k, O) layout `conv2d` takes."""
    return np.ascontiguousarray(kernel.transpose(1, 2, 3, 0))


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


class TestConvFactorings:
    """Both GEMM factorings of `conv2d` and its adjoint, against references."""

    @pytest.mark.parametrize("c_in,c_out", CHANNEL_PAIRS)
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_matches_tap_loop(self, c_in, c_out, k, batch):
        rng = np.random.default_rng(10 * c_in + c_out + k)
        x = rng.normal(size=(batch, 6, 5, c_in))
        kernel = rng.normal(size=(c_out, c_in, k, k))
        bias = rng.normal(size=c_out)
        for biased in (0, 1, batch):
            np.testing.assert_allclose(conv2d(x, _kmat(kernel), bias, biased),
                                       _reference_conv(x, kernel, bias, biased),
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("c_in,c_out", CHANNEL_PAIRS)
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_adjoint_identity(self, c_in, c_out, k):
        """<conv(x), g> = <x, grad_x> = <kernel, grad_kernel> without bias."""
        rng = np.random.default_rng(c_in + 7 * c_out + k)
        x = rng.normal(size=(2, 5, 6, c_in))
        kmat = _kmat(rng.normal(size=(c_out, c_in, k, k)))
        g = rng.normal(size=(2, 5, 6, c_out))
        grad_x, grad_kmat, grad_bias = conv2d_backward(g, x, kmat)
        lhs = np.sum(conv2d(x, kmat, np.zeros(c_out), 0) * g)
        assert np.sum(x * grad_x) == pytest.approx(lhs, rel=1e-12)
        assert np.sum(kmat * grad_kmat) == pytest.approx(lhs, rel=1e-12)
        np.testing.assert_allclose(grad_bias, g.sum(axis=(0, 1, 2)), rtol=1e-13)

    @pytest.mark.parametrize("c_in,c_out", CHANNEL_PAIRS)
    def test_weight_gradients_match_finite_differences(self, c_in, c_out):
        rng = np.random.default_rng(20 + c_in + c_out)
        x = rng.normal(size=(2, 4, 5, c_in))
        kernel = rng.normal(size=(c_out, c_in, 3, 3))
        bias = rng.normal(size=c_out)
        target = rng.normal(size=(2, 4, 5, c_out))

        def loss():
            return 0.5 * np.sum((_conv(kernel, bias).forward(x) - target) ** 2)

        conv = _conv(kernel, bias)
        conv.backward(conv.forward(x) - target)
        h = 1e-6
        for arr, grad in ((kernel, conv.grads["c_w"]), (bias, conv.grads["c_b"])):
            flat = arr.reshape(-1)
            for idx in range(0, flat.size, max(1, flat.size // 7)):
                orig = flat[idx]
                flat[idx] = orig + h
                up = loss()
                flat[idx] = orig - h
                down = loss()
                flat[idx] = orig
                assert grad.reshape(-1)[idx] == pytest.approx((up - down) / (2 * h),
                                                              rel=1e-6, abs=1e-8)

    def test_peak_memory_below_the_product_planes(self):
        """With fewer inputs than outputs the conv gathers windows instead of
        building a (B, H+2, W+2, k*k, C_out) product."""
        rng = np.random.default_rng(11)
        x = rng.normal(size=(4, 32, 32, 3))
        kmat = _kmat(rng.normal(size=(32, 3, 3, 3)))
        bias = rng.normal(size=32)
        tracemalloc.start()
        try:
            conv2d(x, kmat, bias, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 34 * 34 * 9 * 32 * 8


def _decoder(rng, c, c_out, k, skip_shape, cond=None):
    """An UpConv reading a skip relu of ``skip_shape`` with random weights,
    the (O, 2c, k, k) kernel and the bias."""
    skip = Relu()
    skip.forward(rng.normal(size=skip_shape))
    layer = UpConv("u", 2 * c, c_out, k, skip)
    kernel = rng.normal(size=(c_out, 2 * c, k, k))
    bias = rng.normal(size=c_out)
    layer.bind({"u_w": kernel, "u_b": bias}, cond)
    return layer, kernel, bias


def _up_cat(x, skip_out):
    """Nearest 2x upsampling of ``x`` concatenated with the skip."""
    return np.concatenate([x.repeat(2, axis=1).repeat(2, axis=2), skip_out], axis=3)


class TestUpConv:
    """The decoder conv never builds the concatenation; the references do."""

    @pytest.mark.parametrize("c,c_out", [(3, 2), (2, 5), (4, 1)])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_forward_matches_upsample_concat_conv(self, c, c_out, k):
        rng = np.random.default_rng(30 + c + c_out + k)
        x = rng.normal(size=(3, 3, 4, c))
        layer, kernel, bias = _decoder(rng, c, c_out, k, (3, 6, 8, c))
        np.testing.assert_allclose(layer.forward(x),
                                   _reference_conv(_up_cat(x, layer.skip.out), kernel,
                                                   bias, 3),
                                   rtol=0, atol=1e-12)

    def test_affine_matches_reference_and_reuses_the_skip_half(self):
        """Each half is kept until its input changes: the skip half while
        the skip relu's output has not changed, the up half while the pair
        has not (their changed regions are None); either way the output is
        a fresh layer's, bit for bit."""
        rng = np.random.default_rng(40)
        layer, kernel, bias = _decoder(rng, 3, 2, 3, (2, 6, 8, 3), ONE_ROW)
        for step in range(6):
            changed = skip_changed = None
            if step in (2, 4, 5):  # the skip relu recomputes: a new output array
                layer.skip.affine(rng.normal(size=(2, 6, 8, 3)), 0.0)
            if step in (0, 2, 4, 5):
                skip_changed = WHOLE
            if step < 4:  # from step 4 on, only the skip relu reruns
                pair = rng.normal(size=(2, 3, 4, 3))
                changed = WHOLE
            up_conv = layer.up_conv
            out, crossing = layer.affine(pair, 0.0, changed, skip_changed)
            assert crossing == np.inf
            np.testing.assert_allclose(
                out, _reference_conv(_up_cat(pair, layer.skip.out), kernel, bias, 1),
                rtol=0, atol=1e-12)
            fresh = UpConv("u", 6, 2, 3, layer.skip)
            fresh.bind({"u_w": kernel, "u_b": bias}, ONE_ROW)
            _same_bits(out, fresh.affine(pair, 0.0)[0])
            assert layer.skip_in is layer.skip.out
            assert (layer.up_conv is up_conv) == (step >= 4)

    def test_backward_matches_finite_differences(self):
        """Gradients of the input, the skip relu's output (left in its
        ``skip_grad``), the kernel and the bias."""
        rng = np.random.default_rng(50)
        x = rng.normal(size=(2, 2, 3, 3))
        skip_in = np.abs(rng.normal(size=(2, 4, 6, 3))) + 0.5  # relu passes it
        target = rng.normal(size=(2, 4, 6, 2))
        layer, kernel, bias = _decoder(rng, 3, 2, 3, skip_in.shape)

        def loss():
            layer.skip.forward(skip_in)
            layer.bind({"u_w": kernel, "u_b": bias})
            return 0.5 * np.sum((layer.forward(x) - target) ** 2)

        loss()
        grad_x = layer.backward(layer.forward(x) - target)
        grads = [(x, grad_x), (skip_in, layer.skip.skip_grad),
                 (kernel, layer.grads["u_w"]), (bias, layer.grads["u_b"])]
        h = 1e-6
        for arr, grad in grads:
            assert grad.shape == arr.shape
            flat = arr.reshape(-1)
            for idx in range(0, flat.size, max(1, flat.size // 9)):
                orig = flat[idx]
                flat[idx] = orig + h
                up = loss()
                flat[idx] = orig - h
                down = loss()
                flat[idx] = orig
                assert grad.reshape(-1)[idx] == pytest.approx((up - down) / (2 * h),
                                                              rel=1e-6, abs=1e-8)


class TestBiasRows:
    """Bound with one condition row, a linear layer biases (and conditions)
    row 0 of a two-row batch only, as a line's offset/slope pair needs."""

    def test_conv(self):
        rng = np.random.default_rng(60)
        x = rng.normal(size=(2, 5, 4, 3))
        kernel, bias = rng.normal(size=(4, 3, 3, 3)), rng.normal(size=4)
        np.testing.assert_allclose(_conv(kernel, bias, ONE_ROW).forward(x),
                                   _reference_conv(x, kernel, bias, 1), rtol=0, atol=1e-12)

    def test_decoder_conv(self):
        rng = np.random.default_rng(61)
        x = rng.normal(size=(2, 3, 4, 3))
        layer, kernel, bias = _decoder(rng, 3, 2, 3, (2, 6, 8, 3), ONE_ROW)
        np.testing.assert_allclose(
            layer.forward(x), _reference_conv(_up_cat(x, layer.skip.out), kernel, bias, 1),
            rtol=0, atol=1e-12)

    def test_latent_head(self):
        rng = np.random.default_rng(62)
        head = LatentHead(3, 2, 4, 2)
        params = {name: rng.normal(size=shape) for name, shape in head.shapes}
        cond = rng.normal(size=(1, 2))
        head.bind(params, cond)
        x = rng.normal(size=(2, 2, 2, 3))
        out = head.forward(x)
        flat = x.transpose(0, 3, 1, 2).reshape(2, -1)
        mu = flat @ params["mu_w"].T + [params["mu_b"], np.zeros(4)]
        logvar = flat @ params["logvar_w"].T + [params["logvar_b"], np.zeros(4)]
        zc = np.concatenate([mu, [cond[0], np.zeros(2)]], axis=1)
        g = zc @ params["dec_dense_w"].T + [params["dec_dense_b"], np.zeros(12)]
        for got, want in ((head.mu, mu), (head.logvar, logvar),
                          (out, g.reshape(2, 3, 2, 2).transpose(0, 2, 3, 1))):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_latent_head_affine_is_its_forward(self):
        """Along a line the head skips the log-variance, which only the
        training loss reads; its output has the forward's bits."""
        rng = np.random.default_rng(63)
        head = LatentHead(3, 2, 4, 2)
        head.bind({name: rng.normal(size=shape) for name, shape in head.shapes},
                  rng.normal(size=(1, 2)))
        pair = rng.normal(size=(2, 2, 2, 3))
        out, crossing = head.affine(pair, 0.0)
        assert crossing == np.inf and head.changed is WHOLE
        _same_bits(out, head.forward(pair))


def _local_regions(rng, side):
    """Changed regions of a side x side map: one at a corner, then three
    random ones of one to four pixels a side."""
    yield slice(0, 2), slice(side - 3, side)
    for _ in range(3):
        (r0, c0), (h, w) = rng.integers(0, side, size=2), rng.integers(1, 5, size=2)
        yield slice(r0, min(r0 + h, side)), slice(c0, min(c0 + w, side))


def _changed_in(rng, arr, region):
    """A copy of ``arr`` with new values in ``region`` of its image axes."""
    arr = arr.copy()
    at = (slice(None),) + region
    arr[at] = rng.normal(size=arr[at].shape)
    return arr


def _same_outside(got, before, region):
    """``got`` keeps the bits of ``before`` outside ``region`` (None: all)."""
    keep = np.ones(got.shape[1:3], dtype=bool)
    if region is not None:
        keep[region] = False
    _same_bits(got[:, keep], before[:, keep])


class TestLocalRerun:
    """On a map of at least LOCAL_MIN values a row, an affine pass given the
    region of its input that changed recomputes only what that region
    reaches, in place, and leaves that output region in ``changed``.  Its
    output equals a whole pass's: relu and pooling bit for bit, the
    convolutions to a few ulps (a GEMM over fewer rows may round
    differently); outside ``changed`` it keeps its bits."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind", [Relu, MaxPool2])
    def test_relu_and_pool(self, kind, seed):
        """Each probe sits exactly on the previous crossing, so the units it
        reached rerun along with the changed region; the last probe
        changes no input."""
        rng = np.random.default_rng(seed)
        pair = rng.normal(size=(2, 16, 16, 32))
        assert pair[0].size >= LOCAL_MIN
        layer = kind()
        _, z = layer.affine(pair, 0.0)
        for region in list(_local_regions(rng, 16)) + [None]:
            before = layer.out.copy()
            if region is not None:
                pair = _changed_in(rng, pair, region)
            out, crossing = layer.affine(pair, z, region)
            want, want_crossing = kind().affine(pair, z)
            _same_bits(out, want)
            assert crossing == want_crossing
            _same_outside(out, before, layer.changed)
            z = crossing
        assert layer.local_runs == 5

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("c_in,c_out", [(16, 32), (32, 16)])
    def test_conv(self, c_in, c_out, seed):
        rng = np.random.default_rng(10 + seed)
        kernel, bias = rng.normal(size=(c_out, c_in, 3, 3)), rng.normal(size=c_out)
        conv = _conv(kernel, bias, ONE_ROW)
        pair = rng.normal(size=(2, 16, 16, c_in))
        conv.affine(pair, 0.0)
        for region in _local_regions(rng, 16):
            before = conv.out.copy()
            pair = _changed_in(rng, pair, region)
            out, _ = conv.affine(pair, 0.0, region)
            within_ulps(out, _conv(kernel, bias, ONE_ROW).forward(pair))
            _same_outside(out, before, conv.changed)
        assert conv.local_runs == 4

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("c_out", [1, 24])
    def test_decoder_conv_halves(self, c_out, seed):
        """The up half after a change of the pair, then the skip half after a
        change of the skip relu's output, each against a fresh layer."""
        rng = np.random.default_rng(20 + seed)
        layer, kernel, bias = _decoder(rng, 16, c_out, 3, (2, 32, 32, 16), ONE_ROW)
        pair = rng.normal(size=(2, 16, 16, 16))
        layer.affine(pair, 0.0)

        def check(before):
            fresh = UpConv("u", 32, c_out, 3, layer.skip)
            fresh.bind({"u_w": kernel, "u_b": bias}, ONE_ROW)
            within_ulps(out, fresh.affine(pair, 0.0)[0])
            _same_outside(out, before, layer.changed)

        for region in _local_regions(rng, 16):
            before = layer.out.copy()
            pair = _changed_in(rng, pair, region)
            out, _ = layer.affine(pair, 0.0, region, None)
            check(before)
        for region in _local_regions(rng, 32):
            before = layer.out.copy()
            layer.skip.out[:] = _changed_in(rng, layer.skip.out, region)
            out, _ = layer.affine(pair, 0.0, None, region)
            check(before)
        assert layer.local_runs == 8


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


# ------------------------------------------------- earlier kernels as oracles
# The relu, pooling and shifted-sum kernels as they were written before the
# pooling layout became competitor-major, the relu crossings were taken at
# moving units only and the shifted sum became one reduction.

def _reference_windows(x):
    """(B, H, W, C) -> (B, H/2, W/2, 4, C): each 2x2 window, row-major, on axis 3."""
    b, h, w, c = x.shape
    return x.reshape(b, h // 2, 2, w // 2, 2, c).transpose(0, 1, 3, 2, 4, 5).reshape(
        b, h // 2, w // 2, 4, c)


def _reference_pick(windows, win):
    return np.take_along_axis(windows, win[:, :, :, None, :], axis=3)[:, :, :, 0, :]


def _reference_crossing(zc, z_probe):
    return float(max(zc.min(), z_probe))


def _reference_relu_units(pair, z_probe):
    """(outputs, each unit's crossing)."""
    off, slope = pair
    v = off + slope * z_probe
    gate = (v > 0.0) | ((v == 0.0) & (slope > 0.0))
    moving = np.where(gate, slope < 0.0, slope > 0.0)
    zc = np.where(moving, -off / np.where(moving, slope, 1.0), np.inf)
    return pair * gate, zc


def _reference_relu_affine(pair, z_probe):
    out, zc = _reference_relu_units(pair, z_probe)
    return out, _reference_crossing(zc, z_probe)


def _reference_pool_forward(x):
    windows = _reference_windows(x)
    win = windows.argmax(axis=3)
    return _reference_pick(windows, win), win


def _reference_pool_backward(grad, win, in_shape):
    b, h, w, c = in_shape
    grad_windows = np.zeros((b, h // 2, w // 2, 4, c))
    np.put_along_axis(grad_windows, win[:, :, :, None, :], grad[:, :, :, None, :], axis=3)
    return grad_windows.reshape(b, h // 2, w // 2, 2, 2, c).transpose(
        0, 1, 3, 2, 4, 5).reshape(b, h, w, c)


def _reference_pool_units(pair, z_probe):
    """(pooled, each pooled unit's crossing)."""
    windows = _reference_windows(pair)
    woff, wslope = windows
    v = woff + wslope * z_probe
    at_max = v == v.max(axis=2, keepdims=True)
    slope_if_max = np.where(at_max, wslope, -np.inf)
    best = at_max & (slope_if_max == slope_if_max.max(axis=2, keepdims=True))
    pooled = _reference_pick(windows, best.argmax(axis=2)[None])
    ds = wslope - pooled[1][:, :, None, :]
    overtaking = ds > 0.0
    zc = np.where(overtaking,
                  (pooled[0][:, :, None, :] - woff) / np.where(overtaking, ds, 1.0),
                  np.inf)
    return pooled, zc.min(axis=2)


def _reference_pool_affine(pair, z_probe):
    pooled, zc = _reference_pool_units(pair, z_probe)
    return pooled, _reference_crossing(zc, z_probe)


def _reference_shift_sum(planes, out):
    _, h, w, c_out = out.shape
    k = planes.shape[1] - h + 1
    for di in range(k):
        for dj in range(k):
            s = (di * k + dj) * c_out
            out += planes[:, di:di + h, dj:dj + w, s:s + c_out]
    return out


TIE_PROBE = 0.5  # dyadic, so the value ties built for it hold exactly


def _awkward_pair(seed, rows=2, side=6, c=3):
    """(rows, side, side, c) values whose 2x2 windows are each one of: random
    values with exact zeros and zero slopes; four equal competitors (tied in
    value and slope); competitors tied in value at ``TIE_PROBE`` only, with
    different slopes; all zeros of either sign.  With two rows it is an
    (offset, slope) pair."""
    rng = np.random.default_rng(seed)
    windows = rng.normal(size=(rows, side // 2, side // 2, 4, c))
    # signed zeros, as a relu gives them, tell tied competitors apart
    zeros = np.where(rng.random(windows.shape) < 0.5, -0.0, 0.0)
    windows = np.where(rng.random(windows.shape) < 0.2, zeros, windows)
    kind = rng.integers(0, 4, size=(side // 2, side // 2, 1, c))
    windows = np.where(kind == 1, windows[:, :, :, :1], windows)
    if rows == 2:
        slopes = rng.integers(-3, 4, size=windows.shape[1:]) / 4.0
        level = rng.integers(-4, 5, size=(side // 2, side // 2, 1, c)) / 8.0
        tied = np.stack([level - slopes * TIE_PROBE, slopes])
        windows = np.where(kind == 2, tied, windows)
    windows = np.where(kind == 3, zeros, windows)
    return windows.reshape(rows, side // 2, side // 2, 2, 2, c).transpose(
        0, 1, 3, 2, 4, 5).reshape(rows, side, side, c)


def _probes(pair, reference):
    """Probes at the tie level, at random places, and exactly on the crossing
    the reference reports from an earlier probe."""
    probes = [TIE_PROBE, -1.3, 0.0, 2.0]
    for z in list(probes):
        crossing = reference(pair, z)[1]
        if np.isfinite(crossing):
            probes.append(crossing)
    return probes


def _same_bits(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _awkward_pairs(seed):
    """A small awkward pair and a large one (4,608 values a row), whose
    passes take the unit pass."""
    return _awkward_pair(seed), _awkward_pair(seed, side=24, c=8)


class TestKernelOracles:
    """The relu and pooling kernels reproduce the earlier ones bit for bit,
    and on a large map a whole pass keeps each unit's crossing in ``zc``;
    the shifted sum does from a zero output, and to rounding with a bias."""

    @pytest.mark.parametrize("seed", range(12))
    def test_relu_affine(self, seed):
        for pair in _awkward_pairs(seed):
            assert np.any(pair[0] == 0.0) and np.any(pair[1] == 0.0)
            for z in _probes(pair, _reference_relu_affine):
                relu = Relu()
                out, crossing = relu.affine(pair, z)
                want, want_zc = _reference_relu_units(pair, z)
                _same_bits(out, want)
                assert crossing == _reference_crossing(want_zc, z)
                if pair[0].size >= LOCAL_MIN:
                    _same_bits(relu.zc, want_zc)

    @pytest.mark.parametrize("seed", range(12))
    def test_pool_affine(self, seed):
        for pair in _awkward_pairs(seed):
            for z in _probes(pair, _reference_pool_affine):
                pool = MaxPool2()
                pooled, crossing = pool.affine(pair, z)
                want, want_zc = _reference_pool_units(pair, z)
                _same_bits(pooled, want)
                assert crossing == _reference_crossing(want_zc, z)
                if pair[0].size >= LOCAL_MIN:
                    _same_bits(pool.zc, want_zc)

    @pytest.mark.parametrize("seed", range(6))
    def test_pool_forward_and_backward(self, seed):
        x = _awkward_pair(seed, rows=3)
        pool = MaxPool2()
        pooled = pool.forward(x)
        want, win = _reference_pool_forward(x)
        _same_bits(pooled, want)
        np.testing.assert_array_equal(pool.win, win)
        grad = np.random.default_rng(seed).normal(size=pooled.shape)
        _same_bits(pool.backward(grad), _reference_pool_backward(grad, win, x.shape))

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("c_out", [1, 4])
    def test_shift_sum(self, k, c_out):
        rng = np.random.default_rng(60 + k + c_out)
        planes = rng.normal(size=(2, 4 + k - 1, 5 + k - 1, k * k * c_out))
        _same_bits(_shift_sum(planes, 4, 5),
                   _reference_shift_sum(planes, np.zeros((2, 4, 5, c_out))))
        biased = np.zeros((2, 4, 5, c_out)) + rng.normal(size=c_out)
        np.testing.assert_allclose(biased + _shift_sum(planes, 4, 5),
                                   _reference_shift_sum(planes, biased.copy()),
                                   rtol=0, atol=1e-12)

    def test_pool_crossing_rounded_before_the_probe(self):
        """Competitor 1 overtakes the winner where rounding puts the
        crossing just left of the probe; the probe itself is reported."""
        z = 4.327821974306458
        window = [(-0.8332813138220689, -2.661140627233907),
                  (-3.241979120420866, -2.104579423723498),
                  (-10.0, -2.661140627233907), (-10.0, -2.661140627233907)]
        pair = np.array(window).T.reshape(2, 2, 2, 1)
        want, want_crossing = _reference_pool_affine(pair, z)
        assert want_crossing == z
        pooled, crossing = MaxPool2().affine(pair, z)
        _same_bits(pooled, want)
        assert crossing == z
