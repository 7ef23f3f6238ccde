"""The detector's layers: the one place that does the network's arithmetic.

Every layer works on float64 arrays laid out channels-last with a leading
batch axis, ``(batch, height, width, channels)``.  Convolutions, the dense
latent head and nearest upsampling are linear (affine with their biases);
relu and 2x2 max pooling are piecewise linear, with a sign pattern and a
window-winner pattern.  Each layer has three passes, and for a fixed
pattern all three apply the same linear map; they differ only in how the
pattern is chosen:

* ``forward(x)`` chooses it from the values and keeps what ``backward``
  needs;
* ``backward(grad)`` uses the pattern of the last ``forward``, returns the
  gradient with respect to the layer's input, leaves the gradients of its
  weights in ``grads`` and drops what ``forward`` kept for it;
* ``affine(pair, z_probe)`` runs on the values ``off + slope*z`` along a
  line, stacked as a batch of two rows (offset, slope), and returns the
  output pair and the nearest ``z > z_probe`` at which the pattern changes.
  For a linear layer it is ``forward`` (crossing inf); only `Relu` and
  `MaxPool2` define their own, which choose the pattern at ``z_probe``,
  resolving exact zeros and ties by slope so it holds just to its right.

Biases and conditions enter the first ``len(cond)`` rows of a batch (every
row if none are bound): all B rows of B images, the offset row of a pair.

A layer is built from its place in the architecture (names and sizes, which
give its weight ``shapes``) and then bound to weights with ``bind``, which
lays each kernel out once as (C_in, k, k, C_out).  A "same" convolution is
the sum over kernel offsets s of shift_s(x) @ K_s, computed as one GEMM
along its narrower channel side:

* with fewer input than output channels, the k*k windows of the padded
  input are gathered (a strided view and one copy) and multiplied by the
  kernel as a (C_in*k*k, C_out) matrix;
* otherwise the padded input is multiplied by the kernel as a
  (C_in, k*k*C_out) matrix, and the k*k product planes are added, each
  shifted by its offset: the shifted planes are one strided
  (B, H, W, k, k, C_out) view of the product, summed in one reduction.

The input gradient is the convolution of the output gradient with the
kernel rotated 180 degrees and its channel axes swapped, so the same rule
picks its factoring; the kernel gradient multiplies the input against the
windows of whichever side is narrower.  The decoder's `UpConv` never builds
its upsample + skip concatenation: its output is the convolution of the
skip half (with the bias) plus that of the up half, which is one GEMM at
the input's resolution whose product planes are upsampled into the padded
grid before the shifted sum.  Its forward keeps the skip half's output
for as long as the skip relu's output is the same array, which along a
line spares it while only its upsampled input changes.

2x2 max pooling copies its input once into a competitor-major layout,
(B, 4, H/2*W/2*C): each of the four places of a window is one contiguous
block over the pooled units, so finding a window's winner is a reduction
over four rows and the winner is read by its flat index.  Along a line, a
relu computes its crossings -off/slope only at the units that will flip,
and a pool only at the competitors that overtake their winner.
"""

from __future__ import annotations

import numpy as np


class Layer:
    """A layer without weights; subclasses override what they need."""

    shapes = ()
    grads = {}

    def bind(self, params, cond=None, eps=None):
        """Takes the layer's weights from ``params`` (and, for the latent
        head, the condition rows and latent draws of the pass)."""

    def affine(self, pair, z_probe):
        """A linear layer's pass along a line: its forward, never a crossing."""
        return self.forward(pair), np.inf


def _pad(x, p):
    """``x`` zero-padded by ``p`` pixels on each side of both image axes."""
    b, h, w, c = x.shape
    padded = np.zeros((b, h + 2 * p, w + 2 * p, c))
    padded[:, p:p + h, p:p + w] = x
    return padded


def _view(arr, shape, strides, offset=0):
    """A strided view of the contiguous array ``arr``."""
    return np.ndarray(shape, arr.dtype, arr, offset, strides)


def _taps(padded, k, h, w, step=1):
    """The k x k window at each of h x w positions ``step`` pixels apart in
    each image of ``padded`` (contiguous), one row per position:
    (B*h*w, C*k*k), ordered by channel, row offset, then column offset."""
    b, c = len(padded), padded.shape[3]
    sb, sh, sw, sc = padded.strides
    windows = _view(padded, (b, h, w, c, k, k), (sb, step * sh, step * sw, sc, sh, sw))
    return windows.reshape(b * h * w, c * k * k)


def _shift_sum(planes, out):
    """Adds each kernel offset's product plane, shifted by that offset, into
    ``out`` (B, H, W, C_out); ``planes`` is (B, H+k-1, W+k-1, k*k*C_out).

    The shifted planes are one strided (B, H, W, k, k, C_out) view of
    ``planes``, summed over the two offset axes in one reduction.
    """
    b, h, w, c_out = out.shape
    k = planes.shape[1] - h + 1
    sb, sh, sw, sn = planes.strides
    shifted = _view(planes, (b, h, w, k, k, c_out),
                    (sb, sh, sw, sh + k * c_out * sn, sw + c_out * sn, sn))
    out += shifted.sum(axis=(3, 4))
    return out


def _flip(kmat):
    """The adjoint's kernel: rotated 180 degrees, channel axes swapped."""
    return np.ascontiguousarray(kmat[:, ::-1, ::-1].transpose(3, 1, 2, 0))


def conv2d(x, kmat, bias, biased):
    """Zero-padded "same" convolution (cross-correlation) of a batch.

    ``kmat`` is the kernel laid out (C_in, k, k, C_out); only the first
    ``biased`` rows of the batch get ``bias`` (every row for None).  The
    GEMM runs along the narrower channel side: with fewer input than output
    channels, one GEMM of the gathered k*k windows; otherwise one GEMM of
    the padded input against all k*k kernel offsets, whose product planes
    are summed shifted.
    """
    b, h, w, c_in = x.shape
    k, c_out = kmat.shape[1], kmat.shape[3]
    padded = _pad(x, k // 2)
    if c_in < c_out:
        out = (_taps(padded, k, h, w) @ kmat.reshape(-1, c_out)).reshape(b, h, w, c_out)
        out[:biased] += bias
        return out
    planes = padded.reshape(-1, c_in) @ kmat.reshape(c_in, -1)
    out = np.zeros((b, h, w, c_out))
    out[:biased] = bias
    return _shift_sum(planes.reshape(padded.shape[:3] + (-1,)), out)


def _input_grad_from_taps(grad_taps, kmat, shape):
    """Grad wrt the input (of ``shape``) of a convolution, given the k*k
    windows of its padded output gradient as `_taps` rows: the convolution
    of the output gradient with the flipped kernel."""
    return (grad_taps @ _flip(kmat).reshape(-1, kmat.shape[0])).reshape(shape)


def _kernel_grad_from_taps(grad_taps, x, kmat):
    """Grad wrt the kernel of a convolution of ``x``, given the same
    windows: the input against them, read with the offsets reversed."""
    c_in, k, _, c_out = kmat.shape
    flipped = (x.reshape(-1, c_in).T @ grad_taps).reshape(c_in, c_out, k, k)
    return flipped[:, :, ::-1, ::-1].transpose(0, 2, 3, 1)


def _kernel_grad(grad, x, kmat):
    """(grad wrt kernel, the windows of the padded output gradient or None)
    of `conv2d` on input ``x``: the windows of whichever side has fewer
    channels, multiplied against the other side."""
    b, h, w, c_out = grad.shape
    c_in, k = kmat.shape[:2]
    if c_in < c_out:
        grad_kmat = _taps(_pad(x, k // 2), k, h, w).T @ grad.reshape(-1, c_out)
        return grad_kmat.reshape(kmat.shape), None
    grad_taps = _taps(_pad(grad, k // 2), k, h, w)
    return _kernel_grad_from_taps(grad_taps, x, kmat), grad_taps


def conv2d_backward(grad, x, kmat):
    """Adjoint of `conv2d` on input ``x``: (grad wrt x, grad wrt kernel,
    grad wrt bias).

    The input gradient is ``conv2d`` of ``grad`` with the flipped kernel,
    unless the kernel gradient gathered the output gradient's windows,
    which then serve the input gradient too.
    """
    grad_kmat, grad_taps = _kernel_grad(grad, x, kmat)
    if grad_taps is None:
        grad_x = conv2d(grad, _flip(kmat), 0.0, 0)
    else:
        grad_x = _input_grad_from_taps(grad_taps, kmat, x.shape)
    return grad_x, grad_kmat, grad.sum(axis=(0, 1, 2))


class Conv(Layer):
    """Zero-padded "same" 2-D convolution with an odd square kernel."""

    def __init__(self, name, c_in, c_out, k):
        self.shapes = ((f"{name}_w", (c_out, c_in, k, k)), (f"{name}_b", (c_out,)))

    def bind(self, params, cond=None, eps=None):
        (w_name, _), (b_name, _) = self.shapes
        self.kmat = np.ascontiguousarray(params[w_name].transpose(1, 2, 3, 0))
        self.bias = params[b_name]
        self.biased = None if cond is None else len(cond)

    def _set_grads(self, grad_kmat, grad_bias):
        (w_name, _), (b_name, _) = self.shapes
        self.grads = {w_name: grad_kmat.transpose(3, 0, 1, 2), b_name: grad_bias}

    def forward(self, x):
        self.x = x
        return conv2d(x, self.kmat, self.bias, self.biased)

    def backward(self, grad):
        grad_x, grad_kmat, grad_bias = conv2d_backward(grad, self.x, self.kmat)
        self._set_grads(grad_kmat, grad_bias)
        self.x = None
        return grad_x


class InputConv(Conv):
    """The network's first convolution.  Nothing reads the gradient with
    respect to the network's input, so its backward leaves only the weight
    gradients and returns None."""

    def backward(self, grad):
        self._set_grads(_kernel_grad(grad, self.x, self.kmat)[0], grad.sum(axis=(0, 1, 2)))
        self.x = None


def _next_crossing(zc, z_probe):
    """The nearest pattern change at or beyond the probe.

    ``zc`` holds where the pattern chosen at the probe would change, at the
    units where it changes at all.  A change at or before the probe means
    rounding put the probe's value on the wrong side of a tie: the pattern
    is exact at the probe only, so the probe itself is returned and a line
    scan's next probe recomputes this layer.
    """
    return float(max(zc.min(initial=np.inf), z_probe))


class Relu(Layer):
    """max(v, 0) as a 0/1 gate.  An encoder relu whose output the decoder
    also reads (a skip) keeps that output in ``out`` and, in its own
    backward, adds the gradient the decoder left in ``skip_grad``, then
    drops it."""

    skip_grad = None

    def forward(self, x):
        self.gate = x > 0.0
        self.out = x * self.gate
        return self.out

    def backward(self, grad):
        if self.skip_grad is not None:
            grad = grad + self.skip_grad
        grad = grad * self.gate
        self.skip_grad = self.gate = self.out = None
        return grad

    def affine(self, pair, z_probe):
        """A unit is on when its value at the probe is positive (an exact
        zero goes by the slope's sign).  On units with negative slope and
        off units with positive slope cross zero at -off/slope, which is
        computed at those units only."""
        off, slope = pair
        v = off + slope * z_probe
        rising = slope > 0.0
        gate = (v > 0.0) | ((v == 0.0) & rising)
        moving = np.flatnonzero((gate ^ rising) & (slope != 0.0))  # on falling, off rising
        self.out = pair * gate
        return self.out, _next_crossing(-off.take(moving) / slope.take(moving), z_probe)


def _competitors(x):
    """(B, H, W, C) -> (B, 4, H/2*W/2*C): the four places of each 2x2 window,
    in row-major order, each as one contiguous block over the pooled units
    (which keep their (H/2, W/2, C) order)."""
    b, h, w, c = x.shape
    return x.reshape(b, h // 2, 2, w // 2, 2, c).transpose(0, 2, 4, 1, 3, 5).reshape(b, 4, -1)


class MaxPool2(Layer):
    """2x2 non-overlapping max pooling; the pattern is each window's winner.

    All three passes read the input in the competitor-major layout of
    `_competitors`, so a winner ``q`` of pooled unit ``u`` in row ``r`` is
    the flat element ``(4r + q) n + u`` (``n`` pooled units per row)."""

    def _flat(self):
        """The flat indices of the winners ``win`` of the last forward."""
        b, n = len(self.win), self.win[0].size
        return (self.win.reshape(b, n) + 4 * np.arange(b)[:, None]) * n + np.arange(n)

    def forward(self, x):
        """Ties go to the smallest row-major index (top-left first)."""
        b, h, w, c = self.in_shape = x.shape
        comp = _competitors(x)
        c0, c1, c2, c3 = comp.transpose(1, 0, 2)
        win = np.where(np.maximum(c2, c3) > np.maximum(c0, c1), 2 + (c3 > c2), c1 > c0)
        self.win = win.reshape(b, h // 2, w // 2, c)
        return comp.take(self._flat()).reshape(self.win.shape)

    def backward(self, grad):
        b, h, w, c = self.in_shape
        grad_comp = np.zeros((b, 2, 2, h // 2, w // 2, c))
        grad_comp.reshape(-1)[self._flat()] = grad.reshape(b, -1)
        self.win = None
        return grad_comp.transpose(0, 3, 1, 4, 2, 5).reshape(b, h, w, c)

    def affine(self, pair, z_probe):
        """Ties at the probe go to the competitor that wins just to the right
        (largest slope, then smallest index).  A competitor with a larger
        slope than the winner overtakes it where their values meet."""
        _, h, w, c = pair.shape
        comp = _competitors(pair)
        off, slope = comp  # (4, n): competitors on axis 0
        n = off.shape[1]
        v = off + slope * z_probe
        at_max = v == v.max(axis=0)
        slope_if_max = np.where(at_max, slope, -np.inf)
        win = (at_max & (slope_if_max == slope_if_max.max(axis=0))).argmax(axis=0)
        pooled = comp.reshape(2, -1).take(win * n + np.arange(n), axis=1)
        ds = slope - pooled[1]
        overtaking = np.flatnonzero(ds > 0.0)
        zc = (pooled[0] - off).take(overtaking) / ds.take(overtaking)
        return pooled.reshape(2, h // 2, w // 2, c), _next_crossing(zc, z_probe)


class LatentHead(Layer):
    """The latent mean and log-variance of the flattened deepest map, then
    the decoder's dense layer on the latent code and the conditions.

    Flattening follows the channels-first order of the dense weights.  With
    latent draws bound, the code is mu + exp(logvar/2) * eps (the training
    loss's reparameterization), else mu.  The loss's KL term depends only
    on this layer's mu and logvar, so the layer owns it: ``kl`` gives its
    value and ``backward`` adds its gradient.  The conditions and all three
    biases enter the first ``len(cond)`` rows.
    """

    def __init__(self, channels, deep, latent, cond_count):
        flat = channels * deep * deep
        self.map_shape = (channels, deep, deep)
        self.shapes = (("mu_w", (latent, flat)), ("mu_b", (latent,)),
                       ("logvar_w", (latent, flat)), ("logvar_b", (latent,)),
                       ("dec_dense_w", (flat, latent + cond_count)),
                       ("dec_dense_b", (flat,)))

    def bind(self, params, cond=None, eps=None):
        (self.mu_w, self.mu_b, self.logvar_w, self.logvar_b,
         self.dense_w, self.dense_b) = (params[name] for name, _ in self.shapes)
        self.mu_mat = np.ascontiguousarray(self.mu_w.T)
        self.logvar_mat = np.ascontiguousarray(self.logvar_w.T)
        self.dense_mat = np.ascontiguousarray(self.dense_w.T)
        self.cond, self.eps = cond, eps
        self.biased = len(cond)

    def _linear(self, x, mat, bias):
        """``x @ mat``, plus ``bias`` in the first ``len(cond)`` rows."""
        out = x @ mat
        out[:self.biased] += bias
        return out

    def forward(self, x):
        self.flat = x.transpose(0, 3, 1, 2).reshape(len(x), -1)
        self.mu = self._linear(self.flat, self.mu_mat, self.mu_b)
        self.logvar = self._linear(self.flat, self.logvar_mat, self.logvar_b)
        z = self.mu
        if self.eps is not None:
            z = self.mu + np.exp(0.5 * self.logvar) * self.eps
        latent = z.shape[1]
        self.zc = np.zeros((len(x), latent + self.cond.shape[1]))
        self.zc[:, :latent] = z
        self.zc[:self.biased, latent:] = self.cond
        g = self._linear(self.zc, self.dense_mat, self.dense_b)
        return g.reshape(len(x), *self.map_shape).transpose(0, 2, 3, 1)

    def kl(self):
        """Closed-form KL(q(z|x) || N(0, I)) of the last forward's diagonal
        Gaussian posterior, summed over its rows."""
        mu, logvar = self.mu, self.logvar
        return float(-0.5 * np.sum(1.0 + logvar - mu ** 2 - np.exp(logvar)))

    def backward(self, grad):
        b = len(grad)
        d_g = grad.transpose(0, 3, 1, 2).reshape(b, -1)
        d_z = (d_g @ self.dense_w)[:, :self.mu.shape[1]]
        d_mu = d_z + self.mu
        d_logvar = 0.5 * (np.exp(self.logvar) - 1.0)
        if self.eps is not None:
            d_logvar = d_z * self.eps * 0.5 * np.exp(0.5 * self.logvar) + d_logvar
        values = (d_mu.T @ self.flat, d_mu.sum(axis=0), d_logvar.T @ self.flat,
                  d_logvar.sum(axis=0), d_g.T @ self.zc, d_g.sum(axis=0))
        self.grads = {name: v for (name, _), v in zip(self.shapes, values)}
        self.flat = self.mu = self.logvar = self.zc = None
        d_flat = d_mu @ self.mu_w + d_logvar @ self.logvar_w
        return d_flat.reshape(b, *self.map_shape).transpose(0, 2, 3, 1)


class UpConv(Conv):
    """Nearest 2x upsampling of the input, concatenation with the output of
    the encoder relu ``skip`` (the two halves are equally wide), then a
    convolution.

    The concatenation is never built: the output is the convolution of the
    skip (with the bias) plus that of the upsampled input.  Upsampling
    commutes with the per-pixel GEMM, so the second is one GEMM at the input's
    resolution whose product planes are upsampled into the padded grid
    before the shifted sum.  The skip half's output (``skip_conv``) is kept
    and reused for as long as ``skip.out`` is the same array (``skip_in``),
    so along a line, where the pair changes far more often than the skip
    relu's output, most passes compute only the up half; ``backward``
    drops it.
    """

    def __init__(self, name, c_in, c_out, k, skip: Relu):
        super().__init__(name, c_in, c_out, k)
        self.skip = skip
        self.c_up = c_in // 2

    def bind(self, params, cond=None, eps=None):
        super().bind(params, cond, eps)
        self.up_kmat, self.skip_kmat = self.kmat[:self.c_up], self.kmat[self.c_up:]
        self.skip_in = self.skip_conv = None

    def _add_up(self, x, out):
        """``out`` plus the convolution of the upsampled ``x``."""
        b, h, w, _ = x.shape
        p = self.kmat.shape[1] // 2
        prod = x.reshape(-1, self.c_up) @ self.up_kmat.reshape(self.c_up, -1)
        n = prod.shape[1]
        planes = np.zeros((b, 2 * h + 2 * p, 2 * w + 2 * p, n))
        sb, sh, sw, sn = planes.strides
        up = _view(planes, (b, h, 2, w, 2, n), (sb, 2 * sh, sh, 2 * sw, sw, sn),
                   p * (sh + sw))
        up[...] = prod.reshape(b, h, 1, w, 1, n)
        return _shift_sum(planes, out)

    def forward(self, x):
        self.x = x
        if self.skip.out is not self.skip_in:
            self.skip_in = self.skip.out
            self.skip_conv = conv2d(self.skip_in, self.skip_kmat, self.bias, self.biased)
        return self._add_up(x, self.skip_conv.copy())

    def backward(self, grad):
        """The skip half's gradient is left in ``skip.skip_grad``.  The up
        half's windows of the padded output gradient are 2x2 box sums read
        at every other pixel: the adjoint of nearest upsampling."""
        self.skip.skip_grad, grad_skip, grad_bias = conv2d_backward(
            grad, self.skip_in, self.skip_kmat)
        _, h, w, _ = self.x.shape
        k = self.kmat.shape[1]
        g = _pad(grad, k // 2)
        box = g[:, :-1, :-1] + g[:, 1:, :-1] + g[:, :-1, 1:] + g[:, 1:, 1:]
        box_taps = _taps(box, k, h, w, step=2)
        grad_up = _kernel_grad_from_taps(box_taps, self.x, self.up_kmat)
        self._set_grads(np.concatenate([grad_up, grad_skip]), grad_bias)
        grad_x = _input_grad_from_taps(box_taps, self.up_kmat, self.x.shape)
        self.x = self.skip_in = self.skip_conv = None
        return grad_x
