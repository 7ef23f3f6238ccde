"""The detector's layers: the one place that does the network's arithmetic.

Every layer works on float64 arrays laid out channels-last with a leading
batch axis, ``(batch, height, width, channels)``.  Convolutions, the dense
latent head and nearest upsampling are linear (affine with their biases);
relu and 2x2 max pooling are piecewise linear, with a sign pattern and a
window-winner pattern.  Each layer has three methods, and for a fixed
pattern all three apply the same linear map; they differ only in how the
pattern is chosen:

* ``forward(x)`` chooses it from the values and keeps what ``backward``
  needs;
* ``backward(grad)`` uses the pattern of the last ``forward``, returns the
  gradient with respect to the layer's input, and leaves the gradients of
  its weights in ``grads``;
* ``affine(pair, z_probe)`` runs on the values ``off + slope*z`` along a
  line, stacked as a batch of two rows (offset, slope).  It chooses the
  pattern at ``z_probe``, resolving exact zeros and ties by slope so the
  pattern holds just to the right of the probe.  It returns the output pair
  and the nearest ``z > z_probe`` at which the pattern changes (inf for a
  linear layer).  Biases and conditions enter the offset row only.

A layer is built from its place in the architecture (names and sizes, which
give its weight ``shapes``) and then bound to weights with ``bind``.  A
convolution is one contiguous GEMM of the zero-padded input against the
kernel, laid out at ``bind`` as a (C_in, k*k*C_out) matrix, followed by
shifted adds of the product planes; no im2col gather is needed.
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


def conv2d(x, kmat, bias, biased):
    """Zero-padded "same" convolution (cross-correlation) of a batch.

    ``kmat`` is the kernel laid out (C_in, k, k, C_out); only the first
    ``biased`` rows of the batch get ``bias``.  Returns the output and the
    padded input.
    """
    b, h, w, c_in = x.shape
    k, c_out = kmat.shape[1], kmat.shape[3]
    pad = k // 2
    padded = np.zeros((b, h + 2 * pad, w + 2 * pad, c_in))
    padded[:, pad:pad + h, pad:pad + w, :] = x
    prod = (padded.reshape(-1, c_in) @ kmat.reshape(c_in, -1)).reshape(
        b, h + 2 * pad, w + 2 * pad, k * k, c_out)
    out = np.zeros((b, h, w, c_out))
    out[:biased] = bias
    for di in range(k):
        for dj in range(k):
            out += prod[:, di:di + h, dj:dj + w, di * k + dj, :]
    return out, padded


def conv2d_backward(grad, padded, kmat):
    """Adjoint of `conv2d`: (grad wrt input, grad wrt kmat, grad wrt bias).

    One GEMM per kernel offset for each of the two gradients, so no
    temporary is larger than the input.
    """
    b, h, w, c_out = grad.shape
    c_in, k = kmat.shape[:2]
    blocks = kmat.reshape(c_in, k * k, c_out)
    g2 = grad.reshape(-1, c_out)
    grad_padded = np.zeros_like(padded)
    grad_kmat = np.empty_like(blocks)
    for di in range(k):
        for dj in range(k):
            s = di * k + dj
            window = padded[:, di:di + h, dj:dj + w, :]
            grad_kmat[:, s, :] = window.reshape(-1, c_in).T @ g2
            grad_padded[:, di:di + h, dj:dj + w, :] += (g2 @ blocks[:, s, :].T).reshape(
                b, h, w, c_in)
    pad = k // 2
    return (grad_padded[:, pad:pad + h, pad:pad + w, :],
            grad_kmat.reshape(kmat.shape), grad.sum(axis=(0, 1, 2)))


class Conv(Layer):
    """Zero-padded "same" 2-D convolution with an odd square kernel."""

    def __init__(self, name, c_in, c_out, k):
        self.shapes = ((f"{name}_w", (c_out, c_in, k, k)), (f"{name}_b", (c_out,)))

    def bind(self, params, cond=None, eps=None):
        (w_name, _), (b_name, _) = self.shapes
        self.kmat = np.ascontiguousarray(params[w_name].transpose(1, 2, 3, 0))
        self.bias = params[b_name]

    def forward(self, x):
        out, self.padded = conv2d(x, self.kmat, self.bias, len(x))
        return out

    def backward(self, grad):
        grad_x, grad_kmat, grad_bias = conv2d_backward(grad, self.padded, self.kmat)
        (w_name, _), (b_name, _) = self.shapes
        self.grads = {w_name: grad_kmat.transpose(3, 0, 1, 2), b_name: grad_bias}
        return grad_x

    def affine(self, pair, z_probe):
        return conv2d(pair, self.kmat, self.bias, 1)[0], np.inf


def _next_crossing(zc, z_probe):
    """The nearest pattern change at or beyond the probe.

    ``zc`` holds, per unit, where the pattern chosen at the probe would
    change (inf where it never does).  A change at or before the probe
    means rounding put the probe's value on the wrong side of a tie: the
    pattern is exact at the probe only, so the probe itself is returned and
    a line scan's next probe recomputes this layer.
    """
    return float(max(zc.min(), z_probe))


class Relu(Layer):
    """max(v, 0) as a 0/1 gate.  An encoder relu whose output the decoder
    also reads (a skip) keeps that output in ``out`` and, before its own
    backward, adds the gradient the decoder left in ``skip_grad``."""

    skip_grad = None

    def forward(self, x):
        self.gate = x > 0.0
        self.out = x * self.gate
        return self.out

    def backward(self, grad):
        if self.skip_grad is not None:
            grad = grad + self.skip_grad
        return grad * self.gate

    def affine(self, pair, z_probe):
        """A unit is on when its value at the probe is positive (an exact
        zero goes by the slope's sign).  On units with negative slope and
        off units with positive slope cross zero at -off/slope."""
        off, slope = pair
        v = off + slope * z_probe
        gate = (v > 0.0) | ((v == 0.0) & (slope > 0.0))
        moving = np.where(gate, slope < 0.0, slope > 0.0)
        zc = np.where(moving, -off / np.where(moving, slope, 1.0), np.inf)
        self.out = pair * gate
        return self.out, _next_crossing(zc, z_probe)


def _windows(x):
    """(B, H, W, C) -> (B, H/2, W/2, 4, C): each 2x2 window, row-major, on axis 3."""
    b, h, w, c = x.shape
    return x.reshape(b, h // 2, 2, w // 2, 2, c).transpose(0, 1, 3, 2, 4, 5).reshape(
        b, h // 2, w // 2, 4, c)


class MaxPool2(Layer):
    """2x2 non-overlapping max pooling; the pattern is each window's winner."""

    def _pick(self, windows, win):
        return np.take_along_axis(windows, win[:, :, :, None, :], axis=3)[:, :, :, 0, :]

    def forward(self, x):
        """Ties go to the smallest row-major index (top-left first)."""
        windows = _windows(x)
        self.in_shape = x.shape
        self.win = windows.argmax(axis=3)
        return self._pick(windows, self.win)

    def backward(self, grad):
        b, h, w, c = self.in_shape
        grad_windows = np.zeros((b, h // 2, w // 2, 4, c))
        np.put_along_axis(grad_windows, self.win[:, :, :, None, :],
                          grad[:, :, :, None, :], axis=3)
        return grad_windows.reshape(b, h // 2, w // 2, 2, 2, c).transpose(
            0, 1, 3, 2, 4, 5).reshape(b, h, w, c)

    def affine(self, pair, z_probe):
        """Ties at the probe go to the competitor that wins just to the right
        (largest slope, then smallest index).  A competitor with a larger
        slope than the winner overtakes it where their values meet."""
        windows = _windows(pair)
        woff, wslope = windows  # (h/2, w/2, 4, c); competitors on axis 2
        v = woff + wslope * z_probe
        at_max = v == v.max(axis=2, keepdims=True)
        slope_if_max = np.where(at_max, wslope, -np.inf)
        best = at_max & (slope_if_max == slope_if_max.max(axis=2, keepdims=True))
        pooled = self._pick(windows, best.argmax(axis=2)[None])
        ds = wslope - pooled[1][:, :, None, :]
        overtaking = ds > 0.0
        zc = np.where(overtaking,
                      (pooled[0][:, :, None, :] - woff) / np.where(overtaking, ds, 1.0),
                      np.inf)
        return pooled, _next_crossing(zc, z_probe)


class LatentHead(Layer):
    """The latent mean and log-variance of the flattened deepest map, then
    the decoder's dense layer on the latent code and the conditions.

    Flattening follows the channels-first order of the dense weights.  With
    latent draws bound, the code is mu + exp(logvar/2) * eps (the training
    loss's reparameterization), else mu.  The loss's KL term depends only
    on this layer's outputs, so its backward adds the KL gradient.
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

    def _mean(self, x, biased):
        flat = x.transpose(0, 3, 1, 2).reshape(len(x), -1)
        mu = flat @ self.mu_mat
        mu[:biased] += self.mu_b
        return flat, mu

    def _dense(self, z, biased):
        latent = z.shape[1]
        zc = np.zeros((len(z), latent + self.cond.shape[1]))
        zc[:, :latent] = z
        zc[:biased, latent:] = self.cond
        g = zc @ self.dense_mat
        g[:biased] += self.dense_b
        return zc, g.reshape(len(z), *self.map_shape).transpose(0, 2, 3, 1)

    def forward(self, x):
        self.flat, self.mu = self._mean(x, len(x))
        self.logvar = self.flat @ self.logvar_mat + self.logvar_b
        z = self.mu
        if self.eps is not None:
            z = self.mu + np.exp(0.5 * self.logvar) * self.eps
        self.zc, g = self._dense(z, len(x))
        return g

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
        d_flat = d_mu @ self.mu_w + d_logvar @ self.logvar_w
        return d_flat.reshape(b, *self.map_shape).transpose(0, 2, 3, 1)

    def affine(self, pair, z_probe):
        _, mu = self._mean(pair, 1)
        return self._dense(mu, 1)[1], np.inf


class UpConv(Conv):
    """Nearest 2x upsampling, concatenation with the output of the encoder
    relu ``skip``, then a convolution."""

    def __init__(self, name, c_in, c_out, k, skip: Relu):
        super().__init__(name, c_in, c_out, k)
        self.skip = skip

    def _cat(self, x):
        up = np.repeat(np.repeat(x, 2, axis=1), 2, axis=2)
        return np.concatenate([up, self.skip.out], axis=3)

    def forward(self, x):
        return super().forward(self._cat(x))

    def backward(self, grad):
        d_cat = super().backward(grad)
        c_up = d_cat.shape[3] - self.skip.out.shape[3]
        self.skip.skip_grad = d_cat[..., c_up:]
        b, h, w, _ = d_cat.shape
        return d_cat[..., :c_up].reshape(b, h // 2, 2, w // 2, 2, c_up).sum(axis=(2, 4))

    def affine(self, pair, z_probe):
        return super().affine(self._cat(pair), z_probe)
