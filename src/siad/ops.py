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
* ``affine(pair, z_probe, changed)`` runs on the values ``off + slope*z``
  along a line, stacked as a batch of two rows (offset, slope), and
  returns the output pair and the nearest ``z > z_probe`` at which the
  pattern changes (inf for a linear layer).  `Relu` and `MaxPool2` choose
  the pattern at ``z_probe``, resolving exact zeros and ties by slope so
  it holds just to its right.  ``changed`` is the region of the pair that
  changed since the layer's last pass, and the pass leaves the region of
  its output that changed in the layer's ``changed`` (see below).

Biases and conditions enter the first ``len(cond)`` rows of a batch (every
row if none are bound): all B rows of B images, the offset row of a pair.

A layer is built from its place in the architecture (names and sizes, which
give its weight ``shapes``) and then bound to weights with ``bind``, which
lays each kernel out once as (C_in, k, k, C_out).  A "same" convolution is
the sum over kernel offsets s of shift_s(x) @ K_s, computed as one GEMM
along its narrower channel side:

* with fewer input than output channels, the input is padded into a
  channel-major (C_in, B, H+2p, W+2p) copy, its k*k windows are gathered
  from that (a strided view and one copy whose innermost loop runs along
  image rows) and multiplied by the kernel as a (C_in*k*k, C_out) matrix;
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
grid before the shifted sum.

A changed region is a pair of slices (rows, columns) of a map, over all
channels: `WHOLE` for every pixel, None for none.  An affine pass given
`WHOLE`, or on a map of fewer than `LOCAL_MIN` values a row, is a whole
pass; otherwise it is local and recomputes, in the output it kept, only
what the region reaches:

* a convolution, the output pixels whose windows read the region,
  computed on the crop of the input they read (`_patch`);
* a relu or pool, the units in the region and those whose crossing the
  probe reached: both run one unit pass (`_unit_pass`), whose whole pass
  too keeps every unit's crossing, so a pass only takes their minimum;
* the decoder's `UpConv` keeps the convolution of each half and recomputes
  only the half whose input changed (the pair, or the skip relu's output),
  and only its patch.

The latent head's pass is always whole: its dense maps spread any change
over the whole map.

A pool hands on None when no winner moved and no winner's value changed,
which tells a line's plan that the stages reading it need not rerun; on a
small map, whose passes are whole, it learns that by comparing its output
with the one it last returned, bit for bit (so 0.0 is not -0.0).

Local results equal a whole pass's to rounding, not bit for bit: the
elementwise relu and pool work is the same, but a GEMM over a few rows
may round differently from the one over every row.  Maps of the desk
architecture hold at most 16 x 16 x 8 = 2,048 values a row and keep
whole passes, and their bits; there, numpy's call overhead makes a local
pass no faster.  Measured on one core, a relu local pass after one
changed pixel costs about as much as a whole pass at 2,048 values a row,
1.3-1.8x less at 4,096 and 2.3-3.3x less at 8,192 (a pool's 1.7-1.9x
and 2.7-2.9x); the paper architecture's maps hold at least
10 x 10 x 128 = 12,800.

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

    # affine passes that recomputed only a changed region (each half of a
    # decoder conv counts as one)
    local_runs = 0

    def bind(self, params, cond=None, eps=None):
        """Takes the layer's weights from ``params`` (and, for the latent
        head, the condition rows and latent draws of the pass)."""


WHOLE = (slice(None), slice(None))  # the changed region "every pixel"
LOCAL_MIN = 4096  # values a row from which a map's reruns go local


def _large(pair):
    """Whether a map holds enough values a row for local reruns to pay."""
    return pair.size >= LOCAL_MIN * len(pair)


def _union(a, b):
    """The smallest region holding regions ``a`` and ``b`` (None: nothing)."""
    if a is None or b is WHOLE:
        return b
    if b is None or a is WHOLE:
        return a
    return tuple(slice(min(s.start, t.start), max(s.stop, t.stop)) for s, t in zip(a, b))


def _grow(region, p, h, w, scale=1):
    """The pixels of an h x w "same" convolution of reach ``p`` that read
    ``region`` of its input, upsampled ``scale`` times."""
    rows, cols = region
    return (slice(max(scale * rows.start - p, 0), min(scale * rows.stop + p, h)),
            slice(max(scale * cols.start - p, 0), min(scale * cols.stop + p, w)))


def _patch(conv, x, region, p, scale=1):
    """``conv(x)[:, rows, cols]`` for ``region = (rows, cols)``, where
    ``conv`` is a "same" convolution of reach ``p`` of ``x`` upsampled
    ``scale`` times, computed on the crop of ``x`` that the region reads
    (its zero padding is the map's only where the crop meets its edge)."""
    (rows, cols), (h, w) = region, x.shape[1:3]
    r0, c0 = max((rows.start - p) // scale, 0), max((cols.start - p) // scale, 0)
    r1, c1 = min(-(-(rows.stop + p) // scale), h), min(-(-(cols.stop + p) // scale), w)
    out = conv(x[:, r0:r1, c0:c1])
    return out[:, rows.start - scale * r0:rows.stop - scale * r0,
               cols.start - scale * c0:cols.stop - scale * c0]


def _region_of(units, shape):
    """The smallest region holding the flat units ``units`` of a (H, W, C)
    map, None for no units."""
    if units.size == 0:
        return None
    _, w, c = shape
    rows, cols = units // (w * c), units // c % w
    return slice(rows.min(), rows.max() + 1), slice(cols.min(), cols.max() + 1)


def _differ(a, b):
    """Per unit of two (offset, slope) pairs, whether their bits differ (so
    0.0 differs from -0.0)."""
    return (a.view(np.int64) != b.view(np.int64)).any(axis=0)


def _pad(x, p):
    """``x`` zero-padded by ``p`` pixels on each side of both image axes."""
    b, h, w, c = x.shape
    padded = np.zeros((b, h + 2 * p, w + 2 * p, c))
    padded[:, p:p + h, p:p + w] = x
    return padded


def _view(arr, shape, strides, offset=0):
    """A strided view of the contiguous array ``arr``."""
    return np.ndarray(shape, arr.dtype, arr, offset, strides)


def _pad_channel_major(x, p):
    """``x`` (B, H, W, C) zero-padded by ``p`` pixels on each side of both
    image axes, laid out channel-major: (C, B, H+2p, W+2p)."""
    b, h, w, c = x.shape
    padded = np.zeros((c, b, h + 2 * p, w + 2 * p))
    padded[:, :, p:p + h, p:p + w] = x.transpose(3, 0, 1, 2)
    return padded


def _taps(padded, k, h, w, step=1):
    """The k x k window at each of h x w positions ``step`` pixels apart in
    each image of ``padded`` (contiguous, channel-major (C, B, H', W')), one
    row per position: (B*h*w, C*k*k), ordered by channel, row offset, then
    column offset.  It is the transposed view of one contiguous
    (C*k*k, B*h*w) copy, whose innermost loop runs along image rows."""
    c, b = padded.shape[:2]
    sc, sb, sh, sw = padded.strides
    windows = _view(padded, (c, k, k, b, h, w), (sc, sh, sw, sb, step * sh, step * sw))
    return windows.reshape(c * k * k, b * h * w).T


def _shift_sum(planes, h, w):
    """The sum of each kernel offset's product plane, shifted by that
    offset: (B, h, w, C_out) from ``planes`` (B, h+k-1, w+k-1, k*k*C_out).

    The shifted planes are one strided (B, h, w, k, k, C_out) view of
    ``planes``, summed over the two offset axes in one reduction.
    """
    b, hp, _, n = planes.shape
    k = hp - h + 1
    c_out = n // (k * k)
    sb, sh, sw, sn = planes.strides
    shifted = _view(planes, (b, h, w, k, k, c_out),
                    (sb, sh, sw, sh + k * c_out * sn, sw + c_out * sn, sn))
    return shifted.sum(axis=(3, 4))


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
    if c_in < c_out:
        taps = _taps(_pad_channel_major(x, k // 2), k, h, w)
        out = (taps @ kmat.reshape(-1, c_out)).reshape(b, h, w, c_out)
        out[:biased] += bias
        return out
    padded = _pad(x, k // 2)
    planes = padded.reshape(-1, c_in) @ kmat.reshape(c_in, -1)
    out = np.zeros((b, h, w, c_out))
    out[:biased] = bias
    out += _shift_sum(planes.reshape(padded.shape[:3] + (-1,)), h, w)
    return out


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
        grad_kmat = _taps(_pad_channel_major(x, k // 2), k, h, w).T @ grad.reshape(-1, c_out)
        return grad_kmat.reshape(kmat.shape), None
    grad_taps = _taps(_pad_channel_major(grad, k // 2), k, h, w)
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

    out = None  # the output pair ``affine`` last returned

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

    def _conv(self, x):
        return conv2d(x, self.kmat, self.bias, self.biased)

    def forward(self, x):
        self.x = x
        return self._conv(x)

    def affine(self, pair, z_probe, changed=WHOLE):
        """The convolution of the pair, kept in ``out``.  On a large map only
        the output pixels whose windows read the ``changed`` region of the
        pair are recomputed, and ``changed`` becomes those pixels.  Never a
        crossing."""
        self.out, self.changed = self._rerun(self.out, self._conv, pair, changed)
        return self.out, np.inf

    def _rerun(self, kept, conv, x, changed, scale=1):
        """(``conv(x)``, the region of it that changed) for a convolution
        ``conv`` by this layer's kernel size of ``x`` upsampled ``scale``
        times: a new array, or on a large ``x`` the ``kept`` one with the
        pixels that read the ``changed`` region recomputed in place, from
        the crop of ``x`` they read."""
        if changed is WHOLE or not _large(x):
            return conv(x), WHOLE
        self.local_runs += 1
        _, h, w, _ = x.shape
        p = self.kmat.shape[1] // 2
        region = _grow(changed, p, scale * h, scale * w, scale)
        kept[(slice(None),) + region] = _patch(conv, x, region, p, scale)
        return kept, region

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


def _unit_pass(layer, units, gather, reach, pair, z_probe, changed):
    """A relu's or pool's affine pass on a large map, which keeps each output
    unit's crossing (inf for none) in ``zc``.  ``units(inputs, z_probe)``
    gives the (outputs, crossings) of units from their inputs, ``gather(pair,
    flat)`` the inputs of the units at flat indices of an output image, and
    ``reach(pair, region)`` the output box an input region reaches, with
    that box's inputs.  A rerun recomputes, in place, the units whose
    crossing the probe reached and the box that ``changed`` reaches, and
    ``changed`` becomes the region of the outputs whose bits changed."""
    whole, out_changed = changed is WHOLE, None
    if whole:
        changed = slice(0, pair.shape[1]), slice(0, pair.shape[2])
    else:
        layer.local_runs += 1
        if layer.crossing <= z_probe:  # rerun the units whose crossing it reached
            reached = np.flatnonzero(layer.zc <= z_probe)
            at = reached + [[0], [layer.zc.size]]  # their flat indices in ``out``
            new, zc = units(gather(pair, reached), z_probe)
            out_changed = _region_of(reached[_differ(new, layer.out.take(at))], layer.zc.shape)
            layer.out.put(at, new)
            layer.zc.put(reached, zc)
    if changed is not None:
        box, inputs = reach(pair, changed)
        (rows, cols), (new, zc) = box, units(inputs, z_probe)
        new = new.reshape(2, rows.stop - rows.start, cols.stop - cols.start, -1)
        if whole:
            layer.out, layer.zc, out_changed = new, zc.reshape(new.shape[1:]), WHOLE
        else:
            at = (slice(None),) + box
            if _differ(new, layer.out[at]).any():
                out_changed = _union(out_changed, box)
            layer.out[at], layer.zc[box] = new, zc.reshape(new.shape[1:])
    layer.changed, layer.crossing = out_changed, _next_crossing(layer.zc, z_probe)
    return layer.out, layer.crossing


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

    def affine(self, pair, z_probe, changed=WHOLE):
        """A unit is on when its value at the probe is positive (an exact
        zero goes by the slope's sign).  On units with negative slope and
        off units with positive slope cross zero at -off/slope, which is
        computed at those units only.  A large map runs `_unit_pass`: a
        unit reads its own input, and a region reaches the same region."""
        if _large(pair):
            return _unit_pass(self, _relu_units, _relu_gather, _relu_reach,
                              pair, z_probe, changed)
        off, slope = pair
        gate, moving = _relu_pattern(off, slope, z_probe)
        moving = np.flatnonzero(moving)
        self.out, self.changed = pair * gate, WHOLE
        self.crossing = _next_crossing(-off.take(moving) / slope.take(moving), z_probe)
        return self.out, self.crossing


def _relu_gather(pair, units):
    return pair.take(units + [[0], [pair[0].size]])


def _relu_reach(pair, region):
    return region, pair[(slice(None),) + region]


def _relu_units(pair, z_probe):
    """(outputs, crossings) of relu units with (offset, slope) ``pair``: the
    crossing of a unit whose pattern holds for good is inf."""
    off, slope = pair
    gate, moving = _relu_pattern(off, slope, z_probe)
    moving = np.flatnonzero(moving)
    zc = np.full(off.size, np.inf)
    zc[moving] = -off.take(moving) / slope.take(moving)
    return pair * gate, zc


def _relu_pattern(off, slope, z_probe):
    """(gate, moving): whether each unit is on at the probe, and whether it
    is on and falling or off and rising."""
    v = off + slope * z_probe
    rising = slope > 0.0
    gate = (v > 0.0) | ((v == 0.0) & rising)
    return gate, (gate ^ rising) & (slope != 0.0)


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

    out = None  # the output pair ``affine`` last returned

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

    def affine(self, pair, z_probe, changed=WHOLE):
        """Ties at the probe go to the competitor that wins just to the right
        (largest slope, then smallest index).  A competitor with a larger
        slope than the winner overtakes it where their values meet.

        A small map's output equal bit for bit to the last one returned (so
        0.0 is not -0.0) is returned as that same array with ``changed``
        None, which tells a line's plan that the stages reading it need not
        rerun.  A large map runs `_unit_pass`, which learns that from the
        units it recomputed: a unit reads its window's four places, and a
        region reaches the units whose windows it meets."""
        if _large(pair):
            return _unit_pass(self, _pool_units, _pool_gather, _pool_reach,
                              pair, z_probe, changed)
        _, h, w, c = pair.shape
        pooled, zc, _ = _pool_pattern(_competitors(pair), z_probe)
        self.crossing = _next_crossing(zc, z_probe)
        if self.out is not None and pooled.tobytes() == self.out.tobytes():
            self.changed = None
            return self.out, self.crossing
        self.out, self.changed = pooled.reshape(2, h // 2, w // 2, c), WHOLE
        return self.out, self.crossing


def _pool_gather(pair, units):
    """The competitors (2, 4, len(units)) of the pooled units at the flat
    indices ``units``: the four places of their windows, as in `_competitors`."""
    _, h, w, c = pair.shape
    i, j, ch = np.unravel_index(units, (h // 2, w // 2, c))
    places = ((2 * i + [[0], [0], [1], [1]]) * w + 2 * j + [[0], [1], [0], [1]]) * c + ch
    return pair.take([places, places + pair[0].size])


def _pool_reach(pair, region):
    rows, cols = region
    r0, r1, c0, c1 = rows.start // 2, (rows.stop + 1) // 2, cols.start // 2, (cols.stop + 1) // 2
    return (slice(r0, r1), slice(c0, c1)), _competitors(pair[:, 2 * r0:2 * r1, 2 * c0:2 * c1])


def _pool_pattern(comp, z_probe):
    """(pooled, zc, overtaking) for the competitors ``comp`` (2, 4, n) of n
    pooled units: the winners' (offset, slope) pair (2, n) at the probe,
    and where the competitors that overtake their winner do so, at their
    flat indices ``overtaking`` into (4, n)."""
    off, slope = comp  # (4, n): competitors on axis 0
    n = off.shape[1]
    v = off + slope * z_probe
    at_max = v == v.max(axis=0)
    slope_if_max = np.where(at_max, slope, -np.inf)
    # the first winning row, without an argmax across the strided axis
    lose = ~(at_max & (slope_if_max == slope_if_max.max(axis=0)))
    win = lose[0] * (1 + lose[1] * (1 + lose[2]))
    pooled = comp.reshape(2, -1).take(win * n + np.arange(n), axis=1)
    ds = slope - pooled[1]
    overtaking = np.flatnonzero(ds > 0.0)
    return pooled, (pooled[0] - off).take(overtaking) / ds.take(overtaking), overtaking


def _pool_units(comp, z_probe):
    """(pooled, crossings) of the pooled units with competitors ``comp``:
    each unit's nearest crossing, inf for none."""
    pooled, zc, overtaking = _pool_pattern(comp, z_probe)
    full = np.full(comp[0].size, np.inf)
    full[overtaking] = zc
    return pooled, full.reshape(4, -1).min(axis=0)


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
        self.zc, g = self._decode(z)
        return g

    def _decode(self, z):
        """(the dense layer's input rows, its output map) for the latent
        codes ``z``: the codes, then the conditions."""
        latent = z.shape[1]
        zc = np.zeros((len(z), latent + self.cond.shape[1]))
        zc[:, :latent] = z
        zc[:self.biased, latent:] = self.cond
        g = self._linear(zc, self.dense_mat, self.dense_b)
        return zc, g.reshape(len(z), *self.map_shape).transpose(0, 2, 3, 1)

    def affine(self, pair, z_probe, changed=WHOLE):
        """The forward on the pair without the log-variance, which only the
        training loss reads.  Every output depends on every input, so any
        rerun changes the whole map.  Never a crossing."""
        flat = pair.transpose(0, 3, 1, 2).reshape(len(pair), -1)
        self.changed = WHOLE
        return self._decode(self._linear(flat, self.mu_mat, self.mu_b))[1], np.inf

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
    before the shifted sum.  Along a line, ``affine`` keeps each half, the
    skip half in ``skip_conv`` and the up half in ``up_conv``, and a pass
    recomputes only the half whose input changed, or only its changed
    patch; ``forward`` computes both and ``backward`` drops what either
    kept.
    """

    def __init__(self, name, c_in, c_out, k, skip: Relu):
        super().__init__(name, c_in, c_out, k)
        self.skip = skip
        self.c_up = c_in // 2

    def bind(self, params, cond=None, eps=None):
        super().bind(params, cond, eps)
        self.up_kmat, self.skip_kmat = self.kmat[:self.c_up], self.kmat[self.c_up:]
        self.x = self.up_conv = self.skip_in = self.skip_conv = None

    def _up(self, x):
        """The convolution of the upsampled ``x``: the shifted sum itself,
        never added into zeros (which would turn a -0.0 into 0.0)."""
        b, h, w, _ = x.shape
        p = self.kmat.shape[1] // 2
        prod = x.reshape(-1, self.c_up) @ self.up_kmat.reshape(self.c_up, -1)
        n = prod.shape[1]
        planes = np.zeros((b, 2 * h + 2 * p, 2 * w + 2 * p, n))
        sb, sh, sw, sn = planes.strides
        up = _view(planes, (b, h, 2, w, 2, n), (sb, 2 * sh, sh, 2 * sw, sw, sn),
                   p * (sh + sw))
        up[...] = prod.reshape(b, h, 1, w, 1, n)
        return _shift_sum(planes, 2 * h, 2 * w)

    def _skip_half(self, skip):
        return conv2d(skip, self.skip_kmat, self.bias, self.biased)

    def forward(self, x):
        self.x, self.skip_in = x, self.skip.out
        return self._skip_half(self.skip_in) + self._up(x)

    def affine(self, pair, z_probe, changed=WHOLE, skip_changed=WHOLE):
        """``changed`` is the region of the pair, and ``skip_changed`` that
        of the skip relu's output, that changed since the last pass (None:
        nothing).  The pass recomputes only the half whose input changed,
        and on a large input only the patch of that half the change
        reaches, in place (`Conv.affine`); ``changed`` becomes the region
        of the output whose halves changed.  Never a crossing."""
        up = skip = None
        if changed is not None:
            self.up_conv, up = self._rerun(self.up_conv, self._up, pair, changed, 2)
        if skip_changed is not None:
            self.skip_in = self.skip.out
            self.skip_conv, skip = self._rerun(self.skip_conv, self._skip_half,
                                               self.skip_in, skip_changed)
        self.changed = region = _union(up, skip)
        if region is WHOLE:
            self.out = self.skip_conv + self.up_conv
        elif region is not None:
            at = (slice(None),) + region
            self.out[at] = self.skip_conv[at] + self.up_conv[at]
        return self.out, np.inf

    def backward(self, grad):
        """The skip half's gradient is left in ``skip.skip_grad``.  The up
        half's windows of the padded output gradient are 2x2 box sums read
        at every other pixel: the adjoint of nearest upsampling."""
        self.skip.skip_grad, grad_skip, grad_bias = conv2d_backward(
            grad, self.skip_in, self.skip_kmat)
        _, h, w, _ = self.x.shape
        k = self.kmat.shape[1]
        g = _pad_channel_major(grad, k // 2)
        box = g[..., :-1, :-1] + g[..., 1:, :-1] + g[..., :-1, 1:] + g[..., 1:, 1:]
        box_taps = _taps(box, k, h, w, step=2)
        grad_up = _kernel_grad_from_taps(box_taps, self.x, self.up_kmat)
        self._set_grads(np.concatenate([grad_up, grad_skip]), grad_bias)
        grad_x = _input_grad_from_taps(box_taps, self.up_kmat, self.x.shape)
        self.x = self.up_conv = self.skip_in = self.skip_conv = None
        return grad_x
