"""Exact piecewise-linear decomposition of the detector along a line.

For a fixed set of weights the reconstruction map is piecewise linear in the
image, so along any 1-D affine family ``x(z) = a + b*z`` it is piecewise
linear in ``z``.  This module walks the window left to right.  At each step
it fixes the relu sign pattern and every maxpool argmax at a probe point
just inside the current piece, carries exact affine coefficients
``value(z) = off + slope*z`` through the network, and takes the earliest
``z`` at which any relu flips sign or any pooling window changes winner.
That crossing ends the piece and starts the next one.

The forward pass is an ordered list of stages (each conv, relu and maxpool
of the encoder, the latent head, the dense relu, each decoder
upsample+concat+conv and each decoder relu), and the plan for a line keeps
every stage's output and crossing from the previous probe.  A stage's
output depends only on its inputs and on the pattern it fixes at the probe,
and that pattern is the same at every ``z`` between the previous probe and
the stage's crossing.  So a probe to the right of the previous one restarts
at the first stage whose crossing it has reached and reuses every stage
before it: the reused arrays are the ones a recomputation would give (the
tests compare them bit for bit), and the pieces do not change.
A probe to the left of the previous one recomputes every stage that
depends on ``z``.  A breakpoint flips the pattern of one layer, so a piece
costs only the stages downstream of that layer.

Crossings closer than ``progress_tol`` to the probe are skipped so the scan
always advances; the induced value error is bounded by the layer slopes
times ``progress_tol`` and stays far below the 1e-9 agreement tolerance the
tests enforce.

The scan runs once per piece and pieces number in the thousands, so the
helpers here are written to minimize numpy call overhead: offset and slope
planes travel together as one stacked channels-last array, and each
convolution is one contiguous GEMM against a kernel matrix precomputed per
line, followed by shifted adds of the product planes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import NumericalDiagnosticError, ShapeError
from .model import ModelWeights, _check_cond

DEFAULT_PIECE_CAP = 10 ** 6
PROGRESS_TOL = 1e-12


@dataclass(frozen=True)
class AffineLine:
    """The 1-D family x(z) = a + b*z restricted to a finite window."""

    a: np.ndarray
    b: np.ndarray
    window: tuple

    def __post_init__(self):
        a = np.asarray(self.a, dtype=np.float64).reshape(-1)
        b = np.asarray(self.b, dtype=np.float64).reshape(-1)
        if a.shape != b.shape:
            raise ShapeError(f"offset {a.shape} vs direction {b.shape}")
        if not np.any(b != 0.0):
            raise ShapeError("line direction is identically zero")
        lo, hi = float(self.window[0]), float(self.window[1])
        if not lo < hi:
            raise ShapeError(f"window [{lo}, {hi}] is empty")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "window", (lo, hi))

    def at(self, z: float) -> np.ndarray:
        return self.a + self.b * float(z)


@dataclass(frozen=True)
class PiecewisePiece:
    """On [lo, hi] the reconstruction equals recon_offset + recon_slope * z."""

    lo: float
    hi: float
    recon_offset: np.ndarray
    recon_slope: np.ndarray

    def at(self, z: float) -> np.ndarray:
        return self.recon_offset + self.recon_slope * float(z)


def _relu_pair(pair, z_probe):
    """Gates stacked affine activations at the probe; returns the crossing.

    A unit is active when its value at the probe is positive (exact zeros
    resolved by slope sign).  Active units with negative slope and inactive
    units with positive slope cross zero at -off/slope; the earliest such
    crossing beyond the probe bounds the current piece.
    """
    off, slope = pair[0], pair[1]
    v = off + slope * z_probe
    gate = (v > 0.0) | ((v == 0.0) & (slope > 0.0))
    moving = np.where(gate, slope < 0.0, slope > 0.0)
    zc = np.where(moving, -off / np.where(moving, slope, 1.0), np.inf)
    zc = np.where(zc > z_probe, zc, np.inf)
    return pair * gate, float(zc.min())


def _relu_affine(off, slope, z_probe):
    """`_relu_pair` on separate offset/slope arrays (reference surface)."""
    out, crossing = _relu_pair(np.stack([off, slope]), z_probe)
    return out[0], out[1], crossing


def _maxpool2_pair(pair, z_probe):
    """Pools stacked affine activations by the winner at the probe point.

    ``pair`` is channels-last (2, H, W, C).  Ties at the probe go to the
    competitor that wins immediately to the right (largest slope, then
    smallest row-major index).  Any competitor with a strictly larger slope
    than the winner overtakes it where the two affine values meet; the
    earliest such meeting beyond the probe is the next candidate breakpoint.
    """
    h, w, c = pair.shape[1:]
    windows = pair.reshape(2, h // 2, 2, w // 2, 2, c).transpose(
        0, 1, 3, 2, 4, 5).reshape(2, h // 2, w // 2, 4, c)
    woff, wslope = windows[0], windows[1]  # (h/2, w/2, 4, c); competitors on axis 2
    v = woff + wslope * z_probe
    at_max = v == v.max(axis=2, keepdims=True)
    slope_if_max = np.where(at_max, wslope, -np.inf)
    best = at_max & (slope_if_max == slope_if_max.max(axis=2, keepdims=True))
    win = best.argmax(axis=2)[None, :, :, None, :]

    pooled = np.take_along_axis(windows, win, axis=3)[:, :, :, 0, :]
    ds = wslope - pooled[1][:, :, None, :]
    overtaking = ds > 0.0
    zc = np.where(overtaking,
                  (pooled[0][:, :, None, :] - woff) / np.where(overtaking, ds, 1.0),
                  np.inf)
    zc = np.where(zc > z_probe, zc, np.inf)
    return pooled, float(zc.min())


def _maxpool2_affine(off, slope, z_probe):
    """`_maxpool2_pair` on separate channels-first arrays (reference surface)."""
    pair = np.stack([off, slope]).transpose(0, 2, 3, 1)
    pooled, crossing = _maxpool2_pair(pair, z_probe)
    pooled = pooled.transpose(0, 3, 1, 2)
    return pooled[0], pooled[1], crossing


class _ConvPlan:
    """One conv layer as a single GEMM plus shifted adds, built once.

    Works on channels-last (2, H, W, C) stacks: the zero-padded plane is
    multiplied by a (C, k*k*O) matrix in one contiguous GEMM, then the k*k
    shifted slices of the product are summed.  No im2col gather is needed.
    """

    def __init__(self, kernel, bias, h, w):
        c_out, c_in, k, _ = kernel.shape
        self.pad, self.h, self.w, self.k = k // 2, h, w, k
        self.c_in, self.c_out = c_in, c_out
        # column block s = di*k+dj holds kernel[:, :, di, dj]^T
        self.kmat = np.ascontiguousarray(
            kernel.transpose(2, 3, 1, 0).reshape(k * k, c_in, c_out)
                  .transpose(1, 0, 2).reshape(c_in, k * k * c_out))
        self.bias = bias

    def apply(self, pair):
        h, w, k, pad = self.h, self.w, self.k, self.pad
        hp, wp = h + 2 * pad, w + 2 * pad
        padded = np.zeros((2, hp, wp, self.c_in))
        padded[:, pad:pad + h, pad:pad + w, :] = pair
        prod = (padded.reshape(-1, self.c_in) @ self.kmat).reshape(
            2, hp, wp, k * k, self.c_out)
        out = np.empty((2, h, w, self.c_out))
        out[0] = self.bias
        out[1] = 0.0
        for di in range(k):
            for dj in range(k):
                out += prod[:, di:di + h, dj:dj + w, di * k + dj, :]
        return out


class _HeadPlan:
    """Latent mean, then the dense decoder input, on stacked flats.

    The dense layers act as (in, out) matrices built once; flats use the
    channels-first order the dense weights expect.
    """

    def __init__(self, weights: ModelWeights, cond):
        self.arch = weights.arch
        self.cond = cond
        self.mu_mat = np.ascontiguousarray(weights["mu_w"].T)
        self.mu_b = weights["mu_b"]
        self.dense_mat = np.ascontiguousarray(weights["dec_dense_w"].T)
        self.dense_b = weights["dec_dense_b"]

    def apply(self, pair):
        arch = self.arch
        flat = pair.transpose(0, 3, 1, 2).reshape(2, -1)
        mu_pair = flat @ self.mu_mat
        mu_pair[0] += self.mu_b
        zc_pair = np.zeros((2, arch.latent_dim + arch.cond_count))
        zc_pair[:, :arch.latent_dim] = mu_pair
        zc_pair[0, arch.latent_dim:] = self.cond
        g_pair = zc_pair @ self.dense_mat
        g_pair[0] += self.dense_b
        deep = arch.deep_side
        return g_pair.reshape(2, arch.channels[-1], deep, deep).transpose(0, 2, 3, 1)


def _up_conv(conv, outputs, skip_stage, pair):
    """Upsample, concatenate the encoder skip ``outputs[skip_stage]``, convolve."""
    up = np.repeat(np.repeat(pair, 2, axis=1), 2, axis=2)
    return conv.apply(np.concatenate([up, outputs[skip_stage]], axis=3))


def _pattern_free(fn):
    """A stage that fixes no pattern, so no ``z`` ends it."""
    return lambda pair, z_probe: (fn(pair), np.inf)


class _LinePlan:
    """The affine forward along one (line, cond, weights) triple, by stages.

    Stage ``k`` maps the output of stage ``k - 1`` (and, for a decoder conv,
    the matching encoder relu output) and ``z_probe`` to ``(pair,
    crossing)``; pattern-free stages report an infinite crossing.  Stage 0,
    the first encoder conv, does not depend on ``z`` and runs once here.
    ``stages_run`` counts the stages ``evaluate`` has computed.

    No stage refers back to the plan: such a reference cycle would keep
    every stage output alive until the cyclic garbage collector ran, tens
    of MB per plan at paper scale.
    """

    def __init__(self, line: AffineLine, cond, weights: ModelWeights):
        arch = weights.arch
        cond = _check_cond(cond, arch)
        if line.a.size != arch.n_pixels:
            raise ShapeError(
                f"line has {line.a.size} pixels, model expects {arch.n_pixels}")
        base = np.zeros((2, arch.side, arch.side, 1 + arch.cond_count))
        base[0, :, :, 0] = line.a.reshape(arch.side, arch.side)
        base[1, :, :, 0] = line.b.reshape(arch.side, arch.side)
        if arch.cond_count:
            base[0, :, :, 1:] = cond

        first = _ConvPlan(weights["enc0_w"], weights["enc0_b"], arch.side, arch.side)
        self.stages = [None]  # stage 0 runs once, below
        self.outputs = [first.apply(base)]
        skip_stage = []
        side = arch.side
        for i in range(arch.n_blocks):
            if i:
                conv = _ConvPlan(weights[f"enc{i}_w"], weights[f"enc{i}_b"], side, side)
                self.stages.append(_pattern_free(conv.apply))
            self.stages.append(_relu_pair)
            skip_stage.append(len(self.stages) - 1)
            self.stages.append(_maxpool2_pair)
            side //= 2
        self.stages += [_pattern_free(_HeadPlan(weights, cond).apply), _relu_pair]
        for i in range(arch.n_blocks - 1, -1, -1):
            side *= 2
            conv = _ConvPlan(weights[f"dec{i}_w"], weights[f"dec{i}_b"], side, side)
            self.stages.append(
                _pattern_free(partial(_up_conv, conv, self.outputs, skip_stage[i])))
            if i > 0:
                self.stages.append(_relu_pair)

        self.outputs += [None] * (len(self.stages) - 1)
        self.crossings = [np.inf] * len(self.stages)
        self.probe = np.inf  # no stage after the first has run yet
        self.stages_run = 0

    def evaluate(self, z_probe):
        """Affine forward with the pattern frozen at ``z_probe``.

        Returns flattened reconstruction coefficients and the earliest
        pattern crossing beyond the probe (inf if the pattern never breaks).
        """
        outputs, crossings = self.outputs, self.crossings
        start = 1
        if z_probe >= self.probe:
            start = next((k for k, c in enumerate(crossings) if c <= z_probe),
                         len(crossings))
        for k in range(start, len(self.stages)):
            outputs[k], crossings[k] = self.stages[k](outputs[k - 1], z_probe)
        self.stages_run += len(self.stages) - start
        self.probe = z_probe
        pair = outputs[-1]
        return (np.ascontiguousarray(pair[0, :, :, 0]).reshape(-1),
                np.ascontiguousarray(pair[1, :, :, 0]).reshape(-1),
                min(crossings))


def scan_linear_pieces(eval_fn, window, max_pieces=DEFAULT_PIECE_CAP,
                       progress_tol=PROGRESS_TOL):
    """Generic left-to-right scan over a piecewise-linear family.

    ``eval_fn(z_probe)`` must return ``(offset, slope, next_crossing)`` for
    the pattern valid at ``z_probe``.  Returns (lo, hi, offset, slope)
    tuples covering the window without gaps or overlaps.
    """
    lo, hi = float(window[0]), float(window[1])
    pieces = []
    z_lo = lo
    while z_lo < hi:
        if len(pieces) >= max_pieces:
            raise NumericalDiagnosticError(
                f"piece cap {max_pieces} exceeded while scanning [{lo}, {hi}]")
        if hi - z_lo <= 2 * progress_tol:
            off, slope, _ = eval_fn(0.5 * (z_lo + hi))
            pieces.append((z_lo, hi, off, slope))
            break
        z_probe = z_lo + progress_tol
        off, slope, crossing = eval_fn(z_probe)
        z_hi = min(crossing, hi)
        pieces.append((z_lo, z_hi, off, slope))
        z_lo = z_hi
    return pieces


def parametric_infer(line: AffineLine, cond, weights: ModelWeights,
                     max_pieces=DEFAULT_PIECE_CAP) -> list:
    """Decomposes the window into pieces with exact reconstruction coefficients.

    The returned pieces are sorted, share endpoints, and tile the window; on
    each piece the deterministic reconstruction of ``line.at(z)`` equals
    ``recon_offset + recon_slope * z``.
    """
    plan = _LinePlan(line, cond, weights)
    raw = scan_linear_pieces(plan.evaluate, line.window, max_pieces=max_pieces)
    return [PiecewisePiece(lo, hi, off, slope) for lo, hi, off, slope in raw]
