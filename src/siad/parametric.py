"""Exact piecewise-linear decomposition of the detector along a line.

For a fixed set of weights the reconstruction map is piecewise linear in the
image, so along any 1-D affine family ``x(z) = a + b*z`` it is piecewise
linear in ``z``.  This module walks the window left to right.  At each step
it fixes the relu sign pattern and every maxpool argmax at a probe point
just inside the current piece, carries exact affine coefficients
``value(z) = off + slope*z`` through the network, and takes the earliest
``z`` at which any relu flips sign or any pooling window changes winner.
That crossing ends the piece and starts the next one.

The stages of the forward pass are the model's layer list (each conv, relu
and maxpool of the encoder, the latent head, the dense relu, each decoder
upsample+concat+conv and each decoder relu), run by their ``affine``
method, and the plan for a line keeps every stage's output and crossing
from the previous probe.  A stage's output depends only on its inputs and
on the pattern it fixes at the probe, and that pattern is the same at every
``z`` between the previous probe and the stage's crossing.  (Where rounding
puts a probe that sits exactly on a tie on the wrong side of it, the stage
reports the probe itself as its crossing, so that holds there too.)  So a
probe to the right of the previous one restarts at the first stage whose
crossing it has reached and reuses every stage before it: the reused arrays
are the ones a recomputation would give (the tests compare them bit for
bit), and the pieces do not change.  A probe to the left of the previous
one recomputes every stage that depends on ``z``.  A breakpoint flips the
pattern of one layer, so a piece costs only the stages downstream of that
layer.

Crossings closer than ``PROGRESS_TOL`` to the probe are skipped so the scan
always advances; the induced value error is bounded by the layer slopes
times ``PROGRESS_TOL`` and stays far below the 1e-9 agreement tolerance the
tests enforce.

The scan runs once per piece and pieces number in the thousands, so the
layers keep numpy call overhead low: offset and slope planes travel
together as a batch of two rows in the layers' channels-last layout, and
each convolution is one contiguous GEMM against a kernel matrix laid out
once per line (when the plan binds the layers), followed by shifted adds of
the product planes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalDiagnosticError, ShapeError
from .model import ModelWeights, _rows, network, network_input

PIECE_CAP = 10 ** 6  # a scan with more pieces is a numerical fault
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


class _LinePlan:
    """The affine forward along one (line, cond, weights) triple, by stages.

    The stages are the model's layers.  Stage ``k`` maps the output of
    stage ``k - 1`` and ``z_probe`` to ``(pair, crossing)``; a decoder conv
    also reads the matching encoder relu's last output.  Stage 0, the first
    encoder conv, does not depend on ``z`` and runs once here.
    ``stages_run`` counts the stages ``evaluate`` has computed.

    No stage refers back to the plan: such a reference cycle would keep
    every stage output alive until the cyclic garbage collector ran, tens
    of MB per plan at paper scale.
    """

    def __init__(self, line: AffineLine, cond, weights: ModelWeights):
        arch = weights.arch
        cond = _rows(cond, 1, arch.cond_count, "conditions")
        if line.a.size != arch.n_pixels:
            raise ShapeError(
                f"line has {line.a.size} pixels, model expects {arch.n_pixels}")
        # the pair (offset, slope) is a batch of two rows; the one condition
        # row goes to the offset row only, as do the biases
        self.layers = network(weights, cond)
        base = network_input(np.stack([line.a, line.b]).reshape(2, arch.side, arch.side),
                             cond)
        self.outputs = [self.layers[0].affine(base, line.window[0])[0]]
        self.outputs += [None] * (len(self.layers) - 1)
        self.crossings = [np.inf] * len(self.layers)
        self.probe = np.inf  # no stage after the first has run yet
        self.stages_run = 0

    def evaluate(self, z_probe):
        """Affine forward with the pattern frozen at ``z_probe``.

        Returns flattened reconstruction coefficients and the earliest
        pattern crossing at or beyond the probe (inf if the pattern never
        breaks).
        """
        layers, outputs, crossings = self.layers, self.outputs, self.crossings
        start = 1
        if z_probe >= self.probe:
            start = next((k for k, c in enumerate(crossings) if c <= z_probe),
                         len(crossings))
        for k in range(start, len(layers)):
            outputs[k], crossings[k] = layers[k].affine(outputs[k - 1], z_probe)
        self.stages_run += len(layers) - start
        self.probe = z_probe
        pair = outputs[-1]
        return (np.ascontiguousarray(pair[0, :, :, 0]).reshape(-1),
                np.ascontiguousarray(pair[1, :, :, 0]).reshape(-1),
                min(crossings))


def scan_linear_pieces(eval_fn, window):
    """Generic left-to-right scan over a piecewise-linear family.

    ``eval_fn(z_probe)`` must return ``(offset, slope, next_crossing)`` for
    the pattern valid at ``z_probe``.  Returns (lo, hi, offset, slope)
    tuples covering the window without gaps or overlaps; more than
    ``PIECE_CAP`` of them raise ``NumericalDiagnosticError``.
    """
    lo, hi = float(window[0]), float(window[1])
    pieces = []
    z_lo = lo
    while z_lo < hi:
        if len(pieces) >= PIECE_CAP:
            raise NumericalDiagnosticError(
                f"piece cap {PIECE_CAP} exceeded while scanning [{lo}, {hi}]")
        if hi - z_lo <= 2 * PROGRESS_TOL:
            off, slope, _ = eval_fn(0.5 * (z_lo + hi))
            pieces.append((z_lo, hi, off, slope))
            break
        z_probe = z_lo + PROGRESS_TOL
        off, slope, crossing = eval_fn(z_probe)
        z_hi = min(crossing, hi)
        pieces.append((z_lo, z_hi, off, slope))
        z_lo = z_hi
    return pieces


def parametric_infer(line: AffineLine, cond, weights: ModelWeights) -> list:
    """Decomposes the window into pieces with exact reconstruction coefficients.

    The returned pieces are sorted, share endpoints, and tile the window; on
    each piece the deterministic reconstruction of ``line.at(z)`` equals
    ``recon_offset + recon_slope * z``.
    """
    plan = _LinePlan(line, cond, weights)
    raw = scan_linear_pieces(plan.evaluate, line.window)
    return [PiecewisePiece(lo, hi, off, slope) for lo, hi, off, slope in raw]
