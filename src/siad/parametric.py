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
upsample + skip + conv and each decoder relu), run by their ``affine``
pass (for a linear layer, its ``forward`` on the offset/slope pair), and
the plan for a line keeps every stage's output and crossing from the
previous probe.  A stage's output depends only on its inputs (the
previous stage's output and, for a decoder conv, its skip relu's output)
and on the pattern it fixes at the probe, and that pattern is the same at
every ``z`` between the previous probe and the stage's crossing.  (Where
rounding puts a probe that sits exactly on a tie on the wrong side of it,
the stage reports the probe itself as its crossing, so that holds there
too.)  So on a probe to the right of the previous one a stage reruns only
when the probe has reached its crossing or one of its inputs changed;
every other stage keeps its output and its crossing, which are the ones a
rerun would give (the tests compare them bit for bit), and the pieces do
not change.  A rerun whose output equals the kept one bit for bit counts
as unchanged: the kept array stays, and the stages reading it need not
rerun for its sake.  This is the early cutoff of build systems (Mokhov,
Mitchell & Peyton Jones, *Build systems a la carte*, 2018).  A breakpoint
flips the pattern of one layer, so a piece costs that layer and only those
stages downstream whose inputs it actually changes; after an encoder relu
flips, a pool whose winners did not move usually ends the pass.  A probe to
the left of the previous one recomputes every stage that depends on ``z``.

Crossings closer than ``PROGRESS_TOL`` to the probe are skipped so the scan
always advances; the induced value error is bounded by the layer slopes
times ``PROGRESS_TOL`` (up to about 1e-12 near clustered crossings) and
stays below ``VALUE_TOL``, the agreement with the direct forward pass the
tests enforce and the margin `inference.truncation_region` allows a pixel
whose error lies that close to the threshold.

The scan runs once per piece and pieces number in the thousands, on
arrays of a few thousand values, so its cost is the number of numpy calls
and full-array passes per stage.  The layers keep both low: offset and
slope planes travel together as a batch of two rows in the layers'
channels-last layout; each convolution is one GEMM along its narrower
channel side (gathered windows, or product planes summed shifted in one
strided reduction) against a kernel laid out once per line, when the plan
binds the layers; a decoder conv adds the convolution of its skip half,
which it keeps for as long as the encoder relu it reads has not rerun, to
one GEMM of its upsampled half at the lower resolution;
pooling reads its windows in one competitor-major copy; and a relu or
pool divides for crossings only at the units that flip.  Batching
several lines or subjects in lockstep does not pay here: a step's cost
grows almost linearly with the batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalDiagnosticError, ShapeError
from .model import ModelWeights, _rows, network
from .ops import UpConv

PIECE_CAP = 10 ** 6  # a scan with more pieces is a numerical fault
PROGRESS_TOL = 1e-12
VALUE_TOL = 1e-9  # bound on a piece's value error, for values of order one


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
    also reads the matching encoder relu's last output (``readers[k]``
    lists the stages that read stage ``k``).  Stage 0, the first encoder
    conv, does not depend on ``z`` and runs once here.

    On a probe at or to the right of the previous one, ``evaluate`` reruns
    stage ``k`` only if the probe reached its crossing or a stage it reads
    changed; a rerun to a bit-for-bit equal output is not a change, and the
    plan keeps the old array.  A kept output and crossing are exact because
    the stage's inputs are the same arrays and its pattern holds up to its
    crossing.  The plan never writes layer state: after an equal rerun a
    skip relu's ``out`` is the new array, and the decoder conv reading it
    recomputes its skip half (to the same bits).  A probe to the left
    reruns every stage.  ``stages_run`` counts the stages ``evaluate`` has
    computed, ``stages_skipped`` those it kept; together they are the
    probes times the stages after the first.

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
        self.layers, base = network(
            weights, np.stack([line.a, line.b]).reshape(2, arch.side, arch.side), cond)
        self.outputs = [self.layers[0].affine(base, line.window[0])[0]]
        self.outputs += [None] * (len(self.layers) - 1)
        self.crossings = [np.inf] * len(self.layers)
        self.probe = np.inf  # no stage after the first has run yet
        # the stages reading each stage's output: the next one and, for an
        # encoder relu, the decoder conv that takes it as its skip
        self.readers = [[k + 1] for k in range(len(self.layers) - 1)] + [[]]
        for k, layer in enumerate(self.layers):
            if isinstance(layer, UpConv):
                self.readers[self.layers.index(layer.skip)].append(k)
        self.stages_run = self.stages_skipped = 0

    def evaluate(self, z_probe):
        """Affine forward with the pattern frozen at ``z_probe``.

        Returns flattened reconstruction coefficients and the earliest
        pattern crossing at or beyond the probe (inf if the pattern never
        breaks).
        """
        layers, outputs, crossings = self.layers, self.outputs, self.crossings
        resume = z_probe >= self.probe
        rerun = [not resume or c <= z_probe for c in crossings]
        for k in range(1, len(layers)):
            if not rerun[k]:
                continue
            out, crossings[k] = layers[k].affine(outputs[k - 1], z_probe)
            # bit for bit, so a kept 0.0 is never a rerun's -0.0
            if resume and out.tobytes() == outputs[k].tobytes():
                continue
            outputs[k] = out
            for reader in self.readers[k]:
                rerun[reader] = True
        ran = sum(rerun[1:])
        self.stages_run += ran
        self.stages_skipped += len(layers) - 1 - ran
        self.probe = z_probe
        pair = outputs[-1]
        return (np.ascontiguousarray(pair[0, :, :, 0]).reshape(-1),
                np.ascontiguousarray(pair[1, :, :, 0]).reshape(-1),
                min(crossings))


def scan_linear_pieces(eval_fn, window):
    """Generic left-to-right scan over a piecewise-linear family.

    ``eval_fn(z_probe)`` must return ``(offset, slope, next_crossing)`` for
    the pattern valid at ``z_probe``.  Returns ``PiecewisePiece``s, sorted
    and sharing endpoints, that tile the window; more than ``PIECE_CAP`` of
    them raise ``NumericalDiagnosticError``.
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
            pieces.append(PiecewisePiece(z_lo, hi, off, slope))
            break
        z_probe = z_lo + PROGRESS_TOL
        off, slope, crossing = eval_fn(z_probe)
        z_hi = min(crossing, hi)
        pieces.append(PiecewisePiece(z_lo, z_hi, off, slope))
        z_lo = z_hi
    return pieces


def parametric_infer(line: AffineLine, cond, weights: ModelWeights) -> list:
    """The pieces of ``scan_linear_pieces`` over the line's window, with
    exact reconstruction coefficients: on each piece the deterministic
    reconstruction of ``line.at(z)`` equals ``recon_offset + recon_slope * z``.
    """
    return scan_linear_pieces(_LinePlan(line, cond, weights).evaluate, line.window)
