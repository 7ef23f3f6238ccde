"""Conditional VAE used as the anomaly detector's reconstruction engine.

The network is a small U-net: an encoder of conv/relu/maxpool blocks with a
dense head for the latent mean and log-variance, and a decoder of
dense/upsample/conv blocks that receives the encoder's pre-pool activations
as skip connections.  The two scalar conditions ride along as constant input
channels on the encoder side and as extra latent coordinates on the decoder
side, so the reconstruction map stays piecewise linear in the image.

`ArchitectureSpec.layers` defines the network once, as an ordered list of
the layers in `ops`; the weight names and shapes, the reconstruction, the
training gradients and the affine line scan all come from that list.

Inference (`reconstruct`) is deterministic: it decodes the latent mean and
never samples.  Sampling happens only inside the training loss, which is
not defined here: the latent head gives its KL term (`ops.LatentHead.kl`)
and `training` adds the residual term.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, ShapeError
from .ops import Conv, InputConv, LatentHead, MaxPool2, Relu, UpConv
from .ops import conv2d  # noqa: F401  (perfbench/layers.py traces this name)


@dataclass(frozen=True)
class ArchitectureSpec:
    """Hyperparameters that fix every weight shape in the network.

    ``side`` is the square image side in pixels, ``channels`` the per-block
    encoder widths (the decoder mirrors them), ``latent_dim`` the size of
    the latent code, ``cond_count`` the number of scalar conditions.
    """

    side: int = 16
    channels: tuple = (8, 16)
    latent_dim: int = 4
    kernel_size: int = 3
    cond_count: int = 2

    def __post_init__(self):
        object.__setattr__(self, "channels", tuple(int(c) for c in self.channels))
        blocks = len(self.channels)
        if blocks < 1:
            raise ShapeError("need at least one block")
        if min(self.channels) < 1:
            raise ShapeError(f"channel counts must be >= 1, got {self.channels}")
        if self.side % (2 ** blocks) != 0:
            raise ShapeError(f"side {self.side} not divisible by 2^{blocks}")
        if self.latent_dim < 1:
            raise ShapeError("latent_dim must be >= 1")
        if self.cond_count < 0:
            raise ShapeError("cond_count must be >= 0")
        if self.kernel_size % 2 == 0 or self.kernel_size < 1:
            raise ShapeError("kernel_size must be odd and positive")

    @property
    def n_blocks(self) -> int:
        return len(self.channels)

    @property
    def n_pixels(self) -> int:
        return self.side * self.side

    @property
    def deep_side(self) -> int:
        return self.side // (2 ** self.n_blocks)

    @property
    def flat_dim(self) -> int:
        """Length of the flattened deepest feature map."""
        return self.channels[-1] * self.deep_side * self.deep_side

    def layers(self):
        """The network as an ordered list of unbound layers.

        Per encoder block: conv (the first computes no gradient with
        respect to the network's input), relu (its output is the block's
        skip), 2x2 maxpool.  Then the latent head and a relu.  Per decoder
        block, deepest first: upsample + skip-concat + conv, then a relu
        except after the last block, whose output stays signed.
        """
        k = self.kernel_size
        layers, skips = [], []
        c_prev = 1 + self.cond_count
        for i, c in enumerate(self.channels):
            skips.append(Relu())
            conv = (InputConv if i == 0 else Conv)(f"enc{i}", c_prev, c, k)
            layers += [conv, skips[-1], MaxPool2()]
            c_prev = c
        layers += [LatentHead(self.channels[-1], self.deep_side, self.latent_dim,
                              self.cond_count), Relu()]
        for i in range(self.n_blocks - 1, -1, -1):
            c_out = self.channels[i - 1] if i > 0 else 1
            layers.append(UpConv(f"dec{i}", 2 * self.channels[i], c_out, k, skips[i]))
            if i > 0:
                layers.append(Relu())
        return layers

    def layer_shapes(self):
        """Weight shapes in serialization order (name, shape) pairs: the
        order of the layers."""
        return [shape for layer in self.layers() for shape in layer.shapes]


@dataclass
class ModelWeights:
    """All learnable arrays, keyed by the names in ``layer_shapes``."""

    arch: ArchitectureSpec
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        expected = dict(self.arch.layer_shapes())
        if set(self.params) != set(expected):
            missing = set(expected) - set(self.params)
            extra = set(self.params) - set(expected)
            raise ShapeError(f"weight set mismatch: missing {sorted(missing)}, extra {sorted(extra)}")
        for name, shape in expected.items():
            arr = np.asarray(self.params[name], dtype=np.float64)
            if arr.shape != shape:
                raise ShapeError(f"{name}: expected shape {shape}, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ShapeError(f"{name}: non-finite entries")
            self.params[name] = arr

    def copy(self) -> "ModelWeights":
        return ModelWeights(self.arch, {k: v.copy() for k, v in self.params.items()})

    def __getitem__(self, name: str) -> np.ndarray:
        return self.params[name]


def init_weights(arch: ArchitectureSpec, seed: int) -> ModelWeights:
    """Glorot-uniform weights (bound sqrt(6/(fan_in+fan_out))), zero biases."""
    rng = np.random.Generator(np.random.Philox(key=[np.uint64(seed), np.uint64(0x57)]))
    params = {}
    for name, shape in arch.layer_shapes():
        if name.endswith("_b"):
            params[name] = np.zeros(shape, dtype=np.float64)
            continue
        if len(shape) == 4:
            fan_in = shape[1] * shape[2] * shape[3]
            fan_out = shape[0] * shape[2] * shape[3]
        else:
            fan_out, fan_in = shape
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        params[name] = rng.uniform(-bound, bound, size=shape)
    return ModelWeights(arch, params)


def zero_weights(arch: ArchitectureSpec) -> ModelWeights:
    """All-zero weights; the reconstruction is identically zero."""
    return ModelWeights(arch, {name: np.zeros(shape, dtype=np.float64)
                               for name, shape in arch.layer_shapes()})


def _rows(values, n: int, width: int, what: str) -> np.ndarray:
    """``values`` as an (n, width) array; one row may be given as a vector."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim > 2 or values.size != n * width:
        raise ShapeError(f"expected {n} row(s) of {width} {what}, got shape {values.shape}")
    return values.reshape(n, width)


def _images(x, arch: ArchitectureSpec) -> np.ndarray:
    """One image (side x side, optionally with a leading 1) or a batch
    (B, side, side), as a (B, side, side) array.  Every image enters the
    network through here, so a non-finite pixel stops it before any
    arithmetic."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (2, 3) or x.shape[-2:] != (arch.side, arch.side):
        raise ShapeError(f"image shape {x.shape} does not match side {arch.side}")
    if not np.all(np.isfinite(x)):
        raise DataError("image has non-finite pixel values")
    return x.reshape(-1, arch.side, arch.side)


def network(weights: ModelWeights, x: np.ndarray, cond: np.ndarray, eps=None):
    """``(layers, h)``: the layers of ``weights.arch`` bound to ``weights``,
    ready to run, and the first layer's input.

    ``x`` holds (B, side, side) images, which become channel 0 of ``h``,
    and ``cond`` one row of conditions per batch row, which fill one
    constant channel each; for an affine offset/slope pair it holds one
    row, which only the offset row receives.  ``eps`` holds one latent
    draw per batch row for the training loss; without it the head decodes
    the latent mean.
    """
    layers = weights.arch.layers()
    for layer in layers:
        layer.bind(weights.params, cond, eps)
    h = np.zeros(x.shape + (1 + cond.shape[1],))
    h[..., 0] = x
    h[:len(cond), :, :, 1:] = cond[:, None, None, :]
    return layers, h


def forward(x, cond, weights: ModelWeights, eps=None):
    """Batched forward pass through the layer list.

    ``x`` is one image or a batch (see `_images`) and ``cond`` one row of
    conditions per image; ``eps``, if given, one latent draw per image.
    Returns ``(recon, layers)``: the (B, side, side) reconstruction and the
    layers, which keep what their backward passes need (the latent head
    also its ``mu`` and ``logvar``, one row per image).
    """
    arch = weights.arch
    x = _images(x, arch)
    cond = _rows(cond, len(x), arch.cond_count, "conditions")
    if eps is not None:
        eps = _rows(eps, len(x), arch.latent_dim, "latent draws")
    layers, h = network(weights, x, cond, eps)
    for layer in layers:
        h = layer.forward(h)
    return h[..., 0], layers


def reconstruct(x: np.ndarray, cond, weights: ModelWeights) -> np.ndarray:
    """Deterministic reconstruction: encode, take the latent mean, decode.

    No latent sampling at inference time, so the composed map is a
    deterministic piecewise-linear function of ``x``.  One image gives a
    (1, side, side) array, a batch of B images (B, side, side).
    """
    return forward(x, cond, weights)[0]
