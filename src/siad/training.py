"""Hand-rolled training for the detector network.

The objective is the ELBO of the conditional VAE: the latent head's KL
term (`ops.LatentHead.kl`) plus half the squared reconstruction residual,
which this module adds (`_elbo`).  Gradients are computed analytically by
walking the model's layer list backwards, seeded with the residual
(checked against central finite differences in the test suite), the
optimizer is Adam with bias correction, and the loop does early stopping
on a held-out split.  Each minibatch, and each chunk of the held-out and
training sets when their losses are evaluated, runs through the network
as one batch.  Every source of randomness flows from one seeded
counter-based generator, so the same seed reproduces the same final
weights bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import DataError, ShapeError
from .model import ArchitectureSpec, ModelWeights, _images, _rows, forward, init_weights
from .ops import LatentHead
from .ops import conv2d, conv2d_backward  # noqa: F401  (perfbench/layers.py traces these names)

ADAM_BETAS = (0.9, 0.999)  # decay rates of Adam's first and second moment estimates
ADAM_EPS = 1e-8  # added to the root of the second moment, so its quotient stays finite


def _elbo(x, recon, layers):
    """``(loss, resid)`` of a forward pass that took the images ``x`` through
    ``layers`` to ``recon``: the negated variational bound under a
    unit-variance Gaussian likelihood, summed over the batch, which is the
    latent head's KL term plus half the squared residual ``resid = recon - x``."""
    head = next(layer for layer in layers if isinstance(layer, LatentHead))
    resid = recon - x
    return head.kl() + 0.5 * float(np.sum(resid * resid)), resid


def loss_and_gradients(x, cond, weights: ModelWeights, eps):
    """ELBO loss and its exact gradients for one example or a batch.

    ``x``, ``cond`` and ``eps`` hold one image, one row of conditions and
    one latent draw, or B of each.  Returns ``(loss, grads)``, summed over
    the batch, with ``grads`` keyed like the weight dict.  The residual
    seeds the backward pass, and the latent head adds the KL term's
    gradient.  Each layer's backward reuses the relu and maxpool patterns
    of the forward pass; the latent draw uses the reparameterization
    z = mu + exp(logvar/2) * eps.
    """
    x = _images(x, weights.arch)
    recon, layers = forward(x, cond, weights, eps)
    loss, resid = _elbo(x, recon, layers)
    grad = resid[..., None]
    grads = {}
    for layer in reversed(layers):
        grad = layer.backward(grad)
        grads.update(layer.grads)
    return loss, grads


def evaluate_loss(x, cond, weights: ModelWeights) -> float:
    """Deterministic ELBO (latent mean path, no sampling), summed over a batch."""
    x = _images(x, weights.arch)
    recon, layers = forward(x, cond, weights)
    return _elbo(x, recon, layers)[0]


@dataclass
class AdamState:
    """First/second moment accumulators plus the step counter."""

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0

    @classmethod
    def zeros_like(cls, weights: ModelWeights) -> "AdamState":
        return cls(m={k: np.zeros_like(p) for k, p in weights.params.items()},
                   v={k: np.zeros_like(p) for k, p in weights.params.items()},
                   t=0)


def adam_step(weights: ModelWeights, grads: dict, state: AdamState, lr: float):
    """One Adam update with bias correction; returns (new_weights, new_state)."""
    beta1, beta2 = ADAM_BETAS
    t = state.t + 1
    new_params, new_m, new_v = {}, {}, {}
    for name, p in weights.params.items():
        g = grads[name]
        m = beta1 * state.m[name] + (1.0 - beta1) * g
        v = beta2 * state.v[name] + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        new_params[name] = p - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        new_m[name] = m
        new_v[name] = v
    return ModelWeights(weights.arch, new_params), AdamState(new_m, new_v, t)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 1000
    lr: float = 1e-5
    batch_size: int = 16
    patience: int = 20
    seed: int = 0
    holdout_fraction: ClassVar[float] = 0.2  # share of the dataset held out

    def __post_init__(self):
        if not self.batch_size >= 1:
            raise DataError(f"batch_size must be at least 1, got {self.batch_size}")


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    holdout_loss: float
    early_stopped: bool


@dataclass
class TrainResult:
    weights: ModelWeights
    history: list
    best_epoch: int


def train(dataset, arch: ArchitectureSpec, config: TrainConfig) -> TrainResult:
    """Trains the detector on (image, condition) pairs of healthy subjects.

    A seeded fraction of the dataset is held out; training stops once the
    held-out loss has not fallen below its best for ``patience``
    consecutive epochs, and the weights from the best held-out epoch are
    returned.  Epoch 0 in the history reports the initial weights.
    """
    if len(dataset) == 0:
        raise DataError("cannot train on an empty dataset")
    rng = np.random.Generator(np.random.Philox(key=[np.uint64(config.seed), np.uint64(0x7e)]))
    images = np.concatenate([_images(x, arch) for x, _ in dataset])
    conds = np.concatenate([_rows(c, 1, arch.cond_count, "conditions") for _, c in dataset])
    if len(images) != len(conds):
        raise ShapeError("each training example must hold one image")

    n = len(dataset)
    order = rng.permutation(n)
    n_hold = min(max(1, int(round(config.holdout_fraction * n))), n - 1) if n >= 2 else 0
    hold_idx = order[:n_hold]
    train_idx = order[n_hold:]
    if n_hold == 0:
        hold_idx = order

    def mean_loss(w, idx):
        step = config.batch_size
        return sum(evaluate_loss(images[idx[j:j + step]], conds[idx[j:j + step]], w)
                   for j in range(0, len(idx), step)) / len(idx)

    weights = init_weights(arch, config.seed)
    state = AdamState.zeros_like(weights)
    best_loss = mean_loss(weights, hold_idx)
    best_weights = weights.copy()
    best_epoch = 0
    history = [EpochRecord(0, mean_loss(weights, train_idx), best_loss, False)]

    stale = 0
    for epoch in range(1, config.epochs + 1):
        perm = rng.permutation(len(train_idx))
        epoch_losses = []
        for start in range(0, len(perm), config.batch_size):
            batch = train_idx[perm[start:start + config.batch_size]]
            eps = rng.standard_normal((len(batch), arch.latent_dim))
            loss, grads = loss_and_gradients(images[batch], conds[batch], weights, eps)
            scale = 1.0 / len(batch)
            weights, state = adam_step(weights, {k: g * scale for k, g in grads.items()},
                                       state, config.lr)
            epoch_losses.append(loss * scale)

        h_loss = mean_loss(weights, hold_idx)
        if h_loss < best_loss:
            best_loss = h_loss
            best_weights = weights.copy()
            best_epoch = epoch
            stale = 0
        else:
            stale += 1
        stop = stale >= config.patience
        history.append(EpochRecord(epoch, float(np.mean(epoch_losses)), h_loss, stop))
        if stop:
            break
    return TrainResult(best_weights, history, best_epoch)
