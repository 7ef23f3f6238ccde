"""Gradient correctness, the optimizer, and the training loop."""

import numpy as np
import pytest

from siad import training
from siad.errors import DataError
from siad.model import ArchitectureSpec, forward, init_weights, zero_weights
from siad.ops import Relu
from siad.synth import gen_diseased, gen_null_cohort, SignalSpec
from siad.training import (AdamState, TrainConfig, adam_step, evaluate_loss,
                           loss_and_gradients, train)

ARCH = ArchitectureSpec(side=8, channels=(3, 5), latent_dim=3)
COND = np.array([0.2, -0.8])


def finite_difference_check(weights, x, cond, eps, step=1e-5, rel_tol=1e-4):
    """Central finite differences against the analytic gradients.

    Returns the worst relative discrepancy over every weight entry.
    """
    _, grads = loss_and_gradients(x, cond, weights, eps)

    def loss_of(w):
        loss, _ = loss_and_gradients(x, cond, w, eps)
        return loss

    worst = 0.0
    for name, param in weights.params.items():
        flat = param.reshape(-1)
        grad_flat = grads[name].reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + step
            up = loss_of(weights)
            flat[idx] = orig - step
            down = loss_of(weights)
            flat[idx] = orig
            fd = (up - down) / (2 * step)
            denom = max(abs(fd), abs(grad_flat[idx]), 1e-6)
            worst = max(worst, abs(fd - grad_flat[idx]) / denom)
    assert worst < rel_tol, f"worst relative gradient error {worst}"
    return worst


class TestGradients:
    def test_all_gradients_match_finite_differences(self):
        w = init_weights(ARCH, 17)
        rng = np.random.default_rng(17)
        x = rng.normal(size=(1, 8, 8))
        eps = rng.normal(size=3)
        finite_difference_check(w, x, COND, eps)

    def test_zero_residual_zero_latent_gives_zero_gradients(self):
        w = zero_weights(ARCH)
        x = np.zeros((1, 8, 8))
        loss, grads = loss_and_gradients(x, np.zeros(2), w, np.zeros(3))
        assert loss == 0.0
        for name, g in grads.items():
            np.testing.assert_array_equal(g, np.zeros_like(g), err_msg=name)

    def test_kl_gradient_of_mean_is_the_mean(self):
        # with every other weight zero the reconstruction path carries no
        # gradient, so d(loss)/d(mu_b) reduces to the KL term's d(mu^2/2) = mu
        w = zero_weights(ARCH)
        mu_b = np.array([0.3, -0.2, 1.7])
        w.params["mu_b"] = mu_b.copy()
        _, grads = loss_and_gradients(np.zeros((1, 8, 8)), np.zeros(2), w, np.zeros(3))
        np.testing.assert_array_equal(grads["mu_b"], mu_b)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_pixel_is_data_error(self, bad):
        """Refused before any arithmetic, so with no RuntimeWarning."""
        x = np.zeros((2, 8, 8))
        x[0, 7, 0] = bad
        with pytest.raises(DataError, match="non-finite pixel"):
            loss_and_gradients(x, np.zeros((2, 2)), init_weights(ARCH, 0), np.zeros((2, 3)))

    def test_backward_releases_what_forward_kept(self, monkeypatch):
        """Once a layer's backward has run it holds nothing for it; an
        encoder relu also drops the gradient its decoder conv left it."""
        passes = []

        def recording_forward(*args, **kwargs):
            passes.append(forward(*args, **kwargs))
            return passes[-1]

        monkeypatch.setattr(training, "forward", recording_forward)
        rng = np.random.default_rng(29)
        loss_and_gradients(rng.normal(size=(2, 8, 8)), rng.normal(size=(2, 2)),
                           init_weights(ARCH, 29), rng.normal(size=(2, 3)))
        (_, layers), = passes
        relus = [layer for layer in layers if isinstance(layer, Relu)]
        assert len(relus) == 4
        for relu in relus:
            assert relu.skip_grad is None and relu.gate is None and relu.out is None
        for layer in layers:
            for kept in ("x", "win", "zc", "skip_conv", "up_conv"):
                assert getattr(layer, kept, None) is None, (type(layer).__name__, kept)


def _worst_relative(got, want):
    """Largest |got - want| relative to the largest |want|."""
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300))


class TestBatching:
    def test_batch_gives_the_sum_of_single_examples(self):
        w = init_weights(ARCH, 23)
        rng = np.random.default_rng(23)
        for name in ("enc0_b", "mu_b", "logvar_b", "dec_dense_b", "dec1_b"):
            w.params[name] = 0.1 * rng.normal(size=w.params[name].shape)
        x = rng.normal(size=(5, 8, 8))
        cond = rng.normal(size=(5, 2))
        eps = rng.normal(size=(5, 3))
        loss, grads = loss_and_gradients(x, cond, w, eps)
        singles = [loss_and_gradients(x[i], cond[i], w, eps[i]) for i in range(5)]
        assert _worst_relative(np.array(loss), np.array(sum(s[0] for s in singles))) < 1e-12
        assert set(grads) == set(w.params)
        for name, g in grads.items():
            assert g.shape == w[name].shape
            want = sum(s[1][name] for s in singles)
            assert _worst_relative(g, want) < 1e-12, name
        mean_path = sum(evaluate_loss(x[i], cond[i], w) for i in range(5))
        assert _worst_relative(np.array(evaluate_loss(x, cond, w)),
                               np.array(mean_path)) < 1e-12

    def test_batched_draws_repeat_the_per_example_stream(self):
        """``train`` draws a minibatch's latent noise as one (B, latent)
        array; on the training Philox stream that is the B per-example
        draws in turn, and the stream continues the same way after it."""
        def stream():
            return np.random.Generator(np.random.Philox(key=[np.uint64(9), np.uint64(0x7e)]))

        batched, single = stream(), stream()
        batched.permutation(24)
        single.permutation(24)
        for size in (16, 5):
            draws = batched.standard_normal((size, ARCH.latent_dim))
            one_by_one = np.stack([single.standard_normal(ARCH.latent_dim)
                                   for _ in range(size)])
            np.testing.assert_array_equal(draws, one_by_one)
        np.testing.assert_array_equal(batched.permutation(24), single.permutation(24))


class TestAdam:
    def test_zero_gradient_leaves_weights(self):
        w = init_weights(ARCH, 1)
        state = AdamState.zeros_like(w)
        grads = {k: np.zeros_like(v) for k, v in w.params.items()}
        new_w, new_state = adam_step(w, grads, state, lr=0.1)
        for name in w.params:
            np.testing.assert_array_equal(new_w[name], w[name])
        assert new_state.t == 1

    def test_first_step_hand_value(self):
        # m_hat = g, v_hat = g^2, so the update is -lr * 1 / (1 + eps)
        w = zero_weights(ArchitectureSpec(side=4, channels=(2,), latent_dim=2))
        state = AdamState.zeros_like(w)
        grads = {k: np.ones_like(v) for k, v in w.params.items()}
        new_w, _ = adam_step(w, grads, state, lr=0.1)
        expected = -0.1 / (1.0 + 1e-8)
        np.testing.assert_allclose(new_w["mu_b"], expected, rtol=1e-15)

    def test_deterministic(self):
        w = init_weights(ARCH, 2)
        state = AdamState.zeros_like(w)
        rng = np.random.default_rng(3)
        grads = {k: rng.normal(size=v.shape) for k, v in w.params.items()}
        a, sa = adam_step(w, grads, state, lr=1e-3)
        b, sb = adam_step(w, grads, state, lr=1e-3)
        for name in w.params:
            np.testing.assert_array_equal(a[name], b[name])
            np.testing.assert_array_equal(sa.m[name], sb.m[name])


def _tiny_dataset(n=24, seed=5):
    imgs = gen_null_cohort(n, 8, 1.0, seed=seed)
    rng = np.random.default_rng(seed)
    return [(img, rng.normal(size=2)) for img in imgs]


class TestTrain:
    def test_loss_improves_over_initialization(self):
        dataset = _tiny_dataset()
        cfg = TrainConfig(epochs=8, lr=1e-3, batch_size=8, patience=20, seed=0)
        result = train(dataset, ARCH, cfg)
        history = result.history
        assert history[-1].train_loss <= history[0].train_loss
        best_holdout = min(r.holdout_loss for r in history)
        assert best_holdout < history[0].holdout_loss

    def test_same_seed_bit_identical(self):
        dataset = _tiny_dataset()
        cfg = TrainConfig(epochs=3, lr=1e-3, batch_size=8, seed=9)
        w1 = train(dataset, ARCH, cfg).weights
        w2 = train(dataset, ARCH, cfg).weights
        for name in w1.params:
            np.testing.assert_array_equal(w1[name], w2[name])

    def test_early_stopping_on_patience(self):
        dataset = _tiny_dataset()
        # with lr 0 the weights never move, so the held-out loss never
        # falls strictly and no epoch counts as an improvement
        cfg = TrainConfig(epochs=50, lr=0.0, batch_size=8, patience=3, seed=1)
        result = train(dataset, ARCH, cfg)
        assert result.history[-1].epoch == 3
        assert result.history[-1].early_stopped

    def test_healthy_reconstruction_beats_planted_anomaly(self):
        dataset = _tiny_dataset(n=40, seed=6)
        cfg = TrainConfig(epochs=10, lr=3e-4, batch_size=8, seed=2)
        weights = train(dataset, ARCH, cfg).weights
        healthy = gen_null_cohort(20, 8, 1.0, seed=100)
        region = tuple(range(18, 22))
        diseased = gen_diseased(20, 8, SignalSpec(region, 4.0), 1.0, seed=100)
        cond = np.zeros(2)
        h_loss = np.mean([evaluate_loss(img, cond, weights) for img in healthy])
        d_loss = np.mean([evaluate_loss(img, cond, weights) for img in diseased])
        assert h_loss < d_loss

    def test_empty_dataset_rejected(self):
        with pytest.raises(DataError):
            train([], ARCH, TrainConfig(epochs=1))

    @pytest.mark.parametrize("batch_size", [0, -4])
    def test_batch_size_below_one_rejected(self, batch_size):
        with pytest.raises(DataError, match="batch_size"):
            TrainConfig(batch_size=batch_size)

    @pytest.mark.parametrize("name,value", [
        ("lr", float("nan")), ("lr", -1.0), ("lr", float("inf")),
        ("epochs", -2), ("epochs", 2.5), ("patience", 0)])
    def test_unusable_setting_rejected(self, name, value):
        with pytest.raises(DataError, match=name):
            TrainConfig(**{name: value})
