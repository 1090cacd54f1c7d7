import numpy as np
import pytest
from dataclasses import replace

from rydgan.discriminator import (AdamState, DiscriminatorNet, adam_update,
                                  bce_gradients, discriminator_forward,
                                  discriminator_step, init_discriminator)
from rydgan.errors import NumericError, ValidationError
from rydgan.training import TrainConfig


def adam(**given):
    """TrainConfig's default Adam settings, with the given ones in place."""
    config = TrainConfig()
    return {"lr": config.adam_lr, "beta1": config.adam_beta1,
            "beta2": config.adam_beta2, "eps": config.adam_eps, **given}


def zero_net(in_dim=16, hidden=8):
    return DiscriminatorNet(
        w1=np.zeros((in_dim, hidden)), b1=np.zeros(hidden),
        w2=np.zeros((hidden, hidden)), b2=np.zeros(hidden),
        w3=np.zeros((hidden, 1)), b3=np.zeros(1))


class TestForward:
    def test_zero_net_outputs_half(self):
        net = zero_net()
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert discriminator_forward(net, rng.normal(size=16)) == 0.5

    def test_output_in_open_unit_interval(self):
        rng = np.random.default_rng(1)
        for i in range(1000):
            net = init_discriminator(np.random.default_rng(i), 16, 8)
            p = discriminator_forward(net, rng.normal(size=16) * 10)
            assert 0.0 < p < 1.0

    def test_batch_and_single_agree(self):
        net = init_discriminator(np.random.default_rng(2), 16, 8)
        x = np.random.default_rng(3).normal(size=(5, 16))
        batch = discriminator_forward(net, x)
        singles = [discriminator_forward(net, row) for row in x]
        assert np.allclose(batch, singles)

    def test_non_finite_input_rejected(self):
        net = zero_net()
        bad = np.zeros(16)
        bad[3] = np.nan
        with pytest.raises(NumericError):
            discriminator_forward(net, bad)

    def test_wrong_width_rejected(self):
        with pytest.raises(ValidationError):
            discriminator_forward(zero_net(), np.zeros(7))


class TestGradients:
    def test_matches_central_finite_differences(self):
        h = 1e-5
        for trial in range(20):
            rng = np.random.default_rng(100 + trial)
            net = init_discriminator(rng, 16, 10)
            x = rng.normal(size=(8, 16))
            y = rng.integers(0, 2, size=8).astype(float)
            _, grads = bce_gradients(net, x, y)
            for name, param in net.as_dict().items():
                g = grads[name]
                flat = param.reshape(-1)
                numeric = np.zeros_like(flat)
                for j in range(flat.size):
                    for sign in (+1, -1):
                        bumped = param.copy().reshape(-1)
                        bumped[j] += sign * h
                        net_b = replace(net, **{name: bumped.reshape(param.shape)})
                        numeric[j] += sign * bce_gradients(net_b, x, y)[0]
                numeric /= 2 * h
                scale = np.maximum(np.abs(numeric), np.abs(g.reshape(-1)))
                mask = scale > 1e-7  # relative error only meaningful away from 0
                rel = np.abs(numeric - g.reshape(-1))[mask] / scale[mask]
                assert rel.max() < 1e-4, f"{name}: rel err {rel.max():.2e}"

    def test_gradient_zero_at_perfect_separation(self):
        # saturated correct outputs give vanishing gradients
        net = init_discriminator(np.random.default_rng(4), 2, 4)
        strong = replace(net, w3=net.w3 * 100)
        x = np.array([[50.0, 50.0]])
        p = discriminator_forward(strong, x)[0]
        y = np.array([1.0 if p > 0.5 else 0.0])
        loss, grads = bce_gradients(strong, x, y)
        assert loss < 1e-3


class TestStep:
    def test_perfectly_classified_batches_low_loss(self):
        rng = np.random.default_rng(5)
        net = init_discriminator(rng, 2, 16)
        # train a few steps on trivially separable clusters first
        state = AdamState.for_net(net)
        real = rng.normal(loc=+3, scale=0.1, size=(32, 2))
        fake = rng.normal(loc=-3, scale=0.1, size=(32, 2))
        for _ in range(400):
            net, state, loss = discriminator_step(net, real, fake, state,
                                                  **adam(lr=5e-2))
        assert loss < 1e-3

    def test_untrained_loss_near_ln2(self):
        net = zero_net(16, 8)
        state = AdamState.for_net(net)
        rng = np.random.default_rng(6)
        _, _, loss = discriminator_step(net, rng.normal(size=(16, 16)),
                                        rng.normal(size=(16, 16)), state,
                                        **adam())
        assert loss == pytest.approx(np.log(2.0), abs=0.01)

    def test_separable_clusters_loss_decreases(self):
        final_below_initial = 0
        for seed in range(5):
            rng = np.random.default_rng(200 + seed)
            net = init_discriminator(rng, 4, 16)
            state = AdamState.for_net(net)
            real = rng.normal(loc=1.0, scale=0.3, size=(64, 4))
            fake = rng.normal(loc=-1.0, scale=0.3, size=(64, 4))
            losses = []
            for _ in range(200):
                net, state, loss = discriminator_step(net, real, fake, state,
                                                      **adam(lr=1e-2))
                losses.append(loss)
            if losses[-1] < losses[0]:
                final_below_initial += 1
        assert final_below_initial >= 3  # median seed improves

    def test_empty_batch_rejected(self):
        net = zero_net()
        state = AdamState.for_net(net)
        with pytest.raises(ValidationError):
            discriminator_step(net, np.zeros((0, 16)), np.zeros((2, 16)),
                               state, **adam())

    @pytest.mark.parametrize("which", ["real", "fake"])
    def test_non_finite_batch_checked_once(self, monkeypatch, which):
        """A non-finite value in either batch raises NumericError, and each
        step checks its stacked features once."""
        import rydgan.discriminator as disc
        check, calls = disc._check_features, []

        def counting(x):
            calls.append(np.shape(x))
            return check(x)
        monkeypatch.setattr(disc, "_check_features", counting)
        net = zero_net()
        rng = np.random.default_rng(9)
        batches = {"real": rng.normal(size=(3, 16)),
                   "fake": rng.normal(size=(2, 16))}
        discriminator_step(net, batches["real"], batches["fake"],
                           AdamState.for_net(net), **adam())
        assert calls == [(5, 16)]
        batches[which][1, 4] = np.nan
        with pytest.raises(NumericError, match="^non-finite feature values "
                           "passed to discriminator$"):
            discriminator_step(net, batches["real"], batches["fake"],
                               AdamState.for_net(net), **adam())

    def test_step_is_pure(self):
        net = init_discriminator(np.random.default_rng(7), 16, 8)
        state = AdamState.for_net(net)
        w1_before = net.w1.copy()
        rng = np.random.default_rng(8)
        discriminator_step(net, rng.normal(size=(4, 16)),
                           rng.normal(size=(4, 16)), state, **adam())
        assert np.array_equal(net.w1, w1_before)


class TestAdam:
    def test_first_step_moves_by_lr(self):
        # with bias correction the first update magnitude is ~lr per weight
        net = zero_net(2, 2)
        grads = {k: np.ones_like(v) for k, v in net.as_dict().items()}
        new_net, state = adam_update(net, grads, AdamState.for_net(net),
                                     **adam(lr=0.1))
        assert np.allclose(new_net.w1, -0.1, atol=1e-6)
        assert state.t == 1

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        net = init_discriminator(rng, 4, 4)
        grads = {k: np.full_like(v, 0.5) for k, v in net.as_dict().items()}
        a, _ = adam_update(net, grads, AdamState.for_net(net), **adam())
        b, _ = adam_update(net, grads, AdamState.for_net(net), **adam())
        assert all(np.array_equal(getattr(a, n), getattr(b, n))
                   for n in ("w1", "b1", "w2", "b2", "w3", "b3"))
