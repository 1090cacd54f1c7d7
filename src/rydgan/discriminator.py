"""Classical adversary: a small MLP scoring feature vectors as real/fake.

Architecture is input -> hidden -> hidden -> 1 with rectified linear
units after the first two affine layers and a logistic output. Training
uses binary cross-entropy computed from the logits (numerically stable at
saturation) and Adam updates. Everything is plain numpy; nets and
optimizer states are immutable dataclasses, updates return fresh copies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError

PARAM_NAMES = ("w1", "b1", "w2", "b2", "w3", "b3")


@dataclass(frozen=True)
class DiscriminatorNet:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray

    def __post_init__(self):
        for name in PARAM_NAMES:
            arr = np.asarray(getattr(self, name), dtype=float)
            if not np.isfinite(arr).all():
                raise NumericError(f"non-finite values in discriminator {name}")
            object.__setattr__(self, name, arr)

    @property
    def in_dim(self) -> int:
        return self.w1.shape[0]

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in PARAM_NAMES}


def init_discriminator(rng: np.random.Generator, in_dim: int,
                       hidden: int) -> DiscriminatorNet:
    """He-initialized weights, zero biases."""
    def he(fan_in, shape):
        return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)
    return DiscriminatorNet(
        w1=he(in_dim, (in_dim, hidden)), b1=np.zeros(hidden),
        w2=he(hidden, (hidden, hidden)), b2=np.zeros(hidden),
        w3=he(hidden, (hidden, 1)), b3=np.zeros(1))


def _softplus(z):
    return np.logaddexp(0.0, z)


def _sigmoid(z):
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _check_features(x) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if not np.isfinite(x).all():
        raise NumericError("non-finite feature values passed to discriminator")
    return x


def _logits(net: DiscriminatorNet, x: np.ndarray):
    z1 = x @ net.w1 + net.b1
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ net.w2 + net.b2
    a2 = np.maximum(z2, 0.0)
    z3 = a2 @ net.w3 + net.b3
    return z1, a1, z2, a2, z3


def discriminator_forward(net: DiscriminatorNet, features) -> np.ndarray:
    """Probability the input is real, strictly inside (0, 1).

    Accepts a single feature vector (returns a scalar) or a batch.
    """
    single = np.ndim(features) == 1
    x = _check_features(features)
    if x.shape[1] != net.in_dim:
        raise ValidationError(
            f"expected {net.in_dim} features, got {x.shape[1]}")
    p = np.clip(_sigmoid(_logits(net, x)[4][:, 0]), 1e-15, 1.0 - 1e-15)
    return float(p[0]) if single else p


def bce_gradients(net: DiscriminatorNet, features, targets):
    """(loss, grads): the mean binary cross-entropy of the net's outputs
    against 0/1 targets, and its gradients keyed like the net's parameters."""
    x = _check_features(features)
    y = np.asarray(targets, dtype=float).reshape(-1, 1)
    z1, a1, z2, a2, z3 = _logits(net, x)
    n = x.shape[0]
    loss = float(np.mean(y * _softplus(-z3) + (1.0 - y) * _softplus(z3)))
    dz3 = (_sigmoid(z3) - y) / n
    dw3 = a2.T @ dz3
    db3 = dz3.sum(axis=0)
    da2 = dz3 @ net.w3.T
    dz2 = da2 * (z2 > 0)
    dw2 = a1.T @ dz2
    db2 = dz2.sum(axis=0)
    da1 = dz2 @ net.w2.T
    dz1 = da1 * (z1 > 0)
    dw1 = x.T @ dz1
    db1 = dz1.sum(axis=0)
    grads = {"w1": dw1, "b1": db1, "w2": dw2, "b2": db2, "w3": dw3, "b3": db3}
    return loss, grads


@dataclass(frozen=True)
class AdamState:
    """First/second moment accumulators plus the step counter."""

    m: dict
    v: dict
    t: int = 0

    @classmethod
    def for_net(cls, net: DiscriminatorNet) -> "AdamState":
        zeros = {k: np.zeros_like(p) for k, p in net.as_dict().items()}
        return cls(m=zeros, v={k: z.copy() for k, z in zeros.items()}, t=0)


def adam_update(net: DiscriminatorNet, grads: dict, state: AdamState,
                lr: float, beta1: float, beta2: float, eps: float):
    """One Adam step; returns (new net, new state)."""
    t = state.t + 1
    new_params, new_m, new_v = {}, {}, {}
    for name, p in net.as_dict().items():
        g = grads[name]
        m = beta1 * state.m[name] + (1.0 - beta1) * g
        v = beta2 * state.v[name] + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        new_params[name] = p - lr * m_hat / (np.sqrt(v_hat) + eps)
        new_m[name], new_v[name] = m, v
    return DiscriminatorNet(**new_params), AdamState(new_m, new_v, t)


def discriminator_step(net: DiscriminatorNet, real_batch, fake_batch,
                       state: AdamState, lr: float, beta1: float, beta2: float,
                       eps: float):
    """One Adam update on BCE with targets 1 (real) / 0 (fake).

    Returns (new net, new state, mean loss).
    """
    real, fake = np.atleast_2d(real_batch), np.atleast_2d(fake_batch)
    if len(real) == 0 or len(fake) == 0:
        raise ValidationError("real and fake batches must both be nonempty")
    y = np.concatenate([np.ones(len(real)), np.zeros(len(fake))])
    # bce_gradients checks the stacked features once
    loss, grads = bce_gradients(net, np.vstack([real, fake]), y)
    new_net, new_state = adam_update(net, grads, state, lr, beta1, beta2, eps)
    return new_net, new_state, loss
