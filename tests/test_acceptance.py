"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion. The absolute image-quality scores of a full-scale training
campaign are out of scope here (they need hours of optimization and a
specific feature space); the end-to-end criterion instead checks that a
reduced-budget training run strictly improves the ensemble FID over its
untrained initialization for the median seed.

The environment ships no MNIST files, so dataset-shaped criteria run on
deterministic synthetic 28x28 images with the exact MNIST layout.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from rydgan.data import fit_pca, scale_features, transform, unscale_features
from rydgan.discriminator import bce_gradients, bce_loss, init_discriminator
from rydgan.generator import (EXACT, ErrorModel, GeneratorParams, draw_seeds,
                              generate_batch, modulo_encode, perturb_params)
from rydgan.metrics import (GaussianSummary, fid, greedy_select,
                            variation_scores)
from rydgan.sim import AtomArrangement, evolve, interaction_strength
from rydgan.training import TrainConfig, initial_params, train_learners
from tests.test_data import synthetic_digits
from tests.test_metrics import naive_fid, random_summary
from tests.test_sim import constant_spec, random_spec


def report(name):
    print(f"ACCEPTANCE {name}: PASS")


def test_rabi_physics_oracle():
    start = time.perf_counter()
    spec = constant_spec([(0.0, 0.0)], [0.0], omega=np.pi, dlocal=0.0,
                         dglobal=0.0)
    p = np.abs(evolve([spec], duration=1.0)[0]) ** 2
    assert abs(p[1] - 1.0) < 1e-6

    rng = np.random.default_rng(1)
    for _ in range(20):
        omega = rng.uniform(0.5, 12.0)
        t = rng.uniform(0.1, 2.0)
        spec = constant_spec([(0.0, 0.0)], [0.0], omega=omega, dlocal=0.0,
                             dglobal=0.0, duration=t)
        p = np.abs(evolve([spec], duration=t)[0]) ** 2
        assert abs(p[1] - np.sin(omega * t / 2.0) ** 2) < 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"Rabi oracle took {elapsed:.2f}s"
    report("rabi physics oracle")


def test_blockade_physics_oracle():
    start = time.perf_counter()
    assert interaction_strength((0, 0), (4, 0)) == pytest.approx(1323.365,
                                                                 abs=5e-4)
    close = constant_spec([(0.0, 0.0), (4.0, 0.0)], [0.0, 0.0],
                          omega=2.5, dlocal=0.0, dglobal=0.0)
    p_close = np.abs(evolve([close], duration=1.0)[0]) ** 2
    assert p_close[3] < 0.05

    far = constant_spec([(0.0, 0.0), (30.0, 0.0)], [0.0, 0.0],
                        omega=2.5, dlocal=0.0, dglobal=0.0)
    p_far = np.abs(evolve([far], duration=1.0)[0]) ** 2
    independent = np.sin(2.5 * 1.0 / 2.0) ** 2
    assert abs(p_far[3] - independent ** 2) < 1e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"blockade oracle took {elapsed:.2f}s"
    report("blockade physics oracle")


def test_unitarity_and_convergence():
    rng = np.random.default_rng(2)
    for _ in range(50):
        spec = random_spec(rng, n=4)
        p1 = np.abs(evolve([spec], steps=1000)[0]) ** 2
        assert abs(np.sum(p1) - 1.0) < 1e-9
        p2 = np.abs(evolve([spec], steps=2000)[0]) ** 2
        assert np.abs(p1 - p2).max() < 1e-6
    report("unitarity and step-halving convergence")


def test_fid_oracle():
    a = random_summary(np.random.default_rng(3), 3)
    assert fid(a, a) < 1e-6
    assert fid(GaussianSummary([0.0], [[1.0]]),
               GaussianSummary([1.0], [[1.0]])) == pytest.approx(1.0, abs=1e-12)
    assert fid(GaussianSummary([0.0], [[4.0]]),
               GaussianSummary([0.0], [[1.0]])) == pytest.approx(1.0, abs=1e-12)
    rng = np.random.default_rng(4)
    for _ in range(100):
        d = int(rng.integers(2, 5))
        a, b = random_summary(rng, d), random_summary(rng, d)
        assert abs(fid(a, b) - naive_fid(a, b)) < 1e-6
    report("FID naive-diagonalization oracle")


def test_variation_oracle():
    batch = [np.array([[0.0, 0.0]]), np.array([[2.0, 2.0]])]
    assert np.allclose(variation_scores(batch), [2.0, 2.0])
    rng = np.random.default_rng(5)
    for _ in range(100):
        batch = rng.uniform(0, 1, size=(int(rng.integers(1, 8)), 6, 6))
        mu = batch.mean(axis=0)
        oracle = np.array([sum((mu[i, j] - g[i, j]) ** 2
                               for i in range(6) for j in range(6))
                           for g in batch])
        assert np.array_equal(variation_scores(batch), oracle) or \
            np.abs(variation_scores(batch) - oracle).max() < 1e-14
    report("variation brute-force oracle")


def test_greedy_selection_matches_exhaustive_oracle():
    from tests.test_metrics import TestGreedySelect
    digits = synthetic_digits(np.random.default_rng(6), 60)
    pca = fit_pca(digits, 4)
    val = synthetic_digits(np.random.default_rng(7), 12)
    scaled = scale_features(pca, transform(pca, val.flat()))
    oracle = TestGreedySelect()._oracle
    rng = np.random.default_rng(8)
    for trial in range(100):
        pool = int(rng.integers(1, 5))
        batches = np.clip(scaled.mean(axis=0)
                          + rng.normal(0, 0.25 / 4, (pool, 6, 4)), 1e-6, 0.25)
        result = greedy_select(batches, val, pca)
        members, best_fid = oracle(batches, val, pca)
        assert list(result.member_indices) == members, f"pool {trial}"
        assert result.fid_trail[-1] == pytest.approx(best_fid)
    report("greedy selection vs exhaustive forward-selection oracle")


def test_discriminator_gradient_check():
    h = 1e-5
    for trial in range(20):
        rng = np.random.default_rng(300 + trial)
        net = init_discriminator(rng, 16, 10)
        x = rng.normal(size=(6, 16))
        y = rng.integers(0, 2, size=6).astype(float)
        _, grads = bce_gradients(net, x, y)
        for name, param in net.as_dict().items():
            flat = param.reshape(-1)
            numeric = np.zeros_like(flat)
            for j in range(flat.size):
                for sign in (+1, -1):
                    bumped = flat.copy()
                    bumped[j] += sign * h
                    net_b = replace(net, **{name: bumped.reshape(param.shape)})
                    numeric[j] += sign * bce_loss(net_b, x, y)
            numeric /= 2 * h
            g = grads[name].reshape(-1)
            scale = np.maximum(np.abs(numeric), np.abs(g))
            mask = scale > 1e-7
            if mask.any():
                assert (np.abs(numeric - g)[mask] / scale[mask]).max() < 1e-4
    report("BCE gradients vs central finite differences")


def test_pca_roundtrips_and_runtime():
    digits = synthetic_digits(np.random.default_rng(9), 1000)
    start = time.perf_counter()
    model = fit_pca(digits, 16)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"PCA fit took {elapsed:.1f}s"

    # rank-k roundtrip on data lying in the component span
    rng = np.random.default_rng(10)
    w = rng.uniform(model.scale_lo, model.scale_hi, size=(20, 16))
    from rydgan.data import inverse_transform
    images = inverse_transform(model, w)
    again = transform(model, images)
    assert np.abs(again - w).max() < 1e-8

    scaled = scale_features(model, w)
    assert np.abs(unscale_features(model, scaled) - w).max() < 1e-10
    report("PCA and scaling roundtrips within tolerance")


def test_modulo_encoding_window():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        p = rng.dirichlet(rng.uniform(0.3, 2.0, 16))
        f = modulo_encode(p)
        positive = p > 0
        assert np.all(f[positive] > 0.0)
        assert np.all(f[positive] <= 1.0 / 16.0 + 1e-15)
        small = p < 1.0 / 16.0
        assert np.array_equal(f[small & positive], p[small & positive])
    report("modulo encoding stays in (0, 1/16]")


def test_error_model_statistics():
    arr = AtomArrangement(((6.0, 6.0), (12.0, 6.0)), (0.5, 0.5))
    params = GeneratorParams(arr, "linear", 2.0, "triangle", -3.0, 0.5)
    detunings, gains, offsets = [], [], []
    for i in range(10_000):
        out = perturb_params(params, ErrorModel(rng_seed=i))
        detunings.append(out.global_detuning_offset - 0.5)
        gains.append(out.rabi_gain)
        offsets.append(np.array(out.arrangement.positions)
                       - np.array(params.arrangement.positions))
    detunings = np.array(detunings)
    gains = np.array(gains)
    offsets = np.concatenate([o.reshape(-1) for o in offsets])
    assert abs(detunings.std() - 0.1) / 0.1 < 0.05
    assert abs(gains.std() - 0.01) / 0.01 < 0.05
    assert abs(gains.mean() - 1.0) < 0.005
    assert abs(offsets.std() - 0.1) / 0.1 < 0.05
    report("error-model perturbation statistics")


def _smoke_seed_run(master_seed: int, features, val, pca) -> tuple:
    """(untrained FID, trained FID) for one master seed, two shape pairs."""
    pairs = (("linear", "triangle"), ("linear", "gaussian"))
    config = TrainConfig(n_qubits=4, steps_per_us=250, cycles=1, nm_iters=10,
                         disc_steps=8, disc_batch=12, seed_batch=6, hidden=32,
                         master_seed=master_seed)
    fid_seeds = draw_seeds(np.random.default_rng(master_seed + 1000), 24)

    def ensemble_fid(pool) -> float:
        """Validation FID of the greedy ensemble over a pool of params."""
        runs = [(params, s, EXACT) for params in pool for s in fid_seeds]
        batches = generate_batch(runs, steps=config.steps)
        return greedy_select(batches.reshape(len(pool), len(fid_seeds), -1),
                             val, pca).fid_trail[-1]

    untrained = []
    for rabi_shape, local_shape in pairs:
        params = initial_params(config, np.random.default_rng(master_seed))
        untrained.append(replace(params, rabi_shape=rabi_shape,
                                 local_shape=local_shape))
    trained = [train_learners([(config, pair)], features)[0].learner.params
               for pair in pairs]
    return ensemble_fid(untrained), ensemble_fid(trained)


def test_end_to_end_smoke_training():
    start = time.perf_counter()
    digits = synthetic_digits(np.random.default_rng(12), 556)
    train = type(digits)(digits.images[:500], digits.labels[:500])
    val = type(digits)(digits.images[500:], digits.labels[500:])
    pca = fit_pca(train, 16)
    features = scale_features(pca, transform(pca, train.flat()))

    improved = 0
    for master_seed in (101, 202, 303):
        before, after = _smoke_seed_run(master_seed, features, val, pca)
        print(f"seed {master_seed}: untrained FID {before:.4f} -> "
              f"trained FID {after:.4f}")
        if after < before:
            improved += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 900.0, f"smoke training took {elapsed:.0f}s"
    assert improved >= 2, f"only {improved}/3 seeds improved"
    report("end-to-end smoke training improves ensemble FID (median of 3 seeds)")
