import numpy as np
import pytest

from rydgan.data import fit_pca, scale_features, transform
from rydgan.errors import ValidationError
from rydgan.metrics import (GaussianSummary, fid, fid_images, greedy_select,
                            summarize, variation_scores)
from tests.test_data import synthetic_digits


def naive_fid(a, b):
    """Independent route: diagonalize C1 C2 directly (non-symmetric eig)."""
    eigvals = np.linalg.eigvals(a.covariance @ b.covariance)
    trace_sqrt = np.sqrt(np.maximum(eigvals.real, 0.0)).sum()
    d = a.mean - b.mean
    return float(d @ d + np.trace(a.covariance) + np.trace(b.covariance)
                 - 2.0 * trace_sqrt)


def random_summary(rng, d):
    mean = rng.normal(size=d)
    m = rng.normal(size=(d + 3, d))
    cov = m.T @ m / (d + 2)
    return GaussianSummary(mean, cov)


class TestSummarize:
    def test_two_points_1d(self):
        s = summarize(np.array([[0.0], [2.0]]))
        assert s.mean[0] == 1.0
        assert s.covariance[0, 0] == 2.0

    def test_identical_points(self):
        s = summarize(np.array([[1.5, -2.0]] * 4))
        assert np.all(s.covariance == 0.0)

    def test_single_point_rejected(self):
        with pytest.raises(ValidationError):
            summarize(np.array([[1.0, 2.0]]))

    def test_covariance_symmetric(self):
        s = summarize(np.random.default_rng(0).normal(size=(10, 5)))
        assert np.array_equal(s.covariance, s.covariance.T)


class TestFid:
    def test_identical_summaries(self):
        s = random_summary(np.random.default_rng(1), 4)
        assert fid(s, s) < 1e-6

    def test_mean_shift_only(self):
        a = GaussianSummary([0.0], [[1.0]])
        b = GaussianSummary([1.0], [[1.0]])
        assert fid(a, b) == pytest.approx(1.0, abs=1e-9)

    def test_covariance_mismatch_1d(self):
        a = GaussianSummary([0.0], [[4.0]])
        b = GaussianSummary([0.0], [[1.0]])
        # 4 + 1 - 2*sqrt(4*1) = 1
        assert fid(a, b) == pytest.approx(1.0, abs=1e-9)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a, b = random_summary(rng, 3), random_summary(rng, 3)
            assert fid(a, b) == pytest.approx(naive_fid(a, b), abs=1e-6)

    def test_symmetric(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            a, b = random_summary(rng, 5), random_summary(rng, 5)
            assert abs(fid(a, b) - fid(b, a)) < 1e-8

    def test_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a, b = random_summary(rng, 4), random_summary(rng, 4)
            assert fid(a, b) >= 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            fid(random_summary(np.random.default_rng(5), 3),
                random_summary(np.random.default_rng(6), 4))

    def test_rank_deficient_with_jitter(self):
        # singular covariances: jitter keeps the root finite and stable
        x = np.zeros((5, 8))
        x[:, 0] = np.arange(5)
        a = summarize(x)
        b = summarize(x + 1.0)
        val = fid(a, b, jitter=1e-6)
        assert np.isfinite(val) and val == pytest.approx(8.0, rel=1e-3)

    def test_asymmetric_covariance_rejected(self):
        cov = np.eye(3)
        cov[0, 1] = 1e-3
        with pytest.raises(ValidationError):
            GaussianSummary(np.zeros(3), cov)


class TestFidImages:
    def test_projection_matches_direct_computation(self):
        # dual route: span-projected fast path vs raw 784-dim evaluation
        rng = np.random.default_rng(7)
        for trial in range(5):
            real = rng.uniform(0, 1, size=(12, 28, 28))
            fake = rng.uniform(0, 1, size=(9, 28, 28))
            fast = fid_images(real, fake)
            r = real.reshape(12, -1)
            g = fake.reshape(9, -1)
            direct = fid(summarize(r), summarize(g), jitter=1e-6)
            assert fast == pytest.approx(direct, rel=1e-6, abs=1e-6)

    def test_identical_batches_near_zero(self):
        rng = np.random.default_rng(8)
        batch = rng.uniform(0, 1, size=(10, 28, 28))
        assert fid_images(batch, batch) < 1e-6

    def test_needs_two_images(self):
        rng = np.random.default_rng(9)
        with pytest.raises(ValidationError):
            fid_images(rng.uniform(size=(1, 28, 28)),
                       rng.uniform(size=(5, 28, 28)))


class TestVariation:
    def test_identical_batch_scores_zero(self):
        batch = [np.full((28, 28), 0.3)] * 5
        assert np.all(variation_scores(batch) == 0.0)

    def test_hand_computed_pair(self):
        batch = [np.array([[0.0, 0.0]]), np.array([[2.0, 2.0]])]
        scores = variation_scores(batch)
        assert np.allclose(scores, [2.0, 2.0])

    def test_single_image_scores_zero(self):
        assert variation_scores([np.ones((4, 4))])[0] == 0.0

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            batch = rng.uniform(0, 1, size=(rng.integers(2, 7), 5, 5))
            mu = batch.mean(axis=0)
            oracle = []
            for g in batch:
                total = 0.0
                for i in range(5):
                    for j in range(5):
                        total += (mu[i, j] - g[i, j]) ** 2
                oracle.append(total)
            assert np.allclose(variation_scores(batch), oracle, atol=1e-12)


@pytest.fixture(scope="module")
def pca():
    return fit_pca(synthetic_digits(np.random.default_rng(20), 60), 4)


@pytest.fixture(scope="module")
def val():
    return synthetic_digits(np.random.default_rng(21), 12)


class TestGreedySelect:
    def _oracle(self, batches, val, pca):
        """Independent forward selection recomputing every candidate FID."""
        from rydgan.data import inverse_transform, unscale_features
        def fid_of(idxs):
            avg = batches[list(idxs)].mean(axis=0)
            images = inverse_transform(pca, unscale_features(pca, avg))
            return fid_images(val.flat(), images)
        n = batches.shape[0]
        singles = [fid_of([i]) for i in range(n)]
        members = [int(np.argmin(singles))]
        best = singles[members[0]]
        while True:
            candidate, candidate_fid = None, best
            for i in range(n):
                if i in members:
                    continue
                trial = fid_of(members + [i])
                if trial < candidate_fid:
                    candidate, candidate_fid = i, trial
            if candidate is None:
                return members, best
            members.append(candidate)
            best = candidate_fid

    def test_matches_exhaustive_oracle_on_random_pools(self, pca, val):
        rng = np.random.default_rng(22)
        scaled = scale_features(pca, transform(pca, val.flat()))
        for trial in range(100):
            pool = int(rng.integers(1, 5))
            n_seeds = 6
            # batches biased toward the data window so FIDs are comparable
            batches = np.clip(
                scaled.mean(axis=0) + rng.normal(0, 0.25 / 4, (pool, n_seeds, 4)),
                1e-6, 0.25)
            result = greedy_select(batches, val, pca)
            oracle_members, oracle_fid = self._oracle(batches, val, pca)
            assert list(result.member_indices) == oracle_members, f"trial {trial}"
            assert result.fid_trail[-1] == pytest.approx(oracle_fid)

    def test_single_learner_pool(self, pca, val):
        batches = np.full((1, 5, 4), 0.1)
        result = greedy_select(batches, val, pca)
        assert result.member_indices == (0,)
        assert len(result.fid_trail) == 1

    def test_no_improving_addition_stops_at_singleton(self, pca, val):
        # learner 0 strictly dominates; adding the far-off learner 1 hurts
        scaled = scale_features(pca, transform(pca, val.flat()))
        good = np.clip(scaled.mean(axis=0)
                       + np.random.default_rng(23).normal(0, 0.01, (8, 4)),
                       1e-6, 0.25)
        bad = np.full((8, 4), 1e-6)
        result = greedy_select(np.stack([good, bad]), val, pca)
        assert result.member_indices == (0,)

    def test_fid_trail_strictly_decreasing(self, pca, val):
        rng = np.random.default_rng(24)
        scaled = scale_features(pca, transform(pca, val.flat()))
        batches = np.clip(scaled.mean(axis=0)
                          + rng.normal(0, 0.06, (4, 6, 4)), 1e-6, 0.25)
        result = greedy_select(batches, val, pca)
        trail = result.fid_trail
        assert all(a > b for a, b in zip(trail, trail[1:]))

    def test_members_get_singleton_fids(self, pca, val):
        batches = np.full((2, 5, 4), 0.1)
        batches[1] += 0.01
        result = greedy_select(batches, val, pca)
        assert len(result.singleton_fids) == 2
        assert np.isfinite(result.singleton_fids).all()
        assert result.fid_trail[0] == min(result.singleton_fids)

    def test_empty_pool_rejected(self, pca, val):
        with pytest.raises(ValidationError):
            greedy_select(np.empty((0, 5, 4)), val, pca)

    @pytest.mark.parametrize("shape", [(5, 4), (2, 1, 4), (1, 2, 5, 4)],
                             ids=["2-d", "one-seed", "4-d"])
    def test_misshapen_batches_rejected(self, pca, val, shape):
        with pytest.raises(ValidationError, match="shape"):
            greedy_select(np.full(shape, 0.1), val, pca)


def test_metrics_imports_no_generation_layer():
    """Selection only scores features: metrics imports data and errors only."""
    import ast
    import rydgan.metrics
    with open(rydgan.metrics.__file__, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    local = {node.module for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level > 0}
    absolute = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    absolute |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level == 0}
    assert local == {"data", "errors"}
    assert not any(name.startswith("rydgan") for name in absolute)
