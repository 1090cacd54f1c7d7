import numpy as np
import pytest
from hypothesis import settings

from tests.test_data import synthetic_digits, write_idx_pair

# every property test: the same examples on every run, no example database
# written, and no per-example deadline (examples run whole CLI commands)
settings.register_profile("rydgan", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("rydgan")


@pytest.fixture(scope="session")
def idx_dataset(tmp_path_factory):
    """Synthetic MNIST-layout IDX pair: 100 class-0 and 30 class-1 images."""
    root = tmp_path_factory.mktemp("dataset")
    rng = np.random.default_rng(99)
    zeros = synthetic_digits(rng, 100, label=0)
    ones = synthetic_digits(rng, 30, label=1)
    images = np.concatenate([zeros.images, ones.images])
    labels = np.concatenate([zeros.labels, ones.labels])
    order = np.random.default_rng(5).permutation(len(labels))
    raw = np.rint(images[order] * 255).astype(np.uint8)
    return write_idx_pair(root, raw, labels[order])
