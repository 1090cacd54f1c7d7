"""Image-quality metrics and greedy ensemble selection.

The Frechet distance between Gaussian summaries,

    ||mu1 - mu2||^2 + tr(C1 + C2 - 2 (C1 C2)^(1/2)),

is evaluated with the symmetric matrix-root construction
sqrt(sqrt(C1) C2 sqrt(C1)), clamping negative eigenvalues to zero before
rooting, so the result is real and symmetric in its arguments. For
image batches the covariances are 784-dimensional and rank-deficient; a
small diagonal jitter keeps the root stable, and the computation is
carried out in the joint affine span of the two batches (lossless: in
every direction orthogonal to both batches the jittered covariances are
identical epsilon multiples of the identity, whose trace contributions
cancel exactly).

Variation of one image against its batch is the summed squared per-pixel
deviation from the batch-mean image. A FID or variation that is not
finite (images that overflow float64) is a NumericError.

Selection is a pure function of feature batches the caller has already
generated; the commands generate them, so this module runs no simulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ImageSet, PcaModel, inverse_transform, unscale_features
from .errors import DataError, NumericError, ValidationError

IMAGE_FID_JITTER = 1e-6


@dataclass(frozen=True)
class GaussianSummary:
    """Sample mean and (symmetrized) sample covariance of a point cloud."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).reshape(-1)
        cov = np.asarray(self.covariance, dtype=float)
        if cov.shape != (mean.size, mean.size):
            raise ValidationError(
                f"covariance shape {cov.shape} does not match mean size {mean.size}")
        asym = float(np.abs(cov - cov.T).max()) if cov.size else 0.0
        if asym > 1e-10:
            raise ValidationError(f"covariance asymmetric by {asym:.3g}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", (cov + cov.T) / 2.0)

    @property
    def dim(self) -> int:
        return self.mean.size


def summarize(batch) -> GaussianSummary:
    """Sample mean and covariance (divisor N - 1) of a batch of d-vectors."""
    x = np.asarray(batch, dtype=float)
    if x.ndim != 2:
        raise ValidationError(f"expected an (N, d) batch, got shape {x.shape}")
    n = x.shape[0]
    if n < 2:
        raise ValidationError(f"need at least 2 samples for a covariance, got {n}")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / (n - 1)
    return GaussianSummary(mean, cov)


def _sym_sqrt(mat: np.ndarray) -> np.ndarray:
    """Matrix square root of a symmetric PSD matrix, clamping negatives."""
    vals, vecs = np.linalg.eigh(mat)
    return (vecs * np.sqrt(np.maximum(vals, 0.0))) @ vecs.T


def fid(a: GaussianSummary, b: GaussianSummary, jitter: float = 0.0) -> float:
    """Frechet distance between two Gaussian summaries, >= 0.

    jitter is added to both covariance diagonals before rooting (used for
    rank-deficient image covariances).
    """
    if a.dim != b.dim:
        raise ValidationError(f"dimension mismatch: {a.dim} vs {b.dim}")
    c1 = a.covariance + jitter * np.eye(a.dim)
    c2 = b.covariance + jitter * np.eye(b.dim)
    root_c1 = _sym_sqrt(c1)
    cross = _sym_sqrt(root_c1 @ c2 @ root_c1)
    delta = a.mean - b.mean
    val = float(delta @ delta + np.trace(c1) + np.trace(c2) - 2.0 * np.trace(cross))
    return max(val, 0.0)


def _project_to_joint_span(x1: np.ndarray, x2: np.ndarray):
    """Rotate both batches into an orthonormal basis of their joint affine span."""
    mu1, mu2 = x1.mean(axis=0), x2.mean(axis=0)
    stacked = np.vstack([x1 - mu1, x2 - mu2, (mu1 - mu2)[None, :]])
    _, svals, vt = np.linalg.svd(stacked, full_matrices=False)
    keep = svals > svals.max() * 1e-12 if svals.size and svals.max() > 0 else svals > 0
    basis = vt[keep]
    origin = mu1
    return (x1 - origin) @ basis.T, (x2 - origin) @ basis.T


@np.errstate(over="ignore", invalid="ignore")   # _finite reports overflow
def fid_images(real_images, generated_images) -> float:
    """FID between two image batches on flattened pixels.

    Batches are projected onto their joint affine span first, which
    leaves the jittered FID value unchanged while shrinking the
    eigenproblems from pixel count to batch size.
    """
    r = np.asarray(real_images, dtype=float).reshape(len(real_images), -1)
    g = np.asarray(generated_images, dtype=float).reshape(len(generated_images), -1)
    if r.shape[1] != g.shape[1]:
        raise ValidationError(
            f"pixel dimensions differ: {r.shape[1]} vs {g.shape[1]}")
    if r.shape[0] < 2 or g.shape[0] < 2:
        raise ValidationError("need at least 2 images per batch for FID")
    for batch in (r, g):
        _finite(batch, "FID")
    if r.shape[0] + g.shape[0] + 1 < r.shape[1]:
        r, g = _project_to_joint_span(r, g)
    return _finite(fid(summarize(r), summarize(g), IMAGE_FID_JITTER), "FID")


@np.errstate(over="ignore", invalid="ignore")
def variation_scores(images) -> np.ndarray:
    """Summed squared deviation of each image of the (N, ...) batch from the
    batch-mean image."""
    stack = np.asarray(images, dtype=float)
    return _finite(((stack.mean(axis=0) - stack) ** 2).sum(
        axis=tuple(range(1, stack.ndim))), "variation")


def _finite(values, quantity: str):
    """values; NumericError naming quantity if one is nan or infinite."""
    if not np.isfinite(values).all():
        raise NumericError(f"{quantity} is not finite: the images overflow")
    return values


def ensemble_images(pca: PcaModel, member_features) -> np.ndarray:
    """(S, pixels) images from the (M, S, 2^n) features of M members at the
    same S seeds: each image decodes the mean of its members' features."""
    mean = np.mean(member_features, axis=0)
    return inverse_transform(pca, unscale_features(pca, mean))


@dataclass(frozen=True)
class SelectionResult:
    member_indices: tuple    # learner positions in pick order
    fid_trail: tuple         # validation FID after each accepted member
    singleton_fids: tuple    # FID of each learner alone


def greedy_select(feature_batches, val_images: ImageSet,
                  pca: PcaModel) -> SelectionResult:
    """Greedy forward selection of an ensemble by validation FID.

    feature_batches is an (L, S, 2^n) array: the features of L learners
    at the same S seeds. Seeds the ensemble with the single lowest-FID
    learner, then keeps adding whichever remaining learner most lowers
    the FID of the averaged output, stopping when no addition strictly
    improves it. Ties break toward the earlier learner. The ensemble's
    validation FID is fid_trail[-1].
    """
    batches = np.asarray(feature_batches, dtype=float)
    if batches.ndim != 3 or batches.shape[0] < 1 or batches.shape[1] < 2:
        raise ValidationError(
            "feature batches must have shape (L >= 1 learners, S >= 2 seeds, "
            f"2^n), got {batches.shape}")
    if len(val_images) < 2:
        raise DataError("validation set must hold at least 2 images")
    val_flat = val_images.flat()

    def fid_of(indices) -> float:
        return fid_images(val_flat, ensemble_images(pca, batches[list(indices)]))

    singles = [fid_of([i]) for i in range(len(batches))]
    best = int(np.argmin(singles))
    members = [best]
    val_fid = singles[best]
    trail = [val_fid]
    while True:
        next_learner = None
        for i in range(len(batches)):
            if i in members:
                continue
            trial_fid = fid_of(members + [i])
            if trial_fid < val_fid:
                next_learner = i
                val_fid = trial_fid
        if next_learner is None:
            break
        members.append(next_learner)
        trail.append(val_fid)
    return SelectionResult(tuple(members), tuple(trail), tuple(singles))
