"""Dataset ingestion (IDX), PCA with inverse transform, feature scaling,
and PGM image output.

The PCA keeps the top-k eigenvectors of the pixel covariance so generated
feature vectors can be mapped back to images with the inverse transform.
Feature scaling sends the observed per-feature training range onto the
generator's output window (0, 1/2^n], and is inverted before the inverse
PCA when rendering generated images. A saved PCA model is a JSON document
whose arrays are base64 of their little-endian float64 bytes (format
version 2), so it round-trips bit for bit.
"""

from __future__ import annotations

import base64
import json
import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError, ValidationError

IDX_IMAGE_MAGIC = 2051
IDX_LABEL_MAGIC = 2049
IMAGE_SIDE = 28
PIXELS = IMAGE_SIDE * IMAGE_SIDE
SCALE_FLOOR = 1e-6
_PCA_ARRAYS = ("mean", "components", "eigenvalues", "scale_lo", "scale_hi")


@dataclass(frozen=True)
class ImageSet:
    """Images as an (N, 28, 28) float array in [0, 1] plus integer labels."""

    images: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        images = np.asarray(self.images, dtype=float)
        labels = np.asarray(self.labels, dtype=int)
        if images.ndim != 3 or images.shape[1:] != (IMAGE_SIDE, IMAGE_SIDE):
            raise ValidationError(
                f"images must have shape (N, {IMAGE_SIDE}, {IMAGE_SIDE}), "
                f"got {images.shape}")
        if labels.shape != (images.shape[0],):
            raise ValidationError(
                f"{images.shape[0]} images but {labels.shape} labels")
        if images.size and (images.min() < 0.0 or images.max() > 1.0):
            raise ValidationError("pixel values must lie in [0, 1]")
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.images.shape[0]

    def for_class(self, label: int) -> "ImageSet":
        mask = self.labels == label
        return ImageSet(self.images[mask], self.labels[mask])

    def flat(self) -> np.ndarray:
        return self.images.reshape(len(self), -1)


def _read_exact(f, count: int, path: str, what: str) -> bytes:
    offset = f.tell()
    data = f.read(count)
    if len(data) != count:
        raise DataError(
            f"{path}: truncated {what} at byte offset {offset}: "
            f"wanted {count} bytes, got {len(data)}")
    return data


def _read_be32(f, path: str, what: str) -> int:
    return struct.unpack(">i", _read_exact(f, 4, path, what))[0]


def _check_count(f, path: str, what: str, count: int, item_bytes: int):
    """Reject a header count (byte offset 4) the rest of the file cannot hold."""
    left = os.fstat(f.fileno()).st_size - f.tell()
    if not 0 <= count * item_bytes <= left:
        raise DataError(f"{path}: {what} {count} at byte offset 4 must be in "
                        f"[0, {left // item_bytes}] to fit the file")


def load_idx(images_path: str, labels_path: str) -> ImageSet:
    """Parse a big-endian IDX image/label file pair into an ImageSet.

    A bad header, a count the file cannot hold or a short payload is a
    DataError naming the file and the byte offset.
    """
    with open(images_path, "rb") as f:
        magic = _read_be32(f, images_path, "magic number")
        if magic != IDX_IMAGE_MAGIC:
            raise DataError(
                f"{images_path}: bad image magic {magic} at byte offset 0 "
                f"(expected {IDX_IMAGE_MAGIC})")
        count = _read_be32(f, images_path, "image count")
        rows = _read_be32(f, images_path, "row count")
        cols = _read_be32(f, images_path, "column count")
        if (rows, cols) != (IMAGE_SIDE, IMAGE_SIDE):
            raise DataError(
                f"{images_path}: image dimensions {rows}x{cols} at byte "
                f"offset 8, expected {IMAGE_SIDE}x{IMAGE_SIDE}")
        _check_count(f, images_path, "image count", count, rows * cols)
        payload = _read_exact(f, count * rows * cols, images_path, "pixel data")
    images = np.frombuffer(payload, dtype=np.uint8).reshape(count, rows, cols)

    with open(labels_path, "rb") as f:
        magic = _read_be32(f, labels_path, "magic number")
        if magic != IDX_LABEL_MAGIC:
            raise DataError(
                f"{labels_path}: bad label magic {magic} at byte offset 0 "
                f"(expected {IDX_LABEL_MAGIC})")
        label_count = _read_be32(f, labels_path, "label count")
        _check_count(f, labels_path, "label count", label_count, 1)
        labels = np.frombuffer(
            _read_exact(f, label_count, labels_path, "label data"), dtype=np.uint8)

    if label_count != count:
        raise DataError(
            f"{images_path} holds {count} images but {labels_path} holds "
            f"{label_count} labels")
    return ImageSet(images / 255.0, labels.astype(int))


def split_train_val(data: ImageSet, val_fraction: float = 0.1,
                    shuffle_seed: int = 20240) -> tuple:
    """Deterministic shuffled train/validation split, 0 < val_fraction < 1."""
    n = len(data)
    if n < 2:
        raise DataError(f"need at least 2 images to split, got {n}")
    order = np.random.default_rng(shuffle_seed).permutation(n)
    n_val = max(1, int(round(n * val_fraction)))
    val_idx, train_idx = order[:n_val], order[n_val:]
    return (ImageSet(data.images[train_idx], data.labels[train_idx]),
            ImageSet(data.images[val_idx], data.labels[val_idx]))


@dataclass(frozen=True)
class PcaModel:
    """Top-k principal components of a training set plus scaling bounds."""

    mean: np.ndarray          # (784,)
    components: np.ndarray    # (k, 784), rows orthonormal
    eigenvalues: np.ndarray   # (k,), nonincreasing
    scale_lo: np.ndarray      # (k,) per-feature training minima
    scale_hi: np.ndarray      # (k,) per-feature training maxima

    def __post_init__(self):
        for name in _PCA_ARRAYS:
            value = np.asarray(getattr(self, name), dtype=float)
            if not np.isfinite(value).all():
                raise ValidationError(f"{name} must hold finite values only")
            object.__setattr__(self, name, value)
        if self.components.ndim != 2 or not len(self.components):
            raise ValidationError("components must be a nonempty (k, pixels) "
                                  f"matrix, got shape {self.components.shape}")
        k = self.k
        for name, shape in (("mean", (PIXELS,)), ("components", (k, PIXELS)),
                            ("eigenvalues", (k,)), ("scale_lo", (k,)),
                            ("scale_hi", (k,))):
            if getattr(self, name).shape != shape:
                raise ValidationError(f"{name} must have shape {shape}, "
                                      f"got {getattr(self, name).shape}")
        if np.any(np.diff(self.eigenvalues) > 1e-9):
            raise ValidationError("eigenvalues must be nonincreasing")
        if np.any(self.scale_lo >= self.scale_hi):
            raise ValidationError("scale bounds must satisfy lo < hi per feature")

    @property
    def k(self) -> int:
        return self.components.shape[0]

    @property
    def feature_window_top(self) -> float:
        """Upper edge of the generator output window, 1/2^n with k = 2^n."""
        return 1.0 / self.k


def fit_pca(train: ImageSet, k: int) -> PcaModel:
    """Eigendecompose the pixel covariance and keep the top-k components."""
    n = len(train)
    if k < 1 or k > PIXELS:
        raise ValidationError(f"k must be in [1, {PIXELS}], got {k}")
    if n < k + 1:
        raise DataError(f"need at least {k + 1} images to fit {k} components, got {n}")
    x = train.flat()
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)       # ascending
    order = np.argsort(eigvals)[::-1][:k]
    components = eigvecs[:, order].T
    eigenvalues = np.maximum(eigvals[order], 0.0)
    weights = centered @ components.T
    lo, hi = weights.min(axis=0), weights.max(axis=0)
    degenerate = hi - lo <= 0
    if degenerate.any():
        raise DataError(
            f"feature(s) {np.nonzero(degenerate)[0].tolist()} have degenerate "
            "scale bounds (lo = hi); not enough variation in the training data")
    return PcaModel(mean, components, eigenvalues, lo, hi)


def transform(model: PcaModel, image) -> np.ndarray:
    """Project pixel vectors onto the component rows: w = C (x - mean)."""
    x = np.asarray(image, dtype=float)
    if x.shape[-1] != model.mean.shape[0]:
        raise ValidationError(
            f"expected trailing dimension {model.mean.shape[0]}, got {x.shape}")
    return (x - model.mean) @ model.components.T


def inverse_transform(model: PcaModel, weights) -> np.ndarray:
    """Reconstruct pixel vectors from feature weights: x = mean + C^T w."""
    w = np.asarray(weights, dtype=float)
    if w.shape[-1] != model.k:
        raise ValidationError(f"expected trailing dimension {model.k}, got {w.shape}")
    return model.mean + w @ model.components


def scale_features(model: PcaModel, weights) -> np.ndarray:
    """Affine per-feature map of [lo_j, hi_j] onto [1e-6, 1/2^n], no clipping."""
    w = np.asarray(weights, dtype=float)
    top = model.feature_window_top
    span = model.scale_hi - model.scale_lo
    return SCALE_FLOOR + (w - model.scale_lo) * (top - SCALE_FLOOR) / span


def unscale_features(model: PcaModel, scaled) -> np.ndarray:
    """Exact inverse of scale_features on each feature axis."""
    s = np.asarray(scaled, dtype=float)
    if s.shape[-1:] != (model.k,):
        raise ValidationError(f"expected trailing dimension {model.k}, got {s.shape}")
    top = model.feature_window_top
    span = model.scale_hi - model.scale_lo
    return model.scale_lo + (s - SCALE_FLOOR) * span / (top - SCALE_FLOOR)


PCA_FORMAT = "rydgan-pca"
PCA_VERSION = 2


def save_pca(model: PcaModel, path: str):
    """Write the model as one JSON document in which each array is
    {"dtype": "<f8", "shape": [...], "base64": ...}: its little-endian
    float64 bytes, so that it loads back bit for bit."""
    doc = {"format": PCA_FORMAT, "version": PCA_VERSION, "k": model.k,
           "pixels": int(model.mean.shape[0])}
    for name in _PCA_ARRAYS:
        a = np.ascontiguousarray(getattr(model, name), "<f8")
        doc[name] = {"dtype": "<f8", "shape": list(a.shape),
                     "base64": base64.b64encode(a.tobytes()).decode("ascii")}
    atomic_write_json(path, doc)


def load_pca(path: str) -> PcaModel:
    """Read a save_pca file. Bad base64, a byte count that does not fill
    the shape, another dtype, a non-finite value or a version-1 (float
    text) file is a DataError naming the path and the field."""
    doc = _load_doc(path, PCA_FORMAT, PCA_VERSION, "; re-run fit-pca")
    arrays = {}
    for name in _PCA_ARRAYS:
        with _doc_field(path, name):
            node = doc[name]
            if node["dtype"] != "<f8":
                raise ValueError(f"dtype must be '<f8', got {node['dtype']!r}")
            raw = base64.b64decode(node["base64"], validate=True)
            if len(raw) != 8 * math.prod(node["shape"]):
                raise ValueError(f"{len(raw)} bytes do not fill shape "
                                 f"{node['shape']}")
            arrays[name] = np.frombuffer(raw, "<f8").reshape(node["shape"])
    with _doc_field(path):
        return PcaModel(**arrays)


def _load_doc(path: str, format: str, version: int, remedy: str = "") -> dict:
    """A versioned JSON artefact as a dict; any defect is a DataError naming path."""
    try:
        with open(path, "rb") as f:
            doc = json.loads(f.read().decode("utf-8"))
    except OSError as exc:
        raise DataError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    except ValueError as exc:    # invalid UTF-8 or invalid JSON
        raise DataError(f"{path}: not a valid {format} file: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"{path}: not a {format} document: the top level is "
                        f"a JSON {type(doc).__name__}, not an object")
    if doc.get("format") != format:
        raise DataError(f"{path}: field format: not a {format} document")
    if doc.get("version") != version:
        raise DataError(
            f"{path}: field version: unsupported version "
            f"{doc.get('version')!r}{remedy}")
    return doc


@contextmanager
def _doc_field(path: str, name: str = ""):
    """Turn a missing key, a wrong type or a failed check into a DataError."""
    where = f"{path}: field {name}" if name else path
    try:
        yield
    except KeyError as exc:
        raise DataError(f"{where}: missing key {exc}") from exc
    except (TypeError, ValueError, AttributeError, ValidationError,
            NumericError) as exc:
        raise DataError(f"{where}: {exc}") from exc


def atomic_write_text(path: str, text: str):
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_json(path: str, doc):
    """doc as JSON indented by one space, streamed into the file."""
    _atomic_write(path, lambda f: json.dump(doc, f, indent=1),
                  mode="w", encoding="utf-8", newline="")


def atomic_write_bytes(path: str, payload: bytes):
    _atomic_write(path, lambda f: f.write(payload), mode="wb")


def _atomic_write(path: str, write, **open_args):
    """Replace path with what write(f) writes, so that readers see the old
    or the new file.

    The content goes to a fresh, uniquely named file in the same directory
    and reaches the disk before the rename; on failure the temporary file
    is removed and any old file is left as it was.
    """
    tmp = f"{path}.{os.getpid()}.{os.urandom(6).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, **open_args) as f:
            write(f)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def pgm_bytes(pixels) -> bytes:
    """8-bit binary PGM (P5): clamp to [0, 1], scale by 255, round."""
    grid = np.asarray(pixels, dtype=float)
    if grid.ndim != 2:
        raise ValidationError(f"expected a 2-D pixel grid, got shape {grid.shape}")
    if not np.isfinite(grid).all():
        raise ValidationError("pixel grid contains non-finite values")
    levels = np.rint(np.clip(grid, 0.0, 1.0) * 255.0).astype(np.uint8)
    header = f"P5\n{grid.shape[1]} {grid.shape[0]}\n255\n".encode("ascii")
    return header + levels.tobytes()


def write_image(pixels, path: str):
    atomic_write_bytes(path, pgm_bytes(pixels))


def write_montage(images, path: str):
    """Combine a batch of equal-size grids into one square-ish PGM contact
    sheet, the grids 2 pixels apart."""
    batch = [np.asarray(im, dtype=float) for im in images]
    if not batch:
        raise ValidationError("montage needs at least one image")
    h, w = batch[0].shape
    cols = int(math.ceil(math.sqrt(len(batch))))
    pad = 2
    rows = -(-len(batch) // cols)
    sheet = np.zeros((rows * (h + pad) - pad, cols * (w + pad) - pad))
    for i, im in enumerate(batch):
        r, c = divmod(i, cols)
        sheet[r * (h + pad):r * (h + pad) + h, c * (w + pad):c * (w + pad) + w] = im
    write_image(sheet, path)
