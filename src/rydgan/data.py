"""Dataset ingestion (IDX), PCA with inverse transform, feature scaling,
and PGM image output.

The IDX pair is read as uint8, so a caller converts to float only the images
it uses. The PCA keeps the top-k principal components of the pixels, whose
inverse transform maps generated feature vectors back to images. Feature
scaling sends the observed per-feature training range onto the generator's
output window (0, 1/2^n], and back before the inverse PCA. A saved PCA model
(format version 3) is one JSON header line and its arrays' little-endian
float64 bytes, so it round-trips bit for bit and loads as views of one buffer.
"""

from __future__ import annotations

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


def _read_idx(path: str, magic: int, what: str, dims: tuple) -> np.ndarray:
    """The uint8 items of an IDX file of `what` items, each of shape dims.

    A bad magic or item dimensions, a count the file cannot hold or a
    short payload is a DataError naming the file and the byte offset.
    """
    with open(path, "rb") as f:
        found = _read_be32(f, path, "magic number")
        if found != magic:
            raise DataError(f"{path}: bad {what} magic {found} at byte offset 0 "
                            f"(expected {magic})")
        count = _read_be32(f, path, f"{what} count")
        shape = tuple(_read_be32(f, path, f"{what} dimension") for _ in dims)
        if shape != dims:
            raise DataError(
                f"{path}: {what} dimensions {'x'.join(map(str, shape))} at byte "
                f"offset 8, expected {'x'.join(map(str, dims))}")
        size = math.prod(dims)
        left = os.fstat(f.fileno()).st_size - f.tell()
        if not 0 <= count * size <= left:
            raise DataError(f"{path}: {what} count {count} at byte offset 4 "
                            f"must be in [0, {left // size}] to fit the file")
        payload = _read_exact(f, count * size, path, f"{what} data")
    return np.frombuffer(payload, np.uint8).reshape((count,) + dims)


def read_idx_pair(images_path: str, labels_path: str) -> tuple:
    """(images, labels) of a big-endian IDX image/label file pair: uint8
    arrays of shape (N, 28, 28) and (N,) over the bytes read."""
    images = _read_idx(images_path, IDX_IMAGE_MAGIC, "image", (IMAGE_SIDE, IMAGE_SIDE))
    labels = _read_idx(labels_path, IDX_LABEL_MAGIC, "label", ())
    if len(labels) != len(images):
        raise DataError(f"{images_path} holds {len(images)} images but {labels_path} "
                        f"holds {len(labels)} labels")
    return images, labels


def load_idx(images_path: str, labels_path: str) -> ImageSet:
    """Parse a big-endian IDX image/label file pair into an ImageSet."""
    images, labels = read_idx_pair(images_path, labels_path)
    return ImageSet(images / 255.0, labels.astype(int))


def split_indices(n: int, val_fraction: float, shuffle_seed: int) -> tuple:
    """(train, held-out) positions of n items: the first round(n
    val_fraction), at least 1, of a seeded permutation are held out."""
    if n < 2:
        raise DataError(f"need at least 2 images to split, got {n}")
    order = np.random.default_rng(shuffle_seed).permutation(n)
    n_val = max(1, int(round(n * val_fraction)))
    return order[n_val:], order[:n_val]


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
    """The top-k principal components of the images, from one `eigh` of the
    smaller Gram matrix of the centred data C (N images x 784 pixels), dropped
    once its trace is taken; of the eigenvectors only the top k are kept.

    With fewer images than pixels that is the N x N matrix C C^T, whose
    eigenvectors U give the components as the normalized rows V of U^T C (the
    method of snapshots: Sirovich, Q. Appl. Math. 45 (1987) 561), which passes
    of V -= (V V^T - I) V / 2 make orthonormal within 1e-12; otherwise it is
    the 784 x 784 matrix C^T C, N - 1 times the covariance. Each component is
    then signed so that its largest-magnitude entry, the first on a tie, is
    positive (Bro, Acar & Kolda, J. Chemometrics 22 (2008) 135), so the basis
    depends on neither the route nor LAPACK's sign choice. A component whose
    variance is at rounding level, within what rounding the Gram entries and
    the centring can leave, is a DataError naming it.
    """
    n = len(train)
    if k < 1 or k > PIXELS:
        raise ValidationError(f"k must be in [1, {PIXELS}], got {k}")
    if n < k + 1:
        raise DataError(f"need at least {k + 1} images to fit {k} components, got {n}")
    x = train.flat()
    mean = x.mean(axis=0)
    centered = x - mean
    snapshots = n < PIXELS
    gram = centered @ centered.T if snapshots else centered.T @ centered
    (eigvals, eigvecs), trace = np.linalg.eigh(gram), np.trace(gram)  # ascending
    del gram
    eigvals, eigvecs = eigvals[::-1][:k], eigvecs[:, ::-1][:, :k].copy()
    # rounding level: that of the Gram entries, m x their trace, plus that
    # of the centring, m^2 x the images' sum of squares, m = max(N, 784) eps
    m = max(n, PIXELS) * np.finfo(float).eps
    degenerate = eigvals <= m * (trace + m * (trace + n * (mean @ mean)))
    if degenerate.any():
        raise DataError(
            f"feature(s) {np.nonzero(degenerate)[0].tolist()} have degenerate "
            "scale bounds (variance at rounding level); not enough variation "
            "in the training data")
    if snapshots:
        components = eigvecs.T @ centered
        components /= np.linalg.norm(components, axis=1)[:, None]
        for _ in range(8):      # each pass squares the rows' rounding drift
            drift = components @ components.T
            drift.flat[::k + 1] -= 1.0
            if np.abs(drift).max() <= 1e-12:
                break
            components -= 0.5 * drift @ components
    else:
        components = eigvecs.T.copy()
    peaks = np.abs(components).argmax(axis=1)
    components *= np.sign(components[np.arange(k), peaks])[:, None]
    weights = centered @ components.T
    return PcaModel(mean, components, eigvals / (n - 1),
                    weights.min(axis=0), weights.max(axis=0))


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
PCA_VERSION = 3


def save_pca(model: PcaModel, path: str):
    """Write one UTF-8 JSON header line, then each array's little-endian
    float64 bytes in `_PCA_ARRAYS` order; it loads back bit for bit."""
    arrays = [np.ascontiguousarray(getattr(model, name), "<f8")
              for name in _PCA_ARRAYS]
    header = {"format": PCA_FORMAT, "version": PCA_VERSION, "k": model.k,
              "pixels": int(model.mean.shape[0])}
    header.update((name, {"dtype": "<f8", "shape": list(a.shape)})
                  for name, a in zip(_PCA_ARRAYS, arrays))
    _atomic_write(path, lambda f: f.writelines(
        [json.dumps(header).encode("utf-8") + b"\n", *arrays]), mode="wb")


def load_pca(path: str) -> PcaModel:
    """Read a save_pca file into views of one buffer. Another format, version
    or dtype, a shape with a negative entry or that the bytes left do not fill,
    bytes after the last array, a non-finite value or a header `k` or `pixels`
    that the arrays do not match is a DataError naming the path and the field."""
    line, payload = _read(path, lambda f: (f.readline(),
                                           np.fromfile(f, np.uint8)))
    doc = _parse_doc(path, line, PCA_FORMAT, (PCA_VERSION,),
                     "; re-run fit-pca")
    arrays, start = {}, 0
    for name in _PCA_ARRAYS:
        with _doc_field(path, name):
            node = doc[name]
            if node["dtype"] != "<f8":
                raise ValueError(f"dtype must be '<f8', got {node['dtype']!r}")
            shape, end = node["shape"], start + 8 * math.prod(node["shape"])
            if min(shape, default=0) < 0 or end > len(payload):
                raise ValueError(f"shape {shape} does not fit the "
                                 f"{len(payload) - start} bytes left")
            arrays[name] = payload[start:end].view("<f8").reshape(shape)
            start = end
    if start < len(payload):
        raise DataError(f"{path}: field {name}: followed by "
                        f"{len(payload) - start} trailing bytes")
    with _doc_field(path):
        model = PcaModel(**arrays)
    for name, size in (("k", model.k), ("pixels", model.mean.size)):
        with _doc_field(path, name):
            if doc[name] != size:
                raise ValueError(f"the arrays hold {size}, not {doc[name]!r}")
    return model


def _read(path: str, read):
    """read(f) of path opened for binary reading; OSError becomes DataError."""
    try:
        with open(path, "rb") as f:
            return read(f)
    except OSError as exc:
        raise DataError(f"{path}: cannot read: {exc.strerror or exc}") from exc


def _load_doc(path: str, format: str, versions: tuple) -> dict:
    """A versioned JSON artefact as a dict; any defect is a DataError naming path."""
    return _parse_doc(path, _read(path, lambda f: f.read()), format, versions)


def _parse_doc(path: str, raw: bytes, format: str, versions: tuple,
               remedy: str = "") -> dict:
    """The JSON object in raw, which must hold this format and, as a JSON
    integer (not `true` or `1.0`), one of these versions."""
    try:
        doc = json.loads(raw.decode("utf-8"))
    except ValueError as exc:    # invalid UTF-8 or invalid JSON
        raise DataError(f"{path}: not a valid {format} file: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"{path}: not a {format} document: the top level is "
                        f"a JSON {type(doc).__name__}, not an object")
    if doc.get("format") != format:
        raise DataError(f"{path}: field format: not a {format} document")
    version = doc.get("version")
    if type(version) is not int or version not in versions:
        raise DataError(f"{path}: field version: unsupported version "
                        f"{version!r}{remedy}")
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
    """Combine an (N, h, w) batch of grids into one square-ish PGM contact
    sheet, the grids 2 pixels apart."""
    count, h, w = np.shape(images)
    cols = int(math.ceil(math.sqrt(count)))
    pad = 2
    rows = -(-count // cols)
    sheet = np.zeros((rows * (h + pad) - pad, cols * (w + pad) - pad))
    for i, im in enumerate(images):
        r, c = divmod(i, cols)
        sheet[r * (h + pad):r * (h + pad) + h, c * (w + pad):c * (w + pad) + w] = im
    write_image(sheet, path)
