import json
import math
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rydgan.config import RunConfig
from rydgan.data import (ImageSet, PcaModel, atomic_write_json,
                         atomic_write_text, fit_pca, inverse_transform,
                         load_idx, load_pca, pgm_bytes, save_pca,
                         scale_features, split_train_val, transform,
                         unscale_features, write_image, write_montage)
from rydgan.errors import DataError, ValidationError


def write_idx_pair(tmp_path, images, labels, image_magic=2051, label_magic=2049,
                   truncate_images=0):
    """Write an IDX image/label file pair; images are uint8 (N, 28, 28)."""
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    img_path = tmp_path / "images.idx"
    lbl_path = tmp_path / "labels.idx"
    payload = images.tobytes()
    if truncate_images:
        payload = payload[:-truncate_images]
    img_path.write_bytes(
        struct.pack(">iiii", image_magic, images.shape[0], 28, 28) + payload)
    lbl_path.write_bytes(
        struct.pack(">ii", label_magic, labels.shape[0]) + labels.tobytes())
    return str(img_path), str(lbl_path)


def synthetic_digits(rng, count, label=0):
    """Blob images with per-sample jitter: enough structure for PCA."""
    yy, xx = np.mgrid[0:28, 0:28]
    images = np.empty((count, 28, 28))
    for i in range(count):
        cx, cy = rng.uniform(10, 18, 2)
        rx, ry = rng.uniform(4, 9, 2)
        ring = np.exp(-(((xx - cx) / rx) ** 2 + ((yy - cy) / ry) ** 2 - 1.0) ** 2
                      * rng.uniform(2, 6))
        images[i] = ring / ring.max()
    return ImageSet(images, np.full(count, label))


class TestLoadIdx:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        raw = rng.integers(0, 256, size=(5, 28, 28))
        labels = np.array([3, 1, 4, 1, 5])
        img, lbl = write_idx_pair(tmp_path, raw, labels)
        data = load_idx(img, lbl)
        assert len(data) == 5
        assert np.array_equal(data.labels, labels)
        assert np.allclose(data.images, raw / 255.0)

    def test_label_file_as_image_file(self, tmp_path):
        img, lbl = write_idx_pair(tmp_path, np.zeros((2, 28, 28)), [0, 1])
        with pytest.raises(DataError, match="magic"):
            load_idx(lbl, img)

    def test_truncated_payload(self, tmp_path):
        img, lbl = write_idx_pair(tmp_path, np.zeros((3, 28, 28)), [0, 1, 2],
                                  truncate_images=10)
        with pytest.raises(DataError, match="byte offset"):
            load_idx(img, lbl)

    def test_wrong_dimensions(self, tmp_path):
        img_path = tmp_path / "imgs.idx"
        img_path.write_bytes(struct.pack(">iiii", 2051, 1, 14, 14) + b"\0" * 196)
        _, lbl = write_idx_pair(tmp_path, np.zeros((1, 28, 28)), [0])
        with pytest.raises(DataError, match="14x14"):
            load_idx(str(img_path), lbl)

    def test_count_mismatch(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        img, _ = write_idx_pair(tmp_path / "a", np.zeros((3, 28, 28)), [0, 1, 2])
        _, lbl = write_idx_pair(tmp_path / "b", np.zeros((2, 28, 28)), [0, 1])
        with pytest.raises(DataError, match="labels"):
            load_idx(img, lbl)


def split(data):
    """split_train_val at RunConfig's default fraction and seed."""
    config = RunConfig()
    return split_train_val(data, config.val_fraction, config.split_seed)


class TestSplit:
    def test_ninety_ten(self):
        data = synthetic_digits(np.random.default_rng(1), 100)
        train, val = split(data)
        assert len(train) == 90 and len(val) == 10

    def test_deterministic(self):
        data = synthetic_digits(np.random.default_rng(1), 50)
        t1, v1 = split(data)
        t2, v2 = split(data)
        assert np.array_equal(t1.images, t2.images)
        assert np.array_equal(v1.images, v2.images)

    def test_disjoint_and_complete(self):
        data = synthetic_digits(np.random.default_rng(2), 40)
        train, val = split(data)
        combined = np.concatenate([train.images, val.images])
        assert combined.shape[0] == 40
        assert np.allclose(np.sort(combined.sum(axis=(1, 2))),
                           np.sort(data.images.sum(axis=(1, 2))))


PCA_ARRAYS = ("mean", "components", "eigenvalues", "scale_lo", "scale_hi")
_EDGE_OR_ANY_FLOAT = (st.sampled_from([
    -0.0, 0.0, 5e-324, -5e-324, np.finfo(float).tiny / 3,
    np.finfo(float).max, -np.finfo(float).max])
    | st.floats(allow_nan=False, allow_infinity=False))


class PcaFile:
    """A saved PCA model as its JSON header, the byte after the header line
    and each array's bytes, for tests to edit and write back."""

    def __init__(self, path):
        with open(path, "rb") as f:
            line, self.newline, payload = f.read().partition(b"\n")
        self.header, self.arrays, start = json.loads(line), {}, 0
        for name in PCA_ARRAYS:
            end = start + 8 * math.prod(self.header[name]["shape"])
            self.arrays[name], start = payload[start:end], end

    def encode(self) -> bytes:
        return (json.dumps(self.header).encode() + self.newline
                + b"".join(self.arrays.values()))

    def write(self, path):
        with open(path, "wb") as f:
            f.write(self.encode())


def f8_field(pca, field, values):
    """Store values as a PCA array: little-endian float64, with its shape."""
    a = np.asarray(values, dtype="<f8")
    pca.header[field]["shape"], pca.arrays[field] = list(a.shape), a.tobytes()


def recode(pca, field, edit):
    """Replace a PCA array's bytes by edit(bytes), keeping its shape."""
    pca.arrays[field] = edit(pca.arrays[field])


def set_element(index, value):
    """A recode edit that sets one float64 element to value."""
    def edit(raw):
        a = np.frombuffer(raw, "<f8").copy()
        a[index] = value
        return a.tobytes()
    return edit


def end_within(field, count):
    """An edit that ends the file count bytes before the end of field."""
    def edit(pca):
        recode(pca, field, lambda raw: raw[:len(raw) - count])
        for later in PCA_ARRAYS[PCA_ARRAYS.index(field) + 1:]:
            pca.arrays[later] = b""
    return edit


def one_more_eigenvalue(pca):
    """eigenvalues one entry longer than k, with the bytes to fill it."""
    f8_field(pca, "eigenvalues",
             np.append(np.frombuffer(pca.arrays["eigenvalues"]), 0.0))


def header_alone(pca):
    """The header line without its newline, and no arrays after it."""
    pca.newline = b""
    for name in PCA_ARRAYS:
        pca.arrays[name] = b""


# (field named in the error, edit of a saved PCA file)
PAYLOAD_DEFECTS = [
    pytest.param("mean", lambda pca: pca.header["mean"].update(shape="784"),
                 id="shape-not-a-list"),
    pytest.param("components", end_within("components", 8),
                 id="8-bytes-short"),
    pytest.param("eigenvalues", one_more_eigenvalue, id="shape-disagrees"),
    pytest.param("eigenvalues", lambda pca: pca.header["eigenvalues"].update(
        shape=[-1]), id="shape-minus-one"),
    pytest.param("components", lambda pca: pca.header["components"].update(
        shape=[-pca.header["k"], -784]), id="negative-shape"),
    pytest.param("components", lambda pca: pca.header["components"].update(
        shape=[2 ** 62]), id="shape-overruns-file"),
    pytest.param("scale_hi", lambda pca: pca.header["scale_hi"].update(
        dtype="<f4"), id="dtype-f4"),
    pytest.param("mean", lambda pca: recode(pca, "mean",
                                            set_element(3, np.nan)), id="nan"),
    pytest.param("scale_hi", lambda pca: recode(pca, "scale_hi",
                                                set_element(0, np.inf)),
                 id="inf"),
    pytest.param("scale_hi", lambda pca: recode(
        pca, "scale_hi", lambda raw: raw + bytes(8)), id="trailing-bytes"),
    pytest.param("mean", header_alone, id="header-without-newline"),
    pytest.param("k", lambda pca: pca.header.update(k=pca.header["k"] + 1),
                 id="k-disagrees"),
    pytest.param("pixels", lambda pca: pca.header.pop("pixels"),
                 id="pixels-missing"),
]


def signed(components):
    """Rows signed so that the largest-magnitude entry, the first on a tie,
    is positive."""
    peaks = np.abs(components).argmax(axis=1)
    return components * np.sign(components[np.arange(len(components)), peaks])[:, None]


def affine_plane(rng, count):
    """count images on a 2-D affine subspace of pixel space, unclipped."""
    base = rng.uniform(0.3, 0.7, size=784)
    directions = rng.uniform(-0.1, 0.1, size=(2, 784))
    images = base + rng.uniform(-1, 1, size=(count, 2)) @ directions
    return ImageSet(images.reshape(count, 28, 28), np.zeros(count, dtype=int))


class TestPca:
    def test_exact_low_rank_roundtrip(self):
        # data confined to a 2-D affine subspace of pixel space
        rng = np.random.default_rng(3)
        base = rng.uniform(0.2, 0.6, size=(28, 28))
        d1 = rng.normal(size=(28, 28)) * 0.05
        d2 = rng.normal(size=(28, 28)) * 0.05
        coeffs = rng.uniform(-1, 1, size=(30, 2))
        images = np.clip(base + coeffs[:, :1, None] * d1.reshape(1, -1).reshape(1, 28, 28)
                         + coeffs[:, 1:2, None] * d2.reshape(1, -1).reshape(1, 28, 28),
                         0, 1)
        data = ImageSet(images, np.zeros(30, dtype=int))
        model = fit_pca(data, 2)
        x = data.flat()
        recon = inverse_transform(model, transform(model, x))
        assert np.abs(recon - x).max() < 1e-8

    def test_components_orthonormal(self):
        data = synthetic_digits(np.random.default_rng(4), 60)
        model = fit_pca(data, 16)
        gram = model.components @ model.components.T
        assert np.abs(gram - np.eye(16)).max() < 1e-8

    def test_n8_class_components_orthonormal(self):
        # the benchmark's n = 8 shape: k = 256 from 288 images, C C^T route
        model = fit_pca(synthetic_digits(np.random.default_rng(4), 288), 256)
        gram = model.components @ model.components.T
        assert np.abs(gram - np.eye(256)).max() < 1e-8

    def test_components_orthonormal_down_to_the_rounding_floor(self):
        # 200 images whose singular values fall geometrically from 0.02 to
        # 2e-11: the C C^T route alone left rows of 77 of the 134 k that
        # the floor admits more than 1e-12 off orthonormal, 8.1e-5 at k = 134
        rng = np.random.default_rng(25)
        u = np.linalg.qr(rng.normal(size=(200, 200)))[0]
        v = np.linalg.qr(rng.normal(size=(784, 200)))[0]
        images = 0.5 + (u * np.geomspace(0.02, 2e-11, 200)) @ v.T
        data = ImageSet(images.reshape(200, 28, 28), np.zeros(200, dtype=int))
        for k in range(1, 200):
            try:
                components = fit_pca(data, k).components
            except DataError as err:
                assert "degenerate" in str(err) and k > 120, k
                break
            gram = components @ components.T
            assert np.abs(gram - np.eye(k)).max() <= 1e-12, k
        else:
            pytest.fail("the floor admitted every k")

    @pytest.mark.parametrize("count", [40, 800], ids=["gram", "covariance"])
    def test_matches_svd_oracle_on_both_routes(self, count):
        # fewer images than pixels decomposes C C^T, more C^T C
        data = synthetic_digits(np.random.default_rng(19), count)
        model = fit_pca(data, 16)
        centered = data.flat() - data.flat().mean(axis=0)
        _, s, vt = np.linalg.svd(centered, full_matrices=False)
        eigenvalues = s[:16] ** 2 / (count - 1)
        assert np.abs(model.components - signed(vt[:16])).max() < 1e-9
        assert (np.abs(model.eigenvalues - eigenvalues).max()
                < 1e-9 * eigenvalues[0])

    @pytest.mark.parametrize("count", [40, 800], ids=["gram", "covariance"])
    def test_largest_entry_of_each_component_is_positive(self, count):
        components = fit_pca(synthetic_digits(np.random.default_rng(20), count),
                             16).components
        assert np.array_equal(components, signed(components))
        peaks = components[np.arange(16), np.abs(components).argmax(axis=1)]
        assert (peaks > 0).all()

    def test_sign_tie_goes_to_the_first_entry(self):
        # pixels 5 and 9 move in exact opposition (32 images and steps of
        # 1/64 keep the centring exact), so the one component is +-a at both
        c = np.arange(-16, 16) / 64.0
        images = np.full((32, 784), 0.5)
        images[:, 5], images[:, 9] = 0.5 + c, 0.5 - c
        data = ImageSet(images.reshape(32, 28, 28), np.zeros(32, dtype=int))
        row = fit_pca(data, 1).components[0]
        assert row[5] == -row[9] > 0

    @pytest.mark.parametrize("count", [30, 800], ids=["gram", "covariance"])
    def test_component_without_variance_is_a_data_error(self, count):
        # a 2-D affine subspace leaves components 2 and 3 at rounding level
        data = affine_plane(np.random.default_rng(21), count)
        assert fit_pca(data, 2).k == 2
        with pytest.raises(DataError, match=r"feature\(s\) \[2, 3\] have "
                           "degenerate scale bounds"):
            fit_pca(data, 4)

    @pytest.mark.parametrize("count", [40, 800], ids=["gram", "covariance"])
    def test_refit_saves_identical_bytes(self, tmp_path, count):
        data = synthetic_digits(np.random.default_rng(22), count)
        paths = [str(tmp_path / f"model{i}.pca") for i in range(2)]
        for path in paths:
            save_pca(fit_pca(data, 16), path)
        assert open(paths[0], "rb").read() == open(paths[1], "rb").read()

    def test_eigenvalues_match_bruteforce_oracle(self):
        data = synthetic_digits(np.random.default_rng(5), 50)
        model = fit_pca(data, 16)
        assert np.all(np.diff(model.eigenvalues) <= 1e-12)
        # independent route: np.cov + full eigvalsh
        cov = np.cov(data.flat(), rowvar=False)
        oracle = np.sort(np.linalg.eigvalsh(cov))[::-1][:16]
        assert np.allclose(model.eigenvalues, oracle, atol=1e-8)

    def test_projection_idempotent(self):
        data = synthetic_digits(np.random.default_rng(6), 40)
        model = fit_pca(data, 8)
        x = np.random.default_rng(7).uniform(0, 1, 784)
        w = transform(model, x)
        w2 = transform(model, inverse_transform(model, w))
        assert np.abs(w - w2).max() < 1e-9

    def test_mean_image_maps_to_zero(self):
        data = synthetic_digits(np.random.default_rng(8), 30)
        model = fit_pca(data, 4)
        assert np.abs(transform(model, model.mean)).max() < 1e-9

    def test_zero_weights_reconstruct_mean(self):
        data = synthetic_digits(np.random.default_rng(9), 30)
        model = fit_pca(data, 4)
        assert np.allclose(inverse_transform(model, np.zeros(4)), model.mean)

    def test_reconstruction_error_nonincreasing_in_k(self):
        data = synthetic_digits(np.random.default_rng(10), 60)
        x = data.flat()
        errors = []
        for k in (2, 4, 8, 16):
            model = fit_pca(data, k)
            recon = inverse_transform(model, transform(model, x))
            errors.append(np.mean((recon - x) ** 2))
        assert all(a >= b - 1e-12 for a, b in zip(errors, errors[1:]))

    def test_too_few_samples(self):
        data = synthetic_digits(np.random.default_rng(11), 10)
        with pytest.raises(DataError):
            fit_pca(data, 10)

    def test_save_load_roundtrip(self, tmp_path):
        data = synthetic_digits(np.random.default_rng(12), 40)
        model = fit_pca(data, 8)
        path = str(tmp_path / "model.pca")
        save_pca(model, path)
        loaded = load_pca(path)
        assert np.array_equal(loaded.components, model.components)
        assert np.array_equal(loaded.mean, model.mean)
        assert np.array_equal(loaded.scale_lo, model.scale_lo)

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all {")
        with pytest.raises(DataError):
            load_pca(str(path))

    @pytest.mark.parametrize("payload, field", [
        (b'{"format": "rydgan-pca", "version": 3}\n', "mean"),
        (b"[]", "top level"),
        (b"\xff\xfe{", "rydgan-pca"),
        (b'{"format": "rydgan-pca", "version": 4}\n', "version"),
        (b'{"format": "rydgan-pca", "version": 1}', "fit-pca"),
        (b'{"format": "rydgan-pca", "version": 2}\n', "fit-pca"),
    ], ids=["missing-keys", "not-an-object", "not-utf8", "wrong-version",
            "version-1", "version-2"])
    def test_load_names_path_and_field(self, tmp_path, payload, field):
        path = tmp_path / "model.pca"
        path.write_bytes(payload)
        with pytest.raises(DataError, match=field) as info:
            load_pca(str(path))
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("field", ["eigenvalues", "scale_lo", "scale_hi"])
    def test_per_feature_arrays_must_have_k_entries(self, field):
        model = fit_pca(synthetic_digits(np.random.default_rng(14), 20), 2)
        arrays = {name: getattr(model, name) for name in
                  ("mean", "components", "eigenvalues", "scale_lo", "scale_hi")}
        arrays[field] = arrays[field][:1]
        with pytest.raises(ValidationError, match=field):
            PcaModel(**arrays)

    def test_mean_must_cover_every_pixel(self):
        with pytest.raises(ValidationError, match="784"):
            PcaModel(np.zeros(10), np.zeros((1, 10)), [1.0], [0.0], [1.0])

    def test_short_scale_bounds_in_a_file_are_a_data_error(self, tmp_path):
        model = fit_pca(synthetic_digits(np.random.default_rng(15), 20), 2)
        path = str(tmp_path / "model.pca")
        save_pca(model, path)
        pca = PcaFile(path)
        f8_field(pca, "scale_lo", model.scale_lo[:1])
        pca.write(path)
        with pytest.raises(DataError, match="scale_lo"):
            load_pca(path)

    @pytest.mark.parametrize("field", PCA_ARRAYS)
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, field, value):
        model = fit_pca(synthetic_digits(np.random.default_rng(16), 20), 2)
        arrays = {name: getattr(model, name).copy() for name in PCA_ARRAYS}
        arrays[field].flat[-1] = value
        with pytest.raises(ValidationError, match=f"{field} must hold finite"):
            PcaModel(**arrays)

    @pytest.mark.parametrize("field, edit", PAYLOAD_DEFECTS)
    def test_payload_defect_names_path_and_field(self, tmp_path, field, edit):
        model = fit_pca(synthetic_digits(np.random.default_rng(17), 20), 2)
        path = str(tmp_path / "model.pca")
        save_pca(model, path)
        pca = PcaFile(path)
        edit(pca)
        pca.write(path)
        with pytest.raises(DataError) as info:
            load_pca(path)
        message = str(info.value)
        assert message.startswith(path) and field in message[len(path):]

    @given(data=st.data())
    def test_save_load_is_bit_exact(self, data):
        k = data.draw(st.integers(1, 3), label="k")
        mean, components, eigenvalues, a, b = (
            data.draw(arrays(float, shape, elements=_EDGE_OR_ANY_FLOAT),
                      label=name)
            for name, shape in (("mean", 784), ("components", (k, 784)),
                                ("eigenvalues", k), ("a", k), ("b", k)))
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        assume(np.all(lo < hi))
        with np.errstate(over="ignore"):    # np.diff of +-max overflows
            model = PcaModel(mean, components, np.sort(eigenvalues)[::-1],
                             lo, hi)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "model.pca")
            save_pca(model, path)
            with np.errstate(over="ignore"):
                loaded = load_pca(path)
        for name in PCA_ARRAYS:
            want, got = getattr(model, name), getattr(loaded, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_k256_model_file_is_binary_sized(self, tmp_path):
        """A k = 256 model is a header line under 1 KB, then exactly its
        202,256 float64 values; the base64 of format version 2 took
        2,157,867 bytes and the float text of version 1 5.07 MB."""
        rng = np.random.default_rng(18)
        model = PcaModel(rng.uniform(0, 1, 784), rng.normal(size=(256, 784)),
                         np.sort(rng.uniform(0, 1, 256))[::-1],
                         -rng.uniform(1, 2, 256), rng.uniform(1, 2, 256))
        path = tmp_path / "model.pca"
        save_pca(model, str(path))
        header = path.read_bytes().index(b"\n") + 1
        assert header < 1024
        assert path.stat().st_size - header == 8 * 202_256 == 1_618_048

    def test_header_run_into_the_arrays_is_not_valid(self, tmp_path):
        model = fit_pca(synthetic_digits(np.random.default_rng(24), 20), 2)
        path = str(tmp_path / "model.pca")
        save_pca(model, path)
        pca = PcaFile(path)
        pca.newline = b""
        pca.write(path)
        with pytest.raises(DataError, match="not a valid rydgan-pca file"):
            load_pca(path)


class TestScaling:
    @pytest.fixture()
    def model(self):
        return fit_pca(synthetic_digits(np.random.default_rng(13), 50), 16)

    def test_bounds_map_to_window(self, model):
        hi = scale_features(model, model.scale_hi)
        lo = scale_features(model, model.scale_lo)
        assert np.allclose(hi, 1.0 / 16.0, atol=1e-12)
        assert np.allclose(lo, 1e-6, atol=1e-15)

    def test_roundtrip(self, model):
        rng = np.random.default_rng(14)
        for _ in range(50):
            w = rng.uniform(model.scale_lo, model.scale_hi)
            back = unscale_features(model, scale_features(model, w))
            assert np.abs(back - w).max() < 1e-10

    def test_unscale_rejects_another_feature_count(self, model):
        # features of a generator with another qubit count than the model's k
        with pytest.raises(ValidationError, match="16"):
            unscale_features(model, np.full((3, 4), 0.01))

    def test_out_of_range_is_affine_not_clipped(self, model):
        beyond = model.scale_hi * 2 - model.scale_lo
        scaled = scale_features(model, beyond)
        assert np.all(scaled > 1.0 / 16.0)

    def test_training_features_inside_window(self, model):
        data = synthetic_digits(np.random.default_rng(13), 50)
        scaled = scale_features(model, transform(model, data.flat()))
        assert scaled.min() >= 1e-6 - 1e-15
        assert scaled.max() <= 1.0 / 16.0 + 1e-15


class TestPgm:
    def test_all_zero_grid(self):
        raw = pgm_bytes(np.zeros((28, 28)))
        header, payload = raw.split(b"255\n", 1)
        assert header == b"P5\n28 28\n"
        assert payload == b"\x00" * 784

    def test_all_one_grid(self):
        payload = pgm_bytes(np.ones((28, 28))).split(b"255\n", 1)[1]
        assert payload == b"\xff" * 784

    def test_clamps_out_of_range(self):
        grid = np.full((2, 2), 2.0)
        grid[0, 0] = -1.0
        payload = pgm_bytes(grid).split(b"255\n", 1)[1]
        assert payload == bytes([0, 255, 255, 255])

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            pgm_bytes(np.full((2, 2), np.nan))

    def test_write_image(self, tmp_path):
        path = tmp_path / "img.pgm"
        write_image(np.zeros((28, 28)), str(path))
        assert path.read_bytes() == pgm_bytes(np.zeros((28, 28)))

    def test_montage_dimensions(self, tmp_path):
        path = tmp_path / "m.pgm"
        write_montage([np.zeros((28, 28))] * 4, str(path))
        header = path.read_bytes().split(b"\n")[1]
        assert header == b"58 58"  # 2*28 + 2 padding


class TestAtomicWrite:
    def test_stale_tmp_directory_does_not_break_the_write(self, tmp_path):
        path = tmp_path / "out.csv"
        (tmp_path / "out.csv.tmp").mkdir()
        atomic_write_text(str(path), "a,b\n")
        assert path.read_text() == "a,b\n"

    def test_failed_write_leaves_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "out.csv"
        path.write_text("old\n")

        def failing_fsync(fd):
            raise OSError("disk full")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(OSError, match="disk full"):
            atomic_write_text(str(path), "new\n")
        assert path.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_json_is_streamed_to_the_same_bytes(self, tmp_path):
        doc = {"name": "gr\u00fcn", "rows": [[0.1, -2.5e-300], []],
               "nested": {"k": None, "t": True}}
        path = tmp_path / "doc.json"
        atomic_write_json(str(path), doc)
        assert path.read_bytes() == json.dumps(doc, indent=1).encode("utf-8")
        assert os.listdir(tmp_path) == ["doc.json"]
