import base64
import json
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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


class TestSplit:
    def test_ninety_ten(self):
        data = synthetic_digits(np.random.default_rng(1), 100)
        train, val = split_train_val(data)
        assert len(train) == 90 and len(val) == 10

    def test_deterministic(self):
        data = synthetic_digits(np.random.default_rng(1), 50)
        t1, v1 = split_train_val(data)
        t2, v2 = split_train_val(data)
        assert np.array_equal(t1.images, t2.images)
        assert np.array_equal(v1.images, v2.images)

    def test_disjoint_and_complete(self):
        data = synthetic_digits(np.random.default_rng(2), 40)
        train, val = split_train_val(data)
        combined = np.concatenate([train.images, val.images])
        assert combined.shape[0] == 40
        assert np.allclose(np.sort(combined.sum(axis=(1, 2))),
                           np.sort(data.images.sum(axis=(1, 2))))


PCA_ARRAYS = ("mean", "components", "eigenvalues", "scale_lo", "scale_hi")
_EDGE_OR_ANY_FLOAT = (st.sampled_from([
    -0.0, 0.0, 5e-324, -5e-324, np.finfo(float).tiny / 3,
    np.finfo(float).max, -np.finfo(float).max])
    | st.floats(allow_nan=False, allow_infinity=False))


def f8_field(values) -> dict:
    """A PCA array field: base64 of little-endian float64, with its shape."""
    a = np.asarray(values, dtype="<f8")
    return {"dtype": "<f8", "shape": list(a.shape),
            "base64": base64.b64encode(a.tobytes()).decode("ascii")}


def recode(doc, field, edit):
    """Replace a PCA array field's bytes by edit(bytes), keeping its shape."""
    node = doc[field]
    node["base64"] = base64.b64encode(
        edit(base64.b64decode(node["base64"]))).decode("ascii")


def set_element(index, value):
    """A recode edit that sets one float64 element to value."""
    def edit(raw):
        a = np.frombuffer(raw, "<f8").copy()
        a[index] = value
        return a.tobytes()
    return edit


# (field named in the error, edit of a saved PCA document)
PAYLOAD_DEFECTS = [
    pytest.param("mean", lambda doc: doc["mean"].update(
        base64="!" + doc["mean"]["base64"]), id="not-base64"),
    pytest.param("components", lambda doc: recode(
        doc, "components", lambda raw: raw[:-8]), id="8-bytes-short"),
    pytest.param("eigenvalues", lambda doc: doc["eigenvalues"].update(
        shape=[doc["k"] + 1]), id="shape-disagrees"),
    pytest.param("eigenvalues", lambda doc: doc["eigenvalues"].update(
        shape=[-1]), id="shape-minus-one"),
    pytest.param("scale_hi", lambda doc: doc["scale_hi"].update(dtype="<f4"),
                 id="dtype-f4"),
    pytest.param("mean", lambda doc: recode(doc, "mean",
                                            set_element(3, np.nan)), id="nan"),
    pytest.param("scale_hi", lambda doc: recode(doc, "scale_hi",
                                                set_element(0, np.inf)),
                 id="inf"),
]


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
        path = str(tmp_path / "model.json")
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
        (b'{"format": "rydgan-pca", "version": 2}', "mean"),
        (b"[]", "top level"),
        (b"\xff\xfe{", "rydgan-pca"),
        (b'{"format": "rydgan-pca", "version": 3}', "version"),
        (b'{"format": "rydgan-pca", "version": 1}', "fit-pca"),
    ], ids=["missing-keys", "not-an-object", "not-utf8", "wrong-version",
            "version-1"])
    def test_load_names_path_and_field(self, tmp_path, payload, field):
        path = tmp_path / "model.json"
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
        path = str(tmp_path / "model.json")
        save_pca(model, path)
        doc = json.loads(open(path).read())
        short = np.frombuffer(base64.b64decode(doc["scale_lo"]["base64"]))[:1]
        doc["scale_lo"] = f8_field(short)
        open(path, "w").write(json.dumps(doc))
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
        path = str(tmp_path / "model.json")
        save_pca(model, path)
        doc = json.loads(open(path).read())
        edit(doc)
        open(path, "w").write(json.dumps(doc))
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
            path = os.path.join(tmp, "model.json")
            save_pca(model, path)
            with np.errstate(over="ignore"):
                loaded = load_pca(path)
        for name in PCA_ARRAYS:
            want, got = getattr(model, name), getattr(loaded, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_k256_model_file_is_binary_sized(self, tmp_path):
        """Base64 float64 keeps a k = 256 model near 2.15 MB; the float
        text of format version 1 took 5.07 MB."""
        rng = np.random.default_rng(18)
        model = PcaModel(rng.uniform(0, 1, 784), rng.normal(size=(256, 784)),
                         np.sort(rng.uniform(0, 1, 256))[::-1],
                         -rng.uniform(1, 2, 256), rng.uniform(1, 2, 256))
        path = tmp_path / "model.json"
        save_pca(model, str(path))
        assert path.stat().st_size < 2.3e6


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
