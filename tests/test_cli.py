import json
import os
import shutil

import numpy as np
import pytest

from rydgan.cli import main


@pytest.fixture(scope="module")
def smoke_ini(tmp_path_factory, idx_dataset):
    """Tiny-budget pipeline config: 2 qubits, 2 shape pairs, few iterations."""
    images, labels = idx_dataset
    path = tmp_path_factory.mktemp("cfg") / "smoke.ini"
    path.write_text(f"""
[data]
images = {images}
labels = {labels}
digit_class = 0

[quantum]
n_qubits = 2
steps_per_us = 120

[pulses]
rabi_shapes = linear
local_shapes = triangle,gaussian

[training]
cycles = 1
nm_iters = 4
disc_steps = 3
disc_batch = 6
seed_batch = 3
hidden = 12

[ensemble]
fid_batch = 8

[run]
count = 4
""")
    return str(path)


@pytest.fixture(scope="module")
def pipeline_out(smoke_ini, tmp_path_factory):
    """One full fit-pca -> train -> select run shared by the read-only tests."""
    out = str(tmp_path_factory.mktemp("pipeline"))
    assert main(["fit-pca", "--config", smoke_ini, "--out", out]) == 0
    assert main(["train", "--config", smoke_ini, "--out", out]) == 0
    assert main(["select", "--config", smoke_ini, "--out", out]) == 0
    return out


class TestFitPca:
    def test_writes_model_with_k_components(self, smoke_ini, tmp_path):
        out = str(tmp_path / "out")
        assert main(["fit-pca", "--config", smoke_ini, "--out", out]) == 0
        doc = json.loads(open(os.path.join(out, "pca_class0.json")).read())
        assert doc["k"] == 4
        assert os.path.exists(os.path.join(out, "effective-config.ini"))

    def test_missing_dataset_names_path(self, smoke_ini, tmp_path, capsys):
        out = str(tmp_path / "out")
        code = main(["fit-pca", "--config", smoke_ini, "--out", out,
                     "--seed", "0"])
        assert code == 0
        # now break the path via an override config
        broken = tmp_path / "broken.ini"
        broken.write_text("[data]\nimages = /definitely/missing.idx\n"
                          "labels = /definitely/missing-labels.idx\n")
        code = main(["fit-pca", "--config", str(broken), "--out", out])
        assert code == 3
        assert "/definitely/missing.idx" in capsys.readouterr().err

    def test_oversized_k_fails_validation_before_io(self, tmp_path, capsys):
        cfg = tmp_path / "big.ini"
        cfg.write_text("[data]\nimages = /nonexistent.idx\n"
                       "labels = /nonexistent-labels.idx\n"
                       "[quantum]\nn_qubits = 10\n")
        code = main(["fit-pca", "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == 2  # validation fires before the missing files matter
        assert "784" in capsys.readouterr().err


class TestTrain:
    def test_writes_learners_and_log(self, pipeline_out):
        ldir = os.path.join(pipeline_out, "learners", "class0")
        files = sorted(os.listdir(ldir))
        assert "linear-triangle.json" in files
        assert "linear-gaussian.json" in files
        assert "training_log.csv" in files
        log = open(os.path.join(ldir, "training_log.csv")).read()
        assert log.startswith("learner,cycle,stage,")
        assert log.count("\n") == 1 + 2 * 4  # header + 2 learners x 4 stages

    def test_rerun_is_byte_identical(self, smoke_ini, pipeline_out):
        ldir = os.path.join(pipeline_out, "learners", "class0")
        before = {name: open(os.path.join(ldir, name), "rb").read()
                  for name in os.listdir(ldir)}
        assert main(["train", "--config", smoke_ini, "--out", pipeline_out]) == 0
        after = {name: open(os.path.join(ldir, name), "rb").read()
                 for name in os.listdir(ldir)}
        assert before == after

    def test_invalid_shape_lists_catalog(self, smoke_ini, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(open(smoke_ini).read().replace(
            "rabi_shapes = linear", "rabi_shapes = sawtooth"))
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "sawtooth" in err and "triangle" in err and "gaussian" in err

    def test_jobs_flag_gives_same_artifacts(self, smoke_ini, pipeline_out,
                                            tmp_path):
        out = str(tmp_path / "parallel")
        assert main(["fit-pca", "--config", smoke_ini, "--out", out]) == 0
        assert main(["train", "--config", smoke_ini, "--out", out,
                     "--jobs", "2"]) == 0
        serial = os.path.join(pipeline_out, "learners", "class0")
        parallel = os.path.join(out, "learners", "class0")
        for name in sorted(os.listdir(serial)):
            assert (open(os.path.join(serial, name), "rb").read()
                    == open(os.path.join(parallel, name), "rb").read())


class TestSelect:
    def test_manifest_contents(self, pipeline_out):
        doc = json.loads(open(os.path.join(pipeline_out,
                                           "ensemble_class0.json")).read())
        assert doc["format"] == "rydgan-ensemble"
        assert 1 <= len(doc["member_files"]) <= 2
        trail = doc["fid_trail"]
        assert all(a > b for a, b in zip(trail, trail[1:]))
        assert doc["validation_fid"] == trail[-1]

    def test_single_learner_gives_single_member_manifest(self, smoke_ini,
                                                         tmp_path):
        cfg = tmp_path / "one.ini"
        cfg.write_text(open(smoke_ini).read().replace(
            "local_shapes = triangle,gaussian", "local_shapes = triangle"))
        out = str(tmp_path / "out")
        for cmd in ("fit-pca", "train", "select"):
            assert main([cmd, "--config", str(cfg), "--out", out]) == 0
        doc = json.loads(open(os.path.join(out, "ensemble_class0.json")).read())
        assert doc["member_files"] == ["linear-triangle.json"]
        assert len(doc["fid_trail"]) == 1

    def test_no_learners_is_an_error(self, smoke_ini, tmp_path, capsys):
        out = str(tmp_path / "empty")
        assert main(["fit-pca", "--config", smoke_ini, "--out", out]) == 0
        code = main(["select", "--config", smoke_ini, "--out", out])
        assert code == 2
        assert "train" in capsys.readouterr().err

    def test_corrupt_learner_file_names_it(self, smoke_ini, pipeline_out,
                                           tmp_path, capsys):
        out = str(tmp_path / "corrupt")
        assert main(["fit-pca", "--config", smoke_ini, "--out", out]) == 0
        ldir = os.path.join(out, "learners", "class0")
        os.makedirs(ldir)
        with open(os.path.join(ldir, "broken.json"), "w") as f:
            f.write("{ nope")
        code = main(["select", "--config", smoke_ini, "--out", out])
        assert code == 3
        assert "broken.json" in capsys.readouterr().err


class TestGenerate:
    def test_ideal_run_writes_images_and_metrics(self, smoke_ini, pipeline_out):
        assert main(["generate", "--config", smoke_ini, "--out", pipeline_out,
                     "--mode", "ideal", "--count", "4"]) == 0
        gdir = os.path.join(pipeline_out, "generated", "class0", "ideal")
        files = sorted(os.listdir(gdir))
        assert [f for f in files if f.startswith("img_")] == [
            "img_0000.pgm", "img_0001.pgm", "img_0002.pgm", "img_0003.pgm"]
        assert "montage.pgm" in files and "metrics.csv" in files
        assert "variation.csv" in files
        metrics = open(os.path.join(gdir, "metrics.csv")).read().splitlines()
        assert metrics[0] == "class,mode,fid,mean_variation"
        assert metrics[1].startswith("0,ideal,")
        assert all(np.isfinite(float(x)) for x in metrics[1].split(",")[2:])
        variation = open(os.path.join(gdir, "variation.csv")).read().splitlines()
        assert len(variation) == 5  # header + one row per image
        assert all(np.isfinite(float(row.split(",")[1])) for row in variation[1:])

    def test_modes_differ_under_identical_seeds(self, smoke_ini, pipeline_out):
        for mode in ("noisy", "shots"):
            assert main(["generate", "--config", smoke_ini,
                         "--out", pipeline_out, "--mode", mode,
                         "--count", "4"]) == 0
        base = os.path.join(pipeline_out, "generated", "class0")
        ideal = open(os.path.join(base, "ideal", "img_0000.pgm"), "rb").read()
        noisy = open(os.path.join(base, "noisy", "img_0000.pgm"), "rb").read()
        assert ideal != noisy

    def test_generate_reproducible(self, smoke_ini, pipeline_out):
        gdir = os.path.join(pipeline_out, "generated", "class0", "shots")
        before = {f: open(os.path.join(gdir, f), "rb").read()
                  for f in os.listdir(gdir)}
        assert main(["generate", "--config", smoke_ini, "--out", pipeline_out,
                     "--mode", "shots", "--count", "4"]) == 0
        after = {f: open(os.path.join(gdir, f), "rb").read()
                 for f in os.listdir(gdir)}
        assert before == after

    def test_missing_ensemble_is_data_error(self, smoke_ini, tmp_path, capsys):
        out = str(tmp_path / "noens")
        assert main(["fit-pca", "--config", smoke_ini, "--out", out]) == 0
        code = main(["generate", "--config", smoke_ini, "--out", out])
        assert code == 3
        assert "select" in capsys.readouterr().err


    @pytest.mark.parametrize("edit, field", [
        (lambda doc: doc.pop("member_files"), "member_files"),
        (lambda doc: doc.update(member_files=7), "member_files"),
        (lambda doc: doc.update(member_files=[]), "member_files"),
        (lambda doc: doc.update(version=99), "version"),
    ], ids=["missing", "not-a-list", "empty", "wrong-version"])
    def test_malformed_manifest_is_data_error(self, smoke_ini, pipeline_out,
                                              tmp_path, capsys, edit, field):
        out = str(tmp_path / "copy")
        shutil.copytree(pipeline_out, out)
        path = os.path.join(out, "ensemble_class0.json")
        with open(path) as f:
            doc = json.load(f)
        edit(doc)
        with open(path, "w") as f:
            json.dump(doc, f)
        code = main(["generate", "--config", smoke_ini, "--out", out,
                     "--count", "2"])
        err = capsys.readouterr().err
        assert code == 3
        assert path in err and field in err


class TestReproducible:
    def test_pipeline_artefacts_are_byte_identical(self, smoke_ini, tmp_path):
        trees = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            for argv in (["fit-pca"], ["train"], ["select"],
                         ["generate", "--mode", "noisy", "--count", "3"]):
                assert main(argv + ["--config", smoke_ini, "--out", out]) == 0
            tree = {}
            for base, _, files in os.walk(out):
                for file in files:
                    full = os.path.join(base, file)
                    with open(full, "rb") as f:
                        tree[os.path.relpath(full, out)] = f.read()
            # the echoed config names its own output directory
            del tree["effective-config.ini"]
            trees.append(tree)
        assert len(trees[0]) > 10
        assert trees[0] == trees[1]


class TestEvaluate:
    def test_one_row_per_mode(self, smoke_ini, pipeline_out):
        assert main(["evaluate", "--config", smoke_ini, "--out",
                     pipeline_out, "--class", "0"]) == 0
        rows = open(os.path.join(pipeline_out,
                                 "evaluation.csv")).read().splitlines()
        assert rows[0] == "class,mode,fid,mean_variation"
        assert len(rows) == 3
        assert rows[1].startswith("0,ideal,") and rows[2].startswith("0,noisy,")
        assert os.path.exists(os.path.join(pipeline_out, "evaluation.txt"))
        assert os.path.exists(os.path.join(pipeline_out,
                                           "variation_class0_ideal.csv"))

    def test_report_fid_matches_direct_recomputation(self, smoke_ini,
                                                     pipeline_out):
        # same code path, same seeds: regenerating the batch and calling
        # fid_images directly must reproduce the CSV value exactly
        from rydgan.cli import (_generate_images, _load_class_split,
                                _load_ensemble_members, _require_pca)
        from rydgan.config import load_config
        from rydgan.metrics import fid_images
        config = load_config(smoke_ini, {"out_dir": pipeline_out})
        config.validate()
        model = _require_pca(config, 0)
        _, val = _load_class_split(config, 0)
        _, members = _load_ensemble_members(config, 0)
        images = _generate_images(config, members, model, "ideal",
                                  config.fid_batch)
        direct = fid_images(val.images, images)
        rows = open(os.path.join(pipeline_out,
                                 "evaluation.csv")).read().splitlines()
        reported = float(rows[1].split(",")[2])
        assert abs(reported - direct) <= 1e-9

    def test_empty_class_list_is_usage_error(self, smoke_ini, tmp_path,
                                             capsys):
        code = main(["evaluate", "--config", smoke_ini,
                     "--out", str(tmp_path / "o"), "--class", ""])
        assert code == 2


class TestConfigPlumbing:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[quantum]\nqubits = 4\n")
        assert main(["fit-pca", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert "n_qubits" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        assert main(["fit-pca", "--config", str(tmp_path / "nope.ini"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_effective_config_echoed(self, pipeline_out):
        text = open(os.path.join(pipeline_out, "effective-config.ini")).read()
        assert "[quantum]" in text and "n_qubits = 2" in text
        assert f"out_dir = {pipeline_out}" in text
