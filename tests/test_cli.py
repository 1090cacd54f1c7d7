import argparse
import ast
import collections
import functools
import gc
import glob
import hashlib
import json
import math
import os
import re
import shutil
import struct
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from rydgan import cli, training
from rydgan import data as dp
from rydgan.cli import main
from rydgan.config import (MODES, RunConfig, _sections, load_config,
                           render_config)
from rydgan.data import (fit_pca, inverse_transform, load_idx, load_pca,
                         read_idx_pair, unscale_features)
from rydgan.errors import DataError, RydganError, ValidationError
from rydgan.generator import (EXACT, TRAINABLE_SHAPES, GeneratorParams,
                              draw_seeds, generate_batch, perturb_params)
from rydgan.metrics import greedy_select
from rydgan.neldermead import nelder_mead_steps
from rydgan.sim import AtomArrangement
from rydgan.training import Learner, load_learner
from tests.test_data import (PAYLOAD_DEFECTS, PCA_ARRAYS, PcaFile, f8_field,
                             split_train_val, synthetic_digits, write_idx_pair)
from tests.test_scripts import assert_pinned


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
        header = PcaFile(os.path.join(out, "pca_class0.pca")).header
        assert header["k"] == 4
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

    def test_class_without_variance_exits_3(self, tmp_path, capsys):
        # integer pixels on a 2-D affine subspace: k = 4 components need
        # two that the class does not have
        rng = np.random.default_rng(23)
        steps = rng.integers(-1, 2, size=(2, 784))
        images = 100 + rng.integers(-20, 21, size=(40, 2)) @ steps
        paths = write_idx_pair(tmp_path, images.reshape(40, 28, 28),
                               np.zeros(40))
        cfg = tmp_path / "flat.ini"
        cfg.write_text("[data]\nimages = {}\nlabels = {}\n"
                       "[quantum]\nn_qubits = 2\n".format(*paths))
        code = main(["fit-pca", "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == 3
        assert "feature(s) [2, 3] have degenerate" in capsys.readouterr().err


class TestTrain:
    def test_writes_learners_and_log(self, pipeline_out):
        ldir = os.path.join(pipeline_out, "learners", "class0")
        files = sorted(os.listdir(ldir))
        assert "linear-triangle.json" in files
        assert "linear-gaussian.json" in files
        assert "training_log.csv" in files
        log = open(os.path.join(ldir, "training_log.csv")).read().splitlines()
        assert log[0] == ("learner,cycle,stage,nm_iterations,nm_evaluations,"
                          "nm_stop,gen_loss,disc_loss")
        assert len(log) == 1 + 2 * 4  # header + 2 learners x 4 stages
        assert {row.split(",")[5] for row in log[1:]} <= {"tol", "max_iters"}

    def test_stage_scores_each_vertex_once(self, smoke_ini, tmp_path,
                                           monkeypatch):
        # the bound clamping makes Nelder-Mead revisit vertices; within a
        # stage the objective is fixed, so no (params, seed) run is generated
        # twice, while the log keeps Nelder-Mead's own counts
        requested, results = collections.Counter(), []

        def recording_batch(runs, *args):
            requested.update((params, float(seed)) for params, seed, _ in runs)
            return generate_batch(runs, *args)

        def recording_steps(*args):
            results.append((yield from nelder_mead_steps(*args)))
            return results[-1]

        monkeypatch.setattr(training, "generate_batch", recording_batch)
        monkeypatch.setattr(training, "nelder_mead_steps", recording_steps)
        out = str(tmp_path / "o")
        assert main(["fit-pca", "--config", smoke_ini, "--out", out]) == 0
        assert main(["train", "--config", smoke_ini, "--out", out]) == 0
        assert max(requested.values()) == 1
        with open(os.path.join(out, "learners", "class0",
                               "training_log.csv")) as f:
            log = f.read().splitlines()
        assert len(results) == len(log) - 1 == 2 * 4
        assert (sorted(tuple(row.split(",")[3:6]) for row in log[1:])
                == sorted((str(r.iterations), str(r.evaluations),
                           "tol" if r.converged else "max_iters")
                          for r in results))
        # Nelder-Mead evaluated more vertices than the stages generated
        disc = 2 * 4 * 3 * 6     # learners x stages x disc_steps x disc_batch
        scored = (len(requested) - disc) // 3     # seed_batch runs per vertex
        assert sum(r.evaluations for r in results) > scored

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

    @pytest.mark.parametrize("key, old, new", [
        ("rabi_shapes", "linear\n", "linear,linear\n"),
        ("local_shapes", "triangle,gaussian\n", "gaussian,gaussian\n"),
    ])
    def test_repeated_shape_exits_2(self, smoke_ini, tmp_path, capsys, key,
                                    old, new):
        """Each shape pair names one learner file: a repeated shape would train
        a second learner that overwrites the first one's file."""
        cfg = tmp_path / "twice.ini"
        cfg.write_text(open(smoke_ini).read().replace(f"{key} = {old}",
                                                      f"{key} = {new}"))
        out = tmp_path / "o"
        code = main(["train", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert key in err
        assert ("'linear'" if key == "rabi_shapes" else "'gaussian'") in err
        assert not out.exists()

    def test_batch_error_names_every_learner_and_exits_4(
            self, smoke_ini, tmp_path, capsys, monkeypatch):
        from rydgan import training
        from rydgan.errors import NumericError

        def stiff(runs, *args):
            raise NumericError("stiff drive")

        out = str(tmp_path / "stiff")
        assert main(["fit-pca", "--config", smoke_ini, "--out", out]) == 0
        monkeypatch.setattr(training, "generate_batch", stiff)
        assert main(["train", "--config", smoke_ini, "--out", out]) == 4
        assert ("error: learners linear-triangle, linear-gaussian: stiff drive"
                in capsys.readouterr().err)

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


    def test_learners_of_another_qubit_count_exit_3(self, smoke_ini,
                                                    pipeline_out, tmp_path,
                                                    capsys):
        """fit-pca re-run at n_qubits = 3 over the 2-qubit learners: select
        exits 3 naming a learner file and the field, and writes no manifest."""
        out = str(tmp_path / "copy")
        shutil.copytree(pipeline_out, out)
        manifest = os.path.join(out, "ensemble_class0.json")
        os.remove(manifest)
        cfg = tmp_path / "three.ini"
        cfg.write_text(open(smoke_ini).read().replace("n_qubits = 2",
                                                      "n_qubits = 3"))
        assert main(["fit-pca", "--config", str(cfg), "--out", out]) == 0
        code = main(["select", "--config", str(cfg), "--out", out])
        err = capsys.readouterr().err
        assert code == 3
        path = os.path.join(out, "learners", "class0", "linear-gaussian.json")
        assert path in err and "config.n_qubits" in err
        assert "n_qubits = 3" in err
        assert not os.path.exists(manifest)

    def test_mixed_qubit_counts_exit_3(self, smoke_ini, pipeline_out,
                                       tmp_path, capsys):
        """One 3-qubit learner among the 2-qubit ones: select exits 3 naming
        it, and writes no manifest."""
        out = str(tmp_path / "copy")
        shutil.copytree(pipeline_out, out)
        manifest = os.path.join(out, "ensemble_class0.json")
        os.remove(manifest)
        ldir = os.path.join(out, "learners", "class0")
        with open(os.path.join(ldir, "linear-triangle.json")) as f:
            doc = json.load(f)
        _add_atom(doc)
        doc["config"]["n_qubits"] = 3
        path = os.path.join(ldir, "three-qubit.json")
        with open(path, "w") as f:
            json.dump(doc, f)
        code = main(["select", "--config", smoke_ini, "--out", out])
        err = capsys.readouterr().err
        assert code == 3
        assert path in err and "config.n_qubits" in err
        assert not os.path.exists(manifest)

    def test_one_generation_call_scores_every_learner(self, smoke_ini,
                                                      tmp_path, monkeypatch):
        from tests.test_training import rowwise_stub
        cfg = tmp_path / "three.ini"
        cfg.write_text(open(smoke_ini).read().replace(
            "local_shapes = triangle,gaussian",
            "local_shapes = triangle,gaussian,sine_bump"))
        out = str(tmp_path / "out")
        for cmd in ("fit-pca", "train"):
            assert main([cmd, "--config", str(cfg), "--out", out]) == 0
        calls = []

        def counting(runs, run):
            calls.append(runs)
            return rowwise_stub(runs, run)

        monkeypatch.setattr(cli, "generate_batch", counting)
        assert main(["select", "--config", str(cfg), "--out", out]) == 0
        config = load_config(str(cfg), {"out_dir": out})
        assert [len(runs) for runs in calls] == [3 * config.fid_batch]

        paths, results = cli._load_learner_files(config, 0,
                                                 config.train_config())
        seeds = draw_seeds(np.random.default_rng(config.master_seed),
                           config.fid_batch)
        runs = [(r.learner.params, s, EXACT) for r in results for s in seeds]
        batches = rowwise_stub(runs, config.train_config()).reshape(3, len(seeds), -1)
        [val] = cli._load_splits(config, [0], held_out=True)
        expected = greedy_select(batches, val, cli._require_pca(config, 0))
        doc = json.loads(open(os.path.join(out, "ensemble_class0.json")).read())
        members = expected.member_indices
        assert doc == {
            "format": "rydgan-ensemble", "version": 1, "class": 0,
            "member_files": [os.path.basename(paths[i]) for i in members],
            "member_names": [results[i].learner.name for i in members],
            "validation_fid": expected.fid_trail[-1],
            "fid_trail": list(expected.fid_trail),
            "singleton_fids": list(expected.singleton_fids),
            "master_seed": config.master_seed, "fid_batch": config.fid_batch}
        assert list(doc) == ["format", "version", "class", "member_files",
                             "member_names", "validation_fid", "fid_trail",
                             "singleton_fids", "master_seed", "fid_batch"]


def _two_class_copy(pipeline_out, tmp_path):
    """A copy of the smoke pipeline's outputs in which class 1 has class 0's
    PCA model, learners and ensemble (its manifest naming class 1)."""
    out = tmp_path / "out"
    shutil.copytree(pipeline_out, out)
    shutil.copy(out / "pca_class0.pca", out / "pca_class1.pca")
    manifest = json.loads((out / "ensemble_class0.json").read_text())
    manifest["class"] = 1
    (out / "ensemble_class1.json").write_text(json.dumps(manifest))
    shutil.copytree(out / "learners" / "class0", out / "learners" / "class1")
    return out


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

    def test_crowded_noisy_draw_exits_4_naming_image_and_member(
            self, smoke_ini, pipeline_out, tmp_path, capsys):
        # every member's two atoms sit min_spacing_um apart, so a 5 um position
        # error brings them within ~1 um in some of 400 draws, which no step
        # budget resolves; nothing is written
        out = str(tmp_path / "crowded")
        shutil.copytree(pipeline_out, out)
        shutil.rmtree(os.path.join(out, "generated"), ignore_errors=True)
        files = json.load(open(_artefact_paths(out)["manifest"]))["member_files"]
        for name in files:
            path = os.path.join(out, "learners", "class0", name)
            result = load_learner(path)
            params, c = result.learner.params, result.config.field_size_um / 2
            crowded = params.with_group("positions", [
                c, c, c + result.config.min_spacing_um, c])
            training.save_learner(replace(result, learner=replace(
                result.learner, params=crowded)), path)
        cfg = tmp_path / "crowded.ini"
        cfg.write_text(open(smoke_ini).read()
                       + "\n[error_model]\nposition_sigma = 5.0\n")
        code = main(["generate", "--config", str(cfg), "--out", out,
                     "--mode", "noisy", "--count", "400"])
        err = capsys.readouterr().err
        assert code == 4
        match = re.search(r"error: image (\d+), member ([^:\s]+): run (\d+): "
                          "Hamiltonian norm bound", err)
        assert match, err
        image, name, run = int(match[1]), match[2], int(match[3])
        assert run == image * len(files) + files.index(name)
        config = load_config(str(cfg), {"out_dir": out})
        mode = cli._member_mode(config, "noisy", image, files.index(name))
        learner = load_learner(os.path.join(out, "learners", "class0", name))
        pos = perturb_params(np.array(learner.learner.params.arrangement.positions),
                             mode.model)[0]
        assert np.linalg.norm(pos[0] - pos[1]) < 1.0
        assert not os.path.exists(os.path.join(out, "generated"))

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
        (lambda doc: doc.update(version=True), "version"),
        (lambda doc: doc.update(version=1.0), "version"),
        (lambda doc: doc.update(member_files=[os.path.abspath("x.json")]),
         "member_files"),
        (lambda doc: doc.update(member_files=["../class0/x.json"]),
         "member_files"),
        (lambda doc: doc.update(member_files=["sub/x.json"]), "member_files"),
    ], ids=["missing", "not-a-list", "empty", "wrong-version", "version-true",
            "version-1.0", "absolute-path", "parent-path", "sub-path"])
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

    def test_smoke_tree_equals_its_pin(self, smoke_ini, pipeline_out, tmp_path):
        # the PCA model, the learner files, the manifest, training_log.csv
        # and the images of one generate call per mode
        out = str(tmp_path / "out")
        shutil.copytree(pipeline_out, out)
        for mode in MODES:
            assert main(["generate", "--mode", mode, "--config", smoke_ini,
                         "--out", out]) == 0
        names = sorted(os.path.relpath(path, out) for pattern in (
            "*.pca", "ensemble_*.json", os.path.join("learners", "*", "*"),
            os.path.join("generated", "*", "*", "*.pgm"))
            for path in glob.glob(os.path.join(out, pattern)))
        assert len(names) == 20
        digest = hashlib.sha256()
        for name in names:
            digest.update(name.encode())
            with open(os.path.join(out, name), "rb") as f:
                digest.update(f.read())
        assert_pinned("smoke pipeline tree", digest.hexdigest())


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
                                                     pipeline_out, tmp_path):
        # same code path, same seeds: regenerating the batch and calling
        # fid_images directly must reproduce the CSV value exactly
        from rydgan.cli import (_generate_images, _load_ensemble_members,
                                _load_splits, _require_pca)
        from rydgan.config import load_config
        from rydgan.metrics import fid_images
        out = str(tmp_path / "out")
        shutil.copytree(pipeline_out, out)
        assert main(["evaluate", "--config", smoke_ini, "--out", out,
                     "--class", "0"]) == 0
        config = load_config(smoke_ini, {"out_dir": out})
        config.validate()
        model = _require_pca(config, 0)
        [val] = _load_splits(config, [0], held_out=True)
        run = config.train_config()
        files, members = _load_ensemble_members(config, 0, run)
        images = _generate_images(config, run, members, model, "ideal",
                                  config.fid_batch, files)
        direct = fid_images(val.images, images)
        with open(os.path.join(out, "evaluation.csv")) as f:
            rows = f.read().splitlines()
        reported = float(rows[1].split(",")[2])
        assert abs(reported - direct) <= 1e-9

    def test_two_classes_read_the_dataset_once(self, smoke_ini, pipeline_out,
                                               tmp_path, monkeypatch):
        """evaluate --class 0,1 reads the IDX pair once for both classes'
        held-out images (class 1 reuses class 0's artefacts here)."""
        out = _two_class_copy(pipeline_out, tmp_path)
        reads = []

        def counting(*paths):
            reads.append(paths)
            return read_idx_pair(*paths)
        monkeypatch.setattr(dp, "read_idx_pair", counting)
        assert main(["evaluate", "--config", smoke_ini, "--out", str(out),
                     "--class", "0,1"]) == 0
        assert len(reads) == 1
        rows = (out / "evaluation.csv").read_text().splitlines()
        assert [row.split(",")[:2] for row in rows[1:]] == [
            ["0", "ideal"], ["0", "noisy"], ["1", "ideal"], ["1", "noisy"]]

    def test_empty_class_list_is_usage_error(self, smoke_ini, tmp_path,
                                             capsys):
        code = main(["evaluate", "--config", smoke_ini,
                     "--out", str(tmp_path / "o"), "--class", ""])
        assert code == 2

    @pytest.mark.parametrize("classes, bad", [("0,12", "12"), ("0,-1", "-1")])
    def test_every_listed_class_is_checked_before_work(self, smoke_ini,
                                                       tmp_path, capsys,
                                                       classes, bad):
        out = tmp_path / "o"
        code = main(["evaluate", "--config", smoke_ini, "--out", str(out),
                     "--class", classes])
        assert code == 2
        rule = "<= 9" if int(bad) > 9 else ">= 0"
        assert (f"digit_class must be {rule}, got {bad}"
                in capsys.readouterr().err)
        assert not out.exists()


def test_every_remedy_names_a_subcommand():
    """Each `; run <command>` or `; re-run <command>` that a message of the
    package asks for names a subcommand of the console script."""
    subcommands = next(action.choices for action in cli._build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    asked = set()
    for path in glob.glob(os.path.join(os.path.dirname(cli.__file__), "*.py")):
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                asked.update(re.findall(r"; (?:re-)?run ([\w-]+)", node.value))
    assert {"fit-pca", "train", "select"} <= asked
    assert asked <= set(subcommands)


@pytest.mark.parametrize("command", ["fit-pca", "train", "select", "generate"])
def test_class_list_is_rejected_outside_evaluate(smoke_ini, tmp_path, capsys,
                                                 command):
    """Only evaluate takes a comma list; the other commands exit 2 naming
    --class before any output is written, not silently using class 0."""
    out = tmp_path / "o"
    code = main([command, "--config", smoke_ini, "--out", str(out),
                 "--class", "0,1"])
    assert code == 2
    assert "--class" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, classes", [
    ("fit-pca", ","), ("fit-pca", ""), ("train", ",,"), ("evaluate", "0,0"),
    ("evaluate", "0,1,0")])
def test_class_list_naming_no_class_or_one_twice_exits_2(
        smoke_ini, pipeline_out, tmp_path, capsys, command, classes):
    """A --class list must name at least one class and each class once: an
    empty list does not fall back on the config's digit_class, and evaluate
    does not score a class twice; both exit 2 before any output."""
    out = str(tmp_path / "copy")
    shutil.copytree(pipeline_out, out)

    def written():
        return {os.path.join(root, name):
                os.stat(os.path.join(root, name)).st_mtime_ns
                for root, _, names in os.walk(out) for name in names}
    before = written()
    code = main([command, "--config", smoke_ini, "--out", out,
                 "--class", classes])
    assert code == 2
    assert f"--class must name one or more distinct classes, got {classes!r}" \
        in capsys.readouterr().err
    assert written() == before


@pytest.mark.parametrize("command, flags, line, key", [
    ("train", ["--seed", "-1"], "", "master_seed"),
    ("select", ["--seed", "-3"], "", "master_seed"),
    ("fit-pca", [], "split_seed = -1\n", "split_seed"),
], ids=["train-seed", "select-seed", "fit-pca-split-seed"])
def test_negative_seed_exits_2_naming_the_key(smoke_ini, tmp_path, capsys,
                                              command, flags, line, key):
    """A negative seed is a config error found before any work, not an
    internal error from numpy's seeding."""
    cfg = tmp_path / "seed.ini"
    cfg.write_text(open(smoke_ini).read().replace(
        "digit_class = 0\n", "digit_class = 0\n" + line))
    out = tmp_path / "o"
    code = main([command, "--config", str(cfg), "--out", str(out)] + flags)
    assert code == 2
    assert f"{key} must be >= 0" in capsys.readouterr().err
    assert not out.exists()


class TestConfigPlumbing:
    def test_unexpected_exception_is_an_internal_error(self, smoke_ini,
                                                       tmp_path, capsys,
                                                       monkeypatch):
        def broken(config):
            raise ValueError("unexpected")

        monkeypatch.setattr(cli, "cmd_train", broken)
        assert main(["train", "--config", smoke_ini,
                     "--out", str(tmp_path / "o")]) == 1
        assert (capsys.readouterr().err
                == "error: internal: ValueError: unexpected\n")

    def test_base_error_uses_its_exit_code(self, smoke_ini, tmp_path, capsys,
                                           monkeypatch):
        def failing(config):
            raise RydganError("unclassified")

        monkeypatch.setattr(cli, "cmd_train", failing)
        assert main(["train", "--config", smoke_ini,
                     "--out", str(tmp_path / "o")]) == RydganError.exit_code
        assert capsys.readouterr().err == "error: unclassified\n"

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

    @pytest.mark.parametrize("text", [
        "n_qubits = 4\n",
        "[quantum]\nn_qubits = 2\n[quantum]\nn_qubits = 3\n",
        "[data]\nimages = 100%.idx\n",
    ], ids=["no-section-header", "duplicate-section", "bad-interpolation"])
    def test_malformed_file_is_a_config_error(self, tmp_path, capsys, text):
        cfg = tmp_path / "broken.ini"
        cfg.write_text(text)
        assert main(["fit-pca", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert str(cfg) in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("adam_beta1", "1.0"), ("adam_beta2", "-0.1"), ("adam_eps", "0"),
        ("adam_lr", "nan"), ("nm_tol", "-1"), ("min_spacing_um", "0"),
        ("field_size_um", "-5"), ("duration_us", "inf"), ("omega_max", "inf"),
        ("c6", "inf"), ("field_size_um", "inf"), ("detuning_sigma", "nan"),
        ("rabi_rel_sigma", "nan"), ("position_sigma", "nan"),
        ("seed_batch", "1000000000"), ("shots", str(10**30))])
    def test_out_of_range_setting_fails_before_work(self, smoke_ini, tmp_path,
                                                    capsys, key, value):
        cfg = _with_setting(smoke_ini, tmp_path / "bad.ini", key, value)
        out = tmp_path / "o"
        assert main(["fit-pca", "--config", cfg, "--out", str(out)]) == 2
        # the owning class's field is the key without its unit suffix
        field = key.removesuffix("_um").removesuffix("_us")
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, key, flags, line", [
        ("generate", "count", ["--count", "1"], "fid_batch = 8"),
        ("select", "fid_batch", [], "fid_batch = 1")])
    def test_one_image_batch_fails_before_work(self, smoke_ini, tmp_path,
                                               capsys, command, key, flags,
                                               line):
        # an FID needs two images per batch
        cfg = tmp_path / "one.ini"
        cfg.write_text(open(smoke_ini).read().replace("fid_batch = 8", line))
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]
                    + flags) == 2
        assert f"{key} must be >= 2" in capsys.readouterr().err
        assert not out.exists()


# render_config(RunConfig()): every key, its section and its default
DEFAULT_INI = "\n".join([
    "[data]", "images = ", "labels = ", "digit_class = 0",
    "val_fraction = 0.1", "split_seed = 20240", "",
    "[quantum]", "n_qubits = 4", "c6 = 5420503.0", "steps_per_us = 250",
    "min_spacing_um = 4.0", "field_size_um = 75.0", "",
    "[pulses]", "omega_max = 15.8", "local_detuning_min = -125.0",
    "global_detuning_abs = 125.0", "rabi_shapes = linear,triangle",
    "local_shapes = triangle,gaussian", "",
    "[training]", "duration_us = 1.0", "cycles = 3", "nm_iters = 60",
    "nm_tol = 1e-06", "disc_steps = 30", "disc_batch = 32", "seed_batch = 16",
    "adam_lr = 0.001", "adam_beta1 = 0.9", "adam_beta2 = 0.999",
    "adam_eps = 1e-08", "hidden = 64",
    "stage_order = positions,rabi,local,global", "",
    "[error_model]", "detuning_sigma = 0.1", "rabi_rel_sigma = 0.01",
    "position_sigma = 0.1", "",
    "[sampling]", "shots = 1000", "",
    "[ensemble]", "fid_batch = 100", "",
    "[run]", "master_seed = 0", "out_dir = out", "jobs = 1", "count = 16",
    "mode = ideal", "", ""])


def declared(key: str) -> tuple:
    """(bounds, choices) declared on an INI key's RunConfig field; a key of
    TrainConfig, PulseLimits, ErrorModel or ShotsMode takes the bounds of
    that class's field."""
    metadata = RunConfig.__dataclass_fields__[key].metadata
    return metadata["bounds"], metadata["choices"]


NUMERIC_KEYS = [f.name for f in fields(RunConfig) if f.type in (int, float)]
EXTREMES = [0, -1, 10**30, -10**30, 1e308, -1e308, math.inf, -math.inf,
            math.nan]


def _with_setting(smoke_ini, path, key, value):
    """The smoke config with one key set, in place of its own line if it
    has one, written to path."""
    section = next(name for name, keys in _sections().items() if key in keys)
    text = re.sub(rf"^{key} = .*\n", "", open(smoke_ini).read(), flags=re.M)
    if f"[{section}]\n" not in text:
        text += f"\n[{section}]\n"
    path.write_text(text.replace(f"[{section}]\n",
                                 f"[{section}]\n{key} = {value}\n", 1))
    return str(path)


class TestConfigSchema:
    def test_default_rendering_is_pinned(self):
        assert render_config(RunConfig()) == DEFAULT_INI

    @pytest.mark.parametrize("key, last", [
        ("steps_per_us", 10_000), ("duration_us", 4.0), ("disc_batch", 4096),
        ("seed_batch", 3120), ("hidden", 1024), ("shots", 2**63 - 1),
        ("fid_batch", 2621), ("count", 2621)])
    def test_step_budget_is_bounded_above(self, smoke_ini, tmp_path, key,
                                          last):
        # the step budget and the batch sizes, checked by validation only:
        # no grid or batch of that size is ever built
        path = tmp_path / "bound.ini"
        load_config(_with_setting(smoke_ini, path, key, last)).validate()
        past = last + 1 if isinstance(last, int) else np.nextafter(last, 5.0)
        config = load_config(_with_setting(smoke_ini, path, key, past))
        with pytest.raises(ValidationError, match=key):
            config.validate()

    @pytest.mark.parametrize("steps, batch, legal", [
        (65536, 1, True), (65537, 1, False), (16, 4096, True),
        (17, 4096, False), (4096, 4096, False)])
    def test_fakes_per_stage_are_bounded(self, smoke_ini, tmp_path, steps,
                                         batch, legal):
        # a stage asks for disc_steps x disc_batch fakes in one request
        path = _with_setting(smoke_ini, tmp_path / "a.ini", "disc_batch", batch)
        path = _with_setting(path, tmp_path / "b.ini", "disc_steps", steps)
        config = load_config(path)
        if legal:
            config.validate()
            return
        with pytest.raises(ValidationError, match="disc_steps") as info:
            config.validate()
        if steps <= 65536:
            assert "disc_batch" in str(info.value)

    @settings(max_examples=300,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_numeric_keys_hold_their_bounds_or_are_named(self, smoke_ini,
                                                         tmp_path, data):
        """Any value of any numeric key, extreme or not: validation either
        names the key or leaves a value inside every bound declared for it.
        Nothing runs, so nothing is allocated."""
        key = data.draw(st.sampled_from(NUMERIC_KEYS), label="key")
        bounds, _ = declared(key)
        value = data.draw(st.sampled_from(EXTREMES + [b for _, b in bounds])
                          | st.integers(-3, 20_000)
                          | st.floats(-3.0, 3.0), label="value")
        path = _with_setting(smoke_ini, tmp_path / "fuzz.ini", key, value)
        try:
            config = load_config(path)
            config.validate()
        except ValidationError as exc:
            assert key in str(exc), (key, value, str(exc))
            return
        got = getattr(config, key)
        assert math.isfinite(got), (key, value)
        for op, limit in bounds:
            assert {">": got > limit, ">=": got >= limit, "<": got < limit,
                    "<=": got <= limit}[op], (key, value, op, limit)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_choice_keys_and_classes_hold_their_rules_or_are_named(
            self, smoke_ini, tmp_path, capsys, monkeypatch, data):
        """Any names for mode or a shape key (unknown, illegal, repeated or
        none) and any --class list: main either accepts them within their
        declared rule or exits 2 naming the key, never 1 nor a traceback.
        The commands are stubbed, so nothing runs."""
        ran = []
        for name in ("cmd_fit_pca", "cmd_train", "cmd_select", "cmd_generate"):
            monkeypatch.setattr(cli, name, lambda config: ran.append(
                (config, [config.digit_class])) or 0)
        monkeypatch.setattr(cli, "cmd_evaluate", lambda config, classes:
                            ran.append((config, classes)) or 0)
        key = data.draw(st.sampled_from(
            ["mode", "rabi_shapes", "local_shapes", "--class"]), label="key")
        if key == "--class":
            classes = data.draw(st.lists(st.integers(-3, 12), max_size=4),
                                label="classes")
            command = data.draw(st.sampled_from(["evaluate", "fit-pca"]),
                                label="command")
            argv = [command, "--config", smoke_ini,
                    "--class=" + ",".join(map(str, classes))]
        else:
            names = data.draw(st.lists(st.sampled_from(
                TRAINABLE_SHAPES + MODES + ("constant", "sawtooth")),
                max_size=6), label="names")
            argv = ["train", "--config", _with_setting(
                smoke_ini, tmp_path / "fuzz.ini", key, ",".join(names))]
        code = main(argv + ["--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if code == 2:
            names = ("--class", "digit_class") if key == "--class" else (key,)
            assert any(name in err for name in names), (argv, err)
            return
        assert code == 0, (argv, err)
        [(config, classes)] = ran
        for cls in classes:
            assert 0 <= cls <= 9
        if key == "--class":
            return
        value = getattr(config, key)
        named = (value,) if key == "mode" else value
        choices = MODES if key == "mode" else TRAINABLE_SHAPES
        assert named and len(set(named)) == len(named)
        assert set(named) <= set(choices), (key, value)

    def test_every_key_round_trips(self, tmp_path):
        config = RunConfig(
            images="a.idx", labels="b.idx", digit_class=3, val_fraction=0.25,
            split_seed=7, n_qubits=3, c6=1234.5, steps_per_us=77,
            min_spacing_um=5.5, field_size_um=60.0, omega_max=10.5,
            local_detuning_min=-50.0, global_detuning_abs=30.0,
            rabi_shapes=("gaussian",), local_shapes=("sine_bump", "trapezoid"),
            duration_us=0.75, cycles=2, nm_iters=9, nm_tol=1e-4, disc_steps=5,
            disc_batch=7, seed_batch=4, adam_lr=0.01, adam_beta1=0.5,
            adam_beta2=0.9, adam_eps=1e-6, hidden=8,
            stage_order=("global", "local", "rabi", "positions"),
            detuning_sigma=0.2, rabi_rel_sigma=0.02, position_sigma=0.3,
            shots=50, fid_batch=12, master_seed=9, out_dir="elsewhere", jobs=2,
            count=5, mode="noisy")
        config.validate()
        defaults = RunConfig()
        unchanged = [f.name for f in fields(RunConfig)
                     if getattr(config, f.name) == getattr(defaults, f.name)]
        assert unchanged == []
        path = tmp_path / "all.ini"
        path.write_text(render_config(config))
        assert load_config(str(path)) == config


def stub_member(rabi_param):
    """A learner told apart from the others by its Rabi scalar."""
    arrangement = AtomArrangement(((6.0, 6.0), (12.0, 6.0)), (0.5, 0.5))
    params = GeneratorParams(arrangement, "linear", rabi_param, "triangle",
                             -1.0, 0.0)
    return Learner("linear", "triangle", params, 0.0)


class TestGenerateImages:
    """Each ensemble image decodes the mean of its members' features."""

    @pytest.fixture(scope="class")
    def model(self):
        return fit_pca(synthetic_digits(np.random.default_rng(21), 40), 4)

    @staticmethod
    def stub_generation(monkeypatch, outputs):
        monkeypatch.setattr(
            cli, "generate_batch", lambda runs, run: np.stack(
                [outputs[params.rabi_param] for params, _, _ in runs]))

    def test_images_decode_the_member_average(self, monkeypatch, model):
        outputs = {1.0: np.linspace(0.01, 0.2, 4), 2.0: np.full(4, 0.15)}
        self.stub_generation(monkeypatch, outputs)
        config = RunConfig(n_qubits=2)
        images = cli._generate_images(config, config.train_config(),
                                      [stub_member(1.0), stub_member(2.0)],
                                      model, "ideal", 3, ["a.json", "b.json"])
        mean = (outputs[1.0] + outputs[2.0]) / 2
        expected = inverse_transform(model, unscale_features(model, mean))
        assert images.shape == (3, 28, 28)
        assert np.abs(images - expected.reshape(28, 28)).max() < 1e-12

    def test_member_order_does_not_matter(self, monkeypatch, model):
        rng = np.random.default_rng(30)
        outputs = {float(i): rng.uniform(0, 0.25, 4) for i in range(1, 4)}
        self.stub_generation(monkeypatch, outputs)
        members = [stub_member(p) for p in (1.0, 2.0, 3.0)]
        config = RunConfig(n_qubits=2)
        run, files = config.train_config(), ["a.json", "b.json", "c.json"]
        fwd = cli._generate_images(config, run, members, model, "ideal", 2,
                                   files)
        rev = cli._generate_images(config, run, members[::-1], model, "ideal",
                                   2, files[::-1])
        assert np.abs(fwd - rev).max() < 1e-12

    def test_single_member_decodes_its_generate_batch_output(self, model):
        config = RunConfig(n_qubits=2, steps_per_us=50)
        member = stub_member(2.0)
        images = cli._generate_images(config, config.train_config(), [member],
                                      model, "ideal", 3, ["a.json"])
        seeds = draw_seeds(np.random.default_rng(config.master_seed), 3)
        features = generate_batch([(member.params, s, EXACT) for s in seeds],
                                  config.train_config())
        expected = inverse_transform(model, unscale_features(model, features))
        assert np.array_equal(images, expected.reshape(3, 28, 28))


def _artefact_paths(out):
    """{name: path} of the three files `generate` loads from a pipeline run."""
    manifest = os.path.join(out, "ensemble_class0.json")
    with open(manifest) as f:
        member = json.load(f)["member_files"][0]
    return {"pca": os.path.join(out, "pca_class0.pca"),
            "learner": os.path.join(out, "learners", "class0", member),
            "manifest": manifest}


def _key_paths(node, prefix=()):
    """Paths to every object key at any depth of a JSON document."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield prefix + (key,)
            yield from _key_paths(value, prefix + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _key_paths(value, prefix + (index,))


class TestMalformedArtefacts:
    @pytest.fixture()
    def copy(self, pipeline_out, tmp_path):
        out = str(tmp_path / "copy")
        shutil.copytree(pipeline_out, out)
        return out

    @pytest.mark.parametrize("artefact, payload, field", [
        ("pca", b'{"format": "rydgan-pca", "version": 3}\n', "mean"),
        ("pca", b"[]", "top level"),
        ("learner", b"[]", "top level"),
        ("pca", b"\xff\xfe{", "utf-8"),
        ("learner", b"\xff\xfe{", "utf-8"),
        ("pca", b'{"format": "rydgan-pca", "version": 1}', "fit-pca"),
        ("pca", b'{"format": "rydgan-pca", "version": 2}\n', "fit-pca"),
    ], ids=["pca-missing-keys", "pca-array", "learner-array", "pca-not-utf8",
            "learner-not-utf8", "pca-version-1", "pca-version-2"])
    def test_generate_exits_3_naming_path(self, smoke_ini, copy, capsys,
                                          artefact, payload, field):
        path = _artefact_paths(copy)[artefact]
        with open(path, "wb") as f:
            f.write(payload)
        code = main(["generate", "--config", smoke_ini, "--out", copy,
                     "--count", "2"])
        err = capsys.readouterr().err
        assert code == 3
        assert path in err and field in err

    @pytest.mark.parametrize("version", [True, 1.0, 0, 4])
    def test_learner_version_not_1_or_2_exits_3(self, smoke_ini, copy, capsys,
                                                version):
        """A learner file loads only at version 3, a JSON integer: `true`,
        `1.0`, 0 and 4 each exit 3 naming the version."""
        path = _artefact_paths(copy)["learner"]
        with open(path) as f:
            doc = json.load(f)
        doc["version"] = version
        with open(path, "w") as f:
            json.dump(doc, f)
        code = main(["generate", "--config", smoke_ini, "--out", copy,
                     "--count", "2"])
        err = capsys.readouterr().err
        assert code == 3
        assert f"{path}: field version: unsupported version {version!r}" in err

    @pytest.mark.parametrize("artefact, current, remedy", [
        ("pca", dp.PCA_VERSION, "re-run fit-pca"),
        ("learner", training.LEARNER_VERSION, "re-run train"),
        ("manifest", cli.ENSEMBLE_VERSION, "re-run select"),
    ], ids=["pca", "learner", "manifest"])
    @pytest.mark.parametrize("other", [lambda v: v - 1, lambda v: v + 1,
                                       lambda v: True, float],
                             ids=["previous", "next", "true", "float"])
    def test_other_version_exits_3_naming_the_command_that_rewrites_it(
            self, smoke_ini, copy, capsys, artefact, current, remedy, other):
        """Each artefact reader accepts only its current version, a JSON
        integer: any other version, older or newer, exits 3 naming the
        field and the command that writes the file anew."""
        path, version = _artefact_paths(copy)[artefact], other(current)
        if artefact == "pca":
            pca = PcaFile(path)
            pca.header["version"] = version
            pca.write(path)
        else:
            with open(path) as f:
                doc = json.load(f)
            doc["version"] = version
            with open(path, "w") as f:
                json.dump(doc, f)
        code = main(["generate", "--config", smoke_ini, "--out", copy,
                     "--count", "2"])
        err = capsys.readouterr().err
        assert code == 3
        assert (f"{path}: field version: unsupported version {version!r}; "
                f"{remedy}") in err

    def test_short_scale_bounds_exit_3(self, smoke_ini, copy, capsys):
        path = _artefact_paths(copy)["pca"]
        pca = PcaFile(path)
        f8_field(pca, "scale_lo", load_pca(path).scale_lo[:1])
        pca.write(path)
        code = main(["generate", "--config", smoke_ini, "--out", copy,
                     "--count", "2"])
        err = capsys.readouterr().err
        assert code == 3
        assert path in err and "scale_lo" in err

    @pytest.mark.parametrize("field, edit", PAYLOAD_DEFECTS)
    def test_pca_payload_defect_exits_3_before_any_image(
            self, smoke_ini, copy, capsys, field, edit):
        shutil.rmtree(os.path.join(copy, "generated"), ignore_errors=True)
        path = _artefact_paths(copy)["pca"]
        pca = PcaFile(path)
        edit(pca)
        pca.write(path)
        code = main(["generate", "--config", smoke_ini, "--out", copy,
                     "--count", "2"])
        err = capsys.readouterr().err
        assert code == 3
        assert f"{path}: field {field}" in err or f"{path}: {field}" in err
        assert not os.path.exists(os.path.join(copy, "generated"))

    @pytest.mark.parametrize("command", ["generate", "evaluate", "select"])
    def test_overflowing_pca_model_exits_4_naming_fid(self, smoke_ini, copy,
                                                      capsys, command):
        # one finite but huge component loads, then overflows the images:
        # no nan or inf FID or variation may reach an output file
        shutil.rmtree(os.path.join(copy, "generated"), ignore_errors=True)
        path = _artefact_paths(copy)["pca"]
        pca = PcaFile(path)
        components = load_pca(path).components.copy()
        components[0, 0] = 1e300
        f8_field(pca, "components", components)
        pca.write(path)

        def tree():
            return {os.path.join(root, name): open(os.path.join(root, name),
                                                   "rb").read()
                    for root, _, names in os.walk(copy) for name in names
                    if name != "effective-config.ini"}
        before = tree()
        code = main([command, "--config", smoke_ini, "--out", copy]
                    + (["--class", "0"] if command == "evaluate" else []))
        assert code == 4
        # the error line alone: no numpy warning about the overflow
        assert (capsys.readouterr().err
                == "error: FID is not finite: the images overflow\n")
        assert tree() == before


@pytest.fixture(scope="module")
def mutable_out(pipeline_out, tmp_path_factory):
    """A private copy of the pipeline output plus its pristine artefacts."""
    out = str(tmp_path_factory.mktemp("mutable") / "out")
    shutil.copytree(pipeline_out, out)
    paths = _artefact_paths(out)
    originals = {}
    for name, path in paths.items():
        with open(path, "rb") as f:
            raw = f.read()
        doc = PcaFile(path).header if name == "pca" else json.loads(raw)
        originals[name] = (raw, list(_key_paths(doc)))
    return out, paths, originals


_REPLACEMENTS = (None, "x", [], {}, -1)


@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_artefact_never_escapes_main(smoke_ini, mutable_out, data):
    """Truncate an artefact, break one key (of the PCA model's header) or,
    in the PCA model, overwrite one float64 of an array or drop its last
    bytes: generate exits 0, 2, 3 or 4, and 3 whenever the file no longer
    loads."""
    out, paths, originals = mutable_out
    name = data.draw(st.sampled_from(sorted(paths)), label="artefact")
    raw, key_paths = originals[name]
    how = data.draw(st.sampled_from(
        ["truncate", "key", "payload"] if name == "pca"
        else ["truncate", "key"]), label="mutation")
    if how == "truncate":
        mutated = raw[:data.draw(st.integers(0, len(raw) - 1), label="offset")]
    elif how == "payload":
        pca = PcaFile(paths[name])
        array = data.draw(st.sampled_from(PCA_ARRAYS), label="array")
        payload = bytearray(pca.arrays[array])
        if data.draw(st.booleans(), label="drop tail"):
            del payload[-data.draw(st.integers(1, 8), label="bytes"):]
        else:
            at = 8 * data.draw(st.integers(0, len(payload) // 8 - 1),
                               label="element")
            payload[at:at + 8] = struct.pack("<d", data.draw(
                st.sampled_from([np.nan, np.inf, -np.inf]) | st.floats(
                    allow_nan=False, allow_infinity=False), label="value"))
        pca.arrays[array] = bytes(payload)
        mutated = pca.encode()
    else:
        pca = PcaFile(paths[name]) if name == "pca" else None
        doc = pca.header if pca else json.loads(raw)
        *parents, key = data.draw(st.sampled_from(key_paths), label="key")
        node = doc
        for step in parents:
            node = node[step]
        choice = data.draw(st.integers(-1, len(_REPLACEMENTS) - 1),
                           label="replacement (-1: remove)")
        if choice < 0:
            del node[key]
        else:
            node[key] = _REPLACEMENTS[choice]
        mutated = pca.encode() if pca else json.dumps(doc).encode()
    with open(paths[name], "wb") as f:
        f.write(mutated)
    try:
        config = load_config(smoke_ini, {"out_dir": out})
        try:
            if name == "pca":
                load_pca(paths[name])
            elif name == "learner":
                load_learner(paths[name])
            else:
                cli._load_ensemble_members(config, 0, config.train_config())
            loads = True
        except DataError:
            loads = False
        code = main(["generate", "--config", smoke_ini, "--out", out,
                     "--mode", "ideal", "--count", "2"])
    finally:
        with open(paths[name], "wb") as f:
            f.write(raw)
    event(f"{name}: exit {code}")
    assert code in (0, 2, 3, 4)
    if not loads:
        assert code == 3


def _leaf_paths(node, prefix=()):
    """Paths to every value of a JSON document that is neither an object
    nor an array, list items included."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            yield from _leaf_paths(value, prefix + (key,))
    else:
        yield prefix


def _json_type(value) -> str:
    return {bool: "boolean", int: "number", float: "number", str: "string",
            type(None): "null", list: "array", dict: "object"}[type(value)]


def test_retyped_learner_leaf_exits_3_naming_its_field(pipeline_out,
                                                       tmp_path):
    """Every leaf of a learner file, retyped to each other JSON type (a
    number, a string, true, null, an empty array, an array holding the old
    value, an object), fails to load with a DataError (exit 3) naming the
    file and the field: the top-level key, and for a config or log value
    the field inside."""
    with open(_artefact_paths(pipeline_out)["learner"]) as f:
        original = json.load(f)
    path = str(tmp_path / "retyped.json")
    cases = 0
    for leaf in _leaf_paths(original):
        *parents, key = leaf
        old = functools.reduce(lambda node, step: node[step], leaf, original)
        for new in (0.5, "x", True, None, [], [old], {}):
            if _json_type(new) == _json_type(old):
                continue
            doc = json.loads(json.dumps(original))
            functools.reduce(lambda node, step: node[step], parents,
                             doc)[key] = new
            with open(path, "w") as f:
                json.dump(doc, f)
            with pytest.raises(DataError) as info:
                load_learner(path)
            message, top = str(info.value), leaf[0]
            assert message.startswith(f"{path}: field {top}"), (leaf, new,
                                                                  message)
            if top in ("config", "log"):
                inner = [step for step in leaf if isinstance(step, str)][-1]
                assert inner in message, (leaf, new, message)
            cases += 1
    assert cases > 300


def test_deleted_learner_key_exits_3_naming_it(pipeline_out, tmp_path):
    """save_learner writes every field of the config and its limits, so a
    learner file with any key or leaf deleted fails to load with a
    DataError (exit 3) naming the file and the field: the top-level key,
    and for a config or log value the key inside. No key may be missing."""
    with open(_artefact_paths(pipeline_out)["learner"]) as f:
        original = json.load(f)
    path = str(tmp_path / "deleted.json")
    cases = 0
    for leaf in dict.fromkeys([*_key_paths(original), *_leaf_paths(original)]):
        *parents, key = leaf
        doc = json.loads(json.dumps(original))
        del functools.reduce(lambda node, step: node[step], parents, doc)[key]
        with open(path, "w") as f:
            json.dump(doc, f)
        with pytest.raises(DataError) as info:
            load_learner(path)
        message, top = str(info.value), leaf[0]
        assert message.startswith(f"{path}: field {top}"), (leaf, message)
        if top in ("config", "log"):
            inner = [step for step in leaf if isinstance(step, str)][-1]
            assert inner in message, (leaf, message)
        cases += 1
    assert {("config", "hidden"), ("config", "c6"), ("config", "stage_order"),
            ("config", "limits", "omega_max")} <= set(_key_paths(original))
    assert cases > 60


def test_retyped_manifest_leaf_exits_3_or_is_not_read(smoke_ini,
                                                      pipeline_out, tmp_path):
    """Every leaf of an ensemble manifest, retyped as the learner leaves
    are: a command reads only `format`, `version`, `class` and
    `member_files`, so retyping one of those fails with a DataError (exit
    3) naming the file and the field, and any other leaf loads the same
    members."""
    out = str(tmp_path / "copy")
    shutil.copytree(pipeline_out, out)
    path = _artefact_paths(out)["manifest"]
    with open(path) as f:
        original = json.load(f)
    config = load_config(smoke_ini, {"out_dir": out})
    run = config.train_config()
    members = cli._load_ensemble_members(config, 0, run)
    read = {"format", "version", "class", "member_files"}
    cases = 0
    for leaf in _leaf_paths(original):
        *parents, key = leaf
        old = functools.reduce(lambda node, step: node[step], leaf, original)
        for new in (0.5, "x", True, None, [], [old], {}):
            if _json_type(new) == _json_type(old):
                continue
            doc = json.loads(json.dumps(original))
            functools.reduce(lambda node, step: node[step], parents,
                             doc)[key] = new
            with open(path, "w") as f:
                json.dump(doc, f)
            if leaf[0] not in read:
                assert cli._load_ensemble_members(config, 0, run) == members
                continue
            with pytest.raises(DataError) as info:
                cli._load_ensemble_members(config, 0, run)
            message = str(info.value)
            assert message.startswith(f"{path}: field {leaf[0]}"), (leaf, new,
                                                                   message)
            cases += 1
    assert cases > 20


@pytest.mark.parametrize("value", [1, "0", 0.0, False])
def test_manifest_of_another_class_exits_3(smoke_ini, pipeline_out, tmp_path,
                                           capsys, value):
    """A manifest whose `class` is not the JSON integer of the class that
    generate loads exits 3 naming the file and `class`, before any image."""
    out = str(tmp_path / "copy")
    shutil.copytree(pipeline_out, out)
    shutil.rmtree(os.path.join(out, "generated"), ignore_errors=True)
    path = _artefact_paths(out)["manifest"]
    with open(path) as f:
        doc = json.load(f)
    doc["class"] = value
    with open(path, "w") as f:
        json.dump(doc, f)
    code = main(["generate", "--config", smoke_ini, "--out", out,
                 "--count", "2"])
    err = capsys.readouterr().err
    assert code == 3
    assert f"{path}: field class must be the JSON integer 0" in err
    assert not os.path.exists(os.path.join(out, "generated"))


def _move_first_atom(doc, position):
    doc["params"]["positions_um"][0] = position


def _crowd_second_atom(doc):
    x, y = doc["params"]["positions_um"][0]
    doc["params"]["positions_um"][1] = [x + 0.5, y]


def _add_atom(doc):
    """A third atom and coupling, at the grid point farthest from the others."""
    pos = doc["params"]["positions_um"]
    pos.append(max(([x, y] for x in (1.0, 37.0, 74.0) for y in (1.0, 37.0, 74.0)),
                   key=lambda q: min(np.hypot(q[0] - a, q[1] - b)
                                     for a, b in pos)))
    doc["params"]["couplings"].append(0.5)


@pytest.mark.parametrize("edit, field", [
    (lambda doc: doc["params"].update(rabi_param_rad_per_us=5000.0), "params"),
    (lambda doc: _move_first_atom(doc, [200.0, 5.0]), "params"),
    (lambda doc: doc.update(rabi_shape="constant"), "rabi_shape"),
    (_crowd_second_atom, "params"),
    (_add_atom, "params"),
    (lambda doc: doc["config"].update(master_seed=-1), "config"),
    (lambda doc: doc["config"].update(cycles=2.5), "config: cycles"),
    (lambda doc: doc["config"].update(cycles=True), "config: cycles"),
    (lambda doc: doc["config"].update(nm_tol=True), "config: nm_tol"),
    (lambda doc: doc["config"].update(n_qubits=2.0), "config: n_qubits"),
    (lambda doc: doc["config"].update(hidden="64"), "config: hidden"),
    (lambda doc: doc["config"].update(c6="5420503.0"), "config: c6"),
    (lambda doc: doc.update(initial_loss="x"), "initial_loss"),
    (lambda doc: doc["log"][0].update(cycle="a"), "log: cycle"),
    (lambda doc: doc.update(final_loss=True), "final_loss"),
    (lambda doc: doc["params"].update(couplings=[True, False]), "params"),
    (lambda doc: doc["config"].update(c6=10 ** 400), "config: c6"),
    (lambda doc: doc.update(final_loss=10 ** 400), "final_loss"),
    (lambda doc: doc.update(initial_loss=-10 ** 400), "initial_loss"),
    (lambda doc: _move_first_atom(doc, [10 ** 400, 5.0]), "params"),
    (lambda doc: doc["log"][0].update(stage="banana"), "log: stage"),
    (lambda doc: doc["log"][0].update(nm_stop="whenever"), "log: nm_stop"),
    (lambda doc: doc["log"][0].update(cycle=-5), "log: cycle"),
    (lambda doc: doc["log"][0].update(nm_evaluations=-1),
     "log: nm_evaluations"),
], ids=["rabi-5000", "atom-outside-field", "constant-shape",
        "atoms-0.5um-apart", "three-atoms-in-a-two-qubit-file",
        "negative-master-seed", "cycles-2.5", "cycles-true", "nm_tol-true",
        "n_qubits-2.0", "hidden-string", "c6-string", "initial_loss-string",
        "log-cycle-string", "final_loss-true", "couplings-true-false",
        "c6-int-beyond-float", "final_loss-int-beyond-float",
        "initial_loss-int-beyond-float", "atom-int-beyond-float",
        "log-stage-banana", "log-nm_stop-whenever", "log-cycle-negative",
        "log-nm_evaluations-negative"])
def test_out_of_envelope_learner_exits_3(smoke_ini, pipeline_out, tmp_path,
                                         capsys, edit, field):
    """A learner file whose params leave its own config's hardware envelope,
    whose config is invalid, that holds a value of the wrong JSON type (not
    coerced) or a JSON integer too large for a float, or whose log row breaks
    its fields' rules, fails to load, and generate exits 3 before writing any
    image."""
    out = str(tmp_path / "copy")
    shutil.copytree(pipeline_out, out)
    shutil.rmtree(os.path.join(out, "generated"), ignore_errors=True)
    path = _artefact_paths(out)["learner"]
    with open(path) as f:
        doc = json.load(f)
    edit(doc)
    with open(path, "w") as f:
        json.dump(doc, f)
    with pytest.raises(DataError, match=field) as info:
        load_learner(path)
    assert path in str(info.value)
    code = main(["generate", "--config", smoke_ini, "--out", out,
                 "--count", "2"])
    err = capsys.readouterr().err
    assert code == 3
    assert path in err and field in err
    assert not os.path.exists(os.path.join(out, "generated"))


def test_member_of_another_qubit_count_exits_3(smoke_ini, pipeline_out,
                                               tmp_path, capsys):
    """A member learner that is whole on its own but has another qubit count
    than the run exits 3 naming the file and the field, before any image."""
    out = str(tmp_path / "copy")
    shutil.copytree(pipeline_out, out)
    shutil.rmtree(os.path.join(out, "generated"), ignore_errors=True)
    path = _artefact_paths(out)["learner"]
    with open(path) as f:
        doc = json.load(f)
    _add_atom(doc)
    doc["config"]["n_qubits"] = 3
    with open(path, "w") as f:
        json.dump(doc, f)
    assert load_learner(path).learner.params.n_qubits == 3
    code = main(["generate", "--config", smoke_ini, "--out", out,
                 "--count", "2"])
    err = capsys.readouterr().err
    assert code == 3
    assert path in err and "n_qubits" in err
    assert not os.path.exists(os.path.join(out, "generated"))


def _run_with_settings(smoke_ini, pipeline_out, tmp_path, capsys, command,
                       written, section, settings):
    """(exit code, stderr) of `command` on a copy of the smoke pipeline's
    outputs, under the smoke config with `settings` added to `section`;
    asserts that `written`, removed from the copy first, is not written."""
    out = str(tmp_path / "copy")
    shutil.copytree(pipeline_out, out)
    target = os.path.join(out, written)
    if os.path.isdir(target):
        shutil.rmtree(target)
    elif os.path.exists(target):
        os.remove(target)
    cfg = tmp_path / "edited.ini"
    cfg.write_text(open(smoke_ini).read().replace(
        f"[{section}]\n", f"[{section}]\n{settings}\n"))
    code = main([command, "--config", str(cfg), "--out", out])
    assert not os.path.exists(target)
    return code, capsys.readouterr().err


RUN_OUTPUTS = [("select", "ensemble_class0.json"), ("generate", "generated"),
               ("evaluate", "evaluation.csv")]


@pytest.mark.parametrize("command, written", RUN_OUTPUTS)
def test_learner_of_another_duration_exits_3(smoke_ini, pipeline_out, tmp_path,
                                             capsys, command, written):
    """A run whose duration_us differs from its learners' own: every run's
    step count comes from the run's duration, so select, generate and
    evaluate exit 3 naming a learner file and the field, before any output."""
    code, err = _run_with_settings(smoke_ini, pipeline_out, tmp_path, capsys,
                                   command, written, "training",
                                   "duration_us = 2.0")
    assert code == 3
    assert re.search(r"learners/class0/[a-z-]+\.json: field "
                     r"config\.duration_us: a learner trained with "
                     r"duration_us = 1\.0, but this run has duration_us = 2\.0",
                     err), err


@pytest.mark.parametrize("command, written", RUN_OUTPUTS)
def test_stale_format_2_model_exits_3_naming_it(smoke_ini, pipeline_out,
                                                tmp_path, capsys, command,
                                                written):
    """Where fit-pca of an earlier version left pca_class0.json (format
    version 2) and no pca_class0.pca, select, generate and evaluate exit 3
    naming the missing .pca file and asking for fit-pca, before any
    output: no command reads the .json file."""
    out = tmp_path / "copy"
    shutil.copytree(pipeline_out, out)
    os.rename(out / "pca_class0.pca", out / "pca_class0.json")
    target = out / written
    if target.is_dir():
        shutil.rmtree(target)
    elif target.exists():
        target.unlink()
    code = main([command, "--config", smoke_ini, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3
    assert f"missing PCA model {out / 'pca_class0.pca'}; run fit-pca first" in err
    assert not target.exists()


@pytest.mark.parametrize("command, written", [
    ("fit-pca", "pca_class0.pca"), ("train", "learners")] + RUN_OUTPUTS)
def test_held_out_split_of_one_image_exits_3_before_generating(
        smoke_ini, pipeline_out, tmp_path, capsys, monkeypatch, command,
        written):
    """val_fraction = 0.01 holds out 1 of class 0's 100 images, too few for
    an FID: every command exits 3 naming the class, its image count and
    val_fraction, before it fits a PCA model, trains a learner or generates
    a run."""
    def work(*args):
        raise AssertionError("work began before the split was checked")
    for name in ("generate_batch", "train_learners"):
        monkeypatch.setattr(cli, name, work)
    monkeypatch.setattr(dp, "fit_pca", work)
    code, err = _run_with_settings(smoke_ini, pipeline_out, tmp_path, capsys,
                                   command, written, "data",
                                   "val_fraction = 0.01")
    assert code == 3
    assert ("class 0: val_fraction = 0.01 holds out 1 of its 100 images"
            in err), err


@pytest.mark.parametrize("command, written", [
    ("fit-pca", "pca_class0.pca"), ("train", "learners")])
def test_split_without_training_images_exits_3_before_work(
        smoke_ini, pipeline_out, tmp_path, capsys, monkeypatch, command,
        written):
    """val_fraction = 0.996 holds out all of class 0's 100 images: fit-pca,
    and train with a PCA model fitted under the default split, exit 3
    naming the class, its image count and val_fraction before any work."""
    def work(*args):
        raise AssertionError("work began before the split was checked")
    monkeypatch.setattr(cli, "train_learners", work)
    monkeypatch.setattr(dp, "fit_pca", work)
    code, err = _run_with_settings(smoke_ini, pipeline_out, tmp_path, capsys,
                                   command, written, "data",
                                   "val_fraction = 0.996")
    assert code == 3
    assert ("class 0: val_fraction = 0.996 holds out 100 of its 100 images; "
            "training needs at least 1" in err), err


def test_every_command_gets_the_split_of_split_train_val(
        smoke_ini, pipeline_out, tmp_path, monkeypatch):
    """The images each command converts are bit-equal to split_train_val of
    the class in load_idx's dataset: the training split for fit-pca and
    train, the held-out split for select, generate and both classes of a
    two-class evaluate."""
    out = _two_class_copy(pipeline_out, tmp_path)
    load_splits, loaded = cli._load_splits, []

    def recording(config, classes, held_out):
        splits = load_splits(config, classes, held_out)
        loaded.append((classes, held_out, splits))
        return splits
    monkeypatch.setattr(cli, "_load_splits", recording)
    for command, *flags in (["fit-pca"], ["train"], ["select"], ["generate"],
                            ["evaluate", "--class", "0,1"]):
        assert main([command, "--config", smoke_ini, "--out", str(out),
                     *flags]) == 0
    assert [(classes, held_out) for classes, held_out, _ in loaded] == [
        ([0], False), ([0], False), ([0], True), ([0], True), ([0, 1], True)]
    config = load_config(smoke_ini, {})
    dataset = load_idx(config.images, config.labels)
    for classes, held_out, splits in loaded:
        for cls, split in zip(classes, splits):
            want = split_train_val(dataset.for_class(cls), config.val_fraction,
                                   config.split_seed)[held_out]
            assert split.images.dtype == want.images.dtype
            assert split.images.tobytes() == want.images.tobytes()
            assert np.array_equal(split.labels, want.labels)


@pytest.mark.parametrize("held_out", [False, True])
def test_one_class_split_converts_only_its_own_images(tmp_path, held_out):
    """On a 10-class IDX pair, loading one class's split peaks within the
    labels file plus 1.5 x the float64 split it returns and 64 KiB
    (traced): only the split's rows of the image file are read, and they
    alone are converted to float64."""
    rng = np.random.default_rng(8)
    raw = rng.integers(0, 256, size=(1000, 28, 28), dtype=np.uint8)
    images, labels = write_idx_pair(tmp_path, raw, np.arange(1000) % 10)
    # half of each class held out: both splits dwarf the 64 KiB buffer
    # through which numpy casts the uint8 pixels to float
    config = RunConfig(images=images, labels=labels, val_fraction=0.5)
    tracemalloc.start()
    try:
        [split] = cli._load_splits(config, [3], held_out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(split) == 50
    assert peak <= (os.path.getsize(labels) + 1.5 * split.images.nbytes
                    + 64 * 1024)


@pytest.mark.parametrize("held_out", [False, True])
def test_one_class_split_reads_only_its_own_rows(tmp_path, monkeypatch,
                                                 held_out):
    """Of the image file's items, loading one class's split reads the bytes
    of the split's rows, each once, so its RSS is bounded by the split and
    not by the file."""
    rng = np.random.default_rng(9)
    raw = rng.integers(0, 256, size=(1000, 28, 28), dtype=np.uint8)
    images, labels = write_idx_pair(tmp_path, raw, np.arange(1000) % 10)
    config = RunConfig(images=images, labels=labels, val_fraction=0.5)
    image_file, rows_read = os.stat(images).st_ino, []
    preadv = os.preadv

    def counting(fd, buffers, offset):
        got = preadv(fd, buffers, offset)
        if os.fstat(fd).st_ino == image_file:
            rows_read.extend(range((offset - 16) // 784, (offset - 16 + got) // 784))
        return got
    monkeypatch.setattr(os, "preadv", counting)
    [split] = cli._load_splits(config, [3], held_out)
    rows = np.flatnonzero(np.arange(1000) % 10 == 3)[
        dp.split_indices(100, 0.5, config.split_seed)[held_out]]
    assert len(rows) == 50 and sorted(rows_read) == sorted(rows)
    assert split.images.tobytes() == (raw[rows] / 255.0).tobytes()


def test_repeated_train_and_select_retain_under_256_kib(smoke_ini,
                                                        pipeline_out, tmp_path):
    """A second in-process train + select on the smoke pipeline keeps under
    256 KiB of what it allocates, so a long-lived process running many
    commands does not grow with their number."""
    out = str(tmp_path / "out")
    shutil.copytree(pipeline_out, out)

    def train_and_select():
        for command in ("train", "select"):
            assert main([command, "--config", smoke_ini, "--out", out]) == 0
    train_and_select()
    gc.collect()
    tracemalloc.start()
    try:
        train_and_select()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 256 * 1024, retained


@pytest.mark.parametrize("command, written", RUN_OUTPUTS)
@pytest.mark.parametrize("section, settings, field", [
    ("pulses", "omega_max = 0.5\nlocal_detuning_min = -1.0", "limits"),
    ("quantum", "c6 = 1000000.0", "c6")], ids=["limits", "c6"])
def test_learner_of_other_pulse_limits_or_c6_exits_3(
        smoke_ini, pipeline_out, tmp_path, capsys, command, written, section,
        settings, field):
    """Learners trained at the default limits and c6, run under others: the
    run would evolve, and score, a generator other than the trained one, so
    select, generate and evaluate exit 3 naming a learner file and the
    field, before any output."""
    code, err = _run_with_settings(smoke_ini, pipeline_out, tmp_path, capsys,
                                   command, written, section, settings)
    assert code == 3
    assert re.search(rf"learners/class0/[a-z-]+\.json: field config\.{field}: ",
                     err), err


@pytest.fixture(scope="module")
def idx_copy(idx_dataset, tmp_path_factory):
    """A config reading private copies of the IDX pair, plus their bytes."""
    root = tmp_path_factory.mktemp("idx")
    paths, originals = {}, {}
    for name, source in zip(("images", "labels"), idx_dataset):
        with open(source, "rb") as f:
            originals[name] = f.read()
        paths[name] = str(root / os.path.basename(source))
        with open(paths[name], "wb") as f:
            f.write(originals[name])
    ini = root / "idx.ini"
    ini.write_text(f"[data]\nimages = {paths['images']}\n"
                   f"labels = {paths['labels']}\n[quantum]\nn_qubits = 2\n")
    return str(ini), str(root / "out"), paths, originals


@pytest.mark.parametrize("name", ["images", "labels"])
@pytest.mark.parametrize("count", [-1, 2**31 - 1])
def test_idx_header_count_that_does_not_fit_exits_3(idx_copy, capsys, name,
                                                    count):
    ini, out, paths, originals = idx_copy
    with open(paths[name], "r+b") as f:
        f.seek(4)
        f.write(count.to_bytes(4, "big", signed=True))
    try:
        code = main(["fit-pca", "--config", ini, "--out", out])
    finally:
        with open(paths[name], "wb") as f:
            f.write(originals[name])
    err = capsys.readouterr().err
    assert code == 3
    assert paths[name] in err and "byte offset 4" in err


@settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_idx_never_escapes_main(idx_copy, data):
    """Truncate an IDX file at any byte or overwrite any header byte:
    fit-pca exits 0 or 3."""
    ini, out, paths, originals = idx_copy
    name = data.draw(st.sampled_from(sorted(paths)), label="file")
    raw = originals[name]
    if data.draw(st.booleans(), label="truncate"):
        mutated = raw[:data.draw(st.integers(0, len(raw) - 1), label="offset")]
    else:
        header = 16 if name == "images" else 8
        mutated = bytearray(raw)
        mutated[data.draw(st.integers(0, header - 1), label="byte")] = \
            data.draw(st.integers(0, 255), label="value")
    with open(paths[name], "wb") as f:
        f.write(mutated)
    try:
        code = main(["fit-pca", "--config", ini, "--out", out])
    finally:
        with open(paths[name], "wb") as f:
            f.write(raw)
    event(f"{name}: exit {code}")
    assert code in (0, 3)


def _least_legal(key: str):
    """The least legal value of a numeric INI key: its lower bound, or, if
    that bound is exclusive, 1 (for an integer key) or 1e-12 inside it; a
    key bounded only from above takes that bound the same way."""
    bounds, _ = declared(key)
    op, limit = next(((op, limit) for op, limit in bounds if op[0] == ">"),
                     bounds[0])
    if op in (">=", "<="):
        return limit
    inside = 1 if isinstance(getattr(RunConfig, key), int) else 1e-12
    return limit + inside if op == ">" else limit - inside


TRAIN_KEYS = [key for section in ("quantum", "pulses", "training")
              for key in _sections()[section] if key in NUMERIC_KEYS]
NOISE_KEYS = [key for key in _sections()["error_model"] if key in NUMERIC_KEYS]


@pytest.mark.parametrize("command, key", [("train", key) for key in TRAIN_KEYS]
                         + [("generate", key) for key in NOISE_KEYS])
def test_least_legal_value_never_exits_1(smoke_ini, pipeline_out, tmp_path,
                                         capsys, command, key):
    """The smoke pipeline with one key at its least legal value: fit-pca
    and train for a [quantum], [pulses] or [training] key, noisy generation
    for an [error_model] key. Each run succeeds or exits with a named error
    (2, 3 or 4), never as an internal error."""
    value = _least_legal(key)
    cfg = _with_setting(smoke_ini, tmp_path / "least.ini", key, value)
    out = str(tmp_path / "out")
    if command == "train":
        commands = [["fit-pca"], ["train"]]
    else:
        shutil.copytree(pipeline_out, out)
        commands = [["generate", "--mode", "noisy"]]
    codes = [main(args + ["--config", cfg, "--out", out]) for args in commands]
    err = capsys.readouterr().err
    assert "internal" not in err, (key, value, err)
    assert set(codes) <= {0, 2, 3, 4}, (key, value, codes, err)


HUGE_KEYS = [(command, key) for command, keys in (("train", TRAIN_KEYS),
                                                  ("generate", NOISE_KEYS))
             for key in keys if isinstance(getattr(RunConfig, key), float)
             and not any(op[0] == "<" for op, _ in declared(key)[0])]


@pytest.mark.parametrize("command, key", HUGE_KEYS)
def test_huge_legal_value_never_exits_1(smoke_ini, pipeline_out, tmp_path,
                                        capsys, command, key):
    """The twin of test_least_legal_value_never_exits_1: each float key
    without an upper bound at 1e300. A numpy warning is an error here, as
    in every test, so an overflow that reaches one exits 1."""
    cfg = _with_setting(smoke_ini, tmp_path / "huge.ini", key, 1e300)
    out = str(tmp_path / "out")
    if command == "train":
        commands = [["fit-pca"], ["train"]]
    else:
        shutil.copytree(pipeline_out, out)
        commands = [["generate", "--mode", "noisy"]]
    codes = [main(args + ["--config", cfg, "--out", out]) for args in commands]
    err = capsys.readouterr().err
    assert "internal" not in err, (key, err)
    assert set(codes) <= {0, 2, 3, 4}, (key, codes, err)


@pytest.mark.parametrize("command, key, value", [
    ("train", "field_size_um", 1e121), ("generate", "position_sigma", 1e60)])
def test_atoms_beyond_float_range_exit_0(smoke_ini, pipeline_out, tmp_path,
                                         capsys, command, key, value):
    """A field, or a position noise, wide enough to put atoms further apart
    than C6 / r^6 can hold in a float: those atoms do not interact, and
    training and noisy generation succeed."""
    cfg = _with_setting(smoke_ini, tmp_path / "far.ini", key, value)
    out = str(tmp_path / "out")
    if command == "train":
        commands = [["fit-pca"], ["train"]]
    else:
        cfg = _with_setting(cfg, tmp_path / "noisy.ini", "mode", "noisy")
        shutil.copytree(pipeline_out, out)
        commands = [["generate"]]
    codes = [main(args + ["--config", cfg, "--out", out]) for args in commands]
    assert codes == [0] * len(commands), capsys.readouterr().err
