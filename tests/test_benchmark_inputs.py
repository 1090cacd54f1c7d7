"""The benchmark's inputs pass the program's checks.

Each workload's inputs, written by the harness's own `write_inputs`, must
validate as a run config, and its ensemble manifest must load, each member
a learner of that run; otherwise a new check would fail every benchmark
command of the workload without any test noticing. The harness's convergence sample,
which calls the program's API directly, must run on them too, and the
inputs of seed 3 hash to their pins.
"""

import glob
import io
import os
import sys

import pytest

import rydgan
from rydgan import cli
from rydgan.config import load_config
from tests.test_scripts import assert_pinned

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import inputs  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_inputs_pass_validation(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    inputs.write_inputs(str(tmp_path), workload, 3, rydgan)
    config = load_config(str(tmp_path / inputs.CONFIG))
    config.validate()
    config.out_dir = str(tmp_path / config.out_dir)
    members = glob.glob(str(tmp_path / inputs.OUT / "learners" / "*"
                            / "*.json"))
    assert len(members) == workload.members
    if members:
        files, _ = cli._load_ensemble_members(config, config.digit_class,
                                              config.train_config())
        assert sorted(files) == sorted(os.path.basename(p) for p in members)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_equal_their_pins(name, tmp_path):
    # the learner files among them are written by the program
    digest = inputs.write_inputs(str(tmp_path), workloads.WORKLOADS[name], 3, rydgan)
    assert_pinned(f"inputs {name} seed 3", digest)


@pytest.mark.parametrize("name", ["generate-n6-noisy", "generate-n8-ideal"])
def test_convergence_sample_runs(name, tmp_path, monkeypatch):
    workload = workloads.WORKLOADS[name]
    inputs.write_inputs(str(tmp_path), workload, 3, rydgan)
    monkeypatch.chdir(tmp_path)
    ledger = workloads.Ledger(io.StringIO())
    worst = workloads.convergence(rydgan, workload, ledger)
    assert ledger.failures == []
    assert worst <= workloads.CONV_TOL
