"""The benchmark's inputs pass the program's checks.

Each workload's inputs, written by the harness's own `write_inputs`, must
validate as a run config, and each ensemble member must load as a learner
of that run; otherwise a new check would fail every benchmark command of
the workload without any test noticing.
"""

import glob
import os
import sys

import pytest

import rydgan
from rydgan import cli
from rydgan.config import load_config

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
    members = sorted(glob.glob(str(tmp_path / inputs.OUT / "learners" / "*"
                                   / "*.json")))
    assert len(members) == workload.members
    for path in members:
        cli._load_run_learner(config, path)
