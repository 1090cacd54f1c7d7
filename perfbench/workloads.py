"""The benchmark workloads: their inputs, timed commands and output checks.

Every command runs through `rydgan.cli.main` in this process with
`--jobs 1`, one after the other (a single closed-loop client). A failed
command or failed check is counted, never raised.
"""

from __future__ import annotations

import contextlib
import csv
import glob
import json
import math
import os
import signal
import time
import traceback
from dataclasses import dataclass

import numpy as np

import inputs

CONV_TOL = 1e-6     # the acceptance step-halving tolerance
PGM_HEADER = b"P5\n28 28\n255\n"


@dataclass(frozen=True)
class Workload:
    name: str
    n_qubits: int
    commands: tuple           # CLI commands timed in one iteration
    mode: str = "ideal"
    count: int = 16           # images per `generate`
    members: int = 0          # ensemble members written as inputs
    conv_seeds: int = 1       # seeds per learner in the convergence sample


WORKLOADS = {w.name: w for w in (
    Workload("pipeline-n4", 4, ("train", "select"), conv_seeds=2),
    Workload("generate-n6-noisy", 6, ("generate",), mode="noisy", count=8,
             members=2),
    Workload("generate-n8-ideal", 8, ("generate",), mode="ideal", count=2,
             members=1),
)}


class Reference:
    """Fixed numpy propagator work at one Hilbert-space dimension.

    Dense eigh of a batch of random symmetric matrices, then one
    eigenbasis matvec per step in a Python loop: the shape of the
    program's own kernel, in the benchmark's code, so no change to the
    program moves it. Sampled on the same core while a command runs, its
    wall time tracks how fast the core is at that moment: on a shared
    host the program's speed drifts by about 20% within minutes, and its
    time divided by the reference time drifts several times less.
    """

    def __init__(self, dim: int):
        rng = np.random.default_rng(dim)
        a = rng.normal(size=(max(2, 65536 // dim ** 2), dim, dim))
        self.h = a + a.transpose(0, 2, 1)
        self.psi = np.full(dim, dim ** -0.5, dtype=complex)
        self.samples = []
        self.spent = 0.0

    def run_once(self) -> float:
        start = time.perf_counter()
        vals, vecs = np.linalg.eigh(self.h)
        psi = self.psi
        for s in range(len(vals)):
            psi = vecs[s] @ (np.exp(-1e-3j * vals[s]) * (vecs[s].T @ psi))
        return time.perf_counter() - start

    @contextlib.contextmanager
    def sampling(self, interval: float):
        """Runs the kernel before, after and every `interval` s of the body.

        A SIGALRM handler takes the in-body samples between bytecodes of
        the main thread; `spent` is the wall time the handler took, which
        the caller subtracts from the body's wall time.
        """
        self.samples, self.spent = [self.run_once()], 0.0

        def sample(signum, frame):
            start = time.perf_counter()
            self.samples.append(self.run_once())
            self.spent += time.perf_counter() - start

        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self.samples.append(self.run_once())


class Ledger:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self, log):
        self.log = log
        self.attempted = 0
        self.failures = []

    def record(self, what: str, problem: str | None):
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{what}: {problem}")
            print(f"FAILED {what}: {problem}", file=self.log, flush=True)


def run_command(rydgan, workload: Workload, command: str, log) -> tuple:
    """(wall seconds, problem or None) of one CLI command in the cwd."""
    argv = [command, "--config", inputs.CONFIG, "--jobs", "1"]
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(log):
            code = rydgan.cli.main(argv)
    except Exception:   # the run goes on and counts the failure
        traceback.print_exc(file=log)
        return time.perf_counter() - start, "raised " + traceback.format_exc(
            limit=0).strip()
    seconds = time.perf_counter() - start
    if code != 0:
        return seconds, f"exit code {code}"
    return seconds, check_output(rydgan, workload, command)


def _learner_dir() -> str:
    return os.path.join(inputs.OUT, "learners", f"class{inputs.DIGIT_CLASS}")


def _manifest_path() -> str:
    return os.path.join(inputs.OUT, f"ensemble_class{inputs.DIGIT_CLASS}.json")


def _generated_dir(workload: Workload) -> str:
    return os.path.join(inputs.OUT, "generated", f"class{inputs.DIGIT_CLASS}",
                        workload.mode)


def check_output(rydgan, workload: Workload, command: str) -> str | None:
    """None when the command's artefacts are complete and well-formed."""
    try:
        if command == "train":
            paths = sorted(glob.glob(os.path.join(_learner_dir(), "*.json")))
            if len(paths) != 2:
                return f"expected 2 learner files, found {len(paths)}"
            for path in paths:
                rydgan.load_learner(path)
        elif command == "select":
            with open(_manifest_path(), encoding="utf-8") as f:
                manifest = json.load(f)
            for name in manifest["member_files"]:
                if not os.path.isfile(os.path.join(_learner_dir(), name)):
                    return f"manifest names missing learner {name}"
            if not math.isfinite(manifest["validation_fid"]):
                return f"validation FID {manifest['validation_fid']!r}"
        elif command == "generate":
            for i in range(workload.count):
                path = os.path.join(_generated_dir(workload), f"img_{i:04d}.pgm")
                with open(path, "rb") as f:
                    payload = f.read()
                if (not payload.startswith(PGM_HEADER)
                        or len(payload) != len(PGM_HEADER) + 28 * 28):
                    return f"{path} is not a P5 28x28 PGM"
            score = generated_fid(workload)
            if not (math.isfinite(score) and score >= 0.0):
                return f"generated FID {score!r}"
    except (OSError, ValueError, KeyError, TypeError, rydgan.RydganError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def validation_fid() -> float:
    with open(_manifest_path(), encoding="utf-8") as f:
        return float(json.load(f)["validation_fid"])


def generated_fid(workload: Workload) -> float:
    with open(os.path.join(_generated_dir(workload), "metrics.csv"),
              encoding="utf-8") as f:
        return float(next(csv.DictReader(f))["fid"])


def output_fid(workload: Workload) -> float:
    """The FID the last command reported; NaN when its output is missing."""
    try:
        if "generate" in workload.commands:
            return generated_fid(workload)
        return validation_fid()
    except (OSError, ValueError, KeyError, TypeError, StopIteration):
        return float("nan")


def _sample_calls(rydgan, workload: Workload, config):
    """(params, seed, mode) of calls the workload itself makes."""
    if "select" in workload.commands:
        paths = sorted(glob.glob(os.path.join(_learner_dir(), "*.json")))
        members = [rydgan.load_learner(p).learner for p in paths]
        seeds = rydgan.draw_seeds(np.random.default_rng(config.master_seed),
                                  config.fid_batch)
    else:
        with open(_manifest_path(), encoding="utf-8") as f:
            files = json.load(f)["member_files"]
        members = [rydgan.load_learner(os.path.join(_learner_dir(), name)).learner
                   for name in files]
        seeds = rydgan.draw_seeds(np.random.default_rng(config.master_seed),
                                  config.count)
    for i, seed in enumerate(seeds[:workload.conv_seeds]):
        for j, member in enumerate(members):
            mode = rydgan.EXACT
            if workload.mode == "noisy":
                derived = int(np.random.SeedSequence(
                    [config.master_seed, i, j]).generate_state(1)[0])
                mode = rydgan.NoisyMode(rydgan.ErrorModel(
                    config.detuning_sigma, config.rabi_rel_sigma,
                    config.position_sigma, derived))
            yield member.params, float(seed), mode


def convergence(rydgan, workload: Workload, ledger: Ledger) -> float:
    """Max |feature change| when the step count doubles, over a call sample.

    Also checks every sampled feature lies in (0, 1/2^n].
    """
    try:
        config = rydgan.config.load_config(inputs.CONFIG)
        steps = config.train_config().steps
        top = 1.0 / (1 << workload.n_qubits)
        worst, in_range, sampled = 0.0, True, 0
        for params, seed, mode in _sample_calls(rydgan, workload, config):
            sampled += 1
            single = rydgan.generate_features(params, seed, mode, config.limits(),
                                              config.c6, steps)
            double = rydgan.generate_features(params, seed, mode, config.limits(),
                                              config.c6, 2 * steps)
            in_range &= bool((single > 0.0).all() and (single <= top).all())
            worst = max(worst, float(np.abs(single - double).max()))
    except (OSError, ValueError, KeyError, rydgan.RydganError) as exc:
        ledger.record("convergence sample", f"{type(exc).__name__}: {exc}")
        return float("nan")
    if not sampled:
        ledger.record("convergence sample", "no generator calls to sample")
        return float("nan")
    ledger.record("feature range",
                  None if in_range else f"features outside (0, {top}]")
    ledger.record("convergence sample", None if worst <= CONV_TOL else
                  f"step-doubling error {worst:.3g} > {CONV_TOL}")
    return worst
