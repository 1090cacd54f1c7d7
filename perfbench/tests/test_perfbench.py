"""Tests of the benchmark harness itself (span arithmetic, names, inputs)."""

import json
import os
import re
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import rydgan  # noqa: E402
import rydgan.cli  # noqa: E402

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def span(name, start, end, parent=-1, info=None):
    return [name, start, end, parent, info]


def snapshot():
    """Every rydgan attribute the tracer could replace, by namespace."""
    targets = spans.wrappable(rydgan)
    return {(module.__name__, attr): value
            for module in spans.namespaces(rydgan)
            for attr, value in vars(module).items()
            if any(value is t for t in targets)}


class TestSpans:
    def test_self_time_subtracts_children(self):
        tree = [span("a", 0.0, 10.0),
                span("b", 1.0, 4.0, 0),
                span("c", 2.0, 3.0, 1),
                span("d", 5.0, 9.0, 0)]
        assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 4.0])

    def test_overlapping_children_are_covered_once(self):
        tree = [span("a", 0.0, 10.0), span("b", 1.0, 5.0, 0),
                span("c", 4.0, 12.0, 0)]
        assert spans.self_times(tree)[0] == pytest.approx(1.0)

    def test_recursion_counts_one_call(self):
        tree = [span("f", 0.0, 6.0), span("g", 1.0, 2.0, 0),
                span("f", 2.0, 5.0, 0), span("h", 3.0, 4.0, 2)]
        f = spans.summarize(tree)["f"]
        assert f["calls"] == 1
        assert f["s"] == pytest.approx(6.0)
        assert f["durations"] == pytest.approx([6.0])
        assert f["self_s"] == pytest.approx(2.0 + 2.0)

    def test_nelder_mead_objective_is_a_child(self):
        with spans.Tracer(rydgan) as tracer:
            result = rydgan.nelder_mead(lambda x: float((x ** 2).sum()),
                                        [1.0, -1.0], max_iters=7)
        summary = spans.summarize(tracer.spans)
        assert summary["neldermead.objective"]["calls"] == result.evaluations
        assert tracer.nm_runs == [(result.iterations, result.evaluations, 7)]
        nm = summary["neldermead.nelder_mead"]
        assert nm["self_s"] < nm["s"]

    def test_noisy_generation_is_one_call(self):
        arr = rydgan.AtomArrangement(((6.0, 6.0), (12.0, 6.0)), (0.5, 0.5))
        params = rydgan.GeneratorParams(arr, "linear", 2.0, "triangle", -3.0, 0.5)
        mode = rydgan.NoisyMode(rydgan.ErrorModel(rng_seed=1))
        with spans.Tracer(rydgan) as tracer:
            rydgan.generate_features(params, 0.5, mode, steps=10)
        summary = spans.summarize(tracer.spans)
        assert summary["generator.generate_features"]["calls"] == 1
        assert summary["generator.perturb_params"]["calls"] == 1
        assert summary["sim.evolve"]["calls"] == 1
        assert summary["pulses.evaluate"]["points"] > 0


class TestNames:
    def test_benchmark_json_matches_the_runner(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            bench = json.load(f)
        assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
        assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
        assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)

    def test_every_metric_name_and_unit_is_legal(self, tmp_path, monkeypatch):
        workload = workloads.WORKLOADS["generate-n6-noisy"]
        inputs.write_inputs(str(tmp_path), workload, 3, rydgan)
        monkeypatch.chdir(tmp_path)
        with spans.Tracer(rydgan) as tracer, open(os.devnull, "w") as log:
            assert workloads.run_command(rydgan, workload, "fit-pca", log)[1] is None
        tracer.spans.append(span("cli.generate", 0.0, 1.0))   # the share base
        reported = run.layer_metrics(np, spans, tracer, workload)
        names = set(reported) | set(run.PER_LAYER) | set(run.END_TO_END)
        for name in names:
            assert NAME.fullmatch(name), name
        for unit in [u for _, u in reported.values()] + list(run.PER_LAYER.values()):
            assert UNIT.fullmatch(unit), unit
        assert set(run.PER_LAYER) - {"trace.overhead_s", "sim.conv_err",
                                     "metrics.fid"} <= set(reported)


class TestUntraced:
    def test_untraced_run_leaves_rydgan_untouched(self, tmp_path, monkeypatch):
        before = snapshot()
        assert len(before) > 40
        workload = workloads.WORKLOADS["generate-n6-noisy"]
        inputs.write_inputs(str(tmp_path), workload, 5, rydgan)
        monkeypatch.chdir(tmp_path)
        with open(os.devnull, "w") as log:
            assert workloads.run_command(rydgan, workload, "fit-pca", log)[1] is None
        assert snapshot() == before

    def test_tracer_restores_originals(self):
        before = snapshot()
        with spans.Tracer(rydgan):
            assert rydgan.generator.evolve is not before[("rydgan.generator", "evolve")]
            assert rydgan.cli.cmd_generate is not before[("rydgan.cli", "cmd_generate")]
        assert snapshot() == before


class TestReference:
    def test_sampling_takes_samples_and_restores_the_handler(self):
        import signal
        import time
        before = signal.getsignal(signal.SIGALRM)
        reference = workloads.Reference(16)
        with reference.sampling(0.02):
            start = time.perf_counter()
            while time.perf_counter() - start < 0.3:
                sum(range(1000))
        assert len(reference.samples) >= 4
        assert 0.0 < reference.spent < 0.3
        assert signal.getsignal(signal.SIGALRM) is before
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


class TestInputs:
    @pytest.mark.parametrize("name", ["pipeline-n4", "generate-n6-noisy"])
    def test_same_seed_same_bytes(self, tmp_path, name):
        workload = workloads.WORKLOADS[name]
        first = inputs.write_inputs(str(tmp_path / "a"), workload, 7, rydgan)
        second = inputs.write_inputs(str(tmp_path / "b"), workload, 7, rydgan)
        other = inputs.write_inputs(str(tmp_path / "c"), workload, 8, rydgan)
        assert first == second != other
        for base, _, files in os.walk(tmp_path / "a"):
            for file in files:
                rel = os.path.relpath(os.path.join(base, file), tmp_path / "a")
                assert ((tmp_path / "a" / rel).read_bytes()
                        == (tmp_path / "b" / rel).read_bytes()), rel

    def test_members_are_legal_and_reload(self, tmp_path):
        workload = workloads.WORKLOADS["generate-n6-noisy"]
        inputs.write_inputs(str(tmp_path), workload, 11, rydgan)
        with open(tmp_path / "out" / "ensemble_class0.json") as f:
            manifest = json.load(f)
        assert len(manifest["member_files"]) == workload.members
        for name in manifest["member_files"]:
            learner = rydgan.load_learner(
                str(tmp_path / "out" / "learners" / "class0" / name)).learner
            learner.params.validate()
            assert learner.params.n_qubits == workload.n_qubits

    def test_idx_pair_loads(self, tmp_path):
        workload = workloads.WORKLOADS["generate-n8-ideal"]
        inputs.write_inputs(str(tmp_path), workload, 2, rydgan)
        data = rydgan.load_idx(str(tmp_path / inputs.IMAGES),
                               str(tmp_path / inputs.LABELS))
        assert len(data.for_class(inputs.DIGIT_CLASS)) == inputs.CLASS_IMAGES
