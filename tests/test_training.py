import json

import numpy as np
import pytest

from rydgan.data import fit_pca, scale_features, transform
from rydgan.discriminator import (AdamState, discriminator_forward,
                                  discriminator_step, init_discriminator)
from rydgan import training
from rydgan.errors import DataError, NumericError, ValidationError
from rydgan.generator import EXACT, GeneratorParams, draw_seeds, generate_features
from rydgan.sim import AtomArrangement
from rydgan.training import (Learner, TrainConfig, initial_params,
                             load_learner, save_learner, train_learners)
from tests.test_data import synthetic_digits


def tiny_config(**kw):
    """Two-qubit budget config so training tests run in seconds."""
    defaults = dict(n_qubits=2, steps_per_us=150, cycles=1, nm_iters=6,
                    disc_steps=5, disc_batch=8, seed_batch=4, hidden=16,
                    master_seed=0)
    defaults.update(kw)
    return TrainConfig(**defaults)


def target_features(count, seed=0):
    """Features of a fixed known 2-qubit generator: the synthetic class data."""
    arr = AtomArrangement(((6.0, 6.0), (11.0, 7.0)), (0.8, 0.2))
    params = GeneratorParams(arr, "triangle", 3.5, "gaussian", -8.0, 1.5)
    seeds = draw_seeds(np.random.default_rng(seed), count)
    return np.stack([generate_features(params, float(s), EXACT, steps=150)
                     for s in seeds])


@pytest.fixture(scope="module")
def class_data():
    return target_features(48)


class TestLayeredTrain:
    def test_one_cycle_touches_every_stage_once(self, class_data):
        result = train_learners([(tiny_config(), ("linear", "triangle"))],
                                class_data)[0]
        stages = [row.stage for row in result.log]
        assert stages == list(tiny_config().stage_order)
        assert sorted(stages) == sorted(("positions", "rabi", "local", "global"))

    def test_stage_order_configurable(self, class_data):
        config = tiny_config(stage_order=("global", "local", "rabi", "positions"))
        result = train_learners([(config, ("linear", "triangle"))],
                                class_data)[0]
        assert [row.stage for row in result.log] == list(config.stage_order)

    def test_deterministic_for_fixed_seed(self, class_data):
        a, b = (train_learners([(tiny_config(master_seed=7),
                                 ("linear", "gaussian"))], class_data)[0]
                for _ in range(2))
        assert a.learner.params == b.learner.params
        assert a.learner.final_loss == b.learner.final_loss
        assert all(np.array_equal(getattr(a.net, n), getattr(b.net, n))
                   for n in ("w1", "b1", "w2", "b2", "w3", "b3"))
        assert a.log == b.log

    def test_smoke_training_reduces_loss(self, class_data):
        # adversarial alternation is not monotone, but the layered scheme
        # should beat its own initialization for most seeds
        improved = 0
        for seed in range(5):
            config = tiny_config(master_seed=seed, nm_iters=10, cycles=1)
            result = train_learners([(config, ("linear", "triangle"))],
                                    class_data)[0]
            if result.learner.final_loss < result.initial_loss:
                improved += 1
        assert improved >= 4

    def test_params_stay_inside_hardware_bounds(self, class_data):
        config = tiny_config(master_seed=3)
        result = train_learners([(config, ("trapezoid", "sine_bump"))],
                                class_data)[0]
        params = result.learner.params
        params.validate(config.limits, config.min_spacing, config.field_size)
        assert 0.0 <= params.rabi_param <= config.limits.omega_max
        assert config.limits.local_detuning_min <= params.local_param <= 0.0
        pos = params.arrangement.position_array()
        assert pos.min() >= 0.0 and pos.max() <= config.field_size

    def test_rejects_unscaled_features(self, class_data):
        raw = class_data * 500.0  # plainly outside the (0, 1/2^n] window
        with pytest.raises(ValidationError, match="scaled"):
            train_learners([(tiny_config(), ("linear", "triangle"))], raw)

    def test_rejects_empty_data(self):
        with pytest.raises(ValidationError):
            train_learners([(tiny_config(), ("linear", "triangle"))],
                           np.empty((0, 4)))

    def test_learner_records_shape_pair(self, class_data):
        result = train_learners([(tiny_config(), ("gaussian", "triangle"))],
                                class_data)[0]
        assert result.learner.rabi_shape == "gaussian"
        assert result.learner.local_shape == "triangle"
        assert result.learner.name == "gaussian-triangle"


class TestDiscriminatorWarmup:
    def test_accuracy_exceeds_090_on_degenerate_fakes(self):
        # real: scaled PCA features of one synthetic class; fake: frozen
        # untrained generator output (no dynamics, all mass on |00>)
        data = synthetic_digits(np.random.default_rng(40), 60)
        pca = fit_pca(data, 4)
        real = scale_features(pca, transform(pca, data.flat()))
        arr = AtomArrangement(((6.0, 6.0), (12.0, 6.0)), (0.5, 0.5))
        frozen = GeneratorParams(arr, "triangle", 0.0, "triangle", 0.0, 0.0)
        fakes = np.stack([generate_features(frozen, s, EXACT, steps=50)
                          for s in draw_seeds(np.random.default_rng(41), 60)])
        rng = np.random.default_rng(42)
        net = init_discriminator(rng, 4, 16)
        state = AdamState.for_net(net)
        for _ in range(200):
            rows = rng.integers(0, len(real), 16)
            frows = rng.integers(0, len(fakes), 16)
            net, state, _ = discriminator_step(net, real[rows], fakes[frows],
                                               state, lr=5e-3)
        correct = ((discriminator_forward(net, real) > 0.5).sum()
                   + (discriminator_forward(net, fakes) <= 0.5).sum())
        assert correct / (len(real) + len(fakes)) > 0.9


@pytest.fixture(scope="module")
def learner_text(class_data, tmp_path_factory):
    """One saved learner document."""
    result = train_learners([(tiny_config(master_seed=12),
                              ("linear", "gaussian"))], class_data)[0]
    path = tmp_path_factory.mktemp("learner") / "learner.json"
    save_learner(result, str(path))
    return path.read_text()


class TestPersistence:
    def test_roundtrip(self, class_data, tmp_path):
        result = train_learners([(tiny_config(master_seed=11),
                                  ("linear", "gaussian"))], class_data)[0]
        path = str(tmp_path / "learner.json")
        save_learner(result, path)
        loaded = load_learner(path)
        assert loaded.learner.params == result.learner.params
        assert loaded.learner.final_loss == result.learner.final_loss
        assert loaded.config == result.config
        assert all(np.array_equal(getattr(loaded.net, n), getattr(result.net, n))
                   for n in ("w1", "b1", "w2", "b2", "w3", "b3"))
        assert loaded.log == result.log

    def test_corrupt_file_names_path(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ not json")
        with pytest.raises(DataError, match="broken.json"):
            load_learner(str(path))

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else", "version": 1}')
        with pytest.raises(DataError):
            load_learner(str(path))

    @pytest.mark.parametrize("payload, field", [
        (b"[]", "top level"),
        (b"\xff\xfe{", "rydgan-learner"),
        (b'{"format": "rydgan-learner", "version": 1}', "shape"),
    ], ids=["not-an-object", "not-utf8", "missing-keys"])
    def test_malformed_document_names_path_and_field(self, tmp_path, payload,
                                                     field):
        path = tmp_path / "learner.json"
        path.write_bytes(payload)
        with pytest.raises(DataError, match=field) as info:
            load_learner(str(path))
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("section, key, value", [
        ("params", "couplings", None),
        ("params", "rabi_param_rad_per_us", "x"),
        ("config", "adam_lr", -1),
        ("config", "limits", []),
        ("discriminator", "w1", {}),
    ])
    def test_bad_field_is_a_data_error(self, learner_text, tmp_path, section,
                                       key, value):
        path = tmp_path / "learner.json"
        doc = json.loads(learner_text)
        doc[section][key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=section):
            load_learner(str(path))


class TestConfigValidation:
    def test_bad_stage_order(self):
        with pytest.raises(ValidationError):
            TrainConfig(stage_order=("positions", "rabi"))

    def test_nonpositive_counts(self):
        with pytest.raises(ValidationError):
            TrainConfig(cycles=0)

    @pytest.mark.parametrize("field, value", [
        ("n_qubits", 0), ("n_qubits", 11), ("c6", 0.0), ("duration", 0.0),
        ("adam_lr", float("nan")), ("adam_lr", 0.0), ("adam_beta1", 1.0),
        ("adam_beta2", -0.1), ("adam_eps", 0.0), ("nm_tol", -1.0),
        ("min_spacing", 0.0), ("field_size", -1.0)])
    def test_out_of_range_setting_named(self, field, value):
        with pytest.raises(ValidationError, match=field):
            TrainConfig(**{field: value})

    def test_learner_dataclass_equality(self):
        a = Learner("linear", "triangle",
                    initial_params(tiny_config(), np.random.default_rng(0)), 1.0)
        b = Learner("linear", "triangle",
                    initial_params(tiny_config(), np.random.default_rng(0)), 1.0)
        assert a == b


GROUP = [(tiny_config(master_seed=seed), shapes) for seed, shapes in
         ((21, ("linear", "triangle")), (22, ("linear", "gaussian")),
          (23, ("trapezoid", "sine_bump")))]


def rowwise_stub(runs, limits, c6, steps):
    """Deterministic features in the 2-qubit window, row by row."""
    rows = []
    for params, seed, _ in runs:
        phase = (params.rabi_param + 2.0 * params.local_param
                 + 3.0 * params.global_detuning_offset
                 + sum(params.arrangement.couplings)
                 + 0.1 * params.arrangement.position_array().sum())
        rows.append(0.25 * np.abs(np.sin(phase + seed * np.arange(1, 5))))
    return np.array(rows)


def saved_bytes(result, tmp_path, name):
    path = tmp_path / name
    save_learner(result, str(path))
    return path.read_bytes()


class TestLockStep:
    def test_group_equals_lone_runs_with_a_rowwise_generator(
            self, class_data, tmp_path, monkeypatch):
        monkeypatch.setattr(training, "generate_batch", rowwise_stub)
        together = train_learners(GROUP, class_data)
        for i, (config, shapes) in enumerate(GROUP):
            alone = train_learners([(config, shapes)], class_data)[0]
            assert (saved_bytes(together[i], tmp_path, f"g{i}.json")
                    == saved_bytes(alone, tmp_path, f"a{i}.json"))
            assert together[i].log == alone.log

    def test_group_matches_lone_nelder_mead_counts(self, class_data):
        together = train_learners(GROUP, class_data)
        for result, (config, shapes) in zip(together, GROUP):
            alone = train_learners([(config, shapes)], class_data)[0]
            assert ([(r.nm_iterations, r.nm_evaluations, r.nm_stop)
                     for r in result.log]
                    == [(r.nm_iterations, r.nm_evaluations, r.nm_stop)
                        for r in alone.log])
            assert result.learner.name == "-".join(shapes)

    def test_group_rerun_is_byte_identical(self, class_data, tmp_path):
        first, second = (train_learners(GROUP, class_data) for _ in range(2))
        for i, (a, b) in enumerate(zip(first, second)):
            assert (saved_bytes(a, tmp_path, f"1-{i}.json")
                    == saved_bytes(b, tmp_path, f"2-{i}.json"))

    def test_one_generator_call_per_round(self, class_data, monkeypatch):
        sizes = []

        def counting(runs, *args):
            sizes.append(len(runs))
            return rowwise_stub(runs, *args)

        monkeypatch.setattr(training, "generate_batch", counting)
        lone_calls = []
        for config, shapes in GROUP:
            sizes.clear()
            train_learners([(config, shapes)], class_data)
            lone_calls.append(len(sizes))
        sizes.clear()
        train_learners(GROUP, class_data)
        # rounds run until the slowest learner is done
        assert len(sizes) == max(lone_calls)

    def test_initial_loss_comes_from_the_first_simplex(self, class_data,
                                                       monkeypatch):
        sizes = []

        def counting(runs, *args):
            sizes.append(len(runs))
            return rowwise_stub(runs, *args)

        monkeypatch.setattr(training, "generate_batch", counting)
        # a Rabi simplex keeps the atoms apart, so no vertex is penalized
        config = tiny_config(stage_order=("rabi", "positions", "local",
                                          "global"))
        result = train_learners([(config, ("linear", "triangle"))],
                                class_data)[0]
        x0, _ = result.learner.params.groups(config.limits,
                                             config.field_size)["rabi"]
        # disc block, then the (d + 1)-vertex simplex: no separate request
        # re-evaluates the untrained params for initial_loss
        assert sizes[:2] == [config.disc_steps * config.disc_batch,
                             (len(x0) + 1) * config.seed_batch]
        assert np.isfinite(result.initial_loss)

    def test_learner_error_names_the_learner(self, class_data):
        jobs = GROUP[:1] + [(tiny_config(), ("constant", "triangle"))]
        with pytest.raises(ValidationError, match="learner constant-triangle: "):
            train_learners(jobs, class_data)

    def test_learner_numeric_error_keeps_its_type(self, class_data,
                                                  monkeypatch):
        def nan_for_gaussian(runs, *args):
            feats = rowwise_stub(runs, *args)
            feats[[p.local_shape == "gaussian" for p, _, _ in runs]] = np.nan
            return feats

        monkeypatch.setattr(training, "generate_batch", nan_for_gaussian)
        with pytest.raises(NumericError,
                           match="^learner linear-gaussian: non-finite"):
            train_learners(GROUP, class_data)

    def test_batch_error_names_every_learner_of_the_round(self, class_data,
                                                         monkeypatch):
        calls = []

        def failing(runs, *args):
            calls.append(len(runs))
            if len(calls) == 2:
                raise NumericError("stiff")
            return rowwise_stub(runs, *args)

        monkeypatch.setattr(training, "generate_batch", failing)
        with pytest.raises(NumericError) as info:
            train_learners(GROUP, class_data)
        assert str(info.value) == ("learners linear-triangle, linear-gaussian, "
                                   "trapezoid-sine_bump: stiff")

    def test_mismatched_generation_settings_rejected(self, class_data):
        jobs = GROUP[:1] + [(tiny_config(steps_per_us=151), ("linear", "gaussian"))]
        with pytest.raises(ValidationError, match="share"):
            train_learners(jobs, class_data)
        with pytest.raises(ValidationError, match="share"):
            train_learners([], class_data)


class TestStopReason:
    def test_log_records_why_nelder_mead_stopped(self, class_data):
        result = train_learners([(tiny_config(nm_iters=200, nm_tol=1e-1),
                                  ("linear", "triangle"))], class_data)[0]
        assert {row.nm_stop for row in result.log} <= {"tol", "max_iters"}
        assert "tol" in {row.nm_stop for row in result.log}
        capped = train_learners([(tiny_config(nm_iters=2, nm_tol=0.0),
                                  ("linear", "triangle"))], class_data)[0]
        assert {row.nm_stop for row in capped.log} == {"max_iters"}

    def test_log_without_stop_reason_still_loads(self, learner_text, tmp_path):
        doc = json.loads(learner_text)
        assert {row.pop("nm_stop") for row in doc["log"]} <= {"tol", "max_iters"}
        path = tmp_path / "old.json"
        path.write_text(json.dumps(doc))
        assert {row.nm_stop for row in load_learner(str(path)).log} == {"unknown"}
