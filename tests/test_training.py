import json
import weakref
from dataclasses import fields
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from rydgan.data import fit_pca, scale_features, transform
from rydgan.discriminator import (AdamState, discriminator_forward,
                                  discriminator_step, init_discriminator)
from rydgan import training
from rydgan.errors import DataError, NumericError, ValidationError
from rydgan.generator import (EXACT, ErrorModel, GeneratorParams, NoisyMode,
                              draw_seeds, generate_batch, generate_features)
from rydgan.pulses import PulseLimits
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
        result = train_learners(tiny_config(), [(0, ("linear", "triangle"))],
                                class_data)[0]
        stages = [row.stage for row in result.log]
        assert stages == list(tiny_config().stage_order)
        assert sorted(stages) == sorted(("positions", "rabi", "local", "global"))

    def test_stage_order_configurable(self, class_data):
        config = tiny_config(stage_order=("global", "local", "rabi", "positions"))
        result = train_learners(config, [(0, ("linear", "triangle"))],
                                class_data)[0]
        assert [row.stage for row in result.log] == list(config.stage_order)

    def test_deterministic_for_fixed_seed(self, class_data):
        a, b = (train_learners(tiny_config(), [(7, ("linear", "gaussian"))],
                               class_data)[0]
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
            config = tiny_config(nm_iters=10, cycles=1)
            result = train_learners(config, [(seed, ("linear", "triangle"))],
                                    class_data)[0]
            if result.learner.final_loss < result.initial_loss:
                improved += 1
        assert improved >= 4

    def test_params_stay_inside_hardware_bounds(self, class_data):
        config = tiny_config()
        result = train_learners(config, [(3, ("trapezoid", "sine_bump"))],
                                class_data)[0]
        params = result.learner.params
        params.validate(config.limits, config.min_spacing_um,
                        config.field_size_um)
        assert 0.0 <= params.rabi_param <= config.limits.omega_max
        assert config.limits.local_detuning_min <= params.local_param <= 0.0
        pos = np.array(params.arrangement.positions)
        assert pos.min() >= 0.0 and pos.max() <= config.field_size_um

    def test_rejects_unscaled_features(self, class_data):
        raw = class_data * 500.0  # plainly outside the (0, 1/2^n] window
        with pytest.raises(ValidationError, match="scaled"):
            train_learners(tiny_config(), [(0, ("linear", "triangle"))], raw)

    def test_rejects_empty_data(self):
        with pytest.raises(ValidationError):
            train_learners(tiny_config(), [(0, ("linear", "triangle"))],
                           np.empty((0, 4)))

    def test_learner_records_shape_pair(self, class_data):
        result = train_learners(tiny_config(), [(0, ("gaussian", "triangle"))],
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
        config = TrainConfig()
        for _ in range(200):
            rows = rng.integers(0, len(real), 16)
            frows = rng.integers(0, len(fakes), 16)
            net, state, _ = discriminator_step(
                net, real[rows], fakes[frows], state, lr=5e-3,
                beta1=config.adam_beta1, beta2=config.adam_beta2,
                eps=config.adam_eps)
        correct = ((discriminator_forward(net, real) > 0.5).sum()
                   + (discriminator_forward(net, fakes) <= 0.5).sum())
        assert correct / (len(real) + len(fakes)) > 0.9


@pytest.fixture(scope="module")
def learner_text(class_data, tmp_path_factory):
    """One saved learner document."""
    result = train_learners(tiny_config(), [(12, ("linear", "gaussian"))],
                            class_data)[0]
    path = tmp_path_factory.mktemp("learner") / "learner.json"
    save_learner(result, str(path))
    return path.read_text()


class TestPersistence:
    def test_roundtrip(self, class_data, tmp_path):
        result = train_learners(tiny_config(), [(11, ("linear", "gaussian"))],
                                class_data)[0]
        path = str(tmp_path / "learner.json")
        save_learner(result, path)
        loaded = load_learner(path)
        assert loaded.learner.params == result.learner.params
        assert loaded.learner.final_loss == result.learner.final_loss
        assert loaded.config == result.config
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
        (b'{"format": "rydgan-learner", "version": 3}', "config"),
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
    ])
    def test_bad_field_is_a_data_error(self, learner_text, tmp_path, section,
                                       key, value):
        path = tmp_path / "learner.json"
        doc = json.loads(learner_text)
        doc[section][key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=section):
            load_learner(str(path))

    def test_every_saved_key_is_read(self, learner_text, tmp_path,
                                     monkeypatch):
        """save_learner writes these keys, and load_learner reads every
        top-level and `params` key of them but `format` and `version`, which
        _parse_doc checks: a file holds only what a command reads."""
        loaded = []

        class Recording(dict):
            def __getitem__(self, key):
                self.read.add(key)
                return super().__getitem__(key)

            def get(self, key, default=None):
                self.read.add(key)
                return super().get(key, default)

        def hook(obj):
            node = Recording(obj)
            node.read = set()
            loaded.append(node)
            return node

        monkeypatch.setattr("rydgan.data.json", SimpleNamespace(
            loads=partial(json.loads, object_hook=hook)))
        path = tmp_path / "learner.json"
        path.write_text(learner_text)
        load_learner(str(path))
        doc = loaded[-1]    # the top-level object is decoded last
        params = dict.__getitem__(doc, "params")
        assert set(doc) == {"format", "version", "rabi_shape", "local_shape",
                            "params", "final_loss", "initial_loss", "config",
                            "log"}
        assert set(doc) - {"format", "version"} - doc.read == set()
        assert set(params) - params.read == set()

    def test_version_3_file_holds_each_setting_once(self, learner_text):
        """The config holds the settings under their INI keys' names, and
        params no longer repeats the duration."""
        doc = json.loads(learner_text)
        assert set(doc["config"]) == {f.name for f in fields(TrainConfig)}
        assert not set(doc["params"]) & set(doc["config"])

    @pytest.mark.parametrize("gain, shift", [(1.0, 0.0), (100.0, -1e4)],
                             ids=["identity", "gain-100"])
    def test_retired_noise_keys_are_ignored(self, learner_text, tmp_path,
                                            gain, shift):
        """A `params` key that load does not know is ignored: with the
        rabi_gain and local_shift_rad_per_us that files held before the error
        model moved onto the Hamiltonian, a file loads and generates the
        features of the same file without those keys."""
        doc = json.loads(learner_text)
        doc["params"].update(rabi_gain=gain, local_shift_rad_per_us=shift)
        old, plain = tmp_path / "old.json", tmp_path / "plain.json"
        old.write_text(json.dumps(doc))
        plain.write_text(learner_text)
        seeds = draw_seeds(np.random.default_rng(5), 3)
        feats = []
        for path in (old, plain):
            params = load_learner(str(path)).learner.params
            feats.append(generate_batch(
                [(params, s, EXACT) for s in seeds]
                + [(params, s, NoisyMode(ErrorModel(rng_seed=i)))
                   for i, s in enumerate(seeds)],
                TrainConfig(steps_per_us=150)).tobytes())
        assert feats[0] == feats[1]


class TestConfigValidation:
    def test_bad_stage_order(self):
        with pytest.raises(ValidationError):
            TrainConfig(stage_order=("positions", "rabi"))

    def test_nonpositive_counts(self):
        with pytest.raises(ValidationError):
            TrainConfig(cycles=0)

    @pytest.mark.parametrize("field, value", [
        ("n_qubits", 0), ("n_qubits", 11), ("c6", 0.0), ("duration_us", 0.0),
        ("adam_lr", float("nan")), ("adam_lr", 0.0), ("adam_beta1", 1.0),
        ("adam_beta2", -0.1), ("adam_eps", 0.0), ("nm_tol", -1.0),
        ("min_spacing_um", 0.0), ("field_size_um", -1.0)])
    def test_out_of_range_setting_named(self, field, value):
        with pytest.raises(ValidationError, match=field):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("settings", [
        dict(limits=PulseLimits(omega_max=1.0)),
        dict(limits=PulseLimits(local_detuning_min=-2.0)),
        dict(limits=PulseLimits(global_detuning_abs=0.5)),
        dict(min_spacing_um=6.0), dict(field_size_um=10.0),
        dict(field_size_um=4.0)],
        ids=["omega_max-1", "local_detuning_min--2", "global_detuning_abs-0.5",
             "min_spacing-6", "field_size-10", "field_size-4"])
    def test_starting_point_lies_inside_the_envelope(self, settings):
        """The fixed starting ranges (Rabi 0.5-2, local -5 to -0.5, global
        +-1, a 6 um grid) leave these envelopes; each start is clipped into
        its boxes and the grid is fitted to the spacing and the field."""
        config = TrainConfig(n_qubits=4, **settings)
        for seed in range(200):
            initial_params(config, np.random.default_rng(seed)).validate(
                config.limits, config.min_spacing_um, config.field_size_um)

    def test_field_too_small_for_the_starting_grid_named(self):
        # five atoms take a grid of three to a row: 2 x 4 um wide
        TrainConfig(n_qubits=5, field_size_um=8.0)
        with pytest.raises(ValidationError,
                           match="field_size_um = 7.9 .* min_spacing_um = 4.0 "):
            TrainConfig(n_qubits=5, field_size_um=7.9)

    def test_learner_dataclass_equality(self):
        a = Learner("linear", "triangle",
                    initial_params(tiny_config(), np.random.default_rng(0)), 1.0)
        b = Learner("linear", "triangle",
                    initial_params(tiny_config(), np.random.default_rng(0)), 1.0)
        assert a == b


CONFIG = tiny_config()
GROUP = [(21, ("linear", "triangle")), (22, ("linear", "gaussian")),
         (23, ("trapezoid", "sine_bump"))]


def rowwise_stub(runs, run):
    """Deterministic features in the 2-qubit window, row by row."""
    rows = []
    for params, seed, _ in runs:
        phase = (params.rabi_param + 2.0 * params.local_param
                 + 3.0 * params.global_detuning_offset
                 + sum(params.arrangement.couplings)
                 + 0.1 * np.array(params.arrangement.positions).sum())
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
        together = train_learners(CONFIG, GROUP, class_data)
        for i, learner in enumerate(GROUP):
            alone = train_learners(CONFIG, [learner], class_data)[0]
            assert (saved_bytes(together[i], tmp_path, f"g{i}.json")
                    == saved_bytes(alone, tmp_path, f"a{i}.json"))
            assert together[i].log == alone.log

    def test_group_matches_lone_nelder_mead_counts(self, class_data):
        together = train_learners(CONFIG, GROUP, class_data)
        for result, (seed, shapes) in zip(together, GROUP):
            alone = train_learners(CONFIG, [(seed, shapes)], class_data)[0]
            assert ([(r.nm_iterations, r.nm_evaluations, r.nm_stop)
                     for r in result.log]
                    == [(r.nm_iterations, r.nm_evaluations, r.nm_stop)
                        for r in alone.log])
            assert result.learner.name == "-".join(shapes)

    def test_group_rerun_is_byte_identical(self, class_data, tmp_path):
        first, second = (train_learners(CONFIG, GROUP, class_data)
                         for _ in range(2))
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
        for learner in GROUP:
            sizes.clear()
            train_learners(CONFIG, [learner], class_data)
            lone_calls.append(len(sizes))
        sizes.clear()
        train_learners(CONFIG, GROUP, class_data)
        # rounds run until the slowest learner is done
        assert len(sizes) == max(lone_calls)

    def test_calls_hold_at_most_max_runs(self, class_data, tmp_path,
                                         monkeypatch):
        # a round's requests are served in calls of whole requests, in
        # learner order: each request (40 fakes, at most 20 vertex runs)
        # fits under 50 runs, but the three of a round do not
        sizes = []

        def counting(runs, *args):
            sizes.append(len(runs))
            return rowwise_stub(runs, *args)

        monkeypatch.setattr(training, "generate_batch", counting)
        unsplit = train_learners(CONFIG, GROUP, class_data)
        rounds = len(sizes)
        sizes.clear()
        monkeypatch.setattr(training, "MAX_RUNS", 50)
        split = train_learners(CONFIG, GROUP, class_data)
        assert max(sizes) <= 50
        # more calls than rounds: some round took more than one
        assert len(sizes) > rounds
        for i, (a, b) in enumerate(zip(unsplit, split)):
            assert (saved_bytes(a, tmp_path, f"u{i}.json")
                    == saved_bytes(b, tmp_path, f"s{i}.json"))

    def test_a_suspended_learner_holds_no_features(self, class_data):
        learner = training._learner(CONFIG, class_data, ("linear", "triangle"))
        request, served = learner.send(None), 0
        while True:
            feats = rowwise_stub([(p, s, EXACT) for p, s in request], CONFIG)
            held = weakref.ref(feats)
            try:
                request = learner.send(feats)
            except StopIteration:
                break
            del feats
            served += 1
            assert held() is None, f"request {served}"
        assert served > 4

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
        result = train_learners(config, [(0, ("linear", "triangle"))],
                                class_data)[0]
        x0, _ = result.learner.params.groups(config.limits,
                                             config.field_size_um)["rabi"]
        # disc block, then the (d + 1)-vertex simplex: no separate request
        # re-evaluates the untrained params for initial_loss
        assert sizes[:2] == [config.disc_steps * config.disc_batch,
                             (len(x0) + 1) * config.seed_batch]
        assert np.isfinite(result.initial_loss)

    def test_learner_error_names_the_learner(self, class_data):
        learners = GROUP[:1] + [(0, ("constant", "triangle"))]
        with pytest.raises(ValidationError, match="learner constant-triangle: "):
            train_learners(CONFIG, learners, class_data)

    def test_learner_numeric_error_keeps_its_type(self, class_data,
                                                  monkeypatch):
        def nan_for_gaussian(runs, *args):
            feats = rowwise_stub(runs, *args)
            feats[[p.local_shape == "gaussian" for p, _, _ in runs]] = np.nan
            return feats

        monkeypatch.setattr(training, "generate_batch", nan_for_gaussian)
        with pytest.raises(NumericError,
                           match="^learner linear-gaussian: non-finite"):
            train_learners(CONFIG, GROUP, class_data)

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
            train_learners(CONFIG, GROUP, class_data)
        assert str(info.value) == ("learners linear-triangle, linear-gaussian, "
                                   "trapezoid-sine_bump: stiff")


class TestStopReason:
    def test_log_records_why_nelder_mead_stopped(self, class_data):
        result = train_learners(tiny_config(nm_iters=200, nm_tol=1e-1),
                                [(0, ("linear", "triangle"))], class_data)[0]
        assert {row.nm_stop for row in result.log} <= {"tol", "max_iters"}
        assert "tol" in {row.nm_stop for row in result.log}
        capped = train_learners(tiny_config(nm_iters=2, nm_tol=0.0),
                                [(0, ("linear", "triangle"))], class_data)[0]
        assert {row.nm_stop for row in capped.log} == {"max_iters"}

    def test_log_without_stop_reason_is_a_data_error(self, learner_text,
                                                     tmp_path):
        """Every log row holds its stop reason; a row without one does not
        load with a default."""
        doc = json.loads(learner_text)
        assert {row.pop("nm_stop") for row in doc["log"]} <= {"tol", "max_iters"}
        path = tmp_path / "old.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="field log: .*'nm_stop'"):
            load_learner(str(path))
