import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rydgan.errors import ValidationError
from rydgan.generator import (EXACT, FIELD_SIZE_UM, GROUPS, MIN_SPACING_UM,
                              SEED_HI, SEED_LO, TRAINABLE_SHAPES, ErrorModel,
                              GeneratorParams, NoisyMode, ShotsMode,
                              build_spec, draw_seeds, generate_batch,
                              generate_features, modulo_encode, perturb_params)
from rydgan.pulses import DEFAULT_LIMITS, evaluate
from rydgan.sim import AtomArrangement


def square_params(**kw):
    defaults = dict(
        arrangement=AtomArrangement(((6.0, 6.0), (12.0, 6.0),
                                     (6.0, 12.0), (12.0, 12.0)),
                                    (0.5, 0.5, 0.5, 0.5)),
        rabi_shape="linear", rabi_param=2.0,
        local_shape="triangle", local_param=-3.0,
        global_detuning_offset=0.5)
    defaults.update(kw)
    return GeneratorParams(**defaults)


class TestModuloEncode:
    def test_wraps_interior_value(self):
        p = np.zeros(16)
        p[3] = 0.1
        p[0] = 0.9
        f = modulo_encode(p)
        assert f[3] == pytest.approx(0.1 % 0.0625, abs=1e-15)
        assert f[3] == pytest.approx(0.0375, abs=1e-12)

    def test_exact_multiple_maps_to_window_top(self):
        p = np.full(16, 0.0625)
        f = modulo_encode(p)
        assert np.all(f == 0.0625)

    def test_all_mass_on_one_outcome(self):
        p = np.zeros(16)
        p[0] = 1.0
        f = modulo_encode(p)
        assert f[0] == 0.0625
        assert np.all(f[1:] == 0.0)

    def test_identity_below_window_top(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = rng.dirichlet(np.ones(16))
            f = modulo_encode(p)
            small = p < 1.0 / 16.0
            assert np.array_equal(f[small], p[small])

    def test_range_over_random_states(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            p = rng.dirichlet(rng.uniform(0.2, 3.0, 16))
            f = modulo_encode(p)
            assert np.all(f <= 1.0 / 16.0 + 1e-15)
            assert np.all(f[p > 0] > 0.0)
            assert np.all(f[p == 0] == 0.0)

    def test_negative_probability_rejected(self):
        p = np.full(16, 1.0 / 16.0)
        p[0], p[1] = -0.01, 0.135
        with pytest.raises(ValidationError):
            modulo_encode(p)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValidationError):
            modulo_encode(np.full(16, 0.1))

    def test_block_equals_its_rows(self):
        p = np.random.default_rng(2).dirichlet(np.ones(16), size=(3, 5))
        block = modulo_encode(p)
        assert block.shape == (3, 5, 16)
        for rows, encoded in zip(p, block):
            for row, f in zip(rows, encoded):
                assert np.array_equal(f, modulo_encode(row))

    def test_block_checks_every_row(self):
        p = np.full((4, 16), 1.0 / 16.0)
        p[2] *= 1.1
        with pytest.raises(ValidationError, match="row 2"):
            modulo_encode(p)
        p = np.full((4, 16), 1.0 / 16.0)
        p[3, 0], p[3, 1] = -0.01, 0.135
        with pytest.raises(ValidationError, match="negative"):
            modulo_encode(p)
        with pytest.raises(ValidationError):
            modulo_encode(np.full((4, 12), 1.0 / 12.0))


class TestGenerateFeatures:
    def test_zero_drive_gives_degenerate_features(self):
        # triangle with zero peak is identically zero regardless of the
        # seed, so this run has no dynamics at all
        params = square_params(rabi_shape="triangle", rabi_param=0.0,
                               local_shape="triangle", local_param=0.0,
                               global_detuning_offset=0.0)
        f = generate_features(params, seed=0.5)
        expected = np.zeros(16)
        expected[0] = 1.0 / 16.0
        assert np.allclose(f, expected, atol=1e-12)

    def test_exact_mode_deterministic(self):
        params = square_params()
        a = generate_features(params, 0.7, EXACT, steps=300)
        b = generate_features(params, 0.7, EXACT, steps=300)
        assert np.array_equal(a, b)

    def test_shots_mode_converges_to_exact(self):
        params = square_params()
        exact = generate_features(params, 0.4, EXACT, steps=300)
        shots = generate_features(params, 0.4,
                                  ShotsMode(shots=1_000_000, rng_seed=8),
                                  steps=300)
        assert np.abs(shots - exact).max() < 2e-3

    def test_shots_mode_deterministic_per_seed(self):
        params = square_params()
        mode = ShotsMode(shots=1000, rng_seed=3)
        a = generate_features(params, 0.4, mode, steps=200)
        b = generate_features(params, 0.4, mode, steps=200)
        assert np.array_equal(a, b)

    def test_noisy_mode_differs_from_exact(self):
        params = square_params()
        noisy = generate_features(
            params, 0.4, NoisyMode(ErrorModel(rng_seed=5)), steps=200)
        exact = generate_features(params, 0.4, EXACT, steps=200)
        assert not np.array_equal(noisy, exact)

    def test_noisy_mode_does_not_mutate_params(self):
        params = square_params()
        before = params.arrangement.positions
        generate_features(params, 0.4, NoisyMode(ErrorModel(rng_seed=2)),
                          steps=100)
        assert params.arrangement.positions == before
        assert params.rabi_gain == 1.0 and params.local_shift == 0.0

    def test_seed_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            generate_features(square_params(), 1.5)
        with pytest.raises(ValidationError):
            generate_features(square_params(), 0.0)

    def test_build_spec_shares_one_seed_scalar(self):
        params = square_params()
        spec = build_spec(params, 0.5)
        assert spec.rabi.seed_noise == pytest.approx(0.5 * 15.8)
        assert spec.local_detuning.seed_noise == pytest.approx(0.5 * -125.0)


class TestGenerateBatch:
    @pytest.mark.parametrize("mode", [
        EXACT, ShotsMode(shots=500, rng_seed=4),
        NoisyMode(ErrorModel(rng_seed=2)),
        NoisyMode(ErrorModel(rng_seed=3), ShotsMode(shots=500, rng_seed=5)),
    ], ids=["exact", "shots", "noisy", "noisy-shots"])
    def test_rows_equal_lone_runs(self, mode):
        # two learners with different pulse shapes share the batch
        runs = [(square_params(), 0.3, mode),
                (square_params(rabi_shape="sine_bump", local_shape="gaussian",
                               rabi_param=9.0, local_param=-40.0), 0.8, mode),
                (square_params(), 0.95, EXACT)]
        batch = generate_batch(runs, steps=120)
        for row, (params, seed, run_mode) in zip(batch, runs):
            lone = generate_features(params, seed, run_mode, steps=120)
            assert np.abs(row - lone).max() <= 1e-12

    def test_rejects_empty_and_mixed_qubit_counts(self):
        with pytest.raises(ValidationError):
            generate_batch([])
        two = square_params(arrangement=AtomArrangement(
            ((6.0, 6.0), (12.0, 6.0)), (0.5, 0.5)))
        with pytest.raises(ValidationError):
            generate_batch([(square_params(), 0.5, EXACT), (two, 0.5, EXACT)])


class TestPerturbParams:
    def test_zero_sigmas_identity(self):
        params = square_params()
        model = ErrorModel(0.0, 0.0, 0.0, rng_seed=1)
        out = perturb_params(params, model)
        assert out == params

    def test_same_seed_same_perturbation(self):
        params = square_params()
        model = ErrorModel(rng_seed=77)
        assert perturb_params(params, model) == perturb_params(params, model)

    def test_position_sigma_statistics(self):
        params = square_params()
        draws = []
        for i in range(10_000):
            out = perturb_params(params, ErrorModel(rng_seed=i))
            delta = (np.array(out.arrangement.positions)
                     - np.array(params.arrangement.positions))
            draws.append(delta.reshape(-1))
        draws = np.concatenate(draws)
        assert 0.095 <= draws.std() <= 0.105
        assert abs(draws.mean()) < 0.005

    def test_detuning_sigma_statistics(self):
        params = square_params()
        deltas = np.array([
            perturb_params(params, ErrorModel(rng_seed=i)).global_detuning_offset
            - params.global_detuning_offset for i in range(10_000)])
        assert abs(deltas.std() - 0.1) / 0.1 < 0.05
        assert abs(deltas.mean()) < 0.005

    def test_local_shift_statistics(self):
        params = square_params()
        shifts = np.array([
            perturb_params(params, ErrorModel(rng_seed=i)).local_shift
            for i in range(10_000)])
        assert abs(shifts.std() - 0.1) / 0.1 < 0.05

    def test_rabi_gain_statistics(self):
        params = square_params()
        gains = np.array([
            perturb_params(params, ErrorModel(rng_seed=i)).rabi_gain
            for i in range(10_000)])
        assert abs(gains.std() - 0.01) / 0.01 < 0.05
        assert abs(gains.mean() - 1.0) < 0.001

    def test_original_untouched(self):
        params = square_params()
        perturb_params(params, ErrorModel(rng_seed=3))
        assert params == square_params()

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValidationError):
            ErrorModel(detuning_sigma=-0.1)


class TestParamValidation:
    def test_valid_params_pass(self):
        square_params().validate()

    def test_rabi_param_out_of_range(self):
        with pytest.raises(ValidationError):
            square_params(rabi_param=20.0).validate()

    def test_local_param_positive(self):
        with pytest.raises(ValidationError):
            square_params(local_param=1.0).validate()

    def test_constant_shape_rejected(self):
        with pytest.raises(ValidationError):
            square_params(rabi_shape="constant").validate()

    def test_global_offset_bound(self):
        with pytest.raises(ValidationError, match="global detuning"):
            square_params(global_detuning_offset=130.0).validate()
        square_params(global_detuning_offset=-120.0).validate()

    def test_spacing_violation(self):
        params = square_params(arrangement=AtomArrangement(
            ((6.0, 6.0), (7.0, 6.0), (6.0, 12.0), (12.0, 12.0)),
            (0.5, 0.5, 0.5, 0.5)))
        with pytest.raises(ValidationError):
            params.validate()


    def test_groups_and_with_group_are_inverse(self):
        params = square_params()
        table = params.groups(DEFAULT_LIMITS, FIELD_SIZE_UM)
        assert list(table) == list(GROUPS)
        for group, (values, bounds) in table.items():
            assert len(values) == len(bounds)
            assert params.with_group(group, values) == params

    @pytest.mark.parametrize("build, edge, outward", [
        (lambda v: square_params(rabi_param=v), DEFAULT_LIMITS.omega_max,
         np.inf),
        (lambda v: square_params(local_param=v),
         DEFAULT_LIMITS.local_detuning_min, -np.inf),
        (lambda v: square_params(global_detuning_offset=v),
         DEFAULT_LIMITS.global_detuning_abs, np.inf),
        (lambda v: square_params(global_detuning_offset=v),
         -DEFAULT_LIMITS.global_detuning_abs, -np.inf),
        (lambda v: atom_pair(v, (12.0, 6.0)), 0.0, -np.inf),
        (lambda v: atom_pair(v, (12.0, 6.0)), FIELD_SIZE_UM, np.inf),
        (lambda v: atom_pair(0.0, (v, 6.0)), MIN_SPACING_UM, -np.inf),
    ], ids=["omega_max", "local_detuning_min", "+global_detuning_abs",
            "-global_detuning_abs", "coordinate-0", "coordinate-field_size",
            "min_spacing"])
    def test_box_edge_accepted_next_float_rejected(self, build, edge, outward):
        build(edge).validate()
        with pytest.raises(ValidationError):
            build(np.nextafter(edge, outward)).validate()


unit = st.floats(0.0, 1.0)


@given(rabi=unit, local=st.lists(unit, min_size=5, max_size=5),
       seed=st.floats(SEED_LO, SEED_HI))
def test_hardware_envelope_implies_legal_waveforms(rabi, local, seed):
    """Every trainable shape pair with its pulse scalars anywhere in the boxes
    of `GeneratorParams.groups` and any legal seed gives waveforms that start
    and end at 0 and keep the sign and amplitude bounds of the hardware."""
    limits, tol = DEFAULT_LIMITS, 1e-9
    ts = np.linspace(0.0, 1.0, 1001)
    for rabi_shape, local_shape in itertools.product(TRAINABLE_SHAPES,
                                                     repeat=2):
        params = square_params(rabi_shape=rabi_shape, local_shape=local_shape)
        groups = params.groups(limits, FIELD_SIZE_UM)
        for group, fractions in (("rabi", [rabi]), ("local", local)):
            lo, hi = np.array(groups[group][1]).T
            params = params.with_group(group,
                                       lo + np.array(fractions) * (hi - lo))
        params.validate(limits)
        spec = build_spec(params, seed, limits)
        omega, dlocal = (evaluate(spec.rabi, ts),
                         evaluate(spec.local_detuning, ts))
        for values in (omega, dlocal):
            assert abs(values[0]) <= tol and abs(values[-1]) <= tol
        assert -tol <= omega.min() and omega.max() <= limits.omega_max + tol
        assert limits.local_detuning_min - tol <= dlocal.min()
        assert dlocal.max() <= tol


def atom_pair(x0, second):
    """Two atoms, the first at (x0, 6) um."""
    return square_params(arrangement=AtomArrangement(((x0, 6.0), second),
                                                     (0.5, 0.5)))


def test_draw_seeds_in_legal_range():
    seeds = draw_seeds(np.random.default_rng(0), 1000)
    assert seeds.min() >= 0.1 and seeds.max() <= 1.0
