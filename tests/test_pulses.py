import numpy as np
import pytest

from rydgan.errors import ValidationError
from rydgan.pulses import (DEFAULT_LIMITS, PIECEWISE_LINEAR_SHAPES,
                           PulseLimits, PulseProgram, SHAPES, discretize,
                           evaluate, validate)

RABI_LOCAL_SHAPES = [s for s in SHAPES if s != "constant"]


def make_pulse(shape, kind, param, seed=0.0, **kw):
    return PulseProgram(shape=shape, kind=kind, param=param, seed_noise=seed, **kw)


class TestEvaluate:
    def test_linear_rabi_ramp_construction(self):
        pulse = make_pulse("linear", "rabi", 3.0, seed=1.0, duration=1.0,
                           ramp_fraction=0.05)
        assert evaluate(pulse, 0.0) == 0.0
        assert evaluate(pulse, 0.05) == pytest.approx(1.0, abs=1e-12)
        assert evaluate(pulse, 0.95) == pytest.approx(3.0, abs=1e-12)
        assert evaluate(pulse, 1.0) == 0.0

    def test_linear_interior_interpolates_seed_to_param(self):
        pulse = make_pulse("linear", "rabi", 4.0, seed=2.0)
        mid = evaluate(pulse, 0.5)
        assert mid == pytest.approx(3.0, abs=1e-12)

    def test_constant_pulse_holds_param(self):
        pulse = make_pulse("constant", "rabi", 2.0)
        for t in np.linspace(0, 1, 17):
            assert evaluate(pulse, float(t)) == 2.0

    def test_triangle_zero_peak_is_identically_zero(self):
        pulse = make_pulse("triangle", "rabi", 0.0, seed=5.0)
        ts = np.linspace(0, 1, 101)
        assert np.all(evaluate(pulse, ts) == 0.0)

    def test_domain_error_outside_duration(self):
        pulse = make_pulse("linear", "rabi", 1.0)
        with pytest.raises(ValidationError):
            evaluate(pulse, 1.5)
        with pytest.raises(ValidationError):
            evaluate(pulse, -0.1)

    def test_array_and_scalar_agree(self):
        pulse = make_pulse("gaussian", "rabi", 2.0, seed=3.0)
        ts = np.linspace(0, 1, 23)
        arr = evaluate(pulse, ts)
        scalars = np.array([evaluate(pulse, float(t)) for t in ts])
        assert np.array_equal(arr, scalars)

    def test_unknown_shape_rejected(self):
        with pytest.raises(ValidationError):
            make_pulse("sawtooth", "rabi", 1.0)

    def test_bad_duration_rejected(self):
        with pytest.raises(ValidationError):
            make_pulse("linear", "rabi", 1.0, duration=0.0)


class TestShapeInvariants:
    @pytest.mark.parametrize("shape", RABI_LOCAL_SHAPES)
    @pytest.mark.parametrize("kind", ["rabi", "local_detuning"])
    def test_endpoints_zero_and_sign(self, shape, kind):
        rng = np.random.default_rng(hash((shape, kind)) % 2**32)
        scale = DEFAULT_LIMITS.amplitude_scale(kind)
        lo, hi = sorted((0.1 * scale, scale))
        ts = np.linspace(0.0, 1.0, 10_000)
        for _ in range(25):
            seed = rng.uniform(lo, hi)
            param = rng.uniform(0.0, 1.0) * scale
            pulse = make_pulse(shape, kind, param, seed=seed)
            vals = evaluate(pulse, ts)
            assert vals[0] == 0.0 and vals[-1] == 0.0
            if kind == "rabi":
                assert vals.min() >= 0.0
            else:
                assert vals.max() <= 0.0
            assert np.abs(vals).max() <= abs(scale) + 1e-9

    def test_evaluate_is_deterministic(self):
        pulse_a = make_pulse("sine_bump", "rabi", 2.5, seed=4.0)
        pulse_b = make_pulse("sine_bump", "rabi", 2.5, seed=4.0)
        ts = np.linspace(0, 1, 97)
        assert np.array_equal(evaluate(pulse_a, ts), evaluate(pulse_b, ts))


class TestValidate:
    def test_valid_linear_rabi_pulse(self):
        report = validate(make_pulse("linear", "rabi", 3.0, seed=1.0))
        assert report.ok and report.violations == ()

    def test_negative_rabi_amplitude(self):
        report = validate(make_pulse("linear", "rabi", -1.0, seed=0.5))
        assert not report.ok
        assert any("negative Rabi amplitude" in v for v in report.violations)

    def test_rabi_amplitude_bound(self):
        report = validate(make_pulse("linear", "rabi", 20.0, seed=1.0))
        assert any("exceeds bound" in v for v in report.violations)

    def test_positive_local_detuning_flagged(self):
        report = validate(make_pulse("triangle", "local_detuning", 5.0))
        assert any("positive local detuning" in v for v in report.violations)

    def test_local_detuning_lower_bound(self):
        report = validate(make_pulse("triangle", "local_detuning", -200.0))
        assert any("below bound" in v for v in report.violations)

    def test_custom_limits(self):
        limits = PulseLimits(omega_max=2.0)
        report = validate(make_pulse("linear", "rabi", 3.0, seed=0.2), limits)
        assert any("exceeds bound" in v for v in report.violations)

    def test_constant_rabi_flagged_for_endpoints(self):
        report = validate(make_pulse("constant", "rabi", 1.0))
        assert any("start at 0" in v for v in report.violations)


class TestDiscretize:
    def test_triangle_eight_segments_exact(self):
        pulse = make_pulse("triangle", "rabi", 5.0, seed=2.0)
        disc = discretize(pulse, 8)
        assert disc.max_error == 0.0

    def test_constant_two_segments_exact(self):
        pulse = make_pulse("constant", "rabi", 3.0)
        disc = discretize(pulse, 2)
        assert disc.max_error == 0.0
        assert len(disc.times) == 2

    def test_piecewise_linear_shapes_reproduce_evaluate(self):
        ts = np.linspace(0, 1, 1501)
        for shape in sorted(PIECEWISE_LINEAR_SHAPES):
            pulse = make_pulse(shape, "rabi", 4.0, seed=1.5)
            disc = discretize(pulse, 16)
            assert disc.max_error == 0.0
            assert np.array_equal(disc.interpolate(ts), evaluate(pulse, ts))

    def test_gaussian_error_decreases_with_doubling(self):
        pulse = make_pulse("gaussian", "rabi", 6.0, seed=3.0)
        errors = [discretize(pulse, n).max_error for n in (8, 16, 32, 64, 128)]
        assert all(e > 0 for e in errors)
        assert all(a > b for a, b in zip(errors, errors[1:]))

    def test_reported_error_bound_is_sound(self):
        # the 2001-point probe grid is a subset of the internal 4001-point
        # measurement grid, so the reported error is a true upper bound
        dense = np.linspace(0, 1, 2001)
        rng = np.random.default_rng(7)
        for shape in SHAPES:
            pulse = make_pulse(shape, "rabi", rng.uniform(1, 10),
                               seed=rng.uniform(1.58, 15.8))
            disc = discretize(pulse, 12)
            measured = np.abs(disc.interpolate(dense) - evaluate(pulse, dense)).max()
            assert measured <= disc.max_error + 1e-12

    def test_knots_cover_full_duration(self):
        disc = discretize(make_pulse("sine_bump", "rabi", 2.0, seed=2.0), 10)
        assert disc.times[0] == 0.0 and disc.times[-1] == 1.0
        assert np.all(np.diff(disc.times) > 0)

    def test_too_few_segments_rejected(self):
        with pytest.raises(ValidationError):
            discretize(make_pulse("linear", "rabi", 1.0), 1)


def test_waveform_csv_export():
    from rydgan.pulses import waveform_csv_lines
    disc = discretize(make_pulse("triangle", "rabi", 5.0, seed=2.0), 8)
    lines = waveform_csv_lines(disc)
    assert lines[0] == "t_us,value_rad_per_us"
    assert len(lines) == len(disc.times) + 1
    t, v = lines[1].split(",")
    assert float(t) == disc.times[0] and float(v) == disc.values[0]



@pytest.mark.parametrize("field, value", [
    ("omega_max", 0.0), ("local_detuning_min", 1.0),
    ("global_detuning_abs", -1.0)])
def test_limits_reject_out_of_range_bounds(field, value):
    with pytest.raises(ValidationError, match=field):
        PulseLimits(**{field: value})


def test_global_detuning_is_not_a_pulse_kind():
    with pytest.raises(ValidationError, match="kind"):
        make_pulse("constant", "global_detuning", 1.0)
