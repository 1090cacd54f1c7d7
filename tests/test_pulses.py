import numpy as np
import pytest

from rydgan.errors import ValidationError
from rydgan.pulses import (DEFAULT_LIMITS, PulseLimits, PulseProgram, SHAPES,
                           evaluate)

RABI_LOCAL_SHAPES = [s for s in SHAPES if s != "constant"]


def make_pulse(shape, kind, param, seed=0.0, **kw):
    return PulseProgram(shape=shape, kind=kind, param=param, seed_noise=seed, **kw)


class TestEvaluate:
    def test_linear_rabi_ramp_construction(self):
        pulse = make_pulse("linear", "rabi", 3.0, seed=1.0, duration=1.0)
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


@pytest.mark.parametrize("field, value", [
    ("omega_max", 0.0), ("local_detuning_min", 1.0),
    ("global_detuning_abs", -1.0)])
def test_limits_reject_out_of_range_bounds(field, value):
    with pytest.raises(ValidationError, match=field):
        PulseLimits(**{field: value})


def test_global_detuning_is_not_a_pulse_kind():
    with pytest.raises(ValidationError, match="kind"):
        make_pulse("constant", "global_detuning", 1.0)
