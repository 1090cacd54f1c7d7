import numpy as np
import pytest

from rydgan import pulses as pulses_module
from rydgan.errors import ValidationError
from rydgan.pulses import (DEFAULT_LIMITS, PulseLimits, SHAPES,
                           breakpoint_times, evaluate)
from rydgan.sim import RunBlock

RABI_LOCAL_SHAPES = [s for s in SHAPES if s != "constant"]
OMEGA = DEFAULT_LIMITS.omega_max


def one_run(shape, full_scale, param, seed=0.0, duration=1.0):
    """A one-run block whose two drives are this pulse."""
    return RunBlock(positions=[[(0.0, 0.0)]], couplings=[[0.0]],
                    global_detuning_offset=0.0, duration=duration,
                    shapes=[(shape, shape)], params=param, seeds=seed,
                    full_scales=full_scale)


def make_pulse(shape, full_scale, param, seed_noise=0.0, **kw):
    """One run's drive, its seed given in the drive's units."""
    return one_run(shape, full_scale, param, seed_noise / full_scale, **kw).drive(0)


def stack(pulses):
    """One drive of the pulses' runs, in order."""
    return tuple(map(np.concatenate, zip(*pulses)))


class TestEvaluate:
    def test_linear_rabi_ramp_construction(self):
        pulse = make_pulse("linear", OMEGA, 3.0, seed_noise=1.0, duration=1.0)
        assert evaluate(pulse, 0.0) == 0.0
        assert evaluate(pulse, 0.05) == pytest.approx(1.0, abs=1e-12)
        assert evaluate(pulse, 0.95) == pytest.approx(3.0, abs=1e-12)
        assert evaluate(pulse, 1.0) == 0.0

    def test_linear_interior_interpolates_seed_to_param(self):
        pulse = make_pulse("linear", OMEGA, 4.0, seed_noise=2.0)
        mid = evaluate(pulse, 0.5)
        assert mid == pytest.approx(3.0, abs=1e-12)

    def test_constant_pulse_holds_param(self):
        pulse = make_pulse("constant", OMEGA, 2.0)
        for t in np.linspace(0, 1, 17):
            assert evaluate(pulse, float(t)) == 2.0

    def test_triangle_zero_peak_is_identically_zero(self):
        pulse = make_pulse("triangle", OMEGA, 0.0, seed_noise=5.0)
        ts = np.linspace(0, 1, 101)
        assert np.all(evaluate(pulse, ts) == 0.0)

    def test_domain_error_outside_duration(self):
        pulse = make_pulse("linear", OMEGA, 1.0)
        with pytest.raises(ValidationError):
            evaluate(pulse, 1.5)
        with pytest.raises(ValidationError):
            evaluate(pulse, -0.1)

    def test_array_and_scalar_agree(self):
        pulse = make_pulse("gaussian", OMEGA, 2.0, seed_noise=3.0)
        ts = np.linspace(0, 1, 23)
        arr = evaluate(pulse, ts)
        scalars = np.concatenate([evaluate(pulse, ts[i:i + 1])
                                  for i in range(len(ts))])
        assert np.array_equal(arr, scalars)

    def test_unknown_shape_rejected(self):
        with pytest.raises(ValidationError, match="shapes must be pulse shapes"):
            make_pulse("sawtooth", OMEGA, 1.0)

    def test_bad_duration_rejected(self):
        with pytest.raises(ValidationError, match="duration"):
            make_pulse("linear", OMEGA, 1.0, duration=0.0)


class TestShapeInvariants:
    @pytest.mark.parametrize("shape", RABI_LOCAL_SHAPES)
    @pytest.mark.parametrize("scale", [DEFAULT_LIMITS.omega_max,
                                       DEFAULT_LIMITS.local_detuning_min],
                             ids=["rabi", "local_detuning"])
    def test_endpoints_zero_and_sign(self, shape, scale):
        rng = np.random.default_rng(hash((shape, scale)) % 2**32)
        lo, hi = sorted((0.1 * scale, scale))
        ts = np.linspace(0.0, 1.0, 10_000)
        for _ in range(25):
            seed = rng.uniform(lo, hi)
            param = rng.uniform(0.0, 1.0) * scale
            pulse = make_pulse(shape, scale, param, seed_noise=seed)
            vals = evaluate(pulse, ts)
            assert vals[0] == 0.0 and vals[-1] == 0.0
            if scale > 0:
                assert vals.min() >= 0.0
            else:
                assert vals.max() <= 0.0
            assert np.abs(vals).max() <= abs(scale) + 1e-9

    def test_evaluate_is_deterministic(self):
        pulse_a = make_pulse("sine_bump", OMEGA, 2.5, seed_noise=4.0)
        pulse_b = make_pulse("sine_bump", OMEGA, 2.5, seed_noise=4.0)
        ts = np.linspace(0, 1, 97)
        assert np.array_equal(evaluate(pulse_a, ts), evaluate(pulse_b, ts))


@pytest.mark.parametrize("shape", SHAPES)
def test_every_kink_is_a_breakpoint(shape):
    """On a fine grid, a second difference larger than a smooth shape's
    curvature gives appears only within one cell of a breakpoint: a kink
    between breakpoints would sit inside an integration step and cost the
    Magnus integrator its order."""
    rng = np.random.default_rng(SHAPES.index(shape))
    cells = 20_000
    for _ in range(20):
        scale = rng.choice([OMEGA, DEFAULT_LIMITS.local_detuning_min])
        duration = rng.uniform(0.37, 4.0)
        pulse = make_pulse(shape, scale, rng.uniform(0.05, 1.0) * scale,
                           seed_noise=rng.uniform(0.1, 1.0) * scale,
                           duration=duration)
        t = np.linspace(0.0, duration, cells + 1)
        v = evaluate(pulse, t)
        # the narrowest gaussian bends the most: |second difference| up to
        # 193 max|v| / cells^2; a slope jump s moves one of the two second
        # differences around it by at least s h / 2, about max|v| / cells
        bend = np.abs(v[:-2] - 2.0 * v[1:-1] + v[2:])
        kinks = t[1:-1][bend > 1e3 * np.abs(v).max() / cells ** 2]
        cuts = breakpoint_times(pulse)[0]
        gaps = np.abs(kinks[:, None] - cuts).min(axis=1, initial=np.inf)
        assert (gaps <= 1.000001 * duration / cells).all(), (pulse, kinks)


@pytest.mark.parametrize("shape", SHAPES)
def test_a_group_evaluates_each_pulse_as_alone(shape):
    """A sequence of pulses of one shape, at a row of times each (its
    breakpoints among them), gives each pulse's values and breakpoints bit
    for bit; a piecewise-linear shape gives np.interp's values on its
    knots."""
    rng = np.random.default_rng(40 + SHAPES.index(shape))
    group = [make_pulse(shape, scale, rng.uniform(0.0, 1.0) * scale,
                        seed_noise=rng.uniform(0.1, 1.0) * scale,
                        duration=rng.choice([1.0, 0.6, 3.7]))
             for scale in rng.choice([OMEGA, DEFAULT_LIMITS.local_detuning_min], 40)]
    assert_each_run_as_alone(stack(group), group, rng)


def assert_each_run_as_alone(drive, pulses, rng):
    """Each run of the drive, at a row of times (its breakpoints among
    them), gives the values and breakpoints of its pulse alone, bit for
    bit; a piecewise-linear shape gives np.interp's values on its knots."""
    cuts = breakpoint_times(drive)
    t = np.concatenate([cuts, rng.uniform(0.0, 1.0, (len(pulses), 2000))
                        * drive[1][:, None]], axis=1)
    values = evaluate(drive, t, np.arange(len(pulses)))
    flat = evaluate(drive, t.ravel(), np.repeat(np.arange(len(pulses)), t.shape[1]))
    assert np.array_equal(flat, values.ravel())
    for pulse, row, cut, value in zip(pulses, t, cuts, values):
        alone = breakpoint_times(pulse)[0]
        assert np.array_equal(alone, cut[:len(alone)]) and not cut[len(alone):].any()
        assert np.array_equal(evaluate(pulse, row), value)
        knots, interior, _ = pulses_module._shape(
            pulse[0][0], *(float(field[0]) for field in pulse[1:]))
        if interior is None:
            assert np.array_equal(value, np.interp(row, *zip(*knots)))


def test_a_drive_of_mixed_shapes_evaluates_each_run_as_alone():
    """Runs of every shape in one drive, in any order, by row or with the
    run of each time given."""
    rng = np.random.default_rng(60)
    pulses = [make_pulse(shape, scale, rng.uniform(0.0, 1.0) * scale,
                         seed_noise=rng.uniform(0.1, 1.0) * scale,
                         duration=rng.choice([1.0, 0.6, 3.7]))
              for shape, scale in zip(rng.choice(SHAPES, 60), rng.choice(
                  [OMEGA, DEFAULT_LIMITS.local_detuning_min], 60))]
    assert_each_run_as_alone(stack(pulses), pulses, rng)


@pytest.mark.parametrize("field, value", [
    ("omega_max", 0.0), ("local_detuning_min", 1.0),
    ("global_detuning_abs", -1.0)])
def test_limits_reject_out_of_range_bounds(field, value):
    with pytest.raises(ValidationError, match=field):
        PulseLimits(**{field: value})


@pytest.mark.parametrize("full_scale", [0.0, -0.0, np.nan, np.inf, -np.inf])
def test_full_scale_must_be_finite_and_nonzero(full_scale):
    with pytest.raises(ValidationError, match="full_scale"):
        one_run("triangle", full_scale, 1.0)
