"""Parameterized drive waveforms for the analog generator.

Each pulse is one of six shapes controlled by a single trainable scalar
(``param``) plus a per-run seed fraction (``seed``) injected into the
shape: times the drive's signed ``full_scale`` (the run's limit) it sets
the starting value of the linear ramp, and as a fraction it shifts the
triangle peak and modulates the trapezoid plateau width, the gaussian
width and the sine bump phase. Hardware requires Rabi and local-detuning
waveforms to start and end at zero, so every shape is wrapped in linear
entry/exit ramps each covering ``RAMP_FRACTION`` of the duration; the
seeded value holds at the interior boundary. Each shape is declared once,
in ``_shape``, which both ``evaluate`` and ``breakpoint_times`` read, for one
pulse or for a sequence of pulses of one shape at once.

Units: time in us, amplitudes in rad/us.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_settings, setting

SHAPES = ("linear", "triangle", "trapezoid", "gaussian", "sine_bump", "constant")

_DOMAIN_TOL = 1e-12
RAMP_FRACTION = 0.05   # share of the duration in each entry and exit ramp


@dataclass(frozen=True)
class PulseLimits:
    """Hardware amplitude bounds (Aquila-like defaults, config-overridable)."""

    omega_max: float = setting(15.8, (">", 0))              # Rabi drive, rad/us
    local_detuning_min: float = setting(-125.0, ("<", 0))   # local detuning, rad/us
    # |trainable global offset| bound, rad/us
    global_detuning_abs: float = setting(125.0, (">", 0))

    def __post_init__(self):
        check_settings(self)


DEFAULT_LIMITS = PulseLimits()


@dataclass(frozen=True)
class PulseProgram:
    """One drive waveform: shape id, seed injection, trainable scalar.

    ``full_scale`` is the drive's signed full-scale amplitude, the run's
    ``omega_max`` or ``local_detuning_min``, and ``seed`` the run's seed as
    a fraction of it: ``seed * full_scale`` is the seed in the drive's
    units, and the seed-driven timing/width modulations read |seed| clipped
    to [0, 1].
    ``evaluate`` is a pure function of the fields below.
    """

    shape: str
    full_scale: float
    param: float
    seed: float = 0.0
    duration: float = 1.0

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise ValidationError(
                f"unknown pulse shape {self.shape!r}; valid shapes: {', '.join(SHAPES)}")
        if not (math.isfinite(self.full_scale) and self.full_scale != 0):
            raise ValidationError(
                f"pulse full_scale must be finite and nonzero, got {self.full_scale}")
        if not self.duration > 0:
            raise ValidationError(f"pulse duration must be positive, got {self.duration}")
        if not (math.isfinite(self.param) and math.isfinite(self.seed)):
            raise ValidationError("pulse param and seed must be finite")


def _fields(pulses, ndim: int = 1):
    """(shape, duration, param, seed, full_scale) of one pulse, as numbers,
    or of a sequence of pulses of one shape, as arrays with one entry per
    pulse along the first of ndim axes, broadcast along the others."""
    if isinstance(pulses, PulseProgram):
        return (pulses.shape, pulses.duration, pulses.param, pulses.seed,
                pulses.full_scale)
    shapes = {pulse.shape for pulse in pulses}
    if len(shapes) != 1:
        raise ValidationError(
            f"pulses evaluated together must share one shape, got {sorted(shapes)}")
    values = np.array([(q.duration, q.param, q.seed, q.full_scale)
                       for q in pulses]).T
    return (shapes.pop(), *values.reshape((4, len(pulses)) + (1,) * (ndim - 1)))


def _shape(shape: str, d, p, seed, full_scale):
    """(knots, interior, kinks): the one declaration of each shape, over
    numbers or broadcast arrays of pulses of one shape.

    The waveform runs straight between the knots, (t, value) pairs from 0 to
    the duration. A smooth shape's knots are its ramp corners, and between
    the inner two it is interior(tau), tau in [0, 1] across them; kinks are
    the interior's own non-analytic times, 0 where a pulse has none. A
    piecewise-linear shape has no interior (None) and no kinks.
    """
    u = np.minimum(np.abs(seed), 1.0)
    r = RAMP_FRACTION * d
    w = d - 2.0 * r
    if shape == "constant":
        return [(0.0, p), (d, p)], None, []
    if shape == "linear":
        return [(0.0, 0.0), (r, seed * full_scale), (d - r, p), (d, 0.0)], None, []
    if shape == "triangle":
        peak_t = r + (0.2 + 0.6 * u) * w
        return [(0.0, 0.0), (r, 0.0), (peak_t, p), (d - r, 0.0), (d, 0.0)], None, []
    if shape == "trapezoid":
        plateau = 0.2 + 0.6 * u
        return ([(0.0, 0.0), (r, 0.0), (r + 0.5 * (1.0 - plateau) * w, p),
                 (r + 0.5 * (1.0 + plateau) * w, p), (d - r, 0.0), (d, 0.0)], None, [])
    if shape == "gaussian":
        sigma = 0.08 + 0.17 * u
        interior = lambda tau: p * np.exp(-0.5 * ((tau - 0.5) / sigma) ** 2)
        # both ramp ends, squared by libm's pow as a float's ** 2 is: an
        # array's ** 2 multiplies, which rounds differently in a few inputs
        # in a thousand
        edge = p * np.exp(-0.5 * np.float_power(0.5 / sigma, 2.0))
        return [(0.0, 0.0), (r, edge), (d - r, edge), (d, 0.0)], interior, []
    # sine_bump: sin(pi tau + phase) crosses zero at most once in (0, 1)
    phase = (u - 0.5) * (math.pi / 6.0)
    interior = lambda tau: p * np.maximum(0.0, np.sin(math.pi * tau + phase))
    kinks = [np.where((0.0 < tau) & (tau < 1.0), r + tau * w, 0.0)
             for tau in (-phase / math.pi, 1.0 - phase / math.pi)]
    return ([(0.0, 0.0), (r, interior(0.0)), (d - r, interior(1.0)), (d, 0.0)],
            interior, kinks)


def evaluate(pulses, t) -> np.ndarray:
    """Waveform values, rad/us, at the times of the array t.

    pulses is one PulseProgram, or a sequence of them of one shape whose
    times are the rows along t's first axis. Raises ValidationError if any
    t falls outside [0, duration].
    """
    t_arr = np.asarray(t, dtype=float)
    fields = _fields(pulses, t_arr.ndim)
    d = fields[1]
    outside = (t_arr < -_DOMAIN_TOL) | (t_arr > d + _DOMAIN_TOL)
    if outside.any():
        duration = np.broadcast_to(d, t_arr.shape)[outside][0]
        raise ValidationError(f"pulse evaluated outside [0, {duration}] us")
    t_arr = np.clip(t_arr, 0.0, d)

    knots, interior, _ = _shape(*fields)
    if interior is None:
        # np.interp's arithmetic, segment by segment from the last: a knot's
        # value at the knot, else the segment's slope from its left knot;
        # like np.interp, an overflowing slope is no warning
        out, line = np.empty(t_arr.shape), np.empty(t_arr.shape)
        out[...] = knots[-1][1]
        with np.errstate(over="ignore", invalid="ignore"):
            for (x0, y0), (x1, y1) in zip(knots[-2::-1], knots[:0:-1]):
                np.subtract(t_arr, x0, line)
                line *= (y1 - y0) / (x1 - x0)
                line += y0
                np.copyto(line, y0, where=t_arr == x0)
                np.copyto(out, line, where=t_arr < x1)
        return out
    # linear entry and exit ramps around the interior
    (_, _), (r, start), (end, stop), _ = knots
    out = interior(np.clip((t_arr - r) / (d - 2.0 * r), 0.0, 1.0))
    out = np.where(t_arr < r, start * (t_arr / r), out)
    return np.where(t_arr > end, stop * ((d - t_arr) / r), out)


def breakpoint_times(pulses) -> np.ndarray:
    """Times where the waveform is not analytic (knots, ramps, clip points):
    one pulse's, or a row per pulse of a sequence of one shape. A time may
    repeat, and 0 stands in for a kink a pulse does not have.

    Integrators split their step grids here so that every step sees a
    smooth drive.
    """
    knots, _, kinks = _shape(*_fields(pulses))
    times = [t for t, _ in knots] + kinks
    return np.stack(np.broadcast_arrays(*times), axis=-1)
