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
in ``_shape``, which both ``evaluate`` and ``breakpoint_times`` read.

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


def _shape(pulse: PulseProgram):
    """(knots, interior, kinks): the one declaration of each shape.

    The waveform runs straight between the knots, (t, value) pairs from 0 to
    the duration. A smooth shape's knots are its ramp corners, and between
    the inner two it is interior(tau), tau in [0, 1] across them; kinks are
    the interior's own non-analytic times. A piecewise-linear shape has no
    interior (None) and no kinks.
    """
    d, p = pulse.duration, pulse.param
    u = min(abs(pulse.seed), 1.0)
    r = RAMP_FRACTION * d
    w = d - 2.0 * r
    if pulse.shape == "constant":
        return [(0.0, p), (d, p)], None, []
    if pulse.shape == "linear":
        return ([(0.0, 0.0), (r, pulse.seed * pulse.full_scale), (d - r, p),
                 (d, 0.0)], None, [])
    if pulse.shape == "triangle":
        peak_t = r + (0.2 + 0.6 * u) * w
        return [(0.0, 0.0), (r, 0.0), (peak_t, p), (d - r, 0.0), (d, 0.0)], None, []
    if pulse.shape == "trapezoid":
        plateau = 0.2 + 0.6 * u
        return ([(0.0, 0.0), (r, 0.0), (r + 0.5 * (1.0 - plateau) * w, p),
                 (r + 0.5 * (1.0 + plateau) * w, p), (d - r, 0.0), (d, 0.0)], None, [])
    if pulse.shape == "gaussian":
        sigma = 0.08 + 0.17 * u
        interior = lambda tau: p * np.exp(-0.5 * ((tau - 0.5) / sigma) ** 2)
        kinks = []
    else:   # sine_bump: sin(pi tau + phase) crosses zero at most once in (0, 1)
        phase = (u - 0.5) * (math.pi / 6.0)
        interior = lambda tau: p * np.maximum(0.0, np.sin(math.pi * tau + phase))
        kinks = [r + tau * w for tau in (-phase / math.pi, 1.0 - phase / math.pi)
                 if 0.0 < tau < 1.0]
    return ([(0.0, 0.0), (r, interior(0.0)), (d - r, interior(1.0)), (d, 0.0)],
            interior, kinks)


def evaluate(pulse: PulseProgram, t) -> np.ndarray:
    """Waveform values, rad/us, at the times of the array t.

    Raises ValidationError if any t falls outside [0, duration].
    """
    t_arr = np.asarray(t, dtype=float)
    lo, hi = -_DOMAIN_TOL, pulse.duration + _DOMAIN_TOL
    if np.any(t_arr < lo) or np.any(t_arr > hi):
        raise ValidationError(
            f"pulse evaluated outside [0, {pulse.duration}] us")
    t_arr = np.clip(t_arr, 0.0, pulse.duration)

    knots, interior, _ = _shape(pulse)
    ts, vs = zip(*knots)
    if interior is None:
        return np.interp(t_arr, ts, vs)
    # linear entry and exit ramps around the interior
    _, r, end, d = ts
    out = interior(np.clip((t_arr - r) / (d - 2.0 * r), 0.0, 1.0))
    out = np.where(t_arr < r, vs[1] * (t_arr / r), out)
    return np.where(t_arr > end, vs[2] * ((d - t_arr) / r), out)


def breakpoint_times(pulse: PulseProgram):
    """Times where the waveform is not analytic (knots, ramps, clip points).

    Integrators split their step grids here so that every step sees a
    smooth drive.
    """
    knots, _, kinks = _shape(pulse)
    return sorted({t for t, _ in knots}.union(kinks))
