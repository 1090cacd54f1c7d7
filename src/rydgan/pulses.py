"""Parameterized drive waveforms for the analog generator.

Each pulse is one of six shapes controlled by a single trainable scalar
(``param``) plus a per-run seed value (``seed_noise``) injected into the
shape: the seed sets the starting value of the linear ramp, and as a
fraction of the drive's signed ``full_scale`` (the run's limit) it shifts
the triangle peak and modulates the trapezoid plateau width, the gaussian
width and the sine bump phase. Hardware requires Rabi and local-detuning
waveforms to start and end at zero, so every shape is wrapped in linear
entry/exit ramps each covering ``RAMP_FRACTION`` of the duration; the
seeded value holds at the interior boundary.

Units: time in us, amplitudes in rad/us.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_finite

SHAPES = ("linear", "triangle", "trapezoid", "gaussian", "sine_bump", "constant")

# Shapes that are exactly piecewise linear (evaluated from their knots).
PIECEWISE_LINEAR_SHAPES = frozenset({"linear", "triangle", "trapezoid", "constant"})

_DOMAIN_TOL = 1e-12
RAMP_FRACTION = 0.05   # share of the duration in each entry and exit ramp


@dataclass(frozen=True)
class PulseLimits:
    """Hardware amplitude bounds (Aquila-like defaults, config-overridable)."""

    omega_max: float = 15.8               # Rabi drive, rad/us, >= 0
    local_detuning_min: float = -125.0    # local detuning, rad/us, <= 0
    global_detuning_abs: float = 125.0    # |trainable global offset| bound, rad/us

    def __post_init__(self):
        check_finite(self)
        if not self.omega_max > 0:
            raise ValidationError("omega_max must be positive")
        if not self.local_detuning_min < 0:
            raise ValidationError("local_detuning_min must be negative")
        if not self.global_detuning_abs > 0:
            raise ValidationError("global_detuning_abs must be positive")


DEFAULT_LIMITS = PulseLimits()


@dataclass(frozen=True)
class PulseProgram:
    """One drive waveform: shape id, seed injection, trainable scalar.

    ``full_scale`` is the drive's signed full-scale amplitude, the run's
    ``omega_max`` or ``local_detuning_min``: ``seed_noise`` is the seed in
    those units, and the seed-driven timing/width modulations read
    ``seed_noise / full_scale``, clipped to [0, 1]. ``evaluate`` is a pure
    function of the fields below.
    """

    shape: str
    full_scale: float
    param: float
    seed_noise: float = 0.0
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
        if not (math.isfinite(self.param) and math.isfinite(self.seed_noise)):
            raise ValidationError("pulse param and seed_noise must be finite")

    @property
    def _seed_unit(self) -> float:
        """Seed normalized to [0, 1] against the drive's full scale."""
        return min(abs(self.seed_noise / self.full_scale), 1.0)


def _breakpoints(pulse: PulseProgram):
    """Knot list (t, value) for the piecewise-linear shapes."""
    d = pulse.duration
    r = RAMP_FRACTION * d
    w = d - 2.0 * r
    u = pulse._seed_unit
    if pulse.shape == "constant":
        return [(0.0, pulse.param), (d, pulse.param)]
    if pulse.shape == "linear":
        return [(0.0, 0.0), (r, pulse.seed_noise), (d - r, pulse.param), (d, 0.0)]
    if pulse.shape == "triangle":
        peak_t = r + (0.2 + 0.6 * u) * w
        return [(0.0, 0.0), (r, 0.0), (peak_t, pulse.param), (d - r, 0.0), (d, 0.0)]
    if pulse.shape == "trapezoid":
        plateau = 0.2 + 0.6 * u
        t1 = r + 0.5 * (1.0 - plateau) * w
        t2 = r + 0.5 * (1.0 + plateau) * w
        return [(0.0, 0.0), (r, 0.0), (t1, pulse.param), (t2, pulse.param),
                (d - r, 0.0), (d, 0.0)]
    raise ValidationError(f"shape {pulse.shape!r} is not piecewise linear")


def _interior(pulse: PulseProgram, tau):
    """Smooth-shape interior value on the normalized coordinate tau in [0, 1]."""
    tau = np.asarray(tau, dtype=float)
    u = pulse._seed_unit
    if pulse.shape == "gaussian":
        sigma = 0.08 + 0.17 * u
        return pulse.param * np.exp(-0.5 * ((tau - 0.5) / sigma) ** 2)
    if pulse.shape == "sine_bump":
        phase = (u - 0.5) * (math.pi / 6.0)
        return pulse.param * np.maximum(0.0, np.sin(math.pi * tau + phase))
    raise ValidationError(f"shape {pulse.shape!r} has no smooth interior")


def evaluate(pulse: PulseProgram, t):
    """Waveform value at time t (scalar or array), rad/us.

    Raises ValidationError if any t falls outside [0, duration].
    """
    t_arr = np.asarray(t, dtype=float)
    lo, hi = -_DOMAIN_TOL, pulse.duration + _DOMAIN_TOL
    if np.any(t_arr < lo) or np.any(t_arr > hi):
        raise ValidationError(
            f"pulse evaluated outside [0, {pulse.duration}] us")
    t_arr = np.clip(t_arr, 0.0, pulse.duration)

    if pulse.shape in PIECEWISE_LINEAR_SHAPES:
        pts = _breakpoints(pulse)
        ts = np.array([p[0] for p in pts])
        vs = np.array([p[1] for p in pts])
        out = np.interp(t_arr, ts, vs)
    else:
        d = pulse.duration
        r = RAMP_FRACTION * d
        w = d - 2.0 * r
        tau = np.clip((t_arr - r) / w, 0.0, 1.0)
        out = _interior(pulse, tau)
        entry = _interior(pulse, 0.0) * (t_arr / r)
        exit_ = _interior(pulse, 1.0) * ((d - t_arr) / r)
        out = np.where(t_arr < r, entry, out)
        out = np.where(t_arr > d - r, exit_, out)
    if np.ndim(t) == 0:
        return float(out)
    return out


def breakpoint_times(pulse: PulseProgram):
    """Times where the waveform is not analytic (knots, ramps, clip points).

    Integrators split their step grids here so that every step sees a
    smooth drive.
    """
    if pulse.shape in PIECEWISE_LINEAR_SHAPES:
        times = [t for t, _ in _breakpoints(pulse)]
    else:
        d = pulse.duration
        r = RAMP_FRACTION * d
        times = [0.0, r, d - r, d]
        if pulse.shape == "sine_bump":
            # sin(pi tau + phase) crosses zero at most once inside (0, 1)
            phase = (pulse._seed_unit - 0.5) * (math.pi / 6.0)
            for k in (0, 1):
                tau = k - phase / math.pi
                if 0.0 < tau < 1.0:
                    times.append(r + tau * (d - 2.0 * r))
    return sorted(set(t for t in times if 0.0 <= t <= pulse.duration))
