"""Parameterized drive waveforms for the analog generator.

Each pulse is one of six shapes controlled by a single trainable scalar
(``param``) plus a per-run seed value (``seed_noise``) injected into the
shape: the seed sets the starting value of the linear ramp, shifts the
triangle peak, modulates the trapezoid plateau width, the gaussian width,
and the sine bump phase. Hardware requires Rabi and local-detuning
waveforms to start and end at zero, so every shape is wrapped in linear
entry/exit ramps covering ``ramp_fraction`` of the duration; the seeded
value holds at the interior boundary.

Units: time in us, amplitudes in rad/us.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

SHAPES = ("linear", "triangle", "trapezoid", "gaussian", "sine_bump", "constant")
KINDS = ("rabi", "local_detuning")

# Shapes that are exactly piecewise linear (discretization is lossless).
PIECEWISE_LINEAR_SHAPES = frozenset({"linear", "triangle", "trapezoid", "constant"})

_DOMAIN_TOL = 1e-12


@dataclass(frozen=True)
class PulseLimits:
    """Hardware amplitude bounds (Aquila-like defaults, config-overridable)."""

    omega_max: float = 15.8               # Rabi drive, rad/us, >= 0
    local_detuning_min: float = -125.0    # local detuning, rad/us, <= 0
    global_detuning_abs: float = 125.0    # |trainable global offset| bound, rad/us

    def __post_init__(self):
        if not self.omega_max > 0:
            raise ValidationError("omega_max must be positive")
        if not self.local_detuning_min < 0:
            raise ValidationError("local_detuning_min must be negative")
        if not self.global_detuning_abs > 0:
            raise ValidationError("global_detuning_abs must be positive")

    def amplitude_scale(self, kind: str) -> float:
        """Signed full-scale amplitude for a pulse kind (seed units)."""
        if kind == "rabi":
            return self.omega_max
        if kind == "local_detuning":
            return self.local_detuning_min
        raise ValidationError(f"unknown pulse kind {kind!r}")


DEFAULT_LIMITS = PulseLimits()


@dataclass(frozen=True)
class PulseProgram:
    """One drive waveform: shape id, seed injection, trainable scalar.

    ``evaluate`` is a pure function of the fields below; the seed-driven
    timing/width modulations normalize ``seed_noise`` against the default
    hardware full scale of ``kind`` so the waveform does not depend on any
    runtime configuration.
    """

    shape: str
    kind: str
    param: float
    seed_noise: float = 0.0
    duration: float = 1.0
    ramp_fraction: float = 0.05

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise ValidationError(
                f"unknown pulse shape {self.shape!r}; valid shapes: {', '.join(SHAPES)}")
        if self.kind not in KINDS:
            raise ValidationError(
                f"unknown pulse kind {self.kind!r}; valid kinds: {', '.join(KINDS)}")
        if not self.duration > 0:
            raise ValidationError(f"pulse duration must be positive, got {self.duration}")
        if not 0.0 <= self.ramp_fraction <= 0.25:
            raise ValidationError(
                f"ramp_fraction must be in [0, 0.25], got {self.ramp_fraction}")
        if not (math.isfinite(self.param) and math.isfinite(self.seed_noise)):
            raise ValidationError("pulse param and seed_noise must be finite")

    @property
    def _seed_unit(self) -> float:
        """Seed normalized to [0, 1] against the default kind full scale."""
        scale = abs(DEFAULT_LIMITS.amplitude_scale(self.kind))
        return min(max(abs(self.seed_noise) / scale, 0.0), 1.0)


def _breakpoints(pulse: PulseProgram):
    """Knot list (t, value) for the piecewise-linear shapes."""
    d = pulse.duration
    r = pulse.ramp_fraction * d
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
        r = pulse.ramp_fraction * d
        if r > 0.0:
            w = d - 2.0 * r
            tau = np.clip((t_arr - r) / w, 0.0, 1.0)
            out = _interior(pulse, tau)
            entry = _interior(pulse, 0.0) * (t_arr / r)
            exit_ = _interior(pulse, 1.0) * ((d - t_arr) / r)
            out = np.where(t_arr < r, entry, out)
            out = np.where(t_arr > d - r, exit_, out)
        else:
            out = _interior(pulse, t_arr / d)
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
        r = pulse.ramp_fraction * d
        times = [0.0, r, d - r, d]
        if pulse.shape == "sine_bump":
            # sin(pi tau + phase) crosses zero at most once inside (0, 1)
            phase = (pulse._seed_unit - 0.5) * (math.pi / 6.0)
            for k in (0, 1):
                tau = k - phase / math.pi
                if 0.0 < tau < 1.0:
                    times.append(r + tau * (d - 2.0 * r))
    return sorted(set(t for t in times if 0.0 <= t <= pulse.duration))


@dataclass(frozen=True)
class ValidationReport:
    """Hardware-constraint check result; empty violations means legal."""

    violations: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(pulse: PulseProgram, limits: PulseLimits = DEFAULT_LIMITS,
             grid_points: int = 1001) -> ValidationReport:
    """Check sign, amplitude-bound, and endpoint constraints on a dense grid.

    Violations are returned as data, never raised.
    """
    tol = 1e-9
    ts = np.linspace(0.0, pulse.duration, grid_points)
    vals = evaluate(pulse, ts)
    violations = []
    if pulse.kind == "rabi":
        if vals.min() < -tol:
            violations.append(
                f"negative Rabi amplitude (min {vals.min():.6g} rad/us)")
        if vals.max() > limits.omega_max + tol:
            violations.append(
                f"Rabi amplitude {vals.max():.6g} exceeds bound {limits.omega_max} rad/us")
    else:
        if vals.max() > tol:
            violations.append(
                f"positive local detuning (max {vals.max():.6g} rad/us)")
        if vals.min() < limits.local_detuning_min - tol:
            violations.append(
                f"local detuning {vals.min():.6g} below bound "
                f"{limits.local_detuning_min} rad/us")
    if abs(vals[0]) > tol:
        violations.append(f"waveform must start at 0 (got {vals[0]:.6g})")
    if abs(vals[-1]) > tol:
        violations.append(f"waveform must end at 0 (got {vals[-1]:.6g})")
    return ValidationReport(tuple(violations))


@dataclass(frozen=True)
class DiscretizedPulse:
    """Piecewise-linear approximation: knot times/values plus its max error."""

    times: np.ndarray
    values: np.ndarray
    max_error: float

    def interpolate(self, t):
        return np.interp(np.asarray(t, dtype=float), self.times, self.values)


def discretize(pulse: PulseProgram, max_segments: int,
               error_grid_points: int = 4001) -> DiscretizedPulse:
    """Reduce a pulse to at most max_segments linear segments.

    Shapes that are already piecewise linear are reproduced exactly
    (max_error 0) whenever their breakpoints fit in the budget; smooth
    shapes are sampled uniformly and the max deviation is measured on a
    dense grid and reported.
    """
    if max_segments < 2:
        raise ValidationError(f"max_segments must be >= 2, got {max_segments}")
    if pulse.shape in PIECEWISE_LINEAR_SHAPES:
        pts = _breakpoints(pulse)
        # drop duplicated knot times (zero-width ramps)
        uniq = [pts[0]]
        for p in pts[1:]:
            if p[0] > uniq[-1][0]:
                uniq.append(p)
        if len(uniq) - 1 <= max_segments:
            ts = np.array([p[0] for p in uniq])
            vs = np.array([p[1] for p in uniq])
            return DiscretizedPulse(ts, vs, 0.0)
    ts = np.linspace(0.0, pulse.duration, max_segments + 1)
    vs = evaluate(pulse, ts)
    dense = np.linspace(0.0, pulse.duration, error_grid_points)
    err = float(np.abs(np.interp(dense, ts, vs) - evaluate(pulse, dense)).max())
    return DiscretizedPulse(ts, np.asarray(vs, dtype=float), err)


def waveform_csv_lines(disc: DiscretizedPulse):
    """CSV rows (t_us, value_rad_per_us) for a discretized waveform."""
    lines = ["t_us,value_rad_per_us"]
    for t, v in zip(disc.times, disc.values):
        lines.append(f"{float(t)!r},{float(v)!r}")
    return lines
