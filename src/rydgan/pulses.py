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
in ``_shape``, which ``evaluate`` and ``breakpoint_times`` read for a drive:
one entry per run of a block (`sim.RunBlock.drive`), in any mix of shapes.

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


def _groups(drive, runs: np.ndarray):
    """(name, where, fields) per pulse shape of the drive: the entries of
    runs (block rows) whose run has that shape, Ellipsis for all, and the
    numeric fields of their runs."""
    names = dict.fromkeys(drive[0].tolist())
    for name in names:
        where = Ellipsis if len(names) == 1 else (drive[0] == name)[runs]
        at = runs[where]
        yield name, where, [field[at] for field in drive[1:]]


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


def evaluate(drive, t, runs=0) -> np.ndarray:
    """Waveform values, rad/us, of a drive, (shape, duration, param, seed,
    full_scale) with ``seed`` a fraction of the signed ``full_scale``, at the
    times of the array t. runs holds the run of each entry along t's leading
    axes, as many as runs has (by default all are run 0's); each run's
    fields broadcast over the rest. Raises ValidationError if any t falls
    outside [0, duration]."""
    t_arr, runs = np.asarray(t, dtype=float), np.asarray(runs)
    trail = (1,) * (t_arr.ndim - runs.ndim)
    d = drive[1][runs].reshape(runs.shape + trail)
    outside = (t_arr < -_DOMAIN_TOL) | (t_arr > d + _DOMAIN_TOL)
    if outside.any():
        d = np.broadcast_to(d, t_arr.shape)[outside][0]
        raise ValidationError(f"pulse evaluated outside [0, {d}] us")
    out = np.empty(t_arr.shape)
    for name, where, fields in _groups(drive, runs):
        fields = [field.reshape(field.shape + trail) for field in fields]
        out[where] = _values(name, np.clip(t_arr[where], 0.0, fields[0]), *fields)
    return out


def _values(name: str, t_arr, d, *rest) -> np.ndarray:
    """evaluate for pulses of one shape, at times in [0, d]."""
    knots, interior, _ = _shape(name, d, *rest)
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


def breakpoint_times(drive) -> np.ndarray:
    """(B, 6) times where each run's waveform is not analytic (knots, ramps,
    clip points), where integrators split their step grids so that every
    step sees a smooth drive. A time may repeat, and 0 stands in for a kink
    a run's shape does not have."""
    out = np.zeros((len(drive[0]), 6))
    for name, rows, fields in _groups(drive, np.arange(len(drive[0]))):
        knots, _, kinks = _shape(name, *fields)
        times = np.stack(np.broadcast_arrays(*[t for t, _ in knots], *kinks), axis=-1)
        out[rows, :times.shape[1]] = times
    return out
