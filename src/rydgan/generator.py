"""The quantum generator: seed + trainable parameters -> feature vector.

One generator run builds the Rabi and local-detuning pulses with the seed
injected into both (a single scalar in [0.1, 1] shared by the pair, scaled
to each drive's full range), evolves the ground state under the resulting
Hamiltonian, and maps the outcome probabilities to features with a modulo
operation so each feature can take any value in (0, 1/2^n] independently
of the others. `generate_batch`, the one generation path, evolves many
(params, seed, mode) runs in one `sim.evolve` call and reads out the whole
block; `generate_features` is a one-run `generate_batch`.
`GeneratorParams` declares the hardware envelope once: its trainable groups
and their boxes serve both `validate` and the Nelder-Mead stages of training.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NumericError, ValidationError, check_settings, setting
from .pulses import DEFAULT_LIMITS, SHAPES, PulseLimits, PulseProgram
from .sim import (AtomArrangement, C6_DEFAULT, NORM_TOL, HamiltonianSpec,
                  evolve)

SEED_LO, SEED_HI = 0.1, 1.0
# default geometry in um: minimum atom spacing, side of the square field
MIN_SPACING_UM = 4.0
FIELD_SIZE_UM = 75.0
# Rabi and local-detuning pulses must start and end at 0; constant cannot
TRAINABLE_SHAPES = tuple(s for s in SHAPES if s != "constant")
# runs one request hands generate_batch: their final amplitudes alone take
# 1 GiB at MAX_QUBITS (2^10 complex numbers per run)
MAX_RUNS = 1 << 16
# the trainable parameter groups, each a training stage, and what they hold
GROUPS = {"positions": "atom coordinate", "rabi": "rabi_param",
          "local": "local_param or coupling", "global": "global detuning"}


@dataclass(frozen=True)
class GeneratorParams:
    """Trainable state of one learner.

    The trainable values form the GROUPS; `groups` gives each with its
    hardware box and `with_group` replaces one.
    """

    arrangement: AtomArrangement
    rabi_shape: str = field(metadata={"choices": TRAINABLE_SHAPES})
    rabi_param: float
    local_shape: str = field(metadata={"choices": TRAINABLE_SHAPES})
    local_param: float
    global_detuning_offset: float
    duration: float = setting(1.0, (">", 0))

    @property
    def n_qubits(self) -> int:
        return self.arrangement.n_atoms

    def groups(self, limits: PulseLimits, field_size: float) -> dict:
        """{group: (values, bounds)} in GROUPS order, bounds one (lo, hi) per
        value: the Nelder-Mead box of a training stage and what validate checks.
        """
        n = self.n_qubits
        return {
            "positions": (self.arrangement.position_array().reshape(-1),
                          [(0.0, field_size)] * (2 * n)),
            "rabi": (np.array([self.rabi_param]), [(0.0, limits.omega_max)]),
            "local": (np.concatenate([[self.local_param],
                                      self.arrangement.coupling_array()]),
                      [(limits.local_detuning_min, 0.0)] + [(0.0, 1.0)] * n),
            "global": (np.array([self.global_detuning_offset]),
                       [(-limits.global_detuning_abs, limits.global_detuning_abs)]),
        }

    def with_group(self, group: str, x) -> "GeneratorParams":
        """Copy with one group's values replaced by x, the inverse of groups()."""
        x = np.asarray(x, dtype=float)
        if group == "positions":
            return replace(self, arrangement=AtomArrangement(
                tuple(map(tuple, x.reshape(-1, 2))), self.arrangement.couplings))
        if group == "rabi":
            return replace(self, rabi_param=float(x[0]))
        if group == "local":
            return replace(self, local_param=float(x[0]),
                           arrangement=AtomArrangement(
                               self.arrangement.positions, tuple(x[1:])))
        if group == "global":
            return replace(self, global_detuning_offset=float(x[0]))
        raise ValidationError(f"unknown parameter group {group!r}")

    def min_pair_distance(self) -> float:
        """Smallest distance between two atoms in um; inf for a single atom."""
        pos = self.arrangement.position_array()
        dists = np.linalg.norm(pos[:, None] - pos[None, :], axis=-1)
        return float(dists[np.triu_indices(len(pos), 1)].min(initial=np.inf))

    def validate(self, limits: PulseLimits = DEFAULT_LIMITS,
                 min_spacing: float = MIN_SPACING_UM,
                 field_size: float = FIELD_SIZE_UM):
        """Raise ValidationError unless every field keeps its declared rules,
        every group lies in its box and atoms are min_spacing apart."""
        check_settings(self)
        for group, (values, bounds) in self.groups(limits, field_size).items():
            for v, (lo, hi) in zip(values, bounds):
                if not lo <= v <= hi:
                    raise ValidationError(
                        f"{GROUPS[group]} {v!r} outside [{lo}, {hi}]")
        dmin = self.min_pair_distance()
        if dmin < min_spacing:
            raise ValidationError(f"atoms {dmin!r} um apart; minimum spacing "
                                  f"is {min_spacing} um")


@dataclass(frozen=True)
class ErrorModel:
    """Gaussian hardware-error model: one perturbation per quantum run.

    Detunings (global and local) receive independent additive N(0, sigma)
    shifts, the Rabi waveform a multiplicative N(1, sigma) factor, and
    every atom coordinate an independent additive N(0, sigma) shift.
    """

    detuning_sigma: float = setting(0.1, (">=", 0))    # rad/us
    rabi_rel_sigma: float = setting(0.01, (">=", 0))   # dimensionless
    position_sigma: float = setting(0.1, (">=", 0))    # um
    rng_seed: int = 0

    def __post_init__(self):
        check_settings(self)


@dataclass(frozen=True)
class ExactMode:
    """Probabilities read directly from the final state."""


@dataclass(frozen=True)
class ShotsMode:
    """Probabilities estimated from projective-measurement frequencies."""

    # numpy draws the counts as int64, and raises OverflowError from 2^63
    shots: int = setting(1000, (">=", 1), ("<=", 2 ** 63 - 1))
    rng_seed: int = 0

    def __post_init__(self):
        check_settings(self)


@dataclass(frozen=True)
class NoisyMode:
    """An exact run of the Hamiltonian perturbed by one ErrorModel draw."""

    model: ErrorModel


EXACT = ExactMode()


def build_spec(params: GeneratorParams, seed: float,
               limits: PulseLimits = DEFAULT_LIMITS,
               c6: float = C6_DEFAULT) -> HamiltonianSpec:
    """Instantiate the Hamiltonian for one seed value.

    The shared scalar seed u is injected into both pulses scaled to each
    drive's full range, the run's omega_max or local_detuning_min (negative):
    full_scale is that limit and seed = u, so both read one fraction.
    """
    rabi = PulseProgram(shape=params.rabi_shape, param=params.rabi_param,
                        full_scale=limits.omega_max, seed=seed,
                        duration=params.duration)
    local = PulseProgram(shape=params.local_shape, param=params.local_param,
                         full_scale=limits.local_detuning_min, seed=seed,
                         duration=params.duration)
    return HamiltonianSpec(arrangement=params.arrangement, rabi=rabi,
                           local_detuning=local,
                           global_detuning_offset=params.global_detuning_offset,
                           c6=c6)


def modulo_encode(probs) -> np.ndarray:
    """Map probabilities (..., 2^n) to features f_i = p_i mod 1/2^n, upper-closed.

    A remainder of exactly zero with p_i > 0 wraps to the interval top
    1/2^n; p_i = 0 (possible only for degenerate, dynamics-free runs) maps
    to 0. Every row must be a probability vector.
    """
    p = np.asarray(probs, dtype=float)
    dim = p.shape[-1] if p.ndim else 0
    if dim < 2 or (dim & (dim - 1)) != 0:
        raise ValidationError(
            f"expected 2^n-length probability vectors, got shape {p.shape}")
    if (p < 0).any():
        raise ValidationError(f"negative probability: min {p.min()!r}")
    sums = p.reshape(-1, dim).sum(axis=1)
    bad = np.flatnonzero(np.abs(sums - 1.0) > 1e-6)
    if bad.size:
        raise ValidationError(f"probabilities of row {bad[0]} sum to "
                              f"{sums[bad[0]]!r}, expected 1")
    width = 1.0 / dim
    r = np.mod(p, width)
    return np.where(r > 0.0, r, np.where(p > 0.0, width, 0.0))


def perturb_params(spec: HamiltonianSpec, model: ErrorModel) -> HamiltonianSpec:
    """Copy of a run's Hamiltonian with one draw of the hardware-error model.

    Draw order (fixed for reproducibility): global detuning shift, local
    waveform shift, Rabi gain factor, then x/y per atom. The perturbed
    copy deliberately skips geometry re-validation: physical noise may
    push positions slightly past nominal tolerances.
    """
    rng = np.random.default_rng(model.rng_seed)
    d_global = rng.normal(0.0, model.detuning_sigma)
    d_local = rng.normal(0.0, model.detuning_sigma)
    gain = rng.normal(1.0, model.rabi_rel_sigma)
    offsets = rng.normal(0.0, model.position_sigma,
                         size=(spec.arrangement.n_atoms, 2))
    positions = tuple((x + offsets[i, 0], y + offsets[i, 1])
                      for i, (x, y) in enumerate(spec.arrangement.positions))
    arrangement = AtomArrangement(positions, spec.arrangement.couplings)
    return replace(spec,
                   arrangement=arrangement,
                   global_detuning_offset=spec.global_detuning_offset + d_global,
                   local_detuning_shift=spec.local_detuning_shift + d_local,
                   rabi_scale=spec.rabi_scale * gain)


def _plan(params: GeneratorParams, seed: float, mode, limits: PulseLimits,
          c6: float):
    """(spec, readout mode) of one run: the seed checked, noise drawn."""
    if not SEED_LO - 1e-12 <= seed <= SEED_HI + 1e-12:
        raise ValidationError(
            f"seed {seed} outside legal range [{SEED_LO}, {SEED_HI}]")
    spec = build_spec(params, seed, limits, c6)
    if isinstance(mode, NoisyMode):
        return perturb_params(spec, mode.model), EXACT
    if not isinstance(mode, (ExactMode, ShotsMode)):
        raise ValidationError(f"unknown generation mode {mode!r}")
    return spec, mode


def generate_features(params: GeneratorParams, seed: float, mode=EXACT,
                      limits: PulseLimits = DEFAULT_LIMITS,
                      c6: float = C6_DEFAULT,
                      steps: int | None = None) -> np.ndarray:
    """Features (2^n,) of one seed: a one-run `generate_batch`.

    Deterministic for fixed (params, seed, mode); the stored params are
    never mutated, a noisy run perturbs its own copy of the Hamiltonian.
    """
    return generate_batch([(params, seed, mode)], limits, c6, steps)[0]


def generate_batch(runs, limits: PulseLimits = DEFAULT_LIMITS,
                   c6: float = C6_DEFAULT,
                   steps: int | None = None) -> np.ndarray:
    """Features (B, 2^n) of many (params, seed, mode) runs, evolved as one batch.

    Probabilities are p = |a|^2 of the final amplitudes, or for a ShotsMode
    run the frequencies of `shots` measurements drawn from its own RNG.
    All runs share one qubit count; batching is what makes generation
    cheap, so callers pass all the runs they need at once.
    """
    plans = [_plan(params, float(seed), mode, limits, c6)
             for params, seed, mode in runs]
    if not plans:
        raise ValidationError("generate_batch needs at least one run")
    probs = np.abs(evolve([spec for spec, _ in plans], steps)) ** 2
    norms = probs.sum(axis=1)
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= NORM_TOL))
    if bad.size:
        raise NumericError(f"generator run {bad[0]} lost its norm: "
                           f"sum |a_k|^2 = {norms[bad[0]]!r}", run=int(bad[0]))
    for p, (_, readout) in zip(probs, plans):
        if isinstance(readout, ShotsMode):
            rng = np.random.default_rng(readout.rng_seed)
            p[:] = rng.multinomial(readout.shots, p / p.sum()) / readout.shots
    return modulo_encode(probs)


def draw_seeds(rng: np.random.Generator, count: int) -> np.ndarray:
    """Sample generator input seeds uniformly from the legal range."""
    return rng.uniform(SEED_LO, SEED_HI, size=count)
