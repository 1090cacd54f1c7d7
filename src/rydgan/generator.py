"""The quantum generator: seed + trainable parameters -> feature vector.

One generator run drives the Rabi and local-detuning pulses with the seed
injected into both (a single scalar in [0.1, 1] shared by the pair, scaled
to each drive's full range), evolves the ground state under the resulting
Hamiltonian, and maps the outcome probabilities to features with a modulo
operation so each feature can take any value in (0, 1/2^n] independently
of the others. `generate_batch`, the one generation path, evolves groups
of runs (one params, many seeds, one mode) under one `TrainConfig` as one
`sim.RunBlock`; `generate_features` is a one-run `generate_batch`.
`GeneratorParams` declares the hardware envelope once: its trainable groups
and their boxes serve both `validate` and the Nelder-Mead stages of training.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NumericError, ValidationError, check_settings, setting
from .pulses import DEFAULT_LIMITS, SHAPES, PulseLimits
from .sim import (AtomArrangement, C6_DEFAULT, MAX_QUBITS, NORM_TOL, STEPS_PER_US,
                  RunBlock, default_steps, evolve)

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
STAGES = tuple(GROUPS)


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

    @property
    def n_qubits(self) -> int:
        return len(self.arrangement.positions)

    def groups(self, limits: PulseLimits, field_size_um: float) -> dict:
        """{group: (values, bounds)} in GROUPS order, bounds one (lo, hi) per
        value: the Nelder-Mead box of a training stage and what validate checks.
        """
        n = self.n_qubits
        return {
            "positions": (np.ravel(self.arrangement.positions),
                          [(0.0, field_size_um)] * (2 * n)),
            "rabi": (np.array([self.rabi_param]), [(0.0, limits.omega_max)]),
            "local": (np.array((self.local_param,) + self.arrangement.couplings),
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
        pos = np.array(self.arrangement.positions)
        i, j = np.triu_indices(len(pos), 1)
        # hypot does not overflow where a distance's square would
        return float(np.hypot(*(pos[i] - pos[j]).T).min(initial=np.inf))

    def validate(self, limits: PulseLimits = DEFAULT_LIMITS,
                 min_spacing_um: float = MIN_SPACING_UM,
                 field_size_um: float = FIELD_SIZE_UM):
        """Raise ValidationError unless every field keeps its declared rules,
        every group lies in its box and atoms are min_spacing_um apart."""
        check_settings(self)
        for group, (values, bounds) in self.groups(limits, field_size_um).items():
            for v, (lo, hi) in zip(values, bounds):
                if not lo <= v <= hi:
                    raise ValidationError(
                        f"{GROUPS[group]} {float(v)!r} outside [{lo}, {hi}]")
        dmin = self.min_pair_distance()
        if dmin < min_spacing_um:
            raise ValidationError(f"atoms {dmin!r} um apart; minimum spacing "
                                  f"is {min_spacing_um} um")


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


@dataclass(frozen=True)
class TrainConfig:
    """A run's settings; generation reads limits, c6, duration_us and steps.
    A learner file stores the fields in this order."""

    n_qubits: int = setting(4, (">=", 1), ("<=", MAX_QUBITS))
    # Aquila runs a pulse program for at most 4 us
    duration_us: float = setting(1.0, (">", 0), ("<=", 4.0))
    # 250 steps/us resolve full-scale n = 4 features to about 3e-8 (1000 to
    # about 1e-10), and the finest reference grid used 4000; finer grids
    # only add rounding and memory
    steps_per_us: int = setting(STEPS_PER_US, (">=", 1), ("<=", 10_000))
    cycles: int = setting(3, (">=", 1))
    nm_iters: int = setting(60, (">=", 1))
    nm_tol: float = setting(1e-6, (">=", 0))
    # a stage asks for disc_steps x disc_batch fakes at once, at most MAX_RUNS
    disc_steps: int = setting(30, (">=", 1), ("<=", MAX_RUNS))
    # a step holds disc_batch x hidden activations per layer: 32 MiB at most
    disc_batch: int = setting(32, (">=", 1), ("<=", 4096))
    # a Nelder-Mead round asks for up to 2 n_qubits + 1 vertices x seed_batch runs
    seed_batch: int = setting(16, (">=", 1), ("<=", MAX_RUNS // (2 * MAX_QUBITS + 1)))
    adam_lr: float = setting(1e-3, (">", 0))
    adam_beta1: float = setting(0.9, (">=", 0), ("<", 1))
    adam_beta2: float = setting(0.999, (">=", 0), ("<", 1))
    adam_eps: float = setting(1e-8, (">", 0))
    # hidden^2 middle-layer weights: 8 MiB at 1024, and Adam keeps two more
    hidden: int = setting(64, (">=", 1), ("<=", 1024))
    stage_order: tuple = STAGES
    master_seed: int = setting(0, (">=", 0))
    limits: PulseLimits = field(default_factory=PulseLimits)
    c6: float = setting(C6_DEFAULT, (">", 0))
    min_spacing_um: float = setting(MIN_SPACING_UM, (">", 0))
    field_size_um: float = setting(FIELD_SIZE_UM, (">", 0))

    def __post_init__(self):
        check_settings(self)
        if self.disc_steps * self.disc_batch > MAX_RUNS:
            raise ValidationError(
                f"disc_steps x disc_batch = {self.disc_steps * self.disc_batch} "
                f"fakes per stage exceed {MAX_RUNS}")
        if (self.grid_side - 1) * self.min_spacing_um > self.field_size_um:
            raise ValidationError(
                f"field_size_um = {self.field_size_um} cannot hold {self.n_qubits} atoms "
                f"min_spacing_um = {self.min_spacing_um} apart, {self.grid_side} to a row")
        if sorted(self.stage_order) != sorted(STAGES):
            raise ValidationError(
                f"stage_order must be a permutation of {STAGES}, "
                f"got {self.stage_order}")
        object.__setattr__(self, "stage_order", tuple(self.stage_order))

    @property
    def steps(self) -> int:
        return int(default_steps(self.duration_us, self.steps_per_us))

    @property
    def grid_side(self) -> int:
        """Atoms per row of the starting grid of initial_params."""
        return math.ceil(math.sqrt(self.n_qubits))


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
        raise ValidationError(f"negative probability: min {float(p.min())!r}")
    sums = p.reshape(-1, dim).sum(axis=1)
    bad = np.flatnonzero(np.abs(sums - 1.0) > 1e-6)
    if bad.size:
        raise ValidationError(f"probabilities of row {bad[0]} sum to "
                              f"{float(sums[bad[0]])!r}, expected 1")
    width = 1.0 / dim
    r = np.mod(p, width)
    return np.where(r > 0.0, r, np.where(p > 0.0, width, 0.0))


def perturb_params(positions, model: ErrorModel):
    """(positions, global shift, local shift, Rabi gain): one draw of the
    hardware-error model for a run of atoms at positions (n, 2).

    Draw order (fixed for reproducibility): global detuning shift, local
    waveform shift, Rabi gain factor, then x/y per atom. The displaced
    atoms deliberately skip the geometry rules of `GeneratorParams.validate`:
    physical noise may push positions slightly past nominal tolerances.
    """
    rng = np.random.default_rng(model.rng_seed)
    d_global = rng.normal(0.0, model.detuning_sigma)
    d_local = rng.normal(0.0, model.detuning_sigma)
    gain = rng.normal(1.0, model.rabi_rel_sigma)
    offsets = rng.normal(0.0, model.position_sigma, size=np.shape(positions))
    return positions + offsets, d_global, d_local, gain


def generate_features(params: GeneratorParams, seed: float, mode=EXACT,
                      limits: PulseLimits = DEFAULT_LIMITS, c6: float = C6_DEFAULT,
                      steps: int | None = None) -> np.ndarray:
    """Features (2^n,) of one seed: a one-run `generate_batch`, 1 us long.

    Deterministic for fixed (params, seed, mode); the stored params are
    never mutated, a noisy run perturbs its own copy of the Hamiltonian.
    """
    run = TrainConfig(limits=limits, c6=c6,
                      steps_per_us=STEPS_PER_US if steps is None else steps)
    return generate_batch([(params, seed, mode)], run)[0]


def _block(groups, run: TrainConfig) -> tuple[RunBlock, np.ndarray]:
    """The RunBlock of (params, seeds, mode) groups under run's settings and
    the groups' row bounds (G + 1,), a noisy group's one draw in all its rows;
    a seed is both drives' fraction of omega_max and local_detuning_min."""
    params = [p for p, _, _ in groups]
    atoms = np.array([len(p.arrangement.positions) for p in params])
    bad = np.flatnonzero(atoms != atoms[0])
    if bad.size:
        raise ValidationError(f"group {bad[0]}: positions hold {atoms[bad[0]]} atoms, "
                              f"group 0's {atoms[0]}; one call has one qubit count")
    seeds = [np.asarray(s, float) for _, s, _ in groups]
    for g, s in enumerate(seeds):
        if s.ndim > 1:
            raise ValidationError(f"group {g}: seeds of shape {s.shape}, not 0-d or 1-D")
    sizes = [s.size for s in seeds]
    rows = np.repeat(np.arange(len(groups)), sizes)
    seeds = np.concatenate(seeds, axis=None)
    bad = np.flatnonzero(~((SEED_LO - 1e-12 <= seeds) & (seeds <= SEED_HI + 1e-12)))
    if bad.size:
        raise ValidationError(f"run {bad[0]}: seed {seeds[bad[0]]} outside legal "
                              f"range [{SEED_LO}, {SEED_HI}]")
    positions = np.fromiter((x for p in params for xy in p.arrangement.positions
                             for x in xy), float).reshape(len(params), -1, 2)
    offset = np.array([p.global_detuning_offset for p in params])
    shift, gain = np.zeros(len(groups)), np.ones(len(groups))  # a noisy group's draw
    for g, (_, _, mode) in enumerate(groups):
        if isinstance(mode, NoisyMode):
            positions[g], d_global, shift[g], gain[g] = perturb_params(
                positions[g], mode.model)
            offset[g] += d_global
        elif not isinstance(mode, (ExactMode, ShotsMode)):
            raise ValidationError(f"group {g}: unknown generation mode {mode!r}")
    couplings = np.array([p.arrangement.couplings for p in params])
    shapes = np.array([(p.rabi_shape, p.local_shape) for p in params])
    drives = np.array([(p.rabi_param, p.local_param) for p in params])
    return RunBlock(positions[rows], couplings[rows], offset[rows], run.duration_us,
                    shapes[rows], drives[rows], seeds[:, None],
                    (run.limits.omega_max, run.limits.local_detuning_min), run.c6,
                    gain[rows], shift[rows]), np.cumsum([0] + sizes)


def generate_batch(groups, run: TrainConfig = TrainConfig()) -> np.ndarray:
    """Features (B, 2^n) of (params, seeds, mode) groups, evolved as one batch,
    a row per seed (a float, or a 1-D array or list), groups in call order.

    Probabilities are p = |a|^2 of the final amplitudes, or for a ShotsMode
    group the frequencies of `shots` measurements per row, drawn in row order
    from one RNG; a NoisyMode group is one draw of its model. All groups
    share one qubit count; batching is what makes generation cheap."""
    groups = list(groups)
    if not groups:
        raise ValidationError("generate_batch needs at least one group")
    block, ends = _block(groups, run)
    probs = np.abs(evolve(block, run.steps)) ** 2
    norms = probs.sum(axis=1)
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= NORM_TOL))
    if bad.size:
        raise NumericError(f"generator run {bad[0]} lost its norm: "
                           f"sum |a_k|^2 = {float(norms[bad[0]])!r}", run=int(bad[0]))
    for (_, _, mode), lo, hi in zip(groups, ends, ends[1:]):
        if isinstance(mode, ShotsMode):
            rng = np.random.default_rng(mode.rng_seed)
            for p in probs[lo:hi]:
                p[:] = rng.multinomial(mode.shots, p / p.sum()) / mode.shots
    return modulo_encode(probs)


def draw_seeds(rng: np.random.Generator, count: int) -> np.ndarray:
    """Sample generator input seeds uniformly from the legal range."""
    return rng.uniform(SEED_LO, SEED_HI, size=count)
