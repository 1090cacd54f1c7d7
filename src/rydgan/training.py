"""Adversarial training of learners under the layered scheme.

Each training cycle walks the parameter groups of `GeneratorParams` in a
fixed order (atom positions, Rabi scalar, local-detuning scalar plus
couplings, global-detuning offset). Per stage the discriminator first
takes a block of Adam steps on real-vs-generated batches, then
Nelder-Mead minimizes the generator's adversarial loss over that group's
parameters only, inside the group's hardware box from
`GeneratorParams.groups` (the box `validate` checks), with all other
parameters frozen and a penalty on atoms closer than the minimum spacing.
Generation during training uses exact probabilities (no shot noise).
Fully deterministic for a fixed seed.
`train_learners` runs learners that share one `TrainConfig`, each under
its own master seed, in lock step: a round serves every learner's pending
runs in as few `generate_batch` calls as `MAX_RUNS` allows, because a
small batch costs per call (numpy overhead), hardly per run.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .data import _doc_field, _load_doc, atomic_write_json
from .discriminator import (AdamState, DiscriminatorNet, discriminator_forward,
                            discriminator_step, init_discriminator)
from .errors import RydganError, ValidationError, check_settings, setting
from .generator import (EXACT, FIELD_SIZE_UM, GROUPS, MAX_RUNS, MIN_SPACING_UM,
                        GeneratorParams, draw_seeds, generate_batch)
from .neldermead import nelder_mead_steps
from .pulses import PulseLimits
from .sim import AtomArrangement, C6_DEFAULT, MAX_QUBITS, STEPS_PER_US, default_steps

STAGES = tuple(GROUPS)

# penalty returned by the generator objective for geometry violations,
# large enough to dominate any reachable cross-entropy value
_GEOMETRY_PENALTY = 1e3


@dataclass(frozen=True)
class TrainConfig:
    n_qubits: int = setting(4, (">=", 1), ("<=", MAX_QUBITS))
    # Aquila runs a pulse program for at most 4 us
    duration: float = setting(1.0, (">", 0), ("<=", 4.0))
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
    min_spacing: float = setting(MIN_SPACING_UM, (">", 0))
    field_size: float = setting(FIELD_SIZE_UM, (">", 0))

    def __post_init__(self):
        check_settings(self)
        if self.disc_steps * self.disc_batch > MAX_RUNS:
            raise ValidationError(
                f"disc_steps x disc_batch = {self.disc_steps * self.disc_batch} "
                f"fakes per stage exceed {MAX_RUNS}")
        if (self.grid_side - 1) * self.min_spacing > self.field_size:
            raise ValidationError(
                f"field_size = {self.field_size} um cannot hold {self.n_qubits} atoms "
                f"min_spacing = {self.min_spacing} um apart, {self.grid_side} to a row")
        if sorted(self.stage_order) != sorted(STAGES):
            raise ValidationError(
                f"stage_order must be a permutation of {STAGES}, "
                f"got {self.stage_order}")
        object.__setattr__(self, "stage_order", tuple(self.stage_order))

    @property
    def steps(self) -> int:
        return default_steps(self.duration, self.steps_per_us)

    @property
    def grid_side(self) -> int:
        """Atoms per row of the starting grid of initial_params."""
        return math.ceil(math.sqrt(self.n_qubits))


@dataclass(frozen=True)
class Learner:
    """One trained generator: a pulse-shape pair plus its parameters."""

    rabi_shape: str
    local_shape: str
    params: GeneratorParams
    final_loss: float

    @property
    def name(self) -> str:
        return f"{self.rabi_shape}-{self.local_shape}"


@dataclass(frozen=True)
class StageLog:
    cycle: int
    stage: str
    nm_iterations: int
    nm_evaluations: int
    gen_loss: float
    disc_loss: float
    nm_stop: str = "unknown"  # "tol" or "max_iters"; "unknown" in older files

    def __post_init__(self):
        check_settings(self)


@dataclass(frozen=True)
class TrainingResult:
    """A learner and its training record; `net` is None once loaded."""

    learner: Learner
    net: DiscriminatorNet | None
    log: tuple
    config: TrainConfig
    initial_loss: float


def _mean_loss(net: DiscriminatorNet, feats) -> float:
    return float(np.mean(-np.log(discriminator_forward(net, feats))))


def initial_params(config: TrainConfig, rng: np.random.Generator) -> GeneratorParams:
    """Weakly driven starting point inside every box: jittered grid,
    mid-range couplings.

    Atoms sit on a grid of pitch max(6, min_spacing + 1) um (outside full
    blockade, within interaction range) with +-0.5 um uniform jitter, or
    min_spacing apart with the jitter a smaller field leaves; drive scalars
    start small, clipped into their boxes, so the untrained generator
    output is clearly distinguishable from data.
    """
    n, side, spacing = config.n_qubits, config.grid_side, config.min_spacing
    pitch = origin = max(6.0, spacing + 1.0)
    half = 0.5
    if side * pitch + half > config.field_size:
        # TrainConfig holds (side - 1) x min_spacing within the field
        half = min(half, (config.field_size - (side - 1) * spacing) / (2 * side))
        pitch, origin = spacing + 2.0 * half, half
    cells = [(origin + pitch * (i % side), origin + pitch * (i // side))
             for i in range(n)]
    jitter = rng.uniform(-0.5, 0.5, size=(n, 2)) * (2.0 * half)
    positions = tuple((x + jitter[i, 0], y + jitter[i, 1])
                      for i, (x, y) in enumerate(cells))
    couplings = tuple(rng.uniform(0.25, 0.75, size=n))
    params = GeneratorParams(
        arrangement=AtomArrangement(positions, couplings),
        rabi_shape="linear", rabi_param=float(rng.uniform(0.5, 2.0)),
        local_shape="linear", local_param=float(rng.uniform(-5.0, -0.5)),
        global_detuning_offset=float(rng.uniform(-1.0, 1.0)),
        duration=config.duration)
    for stage in ("rabi", "local", "global"):
        values, bounds = params.groups(config.limits, config.field_size)[stage]
        params = params.with_group(stage, np.clip(values, *np.transpose(bounds)))
    return params


def _learner(config: TrainConfig, data: np.ndarray, shapes):
    """One learner's training: yields lists of (params, seed) runs, is sent
    their exact features, returns its TrainingResult."""
    k = 1 << config.n_qubits
    rabi_shape, local_shape = shapes
    rng = np.random.default_rng(config.master_seed)
    params = replace(initial_params(config, rng),
                     rabi_shape=rabi_shape, local_shape=local_shape)
    params.validate(config.limits, config.min_spacing, config.field_size)

    net = init_discriminator(rng, in_dim=k, hidden=config.hidden)
    adam = AdamState.for_net(net)

    log = []
    initial_loss = None
    disc_loss = float("nan")
    for cycle in range(config.cycles):
        for stage in config.stage_order:
            # (a) discriminator block: real vs freshly generated batches;
            # the generator is fixed during the block, so every step's fakes
            # are asked for in one request (same draws, same order)
            draws = [(rng.integers(0, data.shape[0], size=config.disc_batch),
                      draw_seeds(rng, config.disc_batch))
                     for _ in range(config.disc_steps)]
            fakes = yield [(params, s) for _, seeds in draws for s in seeds]
            fakes = fakes.reshape(config.disc_steps, config.disc_batch, k)
            for (rows, _), step_fakes in zip(draws, fakes):
                net, adam, disc_loss = discriminator_step(
                    net, data[rows], step_fakes, adam, config.adam_lr,
                    config.adam_beta1, config.adam_beta2, config.adam_eps)
            del fakes, step_fakes   # a suspended learner holds no features

            # (b) generator block: Nelder-Mead on this stage's parameters
            stage_seeds = draw_seeds(rng, config.seed_batch)
            x0, bounds = params.groups(config.limits, config.field_size)[stage]
            steps = nelder_mead_steps(x0, bounds, config.nm_iters, config.nm_tol)
            scored = {}     # vertex bytes -> loss; a stage's objective is fixed
            try:
                points = next(steps)
                while True:
                    fresh = {x.tobytes(): x for x in points
                             if x.tobytes() not in scored}
                    # atoms closer than min_spacing get a penalty, not a run
                    trials = [params.with_group(stage, x) for x in fresh.values()]
                    gaps = [config.min_spacing - t.min_pair_distance()
                            for t in trials]
                    runs = [(t, s) for t, gap in zip(trials, gaps)
                            if not gap > 0 for s in stage_seeds]
                    feats = (iter((yield runs).reshape(-1, config.seed_batch, k))
                             if runs else None)
                    scored.update(zip(fresh, [
                        _GEOMETRY_PENALTY + 100.0 * gap if gap > 0
                        else _mean_loss(net, next(feats)) for gap in gaps]))
                    del feats
                    values = [scored[x.tobytes()] for x in points]
                    # x0 of the first simplex is the untrained params
                    if initial_loss is None:
                        initial_loss = values[0]
                    points = steps.send(values)
            except StopIteration as stop:
                result = stop.value
            # the best value never rises above that of x0, which is legal
            params = params.with_group(stage, result.x)
            log.append(StageLog(cycle, stage, result.iterations,
                                result.evaluations, result.fun, disc_loss,
                                "tol" if result.converged else "max_iters"))

    params.validate(config.limits, config.min_spacing, config.field_size)
    learner = Learner(rabi_shape, local_shape, params, final_loss=log[-1].gen_loss)
    return TrainingResult(learner, net, tuple(log), config, float(initial_loss))


def train_learners(config: TrainConfig, learners, class_data) -> list:
    """Train learners [(master_seed, (rabi_shape, local_shape)), ...] under
    config, each with its own master_seed, in lock step.

    A round serves every learner's pending runs in generate_batch calls of
    whole requests, in learner order, of at most MAX_RUNS runs each; each
    learner keeps its own RNG, so its draws do not depend on the group. Raw
    class_data (outside the window (0, 1/2^n]) is rejected.
    """
    data = np.asarray(class_data, dtype=float)
    k = 1 << config.n_qubits
    if data.ndim != 2 or data.shape[1] != k or data.shape[0] == 0:
        raise ValidationError(
            f"class_data must have shape (N >= 1, {k}), got {data.shape}")
    window_top = 1.0 / k
    if data.min() < -1e-9 or data.max() > window_top + 1e-9:
        raise ValidationError(
            "class_data must be scaled into the generator window "
            f"[0, {window_top}]; got range [{data.min():.4g}, {data.max():.4g}]")

    names = [f"{rabi}-{local}" for _, (rabi, local) in learners]
    running = [_learner(replace(config, master_seed=seed), data, shapes)
               for seed, shapes in learners]
    results, requests = [None] * len(running), {}

    def send(group, parts):
        for i, part in zip(group, parts):
            try:
                requests[i] = running[i].send(part)
            except StopIteration as stop:
                results[i] = stop.value
            except RydganError as exc:
                raise type(exc)(f"learner {names[i]}: {exc}") from exc

    send(range(len(running)), [None] * len(running))
    while requests:
        # each request fits in one call; a learner is sent its features as
        # soon as its call returns, and no features are held through the
        # next call
        pending, requests, groups = requests, {}, [[]]
        for i, request in pending.items():
            if sum(len(pending[j]) for j in groups[-1]) + len(request) > MAX_RUNS:
                groups.append([])
            groups[-1].append(i)
        for group in groups:
            runs = [(p, s, EXACT) for i in group for p, s in pending[i]]
            try:
                feats = generate_batch(runs, config.limits, config.c6, config.steps)
            except RydganError as exc:
                raise type(exc)(f"learners {', '.join(names[i] for i in group)}: "
                                f"{exc}") from exc
            ends = np.cumsum([len(pending[i]) for i in group])
            send(group, np.split(feats, ends[:-1]))
            del feats
    return results


LEARNER_FORMAT = "rydgan-learner"
LEARNER_VERSION = 2


def save_learner(result: TrainingResult, path: str):
    """Persist a training result, less its discriminator, as a JSON text
    document of learner format version 2."""
    learner, params = result.learner, result.learner.params
    doc = {
        "format": LEARNER_FORMAT,
        "version": LEARNER_VERSION,
        "rabi_shape": learner.rabi_shape,
        "local_shape": learner.local_shape,
        "params": {
            "positions_um": [list(p) for p in params.arrangement.positions],
            "couplings": list(params.arrangement.couplings),
            "rabi_param_rad_per_us": params.rabi_param,
            "local_param_rad_per_us": params.local_param,
            "global_detuning_rad_per_us": params.global_detuning_offset,
            "duration_us": params.duration,
        },
        "final_loss": learner.final_loss,
        "initial_loss": result.initial_loss,
        "config": asdict(result.config),
        "log": [asdict(row) for row in result.log],
    }
    atomic_write_json(path, doc)


def _number(value) -> float:
    """A JSON number as a float; any other JSON value is a TypeError."""
    if type(value) not in (int, float):
        raise TypeError(f"not a JSON number: {value!r}")
    return float(value)


def load_learner(path: str) -> TrainingResult:
    """A saved training result, with net None; its params must lie in its
    own config's envelope. Reads versions 1 and 2: the `discriminator`,
    `validation_fid` and `rng_seed` keys of version 1 are ignored."""
    doc = _load_doc(path, LEARNER_FORMAT, (1, LEARNER_VERSION))
    with _doc_field(path, "config"):
        cfg = dict(doc["config"])
        cfg["limits"] = PulseLimits(**cfg["limits"])
        config = TrainConfig(**cfg)
    with _doc_field(path, "params"):
        p = doc["params"]
        params = GeneratorParams(
            arrangement=AtomArrangement(
                tuple(tuple(map(_number, q)) for q in p["positions_um"]),
                tuple(map(_number, p["couplings"]))),
            rabi_shape=doc["rabi_shape"],
            rabi_param=_number(p["rabi_param_rad_per_us"]),
            local_shape=doc["local_shape"],
            local_param=_number(p["local_param_rad_per_us"]),
            global_detuning_offset=_number(p["global_detuning_rad_per_us"]),
            duration=_number(p["duration_us"]))
        if params.n_qubits != config.n_qubits:
            raise ValidationError(f"{params.n_qubits} atoms, but the file's "
                                  f"config has n_qubits = {config.n_qubits}")
        if params.duration != config.duration:
            raise ValidationError(f"duration_us = {params.duration}, but the "
                                  f"file's config has duration = {config.duration}")
        params.validate(config.limits, config.min_spacing, config.field_size)
    with _doc_field(path, "final_loss"):
        learner = Learner(doc["rabi_shape"], doc["local_shape"], params,
                          _number(doc["final_loss"]))
    with _doc_field(path, "initial_loss"):
        initial_loss = _number(doc["initial_loss"]) if "initial_loss" in doc else None
    with _doc_field(path, "log"):
        log = tuple(StageLog(**row) for row in doc.get("log", []))
    return TrainingResult(learner, None, log, config, initial_loss)
