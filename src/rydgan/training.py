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
`train_learners` runs learners that share the run's `TrainConfig`, each
under its own master seed, in lock step: a round serves every learner's
pending runs in as few `generate_batch` calls as `MAX_RUNS` allows, each
evolved under that config; a small batch costs per call, hardly per run.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .data import _doc_field, _load_doc, atomic_write_json
from .discriminator import (AdamState, DiscriminatorNet, discriminator_forward,
                            discriminator_step, init_discriminator)
from .errors import DataError, RydganError, ValidationError, check_settings
from .generator import (EXACT, MAX_RUNS, STAGES, TRAINABLE_SHAPES, GeneratorParams,
                        TrainConfig, draw_seeds, generate_batch)
from .neldermead import nelder_mead_steps
from .pulses import PulseLimits
from .sim import AtomArrangement

_COUNT = {"bounds": ((">=", 0),)}     # a log row's cycle and Nelder-Mead counts

# penalty returned by the generator objective for geometry violations,
# large enough to dominate any reachable cross-entropy value
_GEOMETRY_PENALTY = 1e3


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
    cycle: int = field(metadata=_COUNT)
    stage: str = field(metadata={"choices": STAGES})
    nm_iterations: int = field(metadata=_COUNT)
    nm_evaluations: int = field(metadata=_COUNT)
    gen_loss: float
    disc_loss: float
    nm_stop: str = field(metadata={"choices": ("tol", "max_iters")})

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

    Atoms sit on a grid of pitch max(6, min_spacing_um + 1) um (outside full
    blockade, within interaction range) with +-0.5 um uniform jitter, or
    min_spacing_um apart with the jitter a smaller field leaves; drive scalars
    start small, clipped into their boxes, so the untrained generator
    output is clearly distinguishable from data.
    """
    n, side, spacing = config.n_qubits, config.grid_side, config.min_spacing_um
    pitch = origin = max(6.0, spacing + 1.0)
    half = 0.5
    if side * pitch + half > config.field_size_um:
        # TrainConfig holds (side - 1) x min_spacing_um within the field
        half = min(half, (config.field_size_um - (side - 1) * spacing) / (2 * side))
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
        global_detuning_offset=float(rng.uniform(-1.0, 1.0)))
    for stage in ("rabi", "local", "global"):
        values, bounds = params.groups(config.limits, config.field_size_um)[stage]
        params = params.with_group(stage, np.clip(values, *np.transpose(bounds)))
    return params


def _learner(config: TrainConfig, data: np.ndarray, shapes):
    """One learner's training: yields lists of (params, seeds, EXACT) groups,
    is sent their features, returns its TrainingResult."""
    k = 1 << config.n_qubits
    rabi_shape, local_shape = shapes
    rng = np.random.default_rng(config.master_seed)
    params = replace(initial_params(config, rng),
                     rabi_shape=rabi_shape, local_shape=local_shape)
    params.validate(config.limits, config.min_spacing_um, config.field_size_um)

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
            picks, seeds = zip(*[
                (rng.integers(0, data.shape[0], size=config.disc_batch),
                 draw_seeds(rng, config.disc_batch)) for _ in range(config.disc_steps)])
            fakes = yield [(params, np.concatenate(seeds), EXACT)]
            fakes = fakes.reshape(config.disc_steps, config.disc_batch, k)
            for rows, step_fakes in zip(picks, fakes):
                net, adam, disc_loss = discriminator_step(
                    net, data[rows], step_fakes, adam, config.adam_lr,
                    config.adam_beta1, config.adam_beta2, config.adam_eps)
            del fakes, step_fakes   # a suspended learner holds no features

            # (b) generator block: Nelder-Mead on this stage's parameters
            stage_seeds = draw_seeds(rng, config.seed_batch)
            x0, bounds = params.groups(config.limits, config.field_size_um)[stage]
            steps = nelder_mead_steps(x0, bounds, config.nm_iters, config.nm_tol)
            scored = {}     # vertex bytes -> loss; a stage's objective is fixed
            try:
                points = next(steps)
                while True:
                    fresh = {x.tobytes(): x for x in points
                             if x.tobytes() not in scored}
                    # atoms closer than min_spacing_um get a penalty, not a run
                    trials = [params.with_group(stage, x) for x in fresh.values()]
                    gaps = [config.min_spacing_um - t.min_pair_distance()
                            for t in trials]
                    legal = [(t, stage_seeds, EXACT) for t, gap in zip(trials, gaps)
                             if not gap > 0]
                    feats = (iter((yield legal).reshape(-1, config.seed_batch, k))
                             if legal else None)
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

    params.validate(config.limits, config.min_spacing_um, config.field_size_um)
    learner = Learner(rabi_shape, local_shape, params, final_loss=log[-1].gen_loss)
    return TrainingResult(learner, net, tuple(log), config, float(initial_loss))


def train_learners(config: TrainConfig, learners, class_data) -> list:
    """Train learners [(master_seed, (rabi_shape, local_shape)), ...] under
    config, each with its own master_seed, in lock step.

    A round serves every learner's pending groups in generate_batch calls of
    whole requests, in learner order, of at most MAX_RUNS runs each; each
    learner keeps its own RNG, so its draws do not depend on the call. Raw
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

    def send(call, parts):
        for i, part in zip(call, parts):
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
        pending, requests, calls = requests, {}, [[]]
        runs = {i: sum(len(s) for _, s, _ in request) for i, request in pending.items()}
        for i in pending:
            if sum(runs[j] for j in calls[-1]) + runs[i] > MAX_RUNS:
                calls.append([])
            calls[-1].append(i)
        for call in calls:
            try:
                feats = generate_batch([g for i in call for g in pending[i]], config)
            except RydganError as exc:
                raise type(exc)(f"learners {', '.join(names[i] for i in call)}: "
                                f"{exc}") from exc
            send(call, np.split(feats, np.cumsum([runs[i] for i in call])[:-1]))
            del feats
    return results


LEARNER_FORMAT = "rydgan-learner"
LEARNER_VERSION = 3


def save_learner(result: TrainingResult, path: str):
    """Persist a training result, less its discriminator, as a JSON text
    document of learner format version 3."""
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


def _every_field(cls, values: dict):
    """cls(**values); a file holds every field, so none defaults."""
    return cls(**{f.name: values[f.name] for f in fields(cls)} | values)


def load_learner(path: str, run: TrainConfig | None = None) -> TrainingResult:
    """A saved training result, with net None; its params must lie in its own
    config's envelope, and the settings that define its generator must be
    those of `run`, if given. Reads version 3 only; a file of another
    version asks for train to be re-run."""
    doc = _load_doc(path, LEARNER_FORMAT, LEARNER_VERSION, "; re-run train")
    with _doc_field(path, "config"):
        cfg = dict(doc["config"])
        cfg["limits"] = _every_field(PulseLimits, cfg["limits"])
        config = _every_field(TrainConfig, cfg)
    for key in ("rabi_shape", "local_shape"):
        with _doc_field(path, key):
            if doc[key] not in TRAINABLE_SHAPES:
                raise ValueError(f"not a trainable shape: {doc[key]!r}")
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
            global_detuning_offset=_number(p["global_detuning_rad_per_us"]))
        if params.n_qubits != config.n_qubits:
            raise ValidationError(f"{params.n_qubits} atoms, but the file's "
                                  f"config has n_qubits = {config.n_qubits}")
        params.validate(config.limits, config.min_spacing_um, config.field_size_um)
    with _doc_field(path, "final_loss"):
        learner = Learner(doc["rabi_shape"], doc["local_shape"], params,
                          _number(doc["final_loss"]))
    with _doc_field(path, "initial_loss"):
        initial_loss = _number(doc["initial_loss"])
    with _doc_field(path, "log"):
        log = tuple(StageLog(**row) for row in doc["log"])
    for name in ("n_qubits", "duration_us", "limits", "c6") if run else ():
        theirs, ours = getattr(config, name), getattr(run, name)
        if theirs != ours:
            raise DataError(
                f"{path}: field config.{name}: a learner trained with "
                f"{name} = {theirs}, but this run has {name} = {ours}")
    return TrainingResult(learner, None, log, config, initial_loss)
