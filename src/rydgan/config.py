"""Run configuration: INI-style `key = value` files with per-module sections.

Each INI key is one `RunConfig` field, declared once with its section in
the field metadata; parsing (by field type), rendering and the
unknown-section/unknown-key errors are all derived from those fields.
Each rule (bounds or choices) is declared beside its default on the field
of the class that owns the key, and `errors.check_settings` checks them
all under the key's name: a key of `TrainConfig`, `PulseLimits`,
`ErrorModel` or `ShotsMode` takes its default and bounds from that class.
A config file overrides any subset of the defaults, CLI flags override
the file, and the effective configuration is echoed into the output
directory of every command so runs stay auditable and reproducible.
"""

import configparser
import io
from dataclasses import dataclass, fields

from .data import PIXELS
from .errors import ValidationError, check_settings, setting
from .generator import MAX_RUNS, TRAINABLE_SHAPES, ErrorModel, ShotsMode, TrainConfig
from .pulses import PulseLimits

MODES = ("ideal", "noisy", "shots")
_MAX_IMAGES = MAX_RUNS // len(TRAINABLE_SHAPES) ** 2   # one run per shape pair


def _key(section: str, default, *bounds, choices=()):
    """One INI key: a RunConfig field that knows its section and its rules."""
    return setting(default, *bounds, choices=choices, section=section)


def _owned(section: str, owner, name: str):
    """The INI key of owner's field name, with that field's default and bounds."""
    f = owner.__dataclass_fields__[name]
    return _key(section, f.default, *f.metadata.get("bounds", ()))


@dataclass
class RunConfig:
    images: str = _key("data", "")
    labels: str = _key("data", "")
    digit_class: int = _key("data", 0, (">=", 0), ("<=", 9))
    val_fraction: float = _key("data", 0.1, (">", 0), ("<", 1))
    split_seed: int = _key("data", 20240, (">=", 0))
    n_qubits: int = _owned("quantum", TrainConfig, "n_qubits")
    c6: float = _owned("quantum", TrainConfig, "c6")
    steps_per_us: int = _owned("quantum", TrainConfig, "steps_per_us")
    min_spacing_um: float = _owned("quantum", TrainConfig, "min_spacing_um")
    field_size_um: float = _owned("quantum", TrainConfig, "field_size_um")
    omega_max: float = _owned("pulses", PulseLimits, "omega_max")
    local_detuning_min: float = _owned("pulses", PulseLimits, "local_detuning_min")
    global_detuning_abs: float = _owned("pulses", PulseLimits, "global_detuning_abs")
    # each shape pair names one learner file
    rabi_shapes: tuple = _key("pulses", ("linear", "triangle"), choices=TRAINABLE_SHAPES)
    local_shapes: tuple = _key("pulses", ("triangle", "gaussian"), choices=TRAINABLE_SHAPES)
    duration_us: float = _owned("training", TrainConfig, "duration_us")
    cycles: int = _owned("training", TrainConfig, "cycles")
    nm_iters: int = _owned("training", TrainConfig, "nm_iters")
    nm_tol: float = _owned("training", TrainConfig, "nm_tol")
    disc_steps: int = _owned("training", TrainConfig, "disc_steps")
    disc_batch: int = _owned("training", TrainConfig, "disc_batch")
    seed_batch: int = _owned("training", TrainConfig, "seed_batch")
    adam_lr: float = _owned("training", TrainConfig, "adam_lr")
    adam_beta1: float = _owned("training", TrainConfig, "adam_beta1")
    adam_beta2: float = _owned("training", TrainConfig, "adam_beta2")
    adam_eps: float = _owned("training", TrainConfig, "adam_eps")
    hidden: int = _owned("training", TrainConfig, "hidden")
    stage_order: tuple = _owned("training", TrainConfig, "stage_order")
    detuning_sigma: float = _owned("error_model", ErrorModel, "detuning_sigma")
    rabi_rel_sigma: float = _owned("error_model", ErrorModel, "rabi_rel_sigma")
    position_sigma: float = _owned("error_model", ErrorModel, "position_sigma")
    shots: int = _owned("sampling", ShotsMode, "shots")
    # an image batch (fid_batch, count) needs 2 images for its FID covariance,
    # and is asked for at once from every learner or member (up to 25)
    fid_batch: int = _key("ensemble", 100, (">=", 2), ("<=", _MAX_IMAGES))
    master_seed: int = _owned("run", TrainConfig, "master_seed")
    out_dir: str = _key("run", "out")
    # accepted for compatibility; learners train in lock step in one
    # thread, so the value does not change speed or output
    jobs: int = _key("run", 1, (">=", 1))
    count: int = _key("run", 16, (">=", 2), ("<=", _MAX_IMAGES))
    mode: str = _key("run", "ideal", choices=MODES)

    def validate(self):
        """Raise ValidationError on the first invalid field; runs before any work.

        Every key's declared rules are checked first, naming the key; then
        TrainConfig checks the rules that compare its fields.
        """
        check_settings(self)
        self.train_config()
        if self.k > PIXELS:
            raise ValidationError(f"2^n_qubits = {self.k} PCA components "
                                  f"exceed the {PIXELS} pixels per image")

    def _shared(self, owner) -> dict:
        """Values of the fields this config shares by name with owner."""
        names = {f.name for f in fields(self)}
        return {f.name: getattr(self, f.name) for f in fields(owner)
                if f.name in names}

    def limits(self) -> PulseLimits:
        return PulseLimits(**self._shared(PulseLimits))

    def error_model(self, rng_seed: int = 0) -> ErrorModel:
        return ErrorModel(**self._shared(ErrorModel), rng_seed=rng_seed)

    def train_config(self) -> TrainConfig:
        return TrainConfig(**self._shared(TrainConfig), limits=self.limits())

    @property
    def k(self) -> int:
        return 1 << self.n_qubits


def _sections() -> dict:
    """{section: {key: field}} in declaration order."""
    sections = {}
    for f in fields(RunConfig):
        sections.setdefault(f.metadata["section"], {})[f.name] = f
    return sections


def _parse_value(f, raw: str):
    raw = raw.strip()
    if f.type is tuple:
        return tuple(x.strip() for x in raw.split(",") if x.strip())
    try:
        return f.type(raw)
    except ValueError as exc:
        raise ValidationError(f"config key {f.name}: {exc}") from exc


def load_config(path: str | None, overrides: dict | None = None) -> RunConfig:
    """Defaults, overlaid by the config file, overlaid by CLI overrides."""
    config = RunConfig()
    if path is not None:
        parser = configparser.ConfigParser()
        try:
            read = parser.read(path)
            given = {section: parser.items(section) for section in parser.sections()}
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ValidationError(f"malformed config file {path}: {exc}") from exc
        if not read:
            raise ValidationError(f"config file not found or unreadable: {path}")
        sections = _sections()
        for section, items in given.items():
            if section not in sections:
                raise ValidationError(
                    f"unknown config section [{section}]; valid sections: "
                    f"{', '.join(sorted(sections))}")
            keys = sections[section]
            for key, raw in items:
                if key not in keys:
                    raise ValidationError(
                        f"unknown key {key!r} in section [{section}]; valid keys: "
                        f"{', '.join(keys)}")
                setattr(config, key, _parse_value(keys[key], raw))
    for key, value in (overrides or {}).items():
        if value is not None:
            setattr(config, key, value)
    return config


def render_config(config: RunConfig) -> str:
    """Effective configuration as deterministic INI text."""
    out = io.StringIO()
    for section, keys in _sections().items():
        out.write(f"[{section}]\n")
        for key in keys:
            value = getattr(config, key)
            if isinstance(value, tuple):
                value = ",".join(value)
            out.write(f"{key} = {value}\n")
        out.write("\n")
    return out.getvalue()
