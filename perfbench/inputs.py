"""Workload inputs as a pure function of the benchmark seed.

Every file the program reads is written here: a synthetic MNIST-layout IDX
pair, the INI config and, for the generation workloads, the ensemble
members (through the public learner and manifest formats). Paths inside the
files are relative to the input directory, so the bytes, and therefore the
hash, depend on the seed alone.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct

import numpy as np

# file names, relative to the directory the commands run in
IMAGES = "train-images-idx3-ubyte"
LABELS = "train-labels-idx1-ubyte"
CONFIG = "run.ini"
OUT = "out"
DIGIT_CLASS = 0
# 320 class images: after the 10% validation split there are 288 training
# images, enough for the k = 256 PCA components of n = 8
CLASS_IMAGES = 320
OTHER_IMAGES = 40
FIELD_UM = 75.0
MIN_SPACING_UM = 4.0
LEGAL_SHAPES = ("linear", "triangle", "trapezoid", "gaussian", "sine_bump")
# the acceptance smoke budget, shared by every workload
STEPS_PER_US = 250
SMOKE_TRAINING = {"cycles": 1, "nm_iters": 10, "disc_steps": 8,
                  "disc_batch": 12, "seed_batch": 6, "hidden": 32}
FID_BATCH = 100


def _ring_images(rng: np.random.Generator, count: int) -> np.ndarray:
    """(count, 28, 28) uint8 tilted elliptic rings with per-image jitter."""
    yy, xx = np.mgrid[0:28, 0:28].astype(float)
    out = np.empty((count, 28, 28), dtype=np.uint8)
    for i in range(count):
        cx, cy = rng.uniform(10.0, 18.0, 2)
        rx, ry = rng.uniform(4.0, 9.0, 2)
        tilt = rng.uniform(-0.6, 0.6)
        u = (xx - cx) * np.cos(tilt) + (yy - cy) * np.sin(tilt)
        v = (yy - cy) * np.cos(tilt) - (xx - cx) * np.sin(tilt)
        radius = np.sqrt((u / rx) ** 2 + (v / ry) ** 2)
        ring = np.exp(-((radius - 1.0) * rng.uniform(3.0, 6.0)) ** 2)
        ring += rng.uniform(0.0, 0.05, size=ring.shape)
        out[i] = np.rint(255.0 * ring / ring.max())
    return out


def idx_bytes(images: np.ndarray, labels: np.ndarray) -> tuple[bytes, bytes]:
    """The IDX3 image file and IDX1 label file for a uint8 image stack."""
    n = len(images)
    image_file = struct.pack(">IIII", 2051, n, 28, 28) + images.tobytes()
    label_file = struct.pack(">II", 2049, n) + labels.astype(np.uint8).tobytes()
    return image_file, label_file


def _ini(sections: dict) -> str:
    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in keys.items())
        lines.append("")
    return "\n".join(lines)


def _full_range_params(rng: np.random.Generator, n: int, shapes, rydgan):
    """Legal generator parameters with strong drives anywhere in the field."""
    limits = rydgan.DEFAULT_LIMITS
    while True:
        pos = rng.uniform(0.0, FIELD_UM, size=(n, 2))
        d = np.linalg.norm(pos[:, None] - pos[None, :], axis=-1)
        if d[np.triu_indices(n, 1)].min() >= MIN_SPACING_UM:
            break
    params = rydgan.GeneratorParams(
        arrangement=rydgan.AtomArrangement(tuple(map(tuple, pos)),
                                           tuple(rng.uniform(0.0, 1.0, n))),
        rabi_shape=shapes[0],
        rabi_param=float(rng.uniform(0.5, 1.0) * limits.omega_max),
        local_shape=shapes[1],
        local_param=float(rng.uniform(0.5, 1.0) * limits.local_detuning_min),
        global_detuning_offset=float(rng.uniform(-1.0, 1.0)
                                     * limits.global_detuning_abs))
    params.validate(limits, MIN_SPACING_UM, FIELD_UM)
    return params


def _write_members(root: str, rng: np.random.Generator, workload, master_seed,
                   rydgan) -> list:
    """Learner files plus an ensemble manifest naming all of them."""
    pairs = [(r, l) for r in LEGAL_SHAPES for l in LEGAL_SHAPES]
    picks = rng.choice(len(pairs), size=workload.members, replace=False)
    learner_dir = os.path.join(root, OUT, "learners", f"class{DIGIT_CLASS}")
    os.makedirs(learner_dir, exist_ok=True)
    config = rydgan.TrainConfig(n_qubits=workload.n_qubits,
                                steps_per_us=STEPS_PER_US,
                                master_seed=master_seed, **SMOKE_TRAINING)
    files = []
    for pick in picks:
        shapes = pairs[int(pick)]
        params = _full_range_params(rng, workload.n_qubits, shapes, rydgan)
        learner = rydgan.Learner(shapes[0], shapes[1], params,
                                 final_loss=float("nan"))
        net = rydgan.init_discriminator(rng, in_dim=1 << workload.n_qubits,
                                        hidden=config.hidden)
        result = rydgan.TrainingResult(learner, net, (), config, float("nan"))
        name = f"{learner.name}.json"
        rydgan.save_learner(result, os.path.join(learner_dir, name))
        files.append(os.path.join(OUT, "learners", f"class{DIGIT_CLASS}", name))
    manifest = {
        "format": rydgan.cli.ENSEMBLE_FORMAT,
        "version": rydgan.cli.ENSEMBLE_VERSION,
        "class": DIGIT_CLASS,
        "member_files": [os.path.basename(f) for f in files],
        "member_names": [os.path.basename(f)[:-5] for f in files],
        "validation_fid": None,
        "fid_trail": [],
        "singleton_fids": [],
        "master_seed": master_seed,
        "fid_batch": FID_BATCH,
    }
    path = os.path.join(OUT, f"ensemble_class{DIGIT_CLASS}.json")
    with open(os.path.join(root, path), "w", encoding="utf-8") as f:
        f.write(json.dumps(manifest, indent=1))
    return files + [path]


def write_inputs(root: str, workload, seed: int, rydgan) -> str:
    """Write every input file of `workload` (a workloads.Workload) for `seed`.

    Returns the SHA-256 over the sorted (relative path, bytes) pairs; the
    same seed gives the same hash.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x72796467]))
    master_seed = int(rng.integers(0, 2**31 - 1))
    images = np.concatenate([_ring_images(rng, CLASS_IMAGES),
                             _ring_images(rng, OTHER_IMAGES)])
    labels = np.array([DIGIT_CLASS] * CLASS_IMAGES + [1] * OTHER_IMAGES)
    order = rng.permutation(len(labels))
    image_file, label_file = idx_bytes(images[order], labels[order])
    os.makedirs(root, exist_ok=True)
    for name, payload in ((IMAGES, image_file), (LABELS, label_file)):
        with open(os.path.join(root, name), "wb") as f:
            f.write(payload)
    config = {
        "data": {"images": IMAGES, "labels": LABELS, "digit_class": DIGIT_CLASS},
        "quantum": {"n_qubits": workload.n_qubits,
                    "steps_per_us": STEPS_PER_US},
        "pulses": {"rabi_shapes": "linear", "local_shapes": "triangle,gaussian"},
        "training": SMOKE_TRAINING,
        "ensemble": {"fid_batch": FID_BATCH},
        "run": {"master_seed": master_seed, "out_dir": OUT, "jobs": 1,
                "count": workload.count, "mode": workload.mode},
    }
    with open(os.path.join(root, CONFIG), "w", encoding="utf-8") as f:
        f.write(_ini(config))
    files = [IMAGES, LABELS, CONFIG]
    if workload.members:
        files += _write_members(root, rng, workload, master_seed, rydgan)
    digest = hashlib.sha256()
    for name in sorted(files):
        digest.update(name.encode())
        with open(os.path.join(root, name), "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()
