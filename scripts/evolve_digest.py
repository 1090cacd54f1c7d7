"""Print SHA-256 digests of `rydgan.sim.evolve` output on fixed batches.

    python3 scripts/evolve_digest.py

Run it in two checkouts of the repository: equal digests mean that the
two versions evolve these batches bit for bit alike. The cases are
n = 4 batches shaped like those of training (B = 12, 102 and 192, at the
250 steps/us of the reduced-budget pipeline: a few parameter points, each
at the same seeds), a full-range n = 6 batch (B = 16), a full-range n = 8
batch (B = 2), an n = 6 batch (B = 4) packed on a 4 um grid, whose stiff
factors are split into substeps at the top series degree, and two small
full-range blocks, n = 2 (B = 4) and n = 4 (B = 1). BLAS runs on one
thread so that its GEMMs take one code path.
"""

import hashlib
import os
import sys

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

import rydgan  # noqa: E402

LIMITS = rydgan.DEFAULT_LIMITS


def training_batch(rng, points, seeds):
    """Specs of `points` Nelder-Mead-like parameter points x `seeds` seeds."""
    config = rydgan.TrainConfig(n_qubits=4, steps_per_us=250)
    base = rydgan.training.initial_params(config, rng)
    draws = rydgan.draw_seeds(rng, seeds)
    specs = []
    for _ in range(points):
        x, _ = base.groups(LIMITS, config.field_size)["positions"]
        params = base.with_group("positions", x + rng.uniform(-0.5, 0.5, x.size))
        specs += [rydgan.generator.build_spec(params, float(s), LIMITS)
                  for s in draws]
    return specs, config.steps


def full_range_batch(rng, n, count, spacing=None):
    """Specs of strong legal drives on atoms anywhere in the field, or with
    `spacing`, on a square grid of that pitch in um."""
    if spacing is None:
        while True:
            pos = rng.uniform(0.0, 75.0, size=(n, 2))
            d = np.linalg.norm(pos[:, None] - pos[None, :], axis=-1)
            if d[np.triu_indices(n, 1)].min() >= 4.0:
                break
    else:
        side = int(np.ceil(np.sqrt(n)))
        pos = spacing * np.array([(i % side, i // side) for i in range(n)])
    params = rydgan.GeneratorParams(
        rydgan.AtomArrangement(tuple(map(tuple, pos)),
                               tuple(rng.uniform(0.0, 1.0, n))),
        "trapezoid", 0.9 * LIMITS.omega_max, "sine_bump",
        0.9 * LIMITS.local_detuning_min, 0.5 * LIMITS.global_detuning_abs)
    return [rydgan.generator.build_spec(params, float(s), LIMITS)
            for s in rydgan.draw_seeds(rng, count)], 250


def main():
    rng = np.random.default_rng(2024)
    cases = {f"n4-train-B{p * s}": training_batch(rng, p, s)
             for p, s in ((2, 6), (17, 6), (2, 96))}
    cases["n6-full-B16"] = full_range_batch(rng, 6, 16)
    cases["n8-full-B2"] = full_range_batch(rng, 8, 2)
    cases["n6-packed-B4"] = full_range_batch(rng, 6, 4, spacing=4.0)
    cases["n2-full-B4"] = full_range_batch(rng, 2, 4)
    cases["n4-full-B1"] = full_range_batch(rng, 4, 1)
    for name, (specs, steps) in cases.items():
        out = rydgan.sim.evolve(specs, steps)
        print(f"{name:14s} {hashlib.sha256(out.tobytes()).hexdigest()}")


if __name__ == "__main__":
    main()
