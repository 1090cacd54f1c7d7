"""Print SHA-256 digests of `rydgan.sim.evolve` output on fixed batches.

    python3 scripts/evolve_digest.py

Run it in two checkouts of the repository: equal digests mean that the
two versions evolve these batches bit for bit alike. tests/pinned_digests.json
holds the digests per numpy version, BLAS and machine type, and
tests/test_scripts.py compares the script's output with them. The cases are
n = 4 batches shaped like those of training (B = 12, 102 and 192, at the
250 steps/us of the reduced-budget pipeline: a few parameter points, each
at the same seeds), a full-range n = 6 batch (B = 16), a full-range n = 8
batch (B = 2), an n = 6 batch (B = 4) packed on a 4 um grid, whose stiff
factors are split into substeps at the top series degree, and two small
full-range blocks, n = 2 (B = 4) and n = 4 (B = 1). A last case digests
the features of a noisy `generate_batch` call at n = 4 (B = 12, each run
its own draw of the hardware-error model). The tenth case is a full-range
n = 4 batch (B = 8) under `[pulses] omega_max = 31.6` and
`local_detuning_min = -250`, twice the default limits. The eleventh is an
n = 5 batch on the dense path (B = 25): every trainable (Rabi, local) shape
pair once, at durations of 1 and 0.6 us in turn, so the shorter runs' grids
are padded. The twelfth digests the features of one `generate_batch` call
of one exact group, 8 seeds of one parameter point, at n = 4 under a run
of 0.6 us pulses at 200 steps/us.
The thirteenth is an n = 2 batch (B = 2) of two atoms 1e60 um apart, too
far for C6 / r^6 to be a float, so they do not interact.
Each new case comes last, so that the other cases' draws stay as they
were. BLAS runs on one thread so that its GEMMs take one code path.
"""

import dataclasses
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
WIDE_LIMITS = rydgan.pulses.PulseLimits(omega_max=31.6,
                                        local_detuning_min=-250.0)


def exact_block(params, seeds, run):
    """The RunBlock of exact runs under run: one group of the seeds per
    parameter point of params."""
    return rydgan.generator._block([(p, seeds, rydgan.EXACT) for p in params], run)[0]


def training_batch(rng, points, seeds):
    """Runs of `points` Nelder-Mead-like parameter points x `seeds` seeds."""
    config = rydgan.TrainConfig(n_qubits=4, steps_per_us=250)
    base = rydgan.training.initial_params(config, rng)
    draws = rydgan.draw_seeds(rng, seeds)
    params = []
    for _ in range(points):
        x, _ = base.groups(LIMITS, config.field_size_um)["positions"]
        params.append(base.with_group("positions",
                                      x + rng.uniform(-0.5, 0.5, x.size)))
    return exact_block(params, draws, config), config.steps


def full_range_params(rng, n, spacing=None, limits=LIMITS):
    """Strong legal drives under `limits` on atoms anywhere in the field, or
    with `spacing`, on a square grid of that pitch in um."""
    if spacing is None:
        while True:
            pos = rng.uniform(0.0, 75.0, size=(n, 2))
            d = np.linalg.norm(pos[:, None] - pos[None, :], axis=-1)
            if d[np.triu_indices(n, 1)].min() >= 4.0:
                break
    else:
        side = int(np.ceil(np.sqrt(n)))
        pos = spacing * np.array([(i % side, i // side) for i in range(n)])
    return rydgan.GeneratorParams(
        rydgan.AtomArrangement(tuple(map(tuple, pos)),
                               tuple(rng.uniform(0.0, 1.0, n))),
        "trapezoid", 0.9 * limits.omega_max, "sine_bump",
        0.9 * limits.local_detuning_min, 0.5 * limits.global_detuning_abs)


def full_range_batch(rng, n, count, spacing=None, limits=LIMITS):
    """Runs of `count` seeds of full_range_params."""
    params = full_range_params(rng, n, spacing, limits)
    return exact_block([params], rydgan.draw_seeds(rng, count),
                       rydgan.TrainConfig(limits=limits)), 250


def shape_pairs_batch(rng, n):
    """Runs of every trainable (Rabi, local) shape pair on one arrangement,
    one seed each, at durations of 1 and 0.6 us in turn."""
    params = full_range_params(rng, n)
    shapes = rydgan.generator.TRAINABLE_SHAPES
    pairs = [(a, b) for a in shapes for b in shapes]
    block, _ = rydgan.generator._block(
        [(dataclasses.replace(params, rabi_shape=a, local_shape=b), float(seed),
          rydgan.EXACT)
         for (a, b), seed in zip(pairs, rydgan.draw_seeds(rng, len(pairs)))],
        rydgan.TrainConfig())
    durations = [(1.0, 0.6)[i % 2] for i in range(len(pairs))]
    return dataclasses.replace(block, duration=durations), 250


def noisy_runs(rng, n, count):
    """One-run (params, seed, mode) groups of full_range_params, each noisy
    with its own error-model seed."""
    params = full_range_params(rng, n)
    return [(params, float(s), rydgan.NoisyMode(rydgan.ErrorModel(rng_seed=i)))
            for i, s in enumerate(rydgan.draw_seeds(rng, count))]


def digest(name, out):
    print(f"{name:14s} {hashlib.sha256(out.tobytes()).hexdigest()}")


def main():
    rng = np.random.default_rng(2024)
    cases = {f"n4-train-B{p * s}": training_batch(rng, p, s)
             for p, s in ((2, 6), (17, 6), (2, 96))}
    cases["n6-full-B16"] = full_range_batch(rng, 6, 16)
    cases["n8-full-B2"] = full_range_batch(rng, 8, 2)
    cases["n6-packed-B4"] = full_range_batch(rng, 6, 4, spacing=4.0)
    cases["n2-full-B4"] = full_range_batch(rng, 2, 4)
    cases["n4-full-B1"] = full_range_batch(rng, 4, 1)
    for name, (block, steps) in cases.items():
        digest(name, rydgan.sim.evolve(block, steps))
    digest("n4-noisy-B12",
           rydgan.generate_batch(noisy_runs(rng, 4, 12), rydgan.TrainConfig()))
    digest("n4-wide-B8", rydgan.sim.evolve(
        *full_range_batch(rng, 4, 8, limits=WIDE_LIMITS)))
    digest("n5-shapes-B25", rydgan.sim.evolve(*shape_pairs_batch(rng, 5)))
    params = full_range_params(rng, 4)
    digest("n4-gen-d0.6-B8", rydgan.generate_batch(
        [(params, rydgan.draw_seeds(rng, 8), rydgan.EXACT)],
        rydgan.TrainConfig(duration_us=0.6, steps_per_us=200)))
    digest("n2-far-B2", rydgan.sim.evolve(
        *full_range_batch(rng, 2, 2, spacing=1e60)))


if __name__ == "__main__":
    main()
