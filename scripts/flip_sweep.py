"""Time `rydgan.sim.evolve` with the flip operator dense and split.

    python3 scripts/flip_sweep.py [n ...]

For each qubit count n (default 4 to 8) and block of B = 1 to 64 full-range
runs at 250 steps/us, the script evolves the block with X as one dense GEMM
and with X split into its Kronecker factors X_hi (x) I + I (x) X_lo, the
two paths interleaved call by call in one process by setting
`sim._SPLIT_QUBITS`, and prints each path's median time and the ratio
split / dense. A ratio below 1 means the split is faster; `_SPLIT_QUBITS`
is the least n from which it is. BLAS runs on one thread, as in the
benchmark. The two paths agree to rounding (see tests/test_sim.py).
"""

import os
import statistics
import sys
import time

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

from evolve_digest import full_range_batch  # noqa: E402
from rydgan import sim  # noqa: E402

BATCHES = (1, 2, 4, 8, 16, 32, 64)
REPEATS = 7             # timed calls per path; one more warms both up


def sweep(n, batch, rng):
    """(dense, split) median seconds of one `evolve` call on one block."""
    specs, steps = full_range_batch(rng, n, batch)
    times = {"dense": [], "split": []}
    paths = {"dense": n + 1, "split": n}
    for repeat in range(REPEATS + 1):
        for path in sorted(paths, reverse=repeat % 2 == 1):
            sim._SPLIT_QUBITS = paths[path]
            start = time.perf_counter()
            sim.evolve(specs, steps)
            if repeat:
                times[path].append(time.perf_counter() - start)
    return statistics.median(times["dense"]), statistics.median(times["split"])


def main(argv):
    qubits = [int(arg) for arg in argv] or range(4, 9)
    rng = np.random.default_rng(6)
    print(f"{'n':>2} {'B':>3} {'dense ms':>9} {'split ms':>9} {'split/dense':>11}")
    for n in qubits:
        for batch in BATCHES:
            dense, split = sweep(n, batch, rng)
            print(f"{n:2d} {batch:3d} {1e3 * dense:9.2f} {1e3 * split:9.2f} "
                  f"{split / dense:11.2f}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
