"""Replay one benchmark workload's `evolve` calls through two source trees.

    python3 scripts/evolve_replay.py OLD NEW [--workload pipeline-n4]
        [--seed 3] [--passes 10]

OLD and NEW are roots of two checkouts of the repository. The script
writes the workload's inputs for the seed with `perfbench/inputs.py`
(read-only: the perfbench of the checkout holding this script) into a
temporary directory, runs the workload's set-up and timed commands once
through OLD's command line and records every `sim.evolve` call (its specs
and step count). It then replays the calls through both trees in one
process, the two sides interleaved pass by pass, each pass in turn
starting with the other side, and prints:

- each side's median pass time and the per-pass ratios NEW / OLD;
- the largest |difference| between the two trees' outputs (0 means every
  call was bit for bit alike);
- the set-up / kernel split of each side: the set-up is a pass with
  `sim._apply_vectors` replaced by a loop that only draws every chunk, so
  it holds everything outside the kernel's body, and the kernel is the
  rest of the pass.

The trees are imported as two packages, so nothing but their `src/` is
shared. BLAS runs on one thread, as in the benchmark.
"""

import argparse
import collections
import dataclasses
import importlib.util
import io
import os
import statistics
import sys
import tempfile
import time

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import workloads  # noqa: E402


def load_tree(root: str, name: str):
    """The rydgan package of the checkout at root, imported as `name`."""
    package = os.path.join(os.path.abspath(root), "src", "rydgan")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(package, "__init__.py"),
        submodule_search_locations=[package])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    importlib.import_module(name + ".cli")
    return module


def capture(rydgan, workload, seed: int) -> list:
    """(specs, steps) of every `evolve` call of the workload's commands."""
    calls = []
    real = rydgan.generator.evolve

    def record(specs, steps=None):
        specs = list(specs)
        calls.append((specs, steps))
        return real(specs, steps)

    here = os.getcwd()
    with tempfile.TemporaryDirectory() as path:
        inputs.write_inputs(path, workload, seed, rydgan)
        os.chdir(path)
        rydgan.generator.evolve = record
        try:
            for command in ("fit-pca",) + workload.commands:
                _, problem = workloads.run_command(rydgan, workload, command,
                                                   io.StringIO())
                if problem:
                    raise SystemExit(f"{command} failed: {problem}")
        finally:
            rydgan.generator.evolve = real
            os.chdir(here)
    return calls


def rebuild(value, rydgan):
    """A copy of value whose dataclasses are those of the package rydgan."""
    if dataclasses.is_dataclass(value):
        cls = type(value).__name__
        owner = rydgan.sim if hasattr(rydgan.sim, cls) else rydgan.pulses
        return getattr(owner, cls)(**{
            f.name: rebuild(getattr(value, f.name), rydgan)
            for f in dataclasses.fields(value)})
    return value


def run_pass(sim, calls, kernel=True) -> float:
    """Seconds to evolve every call, or with kernel False only to draw the
    chunks that `_apply_vectors` would apply."""
    real = sim._apply_vectors
    if not kernel:
        sim._apply_vectors = lambda psi, chunks: (
            collections.deque(chunks, 0), psi)[1]
    try:
        start = time.perf_counter()
        for specs, steps in calls:
            sim.evolve(specs, steps)
        return time.perf_counter() - start
    finally:
        sim._apply_vectors = real


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--workload", default="pipeline-n4",
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--passes", type=int, default=10)
    args = parser.parse_args(argv)
    trees = {"old": load_tree(args.old, "rydgan_old"),
             "new": load_tree(args.new, "rydgan_new")}
    workload = workloads.WORKLOADS[args.workload]
    captured = capture(trees["old"], workload, args.seed)
    calls = {side: [([rebuild(s, tree) for s in specs], steps)
                    for specs, steps in captured]
             for side, tree in trees.items()}
    sizes = sorted(len(specs) for specs, _ in captured)
    print(f"{args.workload} seed {args.seed}: {len(captured)} evolve calls, "
          f"{sum(sizes)} runs, B = {sizes[0]}-{sizes[-1]}")

    diff = max(float(np.abs(trees["old"].sim.evolve(*old)
                            - trees["new"].sim.evolve(*new)).max())
               for old, new in zip(calls["old"], calls["new"]))
    times = {side: [] for side in trees}
    setup = {side: [] for side in trees}
    for repeat in range(args.passes + 1):
        order = ("old", "new") if repeat % 2 == 0 else ("new", "old")
        for side in order:
            spent = run_pass(trees[side].sim, calls[side])
            drawn = run_pass(trees[side].sim, calls[side], kernel=False)
            if repeat:      # the first pass warms both sides up
                times[side].append(spent)
                setup[side].append(drawn)
    ratios = [new / old for old, new in zip(times["old"], times["new"])]
    for side in trees:
        total, outside = (statistics.median(times[side]),
                          statistics.median(setup[side]))
        print(f"{side}: median {1e3 * total:.1f} ms, set-up "
              f"{1e3 * outside:.1f} ms ({outside / total:.1%}), kernel "
              f"{1e3 * (total - outside):.1f} ms")
    print("new/old per pass: " + " ".join(f"{r:.3f}" for r in ratios))
    print(f"median ratio {statistics.median(ratios):.3f}, "
          f"new faster in {sum(r < 1.0 for r in ratios)}/{len(ratios)} passes")
    print(f"max |new - old| {diff:.3g}")


if __name__ == "__main__":
    main()
