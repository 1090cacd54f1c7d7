"""rydgan benchmark: run one workload for one seed and print its metrics.

    python3 perfbench/run.py --workload pipeline-n4 --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/`. With --trace 0 the workload runs without instrumentation and the
end-to-end metrics are reported; with --trace 1 the run also repeats the
workload with every public rydgan function wrapped in a span and reports
the per-layer metrics and the tracing overhead. The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
Working files go to `.perfbench/` in the checkout, with a result record
(metrics, input hash, provenance) kept under `.perfbench/results/`.
"""

import os
import sys
import time

import argparse
import contextlib
import json
import platform
import resource
import shutil
import statistics

_T0 = time.perf_counter()
# one BLAS thread: on two cores, two OpenBLAS threads make batched eigh
# several times slower; main() pins them before numpy is first imported
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
SETUP_REPS = 3

END_TO_END = {"setup_s": "s", "command_ref": "ref", "peak_rss_mb": "MB"}
REFERENCE_INTERVAL_S = 0.1   # reference-kernel sampling period
# set-up time is scaled to a core on which the 16-dim reference kernel
# takes REFERENCE_NOMINAL_S (its median on the 2-vCPU baseline host), so
# that setup_s stays in seconds but follows the host's drift no more than
# command_ref does
SETUP_REFERENCE_DIM = 16
REFERENCE_NOMINAL_S = 0.012

# per-layer metrics in the JSON line; a time that is zero on a workload
# that never calls the function is given as a share of cli.command.s
PER_LAYER = {
    "sim.evolve.calls": "count", "sim.evolve.self_s": "s",
    "sim.evolve.p50_ms": "ms", "sim.evolve.p90_ms": "ms",
    "sim.conv_err": "abs",
    "pulses.evaluate.calls": "count", "pulses.evaluate.s": "s",
    "pulses.evaluate.points": "count",
    "generator.generate_features.calls": "count",
    "generator.generate_features.self_s": "s",
    "generator.generate_features.p50_ms": "ms",
    "generator.generate_features.p90_ms": "ms",
    "generator.perturb_params.calls": "count",
    "discriminator.discriminator_step.calls": "count",
    "discriminator.discriminator_step.share": "ratio",
    "discriminator.discriminator_forward.calls": "count",
    "discriminator.discriminator_forward.share": "ratio",
    "neldermead.nelder_mead.calls": "count",
    "neldermead.nelder_mead.self_share": "ratio",
    "neldermead.nelder_mead.evaluations": "count",
    "neldermead.nelder_mead.iterations": "count",
    "neldermead.nelder_mead.maxiter_ratio": "ratio",
    "training.layered_train.share": "ratio",
    "training.layered_train.self_share": "ratio",
    "training.generator_loss.calls": "count",
    "training.generator_loss.share": "ratio",
    "metrics.greedy_select.share": "ratio",
    "metrics.greedy_select.self_share": "ratio",
    "metrics.batch_features.share": "ratio",
    "metrics.fid_images.calls": "count", "metrics.fid_images.s": "s",
    "metrics.variation_scores.share": "ratio",
    "metrics.fid": "fid",
    "data.load_idx.s": "s", "data.fit_pca.s": "s",
    "data.inverse_transform.s": "s",
    "data.write_image.calls": "count", "data.write_image.share": "ratio",
    "cli.fit-pca.s": "s", "cli.fit-pca.self_s": "s",
    "cli.command.s": "s", "cli.command.self_s": "s",
    "trace.overhead_s": "s", "trace.spans": "count",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(np, rydgan) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "commit": _git_commit(),
        "rydgan": rydgan.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "thread_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def _percentile_ms(np, durations, q) -> float:
    return 1000.0 * float(np.percentile(durations, q)) if durations else 0.0


# functions that only some workloads call: their time is also given as a
# share of cli.command.s, which is never zero
SHARED = ("discriminator.discriminator_step", "discriminator.discriminator_forward",
          "training.layered_train", "training.generator_loss",
          "metrics.greedy_select", "metrics.batch_features",
          "metrics.variation_scores", "data.write_image")
TIMED = SHARED + ("pulses.evaluate", "metrics.fid_images", "data.load_idx",
                  "data.fit_pca", "data.inverse_transform", "cli.fit-pca",
                  "cli.train", "cli.select", "cli.generate")
SELF_TIMED = ("neldermead.nelder_mead", "training.layered_train",
              "metrics.greedy_select", "cli.fit-pca", "cli.train", "cli.select",
              "cli.generate")
COUNTED = ("pulses.evaluate", "generator.perturb_params",
           "discriminator.discriminator_step",
           "discriminator.discriminator_forward", "neldermead.nelder_mead",
           "training.generator_loss", "metrics.fid_images", "data.write_image")


def layer_metrics(np, spans, tracer, workload) -> dict:
    """Every per-layer figure of the traced run: {name: (value, unit)}."""
    summary = spans.summarize(tracer.spans)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": [], "points": 0}

    def get(name):
        return summary.get(name, empty)

    commands = [get(f"cli.{c}") for c in workload.commands]
    command_s = sum(c["s"] for c in commands)
    out = {"cli.command.s": (command_s, "s"),
           "cli.command.self_s": (sum(c["self_s"] for c in commands), "s"),
           "trace.spans": (len(tracer.spans), "count")}
    for name in ("sim.evolve", "generator.generate_features"):
        durations = get(name)["durations"]
        out[f"{name}.calls"] = (get(name)["calls"], "count")
        out[f"{name}.self_s"] = (get(name)["self_s"], "s")
        out[f"{name}.p50_ms"] = (_percentile_ms(np, durations, 50), "ms")
        out[f"{name}.p90_ms"] = (_percentile_ms(np, durations, 90), "ms")
    for name in COUNTED:
        out[f"{name}.calls"] = (get(name)["calls"], "count")
    out["pulses.evaluate.points"] = (get("pulses.evaluate")["points"], "count")
    for name in TIMED:
        out[f"{name}.s"] = (get(name)["s"], "s")
    for name in SELF_TIMED:
        out[f"{name}.self_s"] = (get(name)["self_s"], "s")
    for name in SHARED:
        out[f"{name}.share"] = (get(name)["s"] / command_s, "ratio")
    for name in ("neldermead.nelder_mead", "training.layered_train",
                 "metrics.greedy_select"):
        out[f"{name}.self_share"] = (get(name)["self_s"] / command_s, "ratio")
    runs = tracer.nm_runs
    out["neldermead.nelder_mead.evaluations"] = (sum(r[1] for r in runs), "count")
    out["neldermead.nelder_mead.iterations"] = (sum(r[0] for r in runs), "count")
    capped = sum(1 for r in runs if r[0] >= r[2])
    out["neldermead.nelder_mead.maxiter_ratio"] = (
        capped / len(runs) if runs else 0.0, "ratio")
    return out


def _iterate(rydgan, workloads, workload, ledger, seconds, log,
             reference=None) -> list:
    """{command: (wall s, reference s)} per iteration, for `seconds`.

    With a reference kernel, it is sampled on this core while each command
    runs; the sampling time is taken out of the wall time and the median
    sample kept beside it.
    """
    iterations = []
    deadline = time.perf_counter() + seconds
    while True:
        walls = {}
        for command in workload.commands:
            if reference is None:
                wall, problem = workloads.run_command(rydgan, workload, command, log)
                walls[command] = (wall, None)
            else:
                with reference.sampling(REFERENCE_INTERVAL_S):
                    wall, problem = workloads.run_command(
                        rydgan, workload, command, log)
                walls[command] = (wall - reference.spent,
                                  statistics.median(reference.samples))
            ledger.record(command, problem)
        iterations.append(walls)
        if time.perf_counter() >= deadline:
            return iterations


def _setup(inputs, workloads, rydgan, workload, seed, path, ledger, log,
           reference=None):
    """Write the inputs into path and fit the PCA model.

    Returns (wall seconds, input hash, median reference seconds or None),
    with the reference sampling time taken out of the wall time.
    """
    start = time.perf_counter()
    with reference.sampling(REFERENCE_INTERVAL_S) if reference else \
            contextlib.nullcontext():
        digest = inputs.write_inputs(path, workload, seed, rydgan)
        os.chdir(path)
        _, problem = workloads.run_command(rydgan, workload, "fit-pca", log)
    ledger.record("fit-pca", problem)
    wall = time.perf_counter() - start
    if reference is None:
        return wall, digest, None
    return wall - reference.spent, digest, statistics.median(reference.samples)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rydgan", "__init__.py")):
        return _fail(f"no rydgan sources under {SRC}")
    sys.path.insert(0, SRC)
    import numpy as np
    import rydgan
    import rydgan.cli
    import inputs
    import spans
    import workloads
    import_s = time.perf_counter() - _T0
    if not os.path.abspath(rydgan.__file__).startswith(SRC + os.sep):
        return _fail(f"imported rydgan from {rydgan.__file__}, not {SRC}")
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        return _fail(f"unknown workload {args.workload!r}; known: "
                     f"{', '.join(workloads.WORKLOADS)}")
    if not args.seconds > 0:
        return _fail("--seconds must be positive")

    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(STATE, f"{tag}-{os.getpid()}")
    results = os.path.join(STATE, "results")
    os.makedirs(results, exist_ok=True)
    report = {}         # {name: (value, unit)}, every figure of this run
    with open(os.path.join(results, f"{tag}.log"), "w", encoding="utf-8") as log:
        ledger = workloads.Ledger(log)
        try:
            reps = 1 if args.trace else SETUP_REPS
            setup_reference = None if args.trace else workloads.Reference(
                SETUP_REFERENCE_DIM)
            setups = [_setup(inputs, workloads, rydgan, workload, args.seed,
                             os.path.join(work, f"setup{i}"), ledger, log,
                             setup_reference)
                      for i in range(reps)]
            digest = setups[0][1]
            ledger.record("input determinism",
                          None if all(d == digest for _, d, _ in setups)
                          else "one seed gave different input bytes")
            reference = None if args.trace else workloads.Reference(
                1 << workload.n_qubits)
            iterations = _iterate(rydgan, workloads, workload, ledger,
                                  args.seconds, log, reference)
            command_s = statistics.median(
                sum(wall for wall, _ in it.values()) for it in iterations)
            if args.trace:
                tracer = spans.Tracer(rydgan)
                with tracer:
                    origin = time.perf_counter()
                    _setup(inputs, workloads, rydgan, workload, args.seed,
                           os.path.join(work, "traced"), ledger, log)
                    traced = _iterate(rydgan, workloads, workload, ledger, 0.0, log)
                tracer.write(os.path.join(results, f"{tag}.spans.jsonl"), origin)
                report.update(layer_metrics(np, spans, tracer, workload))
                report["trace.overhead_s"] = (
                    sum(wall for wall, _ in traced[0].values()) - command_s, "s")
            else:
                setup_raw = import_s + statistics.median(s for s, _, _ in setups)
                speed = REFERENCE_NOMINAL_S / statistics.median(
                    r for _, _, r in setups)
                report["setup_s"] = (setup_raw * speed, "s")
                report["setup_raw_s"] = (setup_raw, "s")
                report["command_ref"] = (statistics.median(
                    sum(wall / ref for wall, ref in it.values())
                    for it in iterations), "ref")
                report["command_s"] = (command_s, "s")
                report["reference_ms"] = (1000.0 * statistics.median(
                    ref for it in iterations for _, ref in it.values()), "ms")
                for command in workload.commands:
                    seconds = statistics.median(it[command][0] for it in iterations)
                    if command == "generate":
                        report["images_per_s"] = (workload.count / seconds, "1/s")
                    else:
                        report[f"{command}_s"] = (seconds, "s")
            report["iterations"] = (len(iterations), "count")
            conv = workloads.convergence(rydgan, workload, ledger)
            fid = workloads.output_fid(workload)
        finally:
            os.chdir(ROOT)
            shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        report["sim.conv_err"] = (conv, "abs")
        report["metrics.fid"] = (fid, "fid")
    else:
        report["conv_err"] = (conv, "abs")
        fid_name = "gen_fid" if "generate" in workload.commands else "val_fid"
        report[fid_name] = (fid, "fid")
        report["error_rate"] = (len(ledger.failures) / ledger.attempted, "ratio")
        report["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")

    wanted = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": report[name][0], "unit": unit}
               for name, unit in wanted.items()}
    correct = not ledger.failures and all(
        np.isfinite(m["value"]) for m in metrics.values())
    record = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "inputs_sha256": digest,
              "provenance": provenance(np, rydgan),
              "failures": ledger.failures,
              "report": {k: {"value": v, "unit": u} for k, (v, u) in report.items()}}
    with open(os.path.join(results, f"{tag}.json"), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)

    print(f"rydgan benchmark: workload {workload.name}, seed {args.seed}, "
          f"trace {args.trace}")
    print(f"inputs sha256 {digest}")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    for failure in ledger.failures:
        print(f"FAILED {failure}")
    rows = sorted(report.items()) if args.trace else report.items()
    for name, (value, unit) in rows:
        print(f"  {name:<44} {value:>14.6g} {unit}")
    print(json.dumps({"correct": bool(correct), "attempted": ledger.attempted,
                      "failed": len(ledger.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    os.environ.update({name: "1" for name in BLAS_ENV})
    sys.exit(main())
