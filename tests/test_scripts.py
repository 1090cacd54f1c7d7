"""The measurement scripts under `scripts/` stay runnable: every program
name they reach exists, and `evolve_digest.py` prints a digest per case."""

import glob
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPTS = sorted(glob.glob(os.path.join(ROOT, "scripts", "*.py")))
DIGEST_CASES = ("n4-train-B12", "n4-train-B102", "n4-train-B192",
                "n6-full-B16", "n8-full-B2", "n6-packed-B4", "n2-full-B4",
                "n4-full-B1", "n4-noisy-B12", "n4-wide-B8", "n5-shapes-B25",
                "n4-gen-d0.6-B8", "n2-far-B2")


def name_chains(paths, name: str) -> set:
    """Every `name.<attr>...` chain written in the files at paths, each
    without its leading name."""
    chains = set()
    for path in paths:
        with open(path, encoding="utf-8") as f:
            chains |= set(re.findall(rf"\b{name}((?:\.\w+)+)", f.read()))
    return chains


def assert_chains_resolve(root, chains):
    """Each chain of attribute names resolves from the module root."""
    for chain in sorted(chains):
        obj = root
        for attr in chain.split(".")[1:]:
            assert hasattr(obj, attr), f"{root.__name__}{chain}"
            obj = getattr(obj, attr)


def test_script_names_resolve():
    """The scripts reach rydgan's modules as `rydgan.<name>` and the
    simulator's tuning constants and kernel as `sim.<name>`."""
    import rydgan
    chains, sim_chains = name_chains(SCRIPTS, "rydgan"), name_chains(SCRIPTS, "sim")
    assert {".sim.evolve", ".training.initial_params",
            ".generator.evolve"} <= chains
    assert {"._SPLIT_QUBITS", "._apply_vectors", ".evolve"} <= sim_chains
    assert_chains_resolve(rydgan, chains)
    assert_chains_resolve(rydgan.sim, sim_chains)


def test_evolve_digest_prints_every_case():
    # the digests themselves move with any rounding change, so only their
    # form is checked here; a numpy RuntimeWarning fails the script, as it
    # fails the tests
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning",
         os.path.join(ROOT, "scripts", "evolve_digest.py")],
        capture_output=True, text=True, timeout=300, check=True)
    lines = [line.split() for line in done.stdout.splitlines()]
    assert [line[0] for line in lines] == list(DIGEST_CASES)
    assert all(len(line) == 2 and re.fullmatch(r"[0-9a-f]{64}", line[1])
               for line in lines)
