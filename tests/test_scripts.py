"""The measurement scripts under `scripts/` stay runnable: every program
name they reach exists, and `evolve_digest.py` prints a digest per case,
each equal to its pinned value. `assert_pinned` compares the other pins
of tests/pinned_digests.json: the benchmark's input hashes and the smoke
pipeline's artefacts."""

import glob
import json
import os
import platform
import re
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPTS = sorted(glob.glob(os.path.join(ROOT, "scripts", "*.py")))
DIGEST_CASES = ("n4-train-B12", "n4-train-B102", "n4-train-B192",
                "n6-full-B16", "n8-full-B2", "n6-packed-B4", "n2-full-B4",
                "n4-full-B1", "n4-noisy-B12", "n4-wide-B8", "n5-shapes-B25",
                "n4-gen-d0.6-B8", "n2-far-B2")
PINS = os.path.join(ROOT, "tests", "pinned_digests.json")


def provenance() -> str:
    """What the digests' bits depend on besides the code: the numpy build,
    the BLAS it calls and the machine type."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"numpy {np.__version__}, {blas.get('name', 'unknown')} "
            f"{blas.get('version', 'unknown')}, {platform.machine()}")


def assert_pinned(name: str, value: str):
    """value equals the pin of name for this numpy, BLAS and machine. With
    nothing pinned for them, skip and say how to pin it."""
    key = provenance()
    with open(PINS, encoding="utf-8") as f:
        pins = json.load(f)
    if key not in pins:
        pytest.skip(f"nothing pinned for {key!r}; to pin {name}, add "
                    f"{json.dumps({name: value})} under that key in {PINS}")
    assert pins[key].get(name) == value, (
        f"{name} moved for {key!r}: {pins[key].get(name)} -> {value}; if the "
        f"move is intended, update {PINS} and record old -> new")


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
    # a numpy RuntimeWarning fails the script, as it fails the tests. The
    # digests are pinned per provenance: another numpy, BLAS or machine may
    # round differently without any change to the code, so there a missing
    # pin skips the comparison and says how to add one, while a pinned
    # provenance whose digests moved fails
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning",
         os.path.join(ROOT, "scripts", "evolve_digest.py")],
        capture_output=True, text=True, timeout=300, check=True)
    lines = [line.split() for line in done.stdout.splitlines()]
    assert [line[0] for line in lines] == list(DIGEST_CASES)
    assert all(len(line) == 2 and re.fullmatch(r"[0-9a-f]{64}", line[1])
               for line in lines)
    digests, key = dict(lines), provenance()
    with open(PINS, encoding="utf-8") as f:
        pins = json.load(f)
    if key not in pins:
        pytest.skip(f"no digests pinned for {key!r}; to pin them, add this "
                    f"entry to {PINS}: " + json.dumps({key: digests}))
    moved = [name for name in DIGEST_CASES if digests[name] != pins[key][name]]
    assert not moved, (f"digests moved for {key!r}: {moved}; if the move is "
                       f"intended, update {PINS} and record old -> new")
