"""The README's library example runs against the current API, its
settings table matches the code, and its module table names only code
that exists."""

import glob
import importlib
import inspect
import os
import re

import numpy as np

ROOT = os.path.dirname(os.path.dirname(__file__))
README = os.path.join(ROOT, "README.md")


def library_example() -> str:
    """The first python code block under the `## Library example` heading."""
    with open(README, encoding="utf-8") as f:
        text = f.read()
    section = text.split("\n## Library example\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs_and_gives_its_shapes():
    namespace = {}
    exec(compile(library_example(), README, "exec"), namespace)
    assert namespace["ideal"].shape == (16,)
    assert namespace["noisy"].shape == (16,)
    assert namespace["many"].shape == (3, 16)
    # a batch row is its lone run up to rounding
    lone = namespace["generate_batch"]([(namespace["params"], 0.5,
                                         namespace["EXACT"])])[0]
    assert np.abs(namespace["many"][1] - lone).max() <= 1e-12


def settings_table() -> list:
    """(key, section, default, rule) cells of the README's settings table,
    backticks dropped."""
    with open(README, encoding="utf-8") as f:
        lines = f.read().split("\n| Key | Section | Default | Rule |", 1)[1]
    rows = []
    for line in lines.split("\n")[2:]:
        if not line.startswith("|"):
            break
        rows.append(tuple(cell.strip().replace("`", "")
                          for cell in line.split("|")[1:5]))
    return rows


def declared_rule(key: str) -> str:
    """An INI key's declared rule as the settings table writes it: its
    bounds, or the choices a str key holds one of or a tuple key names."""
    from rydgan.config import RunConfig
    from tests.test_cli import declared
    bounds, choices = declared(key)
    if not choices:
        return ", ".join(f"{op} {limit}" for op, limit in bounds)
    if isinstance(getattr(RunConfig(), key), str):
        return "one of " + ", ".join(choices)
    return "one or more of " + ", ".join(choices) + ", none twice"


def test_settings_table_matches_defaults_and_declared_bounds():
    from rydgan.config import RunConfig, _sections, render_config
    section, rendered = None, {}
    for line in render_config(RunConfig()).splitlines():
        if line.startswith("["):
            section = line
        elif line:
            key, value = line.split(" = ", 1)
            rendered[key] = (section, value)
    expected = [(key, *rendered[key], declared_rule(key))
                for keys in _sections().values() for key in keys]
    assert settings_table() == expected


def test_benchmark_names_resolve():
    """Every `rydgan.<name>...` chain the benchmark harness uses exists, so a
    deletion cannot break the benchmark commands unnoticed."""
    import rydgan
    import rydgan.cli  # noqa: F401 (perfbench imports it: loads rydgan.config)
    from tests.test_scripts import assert_chains_resolve, name_chains
    chains = name_chains(glob.glob(os.path.join(ROOT, "perfbench", "*.py"))
                         + glob.glob(os.path.join(ROOT, "perfbench", "tests",
                                                  "*.py")), "rydgan")
    assert {".generate_features", ".nelder_mead", ".cli.ENSEMBLE_FORMAT",
            ".config.load_config"} <= chains
    assert_chains_resolve(rydgan, chains)


def module_table() -> dict:
    """{module: contents} rows of the README's module table."""
    with open(README, encoding="utf-8") as f:
        lines = f.read().split("\n| Module | Contents |", 1)[1].split("\n")
    rows = {}
    for line in lines[2:]:
        if not line.startswith("|"):
            break
        module, contents = (cell.strip()
                            for cell in re.split(r"(?<!\\)\|", line)[1:3])
        rows[module.strip("`")] = contents
    return rows


def test_module_table_names_resolve():
    """Every backticked `name` or `name(...)` in a row of the module table
    resolves in that row's module (a `rydgan.` name from the package), and
    the names a `name(a, b)` lists are parameters of that callable, in the
    order of its signature, so the table cannot name deleted code or a
    stale call."""
    import rydgan
    from tests.test_scripts import assert_chains_resolve
    table = module_table()
    assert list(table) == ["rydgan." + name for name in (
        "sim", "pulses", "generator", "data", "discriminator", "neldermead",
        "training", "metrics", "cli")]
    for module, contents in table.items():
        names = re.findall(r"`([A-Za-z_][\w.]*)(?:\(.*?\))?`", contents)
        chains = {"." + name for name in names}
        qualified = {chain for chain in chains if chain.startswith(".rydgan.")}
        assert_chains_resolve(importlib.import_module(module),
                              chains - qualified)
        assert_chains_resolve(rydgan, {chain[len(".rydgan"):]
                                       for chain in qualified})
        for name, listed in re.findall(r"`([A-Za-z_][\w.]*)\((.*?)\)`", contents):
            obj = (rydgan if name.startswith("rydgan.")
                   else importlib.import_module(module))
            for attr in name.removeprefix("rydgan.").split("."):
                obj = getattr(obj, attr)
            params = iter(inspect.signature(obj).parameters)
            assert all(arg in params for arg in filter(None, listed.split(", "))), (
                f"`{name}({listed})` in the {module} row: the signature is "
                f"{inspect.signature(obj)}")
    metrics_names = re.findall(r"`(\w+)`", table["rydgan.metrics"])
    assert "ensemble_images" in metrics_names


def test_fit_pca_paragraph_names_the_file_and_version():
    """The README's fit-pca paragraph names the file that `fit-pca` writes
    and the PCA format version that `save_pca` writes."""
    from rydgan import cli, data
    from rydgan.config import RunConfig
    with open(README, encoding="utf-8") as f:
        text = f.read()
    paragraph = text.split("\n`fit-pca` writes ", 1)[1].split("\n\n", 1)[0]
    name = os.path.basename(cli._pca_path(RunConfig(), 7)).replace("7", "<N>")
    assert paragraph.startswith(f"`{name}`, PCA format version "
                                f"{data.PCA_VERSION}:")
    assert f"`version` ({data.PCA_VERSION})" in paragraph


def test_learner_paragraph_names_the_version():
    """The README's learner-file paragraph names the learner format version
    that `save_learner` writes."""
    from rydgan import training
    with open(README, encoding="utf-8") as f:
        text = f.read()
    head = "\nA learner file is learner format version "
    paragraph = text.split(head, 1)[1].split("\n\n", 1)[0]
    assert paragraph.startswith(f"{training.LEARNER_VERSION}:")
    assert f"`version` ({training.LEARNER_VERSION})" in paragraph
    assert f"`format` (`{training.LEARNER_FORMAT}`)" in paragraph
