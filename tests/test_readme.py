"""The README's library example runs against the current API."""

import os
import re

import numpy as np

README = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")


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
    lone = namespace["generate_features"](namespace["params"], 0.5)
    assert np.abs(namespace["many"][1] - lone).max() <= 1e-12
