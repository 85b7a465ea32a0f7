"""The package's public names: every exported name exists, and the README imports work."""

import importlib
import re
from pathlib import Path

import pytest

import selfishlab

MODULES = ["selfishlab", "selfishlab.cli", "selfishlab.markov",
           "selfishlab.probmodel", "selfishlab.simulator", "selfishlab.sweep"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_is_defined(name):
    module = importlib.import_module(name)
    assert [export for export in module.__all__ if not hasattr(module, export)] == []


def test_readme_library_imports_run():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    example = re.search(r"## Library\n.*?```python\n(.*?)```", readme, re.DOTALL).group(1)
    imports = re.search(r"^from selfishlab import \(.*?\)$", example, re.DOTALL | re.MULTILINE)
    namespace = {}
    exec(imports.group(0), namespace)
    assert set(namespace) - {"__builtins__"} <= set(selfishlab.__all__)
