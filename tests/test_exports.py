"""The package's public names: every exported name exists, the README examples run,
and the package imports nothing beyond its declared runtime dependency."""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

import selfishlab
from selfishlab.cli import run

MODULES = ["selfishlab", "selfishlab.cli", "selfishlab.markov",
           "selfishlab.probmodel", "selfishlab.simulator", "selfishlab.sweep"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_is_defined(name):
    module = importlib.import_module(name)
    assert [export for export in module.__all__ if not hasattr(module, export)] == []


README = (Path(__file__).parent.parent / "README.md").read_text()


def _readme_block(section, language):
    return re.search(rf"## {section}\n.*?```{language}\n(.*?)```", README, re.DOTALL).group(1)


def test_readme_library_example_runs():
    example = _readme_block("Library", "python")
    imports = re.search(r"^from selfishlab import \(.*?\)$", example, re.DOTALL | re.MULTILINE)
    namespace = {}
    exec(imports.group(0), namespace)
    assert set(namespace) - {"__builtins__"} <= set(selfishlab.__all__)
    exec(example, {})


def test_readme_commands_run(capsys):
    block = _readme_block("Command line", "sh").replace("\\\n", " ")
    commands = [line.split()[1:] for line in block.splitlines()
                if line.startswith("selfishlab ")]
    assert len(commands) == 9
    for argv in commands:
        assert run(argv) == 0, argv
        capsys.readouterr()


# pyproject.toml declares only numpy; the test extras (mpmath, hypothesis) are
# installed wherever the tests run, so an import of one would pass them and
# break a plain install
RUNTIME_IMPORTS = set(sys.stdlib_module_names) | {"numpy", "__future__"}


def test_package_imports_only_the_standard_library_and_numpy():
    imported = set()
    for path in Path(selfishlab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update((path.name, alias.name.split(".")[0]) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add((path.name, node.module.split(".")[0]))
    assert ("cli.py", "numpy") in imported
    assert sorted(entry for entry in imported if entry[1] not in RUNTIME_IMPORTS) == []
