"""The package's public names: every exported name exists, and the README examples run."""

import importlib
import re
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
