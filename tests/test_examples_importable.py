"""Smoke test: every example script imports and runs to completion.

The examples are documentation; a broken one is a broken README promise.
Each ``main()`` runs at its default size with no command-line arguments
(all eight finish in a few seconds), and must print something.
"""

import importlib.util
import pathlib
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
EXAMPLE_FILES = sorted(EXAMPLES_DIR.glob("*.py"))


def test_examples_directory_found():
    assert EXAMPLES_DIR.is_dir()
    assert len(EXAMPLE_FILES) == 8


@pytest.mark.parametrize(
    "path", EXAMPLE_FILES, ids=[p.stem for p in EXAMPLE_FILES]
)
def test_example_runs(path, capsys, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        f"example_{path.stem}", path
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.__doc__, f"{path.stem} must have a module docstring"
    # an example that parses flags must see none of pytest's
    monkeypatch.setattr(sys, "argv", [str(path)])
    module.main()
    assert capsys.readouterr().out.strip(), f"{path.stem} printed nothing"
