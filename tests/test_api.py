"""Public API: every name a module exports in ``__all__`` resolves; the sources parse on the
oldest Python that ``pyproject.toml`` declares."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import hanlesim

MODULES = ["hanlesim"] + [
    f"hanlesim.{info.name}" for info in pkgutil.iter_modules(hanlesim.__path__)
    if info.name != "__main__"
]
SOURCES = sorted(Path(hanlesim.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__, f"{name} exports nothing"
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
    assert len(set(module.__all__)) == len(module.__all__)


def minimum_python() -> tuple:
    """(major, minor) of the ``requires-python = ">=X.Y"`` line of ``pyproject.toml``."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'^requires-python\s*=\s*">=(\d+)\.(\d+)"', text, re.M).groups()
    return int(major), int(minor)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_source_parses_on_the_minimum_python(path):
    # the grammar only: no interpreter of that version is needed, and none checks the library calls
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=minimum_python())
