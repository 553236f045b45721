"""Public API: every name a module exports in ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import hanlesim

MODULES = ["hanlesim"] + [
    f"hanlesim.{info.name}" for info in pkgutil.iter_modules(hanlesim.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__, f"{name} exports nothing"
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
    assert len(set(module.__all__)) == len(module.__all__)
