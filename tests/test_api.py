"""Every exported name and every traced layer function resolves."""

from __future__ import annotations

import importlib
import pkgutil
import types
from pathlib import Path

import pytest

import hmgn

MODULES = sorted(info.name for info in pkgutil.iter_modules(hmgn.__path__))

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module() -> types.ModuleType:
    """perfbench/tracing.py executed from its source text, so nothing is
    written next to it (it needs only the standard library)."""
    module = types.ModuleType("perfbench_tracing")
    source = TRACING.read_text(encoding="utf-8")
    exec(compile(source, str(TRACING), "exec"), module.__dict__)
    return module


def test_package_all_resolves():
    missing = [name for name in hmgn.__all__ if not hasattr(hmgn, name)]
    assert not missing, missing


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"hmgn.{name}")
    exported = getattr(module, "__all__", ())
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, missing


def test_traced_layer_functions_resolve():
    tracing = _tracing_module()
    missing = []
    for layer, names in tracing.LAYER_FUNCTIONS.items():
        module = importlib.import_module(f"hmgn.{layer}")
        missing += [
            f"{layer}.{n}" for n in names if not callable(getattr(module, n, None))
        ]
    for layer, classes in tracing.LAYER_METHODS.items():
        module = importlib.import_module(f"hmgn.{layer}")
        for cls_name, methods in classes.items():
            cls = getattr(module, cls_name, None)
            if cls is None:
                missing.append(f"{layer}.{cls_name}")
                continue
            # the tracer patches the method found in the class's own dict
            missing += [
                f"{layer}.{cls_name}.{m}" for m in methods if m not in vars(cls)
            ]
    assert not missing, missing
