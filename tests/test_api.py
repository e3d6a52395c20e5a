"""Every exported name and every traced layer function resolves, and the
frozen dataclasses that hold arrays compare by identity."""

from __future__ import annotations

import importlib
import pkgutil
import types
from pathlib import Path

import numpy as np
import pytest

import hmgn
from hmgn import nullspace, problems, projection, series, solvers, weights

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


def _rotated_spectrum():
    return nullspace.rotated_spectrum((1.0, -1.5, 1.0), 50)


def _subspace_basis():
    return nullspace.SubspaceBasis(np.eye(6, 2), 0.0)


def _projection_result():
    return projection.ProjectionResult(np.ones(4), np.ones(1))


def _iteration_record():
    return solvers.IterationRecord(1, np.ones(2), 1.0, 1.0, 0.0, False, 1)


def _fit_result():
    trace = solvers.SolverTrace(rows=(), termination="MaxIter")
    return solvers.FitResult(np.ones(5), series.GlrrVector((1.0, -1.0)), 1, np.ones(1), trace)


def _projection():
    return solvers._Projection(np.ones(5), np.ones(5), 1.0)


def _problem():
    config = solvers.SolverConfig()
    return solvers._Problem.of(np.ones(5), weights.Identity(5), config)


#: one factory per frozen dataclass of ``hmgn`` whose fields hold arrays;
#: each call builds a fresh instance with the same field values
ARRAY_DATACLASSES = {
    "RotatedSpectrum": _rotated_spectrum,
    "SubspaceBasis": _subspace_basis,
    "ProjectionResult": _projection_result,
    "TimeSeries": lambda: series.TimeSeries(np.arange(5.0)),
    "GlrrVector": lambda: series.GlrrVector((1.0, -1.5, 1.0)),
    "KnownMinimumProblem": lambda: problems.build_known_minimum(20),
    "IterationRecord": _iteration_record,
    "FitResult": _fit_result,
    "_Problem": _problem,
    "_Projection": _projection,
    "BandedW": lambda: weights.BandedW(5, (np.ones(5),)),
    "BandedWinv": lambda: weights.BandedWinv(5, (np.ones(5),)),
    "Masked": lambda: weights.Masked(weights.Identity(5), np.ones(5, dtype=bool)),
}


@pytest.mark.parametrize("name", sorted(ARRAY_DATACLASSES))
def test_array_dataclass_compares_by_identity(name):
    make = ARRAY_DATACLASSES[name]
    one, other = make(), make()
    assert type(one).__name__ == name
    assert (one == other) is False
    assert (one == one) is True
    assert (one != other) is True
    hash(one)
    assert len({one, other, one}) == 2
