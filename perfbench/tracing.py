"""Spans around the calls into each ``hmgn`` layer, recorded from outside.

The program is not instrumented.  While a fit is traced, every layer
function listed in ``LAYER_FUNCTIONS`` is replaced by a timing wrapper in
each ``hmgn`` module namespace that binds it (``solvers`` imports its
helpers by name, so patching only the defining module would miss those
calls), and the methods in ``LAYER_METHODS`` are wrapped on their class.
Everything is restored when the fit ends, so untraced fits run the original
code.

A span is (name, start, end, parent span, fit id).  Spans stay in memory
and are written out once, by ``write``, when the run ends.  The self time
of a span is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from typing import Dict, List, Tuple

#: layer → functions defined in ``hmgn.<layer>`` that get a span
LAYER_FUNCTIONS: Dict[str, Tuple[str, ...]] = {
    "solvers": ("initial_glrr", "mgn_step", "vpgn_step", "line_search"),
    "nullspace": (
        "find_rotation",
        "eval_poly_grid",
        "rotated_spectrum",
        "nullspace_basis",
        "fhat_matrix",
    ),
    "projection": ("weighted_pinv_apply", "project_gamma", "vp_jacobian"),
    "weights": ("whiten", "weighted_norm"),
    "series": ("glrr_residual", "normalize_glrr"),
}

#: layer → class → methods that get a span; ``__init__`` is named after the
#: class itself (construction)
LAYER_METHODS: Dict[str, Dict[str, Tuple[str, ...]]] = {
    "projection": {"GammaFactor": ("__init__", "solve")},
}

ROOT = "fit"

#: projections onto Z(a): one basis build or one Gram-route projection
PROJECTIONS = ("nullspace.nullspace_basis", "projection.project_gamma")


class Tracer:
    """In-memory span recorder that patches the layer functions per fit."""

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._fit_id = -1
        self._patches: List[tuple] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._fit_id])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        return traced

    # -- patching ----------------------------------------------------------

    def _install(self) -> None:
        modules = [m for k, m in list(sys.modules.items()) if k.split(".")[0] == "hmgn"]
        for layer, names in LAYER_FUNCTIONS.items():
            home = sys.modules[f"hmgn.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for mod in modules:
                    if getattr(mod, name, None) is original:
                        self._patches.append((mod, name, original))
                        setattr(mod, name, wrapper)
        for layer, classes in LAYER_METHODS.items():
            home = sys.modules[f"hmgn.{layer}"]
            for cls_name, methods in classes.items():
                cls = getattr(home, cls_name)
                for meth in methods:
                    original = cls.__dict__[meth]
                    span = f"{layer}.{cls_name}" + ("" if meth == "__init__" else f".{meth}")
                    self._patches.append((cls, meth, original))
                    setattr(cls, meth, self._wrap(span, original))

    def _uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def begin_fit(self, fit_id: int) -> None:
        """Patch the layers and open the root span of one fit."""
        self._fit_id = fit_id
        self._install()
        self._open(ROOT)

    def end_fit(self) -> None:
        while self._stack:  # a raised error may leave inner spans open
            self._close(self._stack[-1])
        self._uninstall()
        self._fit_id = -1

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "fit"], "spans": self.spans},
                fh,
            )


def span_totals(spans: List[list]) -> Tuple[dict, dict, dict, float, float]:
    """Aggregate spans by name.

    Returns (calls, total seconds, self seconds, root seconds, seconds of
    root time covered by the roots' child spans).
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: Dict[str, int] = defaultdict(int)
    total: Dict[str, float] = defaultdict(float)
    own: Dict[str, float] = defaultdict(float)
    root_s = covered_s = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        dur = end - start
        calls[name] += 1
        total[name] += dur
        own[name] += dur - child[i]
        if name == ROOT:
            root_s += dur
            covered_s += child[i]
    return calls, total, own, root_s, covered_s


def retries_and_trials(spans: List[list]) -> Tuple[int, int, int]:
    """(rotation retries, line-search trial projections, line-search calls).

    A rotation retry is a ``rotated_spectrum`` call made by ``fit`` itself:
    the step functions compute their spectrum inside their own span, so only
    the fallback after a ``SpectrumDegeneracyError`` has the root as parent.
    """
    retries = trials = searches = 0
    for name, _, _, parent, _ in spans:
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == "nullspace.rotated_spectrum" and parent_name == ROOT:
            retries += 1
        elif name in PROJECTIONS and parent_name == "solvers.line_search":
            trials += 1
        elif name == "solvers.line_search":
            searches += 1
    return retries, trials, searches
