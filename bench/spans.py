"""Span tracing of the package's layers, installed from outside the package.

`Tracer.install` wraps the public functions of each layer module and
rebinds the wrapper under every name that points at the original, in every
module of the package, so calls one module makes through names it imported
from another are traced too.  No file under the package changes.  A span's
self time is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import inspect
import os
import time
from collections import defaultdict

LAYERS = ("core", "catalog", "geometry", "bilinear", "pencil", "serialization", "cli")

# Constant-time helpers left unwrapped: their wrapper would cost more than
# their work and would show up as self time of every caller.
UNTRACED = {
    "core.vec", "core.unvec", "core.dtype_for", "core.check_field",
    "core.as_square_matrix", "core.rank_from_singular_values",
    "core.check_same_space", "core.identity",
}


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _grid_determinants(grid) -> int:
    """Determinants one Craig-Sakamoto check evaluates: two axes and the grid."""
    return 2 * grid + grid * grid


# Counts read at a layer boundary: span name -> function of
# (args, kwargs, result) returning {count name: value}.
COUNTERS = {
    "core.subspace_from_matrices": lambda a, k, r: {"columns": len(_arg(a, k, 0, "mats"))},
    "geometry.linearization": lambda a, k, r: {
        "products": _arg(a, k, 0, "S1").dim * _arg(a, k, 1, "S2").dim,
    },
    "geometry.flatness_test": lambda a, k, r: {"trials": r.trials},
    "bilinear.extract_bilinear": lambda a, k, r: {"coefficients": r.l * r.j * r.kmj},
    "bilinear.solve_bilinear": lambda a, k, r: {
        "iterations": r.iterations, "restarts_used": r.restarts_used,
    },
    "pencil.craig_sakamoto_check": lambda a, k, r: {
        "determinants": _grid_determinants(_arg(a, k, 2, "grid", 9)),
    },
    "serialization.load_subspace": lambda a, k, r: {
        "bytes_read": _file_size(_arg(a, k, 0, "path")),
    },
    "serialization.dumps_canonical": lambda a, k, r: {"bytes_written": len(r.encode("utf-8"))},
}

# Spans whose self time is split by a property of the result.
SPLIT = {"pencil.minrank": lambda r: r.method}


class Tracer:
    """Collects per-span self time, call counts and boundary counts."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []  # child time accumulated under each open span
        self._restore = []  # (module, name, original)

    def _wrap(self, span, fn):
        counter = COUNTERS.get(span)
        split = SPLIT.get(span)
        stack, self_s, counts = self._stack, self.self_s, self.counts
        calls_key = f"{span}.calls"
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                name = span if split is None or result is None else f"{span}.{split(result)}"
                self_s[name] += dur - child
                counts[calls_key] += 1
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counts[f"{span}.{key}"] += value
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self, package) -> None:
        """Wrap the public functions of every layer module of ``package``."""
        modules = [package] + [getattr(package, layer) for layer in LAYERS]
        wrappers = {}
        for layer in LAYERS:
            mod = getattr(package, layer)
            for name, fn in vars(mod).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and f"{layer}.{name}" not in UNTRACED
                ):
                    wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, w)

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._restore):
            setattr(mod, name, original)
        self._restore.clear()
