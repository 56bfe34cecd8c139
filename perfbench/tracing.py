"""Per-layer spans recorded from outside the program.

Each layer is a module of ``spinpair``; its public entry points are
wrapped while a traced pass runs and restored afterwards.  A wrapper
replaces every reference to the original function held by a loaded
``spinpair`` module (``from .exact import ic1_evolve`` binds a second
name), so calls are seen whichever name the caller uses.  A name that
does not exist is reported as absent instead of failing, so a later
refactor that deletes a module does not force an edit here.

A layer's self time is the time inside its spans minus the time inside
the spans they caused.  All spans share one stack: the CLI runs sweep
points on one worker thread while the caller waits for it, so spans
never interleave.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable

import numpy as np

# layer -> (module, entry points); None means every callable in __all__
LAYERS: dict[str, tuple[str, tuple[str, ...] | None]] = {
    "config": ("spinpair.config", ("load_config", "parse_config", "apply_sweep_value")),
    "exact": ("spinpair.exact", ("ic1_evolve", "ic2_evolve", "ic2_admissible")),
    "approx": (
        "spinpair.approx",
        ("rwa_evolve", "rwa_orthogonal", "perturb_x1", "perturb_x2"),
    ),
    "entangle": ("spinpair.entangle", ("concurrence_pure", "concurrence_wootters")),
    "oracle": ("spinpair.oracle", ("integrate_full", "integrate_block_ic2")),
    "kernels": ("spinpair._kernels", None),
    "cli": ("spinpair.cli", ("compute_trace", "run_single", "run_sweep")),
    "cli.csv": ("spinpair.cli", ("EvolutionTrace.to_csv",)),
}

# layers reported as <layer>.calls and <layer>.self_s
COUNTED = ("config", "exact", "approx", "entangle", "oracle", "kernels")


def _is_package_module(name: str) -> bool:
    return name == "spinpair" or name.startswith("spinpair.")


class Patcher:
    """Replaces functions by identity across the loaded package; undoable."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []
        self.absent: list[str] = []

    def resolve(self, module: str, dotted: str) -> tuple[Any, str, Any] | None:
        """(owner, attribute, original) of ``module.dotted``, or None."""
        owner = sys.modules.get(module)
        parts = dotted.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
        original = getattr(owner, parts[-1], None)
        if owner is None or not callable(original):
            self.absent.append(f"{module}.{dotted}")
            return None
        return owner, parts[-1], original

    def replace(self, module: str, dotted: str, make: Callable[[Any], Any]) -> None:
        """Swap ``module.dotted`` and every module-level alias of it for ``make(original)``."""
        found = self.resolve(module, dotted)
        if found is None:
            return
        owner, attr, original = found
        wrapper = make(original)
        owners = [owner] + [
            mod for name, mod in list(sys.modules.items())
            if _is_package_module(name) and mod is not owner
        ]
        for target in owners:
            names = [attr] if target is owner else [
                key for key, value in vars(target).items() if value is original
            ]
            for key in names:
                self._undo.append((target, key, getattr(target, key)))
                setattr(target, key, wrapper)

    def restore(self) -> None:
        while self._undo:
            target, key, value = self._undo.pop()
            setattr(target, key, value)


def _oracle_steps(fn: Callable, args: tuple, kwargs: dict) -> int:
    """RK4 steps a call will take: sum of ceil(segment/step) over its event grid.

    Mirrors the integrator's contract (samples, default 201 of them,
    merged with the breakpoints inside (0, t_end) and with 0), so the
    count comes from the inputs and does not depend on the kernels.
    """
    bound = inspect.signature(fn).bind(*args, **kwargs)
    call = bound.arguments
    t_end = float(call["t_end"])
    step = float(call["cfg"].step)
    samples = call.get("sample_times")
    samples = np.linspace(0.0, t_end, 201) if samples is None else np.asarray(samples, float)
    marks = [b for b in call.get("breakpoints", ()) if 0.0 < b < t_end]
    events = np.unique(np.concatenate([samples, np.asarray(marks, float), [0.0]]))
    per_segment = sum(max(1, math.ceil((b - a) / step)) for a, b in zip(events[:-1], events[1:]))
    return per_segment * (3 if getattr(call["cfg"], "method", "") == "rk4_doubling" else 1)


class Tracer:
    """Wraps the layer entry points and accumulates calls, self time and work."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.inclusive_s: dict[str, float] = defaultdict(float)
        self.oracle_steps = 0
        self.csv_bytes = 0
        self._stack: list[list[float]] = []
        self._patcher = Patcher()

    @property
    def absent(self) -> list[str]:
        return self._patcher.absent

    def install(self) -> None:
        for layer, (module, names) in LAYERS.items():
            if names is None:
                mod = sys.modules.get(module)
                if mod is None:
                    self._patcher.absent.append(module)
                    continue
                names = tuple(
                    n for n in getattr(mod, "__all__", ()) if callable(getattr(mod, n, None))
                )
            for name in names:
                self._patcher.replace(module, name, functools.partial(self._wrap, layer))

    def remove(self) -> None:
        self._patcher.restore()

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                self.calls[layer] += 1
                self.self_s[layer] += dt - child[0]
                self.inclusive_s[layer] += dt
            if layer == "oracle":
                self.oracle_steps += _oracle_steps(fn, args, kwargs)
            elif layer == "cli.csv":
                self.csv_bytes += os.path.getsize(kwargs.get("path", args[-1]))
            return result

        return span

    def metrics(self, traced_wall: float) -> dict[str, float]:
        """Per-layer figures of one traced pass (without the overhead ratio)."""
        out: dict[str, float] = {}
        for layer in COUNTED:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
        csv_s = self.self_s["cli.csv"]
        out["cli.self_s"] = self.self_s["cli"]
        out["cli.csv_s"] = csv_s
        out["cli.csv_bytes"] = self.csv_bytes
        out["cli.csv_mb_per_s"] = self.csv_bytes / 1e6 / csv_s if csv_s > 0 else 0.0
        oracle_s = self.inclusive_s["oracle"]
        out["oracle.steps"] = self.oracle_steps
        out["oracle.steps_per_s"] = self.oracle_steps / oracle_s if oracle_s > 0 else 0.0
        out["trace.coverage"] = sum(self.self_s.values()) / traced_wall
        return out
