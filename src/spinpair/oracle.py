"""Numerical reference propagation (fixed-step RK4).

This module provides the independent check against which the analytic
propagators are validated.  It never renormalizes the state: norm drift
is the integration-quality diagnostic, and a drift beyond the configured
tolerance raises :class:`NormDriftError`.

Integration marches through the merged, sorted set of sample times and
drive breakpoints, so every requested output time is hit exactly (no
interpolation) and discontinuities of the drive never fall inside an RK4
step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import _kernels
from .errors import ConfigError, NormDriftError
from .model import ModelParams, Subspace

__all__ = [
    "IntegratorConfig",
    "BlockTrace",
    "FullTrace",
    "suggest_step",
    "integrate_block",
    "integrate_full",
    "integrate_block_fn",
    "integrate_block_ic2",
]

_METHODS = ("rk4_fixed", "rk4_doubling")


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step RK4 settings.

    ``step`` is the nominal step; each inter-knot segment is subdivided
    into equal steps no longer than it.  ``rk4_doubling`` additionally
    integrates each segment at half the step and accumulates a
    Richardson error estimate (the reported trace still comes from the
    nominal step).
    """

    step: float
    method: str = "rk4_fixed"
    norm_tolerance: float = 1e-6

    def __post_init__(self):
        if self.step <= 0.0:
            raise ValueError("step must be positive")
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}; use one of {_METHODS}")
        if self.norm_tolerance <= 0.0:
            raise ValueError("norm_tolerance must be positive")


@dataclass(frozen=True)
class BlockTrace:
    """Sampled 2-amplitude evolution."""

    times: np.ndarray
    amplitudes: np.ndarray  # shape (n, 2), complex
    norm_drift: float
    error_estimate: float | None = None


@dataclass(frozen=True)
class FullTrace:
    """Sampled 4-amplitude evolution (uncoupled order)."""

    times: np.ndarray
    amplitudes: np.ndarray  # shape (n, 4), complex
    norm_drift: float
    error_estimate: float | None = None


def suggest_step(params: ModelParams, t_end: float) -> float:
    """Default step: shortest drive period / 200; t_end/2000 for static drives."""
    freqs = params.all_frequencies()
    if freqs:
        return (2.0 * math.pi / max(freqs)) / 200.0
    return t_end / 2000.0


def _event_grid(
    t_end: float, sample_times: Sequence[float] | None, breakpoints: Iterable[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Merged ascending event times plus a boolean mask of sample events."""
    if t_end <= 0.0:
        raise ValueError("t_end must be positive")
    if sample_times is None:
        samples = np.linspace(0.0, t_end, 201)
    else:
        samples = np.asarray(sample_times, dtype=float)
        if samples.ndim != 1 or len(samples) == 0:
            raise ValueError("sample_times must be a nonempty 1-d sequence")
        if np.any(np.diff(samples) <= 0.0):
            raise ValueError("sample_times must be strictly increasing")
        if samples[0] < 0.0 or samples[-1] > t_end:
            raise ValueError("sample_times must lie within [0, t_end]")
    marks = [b for b in breakpoints if 0.0 < b < t_end]
    events = np.unique(np.concatenate([samples, np.asarray(marks, dtype=float), [0.0]]))
    is_sample = np.isin(events, samples)
    return events, is_sample


def _norm2(y) -> float:
    # sum of |v|**2; abs() and ** raise OverflowError past ~1e154
    try:
        return sum(abs(v) ** 2 for v in y)
    except OverflowError:
        return math.inf


def _march(step_fn, y0, events, is_sample, cfg: IntegratorConfig):
    """Generic march over event segments.

    step_fn(y, a, b, n) advances state tuple y from a to b in n steps.
    Returns (samples array, norm drift, error estimate or None).
    """
    dim = len(y0)
    n_samples = int(np.count_nonzero(is_sample))
    out = np.empty((n_samples, dim), dtype=complex)
    y = tuple(complex(v) for v in y0)
    norm0 = _norm2(y)
    drift = 0.0
    estimate = 0.0 if cfg.method == "rk4_doubling" else None

    row = 0
    if is_sample[0]:  # events always start at exactly 0.0
        out[row] = y
        row += 1

    for k in range(1, len(events)):
        a, b = float(events[k - 1]), float(events[k])
        n = max(1, math.ceil((b - a) / cfg.step))
        y_next = step_fn(y, a, b, n)
        if estimate is not None:
            y_half = step_fn(y, a, b, 2 * n)
            diff = math.sqrt(_norm2([u - v for u, v in zip(y_next, y_half)]))
            estimate += diff * (16.0 / 15.0)
        y = y_next
        if is_sample[k]:
            out[row] = y
            row += 1
            d = abs(_norm2(y) - norm0)
            # max() drops a NaN second argument; a NaN drift must stick
            drift = d if math.isnan(d) else max(drift, d)
    if not drift <= cfg.norm_tolerance:
        raise NormDriftError(
            f"norm drift {drift:.3e} exceeds tolerance {cfg.norm_tolerance:.3e}; "
            "reduce the step"
        )
    return out, drift, estimate


def integrate_block(
    params: ModelParams,
    subspace: Subspace,
    initial: Sequence[complex],
    t_end: float,
    cfg: IntegratorConfig,
    sample_times: Sequence[float] | None = None,
) -> BlockTrace:
    """RK4 propagation of one 2x2 block of the Hamiltonian."""
    coeffs = params.block_terms(subspace)
    events, is_sample = _event_grid(t_end, sample_times, ())

    def step(y, a, b, n):
        return _kernels.rk4_block_profiles(coeffs, y[0], y[1], a, b, n)

    out, drift, est = _march(step, tuple(initial), events, is_sample, cfg)
    return BlockTrace(events[is_sample], out, drift, est)


def integrate_full(
    params: ModelParams,
    initial: Sequence[complex],
    t_end: float,
    cfg: IntegratorConfig,
    sample_times: Sequence[float] | None = None,
) -> FullTrace:
    """RK4 propagation of the full 4-amplitude state (uncoupled order).

    The Hamiltonian is block diagonal, so each step advances the two
    blocks separately (the amplitudes equal :func:`integrate_block` on
    each subspace) and amplitudes starting at exactly zero in one block
    stay exactly zero: no numerical leakage.  Norm drift and the
    doubling estimate are taken over all four amplitudes.
    """
    one = params.block_terms(Subspace.ONE)
    two = params.block_terms(Subspace.TWO)
    events, is_sample = _event_grid(t_end, sample_times, ())

    def step(y, a, b, n):
        upper = _kernels.rk4_block_profiles(one, y[0], y[1], a, b, n)
        return upper + _kernels.rk4_block_profiles(two, y[2], y[3], a, b, n)

    out, drift, est = _march(step, tuple(initial), events, is_sample, cfg)
    return FullTrace(events[is_sample], out, drift, est)


def integrate_block_fn(
    hfun: Callable[[float], object],
    initial: Sequence[complex],
    t_end: float,
    cfg: IntegratorConfig,
    sample_times: Sequence[float] | None = None,
    breakpoints: Iterable[float] = (),
) -> BlockTrace:
    """RK4 propagation of a generic 2x2 Hermitian Hamiltonian callable.

    ``hfun(t)`` must return a 2x2 indexable.  ``breakpoints`` marks times
    where the Hamiltonian is discontinuous; integration never steps
    across them, and stage times are nudged 1e-9 inside each segment
    (see :func:`spinpair._kernels.rk4_clamped`) so ``hfun`` is only
    asked for one-sided limits at its discontinuities.
    """
    events, is_sample = _event_grid(t_end, sample_times, breakpoints)

    def deriv(t, y1, y2):
        h = hfun(t)
        h00 = complex(h[0][0])
        h01 = complex(h[0][1])
        h10 = complex(h[1][0])
        h11 = complex(h[1][1])
        return -1j * (h00 * y1 + h01 * y2), -1j * (h10 * y1 + h11 * y2)

    def step(y, a, b, n):
        return _kernels.rk4_clamped(deriv, y[0], y[1], a, b, n)

    out, drift, est = _march(step, tuple(initial), events, is_sample, cfg)
    return BlockTrace(events[is_sample], out, drift, est)


def integrate_block_ic2(
    coeffs: Sequence[float],
    initial: Sequence[complex],
    t_end: float,
    cfg: IntegratorConfig,
    sample_times: Sequence[float] | None = None,
    breakpoints: Iterable[float] = (),
) -> BlockTrace:
    """RK4 propagation against the rate-matched derived field kernel.

    ``coeffs`` comes from :func:`spinpair.exact.ic2_kernel_coeffs`;
    ``breakpoints`` from :func:`spinpair.exact.ic2_breakpoints` (the
    derived field jumps there, so segments must not straddle them).

    Raises
    ------
    ConfigError
        If ``coeffs`` is not 13 finite floats with nonzero frequency
        ``beta`` (entry 1) and rate (entry 3).
    BranchExitError
        If the angle reaches the branch edge inside a segment (an
        inadmissible setup).
    """
    coeffs = tuple(float(v) for v in coeffs)
    if len(coeffs) != 13:
        raise ConfigError(f"ic2 kernel coefficients must be 13 floats, got {len(coeffs)}")
    if not all(map(math.isfinite, coeffs)) or coeffs[1] == 0.0 or coeffs[3] == 0.0:
        raise ConfigError(
            "ic2 kernel coefficients must be finite, with nonzero beta and rate"
        )
    events, is_sample = _event_grid(t_end, sample_times, breakpoints)

    def step(y, a, b, n):
        return _kernels.rk4_block_ic2(coeffs, y[0], y[1], a, b, n)

    out, drift, est = _march(step, tuple(initial), events, is_sample, cfg)
    return BlockTrace(events[is_sample], out, drift, est)
