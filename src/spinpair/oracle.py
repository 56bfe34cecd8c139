"""Numerical propagation: fixed-step RK4 (the oracle) and Magnus-4.

The RK4 integrators are the independent check against which the
analytic propagators, and :func:`magnus_full`, are validated.  All
three march with one loop, :func:`spinpair._kernels.rk4_clamped`,
over one ``deriv(t, y1, y2)`` per 2-amplitude block.
:func:`magnus_full` is numeric mode's production path.  Neither
renormalizes the state: norm drift, the largest change of the squared
norm over the samples, is the integration-quality diagnostic, and a
drift beyond the configured tolerance raises :class:`NormDriftError`.

Integration marches through the merged, sorted set of sample times and
drive breakpoints, so every requested output time is hit exactly (no
interpolation) and discontinuities of the drive never fall inside a
step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import _kernels
from ._kernels import _ic2_field, _two_term
from .errors import ConfigError, NormDriftError
from .model import ModelParams, map_params_I_to_II

__all__ = [
    "IntegratorConfig",
    "Trace",
    "suggest_step",
    "integrate_full",
    "integrate_block_fn",
    "integrate_block_ic2",
    "magnus_full",
]

# steps one RK4 or Magnus march may take: about 100x the largest test run
_MAX_STEPS = 10**7
# step times the Hamiltonian norm bound that magnus_full accepts: inside
# the Magnus convergence radius pi
_MAX_STEP_NORM = 1.0


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step settings of the RK4 oracle and of :func:`magnus_full`.

    ``step`` is the nominal step; each inter-knot segment is subdivided
    into equal steps no longer than it.  A run whose norm drifts beyond
    ``norm_tolerance`` raises :class:`NormDriftError`.
    """

    step: float
    norm_tolerance: float = 1e-6

    def __post_init__(self):
        # written so that NaN fails too
        if not self.step > 0.0:
            raise ValueError("step must be positive")
        if not self.norm_tolerance > 0.0:
            raise ValueError("norm_tolerance must be positive")


@dataclass(frozen=True)
class Trace:
    """Sampled evolution of one block (2 amplitudes) or of the full state.

    The full state has 4 amplitudes in uncoupled order.
    """

    times: np.ndarray
    amplitudes: np.ndarray  # shape (n, 2) or (n, 4), complex
    norm_drift: float


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


def _step_counts(events: np.ndarray, step: float) -> np.ndarray:
    """Steps per event segment: each no longer than ``step``, at least one.

    Raises
    ------
    ConfigError
        If the segments need more than ``_MAX_STEPS`` steps in all.
    """
    counts = np.maximum(1.0, np.ceil(np.diff(events) / step))
    total = float(np.sum(counts))
    # written so that a NaN count fails too
    if not total <= _MAX_STEPS:
        raise ConfigError(
            f"the march needs {total:.3e} steps, over the step budget of {_MAX_STEPS:.0e}; "
            "raise the step or shorten the run"
        )
    return counts.astype(np.int64)


def _check_drift(drift: float, cfg: IntegratorConfig) -> None:
    # written so that a NaN drift fails too
    if not drift <= cfg.norm_tolerance:
        raise NormDriftError(
            f"norm drift {drift:.3e} exceeds tolerance {cfg.norm_tolerance:.3e}; "
            "reduce the step"
        )


def _drift(samples: np.ndarray, initial: Sequence[complex]) -> float:
    """Largest |squared norm - initial squared norm| over the sampled states.

    A NaN sticks (``np.max`` keeps it) and a square past the float range
    is inf, so a blown-up run always fails :func:`_check_drift`.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        norm0 = np.sum(np.abs(np.asarray(initial, dtype=complex)) ** 2)
        return float(np.max(np.abs(np.sum(np.abs(samples) ** 2, axis=1) - norm0)))


def _march(
    derivs: Sequence[Callable],
    initial: Sequence[complex],
    t_end: float,
    cfg: IntegratorConfig,
    sample_times: Sequence[float] | None,
    breakpoints: Iterable[float] = (),
) -> Trace:
    """RK4 march of one 2-amplitude block per ``deriv(t, y1, y2)`` in ``derivs``.

    ``initial`` holds two amplitudes per block.  Each event segment
    advances every block by :func:`spinpair._kernels.rk4_clamped`.

    Raises
    ------
    ConfigError
        If the march needs more than ``_MAX_STEPS`` steps.
    NormDriftError
        If the norm drifts beyond ``cfg.norm_tolerance`` (NaN included).
    """
    events, is_sample = _event_grid(t_end, sample_times, breakpoints)
    counts = _step_counts(events, cfg.step)
    y = [complex(v) for v in initial]
    states = np.empty((events.size, len(y)), dtype=complex)
    states[0] = y
    for k in range(1, events.size):
        a, b, n = float(events[k - 1]), float(events[k]), int(counts[k - 1])
        for j, deriv in enumerate(derivs):
            y[2 * j], y[2 * j + 1] = _kernels.rk4_clamped(deriv, y[2 * j], y[2 * j + 1], a, b, n)
        states[k] = y
    out = states[is_sample]
    drift = _drift(out, states[0])
    _check_drift(drift, cfg)
    return Trace(events[is_sample], out, drift)


def _block_deriv(c: Sequence[float]) -> Callable:
    """Amplitude derivatives of a block from its 21 ``block_terms`` floats."""

    def deriv(t, y1, y2):
        w = _two_term(c, 0, t)
        l = _two_term(c, 7, t)
        z4 = 0.25 * _two_term(c, 14, t)
        return -1j * ((w + z4) * y1 + l * y2), -1j * (l * y1 + (z4 - w) * y2)

    return deriv


def integrate_full(
    params: ModelParams,
    initial: Sequence[complex],
    t_end: float,
    cfg: IntegratorConfig,
    sample_times: Sequence[float] | None = None,
) -> Trace:
    """RK4 propagation of the full 4-amplitude state (uncoupled order).

    The Hamiltonian is block diagonal, so each step advances the two
    blocks separately: a block's amplitudes do not depend on the other
    block's, and amplitudes starting at exactly zero in one block stay
    exactly zero (no numerical leakage).  Norm drift is taken over all
    four amplitudes.
    """
    blocks = (params.block_terms(), map_params_I_to_II(params).block_terms())
    return _march([_block_deriv(c) for c in blocks], initial, t_end, cfg, sample_times)


def integrate_block_fn(
    hfun: Callable[[float], object],
    initial: Sequence[complex],
    t_end: float,
    cfg: IntegratorConfig,
    sample_times: Sequence[float] | None = None,
    breakpoints: Iterable[float] = (),
) -> Trace:
    """RK4 propagation of a generic 2x2 Hermitian Hamiltonian callable.

    ``hfun(t)`` must return a 2x2 indexable.  ``breakpoints`` marks times
    where the Hamiltonian is discontinuous; integration never steps
    across them, and stage times are nudged 1e-9 inside each segment
    (a quarter of any segment shorter than 4e-9; see
    :func:`spinpair._kernels.rk4_clamped`) so ``hfun`` is only asked
    for one-sided limits at its discontinuities.
    """

    def deriv(t, y1, y2):
        h = hfun(t)
        h00 = complex(h[0][0])
        h01 = complex(h[0][1])
        h10 = complex(h[1][0])
        h11 = complex(h[1][1])
        return -1j * (h00 * y1 + h01 * y2), -1j * (h10 * y1 + h11 * y2)

    return _march([deriv], initial, t_end, cfg, sample_times, breakpoints)


def integrate_block_ic2(
    coeffs: Sequence[float],
    initial: Sequence[complex],
    t_end: float,
    cfg: IntegratorConfig,
    sample_times: Sequence[float] | None = None,
    breakpoints: Iterable[float] = (),
) -> Trace:
    """RK4 propagation of the block driven by the rate-matched derived field.

    ``coeffs`` comes from :func:`spinpair.exact.ic2_kernel_coeffs`: 13
    floats (mu, beta, phi, kappa, cos2theta0, 1-cos2theta0, then a
    two-term lambda_z drive).  ``breakpoints`` comes from
    :func:`spinpair.exact.ic2_breakpoints` (the derived field jumps
    there, so segments must not straddle them).  Steps with
    :func:`spinpair._kernels.rk4_clamped`, so one-sided limits at
    branch-touch segment ends are taken from the segment interior.

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
    mu, beta, phi, kappa, cos2t0, big_a = coeffs[:6]

    def deriv(t, y1, y2):
        w = _ic2_field(mu, beta, phi, kappa, cos2t0, big_a, t)
        l = mu * math.sin(beta * t + phi)
        z4 = 0.25 * _two_term(coeffs, 6, t)
        return -1j * ((w + z4) * y1 + l * y2), -1j * (l * y1 + (z4 - w) * y2)

    return _march([deriv], initial, t_end, cfg, sample_times, breakpoints)


def _norm_bound(coeffs: Sequence[float]) -> float:
    """Bound of the spectral norm of a block over all t, from its kernel vector.

    |z| + hypot(field, coupling), with each two-term drive bounded by the
    sum of its amplitudes and offset.
    """
    field, coupling, diag = (
        sum(abs(coeffs[base + k]) for k in (0, 3, 6)) for base in (0, 7, 14)
    )
    return math.hypot(field, coupling) + 0.25 * diag


def magnus_full(
    params: ModelParams,
    initial: Sequence[complex],
    t_end: float,
    cfg: IntegratorConfig,
    sample_times: Sequence[float] | None = None,
) -> Trace:
    """Magnus-4 propagation of the full 4-amplitude state (uncoupled order).

    Numeric mode's path; the same event grid, step counts and step
    budget as :func:`integrate_full`, with each block stepped by
    :func:`spinpair._kernels.magnus_block_profiles`.  Magnus steps stay
    unitary even where they mean nothing, so ``cfg.step`` times the
    norm bound of either block must be below 1 (the Magnus convergence
    radius is pi).

    Raises
    ------
    ConfigError
        On a step that is too long for the drives, or a run over the
        step budget.
    NormDriftError
        If the norm drifts beyond ``cfg.norm_tolerance`` (NaN included).
    """
    blocks = (params.block_terms(), map_params_I_to_II(params).block_terms())
    # np.max, not max(): a NaN bound must stick
    bound = float(np.max([_norm_bound(c) for c in blocks]))
    # written so that a NaN product is refused too
    if not cfg.step * bound < _MAX_STEP_NORM:
        raise ConfigError(
            f"step {cfg.step:.3e} times the Hamiltonian norm bound {bound:.3e} is not "
            f"below {_MAX_STEP_NORM:g}; reduce the step"
        )
    events, is_sample = _event_grid(t_end, sample_times, ())
    counts = _step_counts(events, cfg.step)
    y = [complex(v) for v in initial]
    amps = np.empty((events.size, 4), dtype=complex)
    amps[:, 0], amps[:, 1] = _kernels.magnus_block_profiles(blocks[0], y[0], y[1], events, counts)
    amps[:, 2], amps[:, 3] = _kernels.magnus_block_profiles(blocks[1], y[2], y[3], events, counts)
    out = amps[is_sample]
    drift = _drift(out, y)
    _check_drift(drift, cfg)
    return Trace(events[is_sample], out, drift)
