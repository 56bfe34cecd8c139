"""Numerical propagation: fixed-step RK4 (the oracle) and Magnus-4.

The RK4 integrators are the independent check against which the
analytic propagators, and :func:`magnus_full`, numeric mode's path,
are validated.  All four run one march, which hands each 2-amplitude
block to a kernel of :mod:`spinpair._kernels` and gets back its states
at every event.  Neither kernel renormalizes the state: norm drift,
the largest change of the squared norm over the samples, is the
integration-quality diagnostic, and a drift beyond the configured
tolerance raises :class:`NormDriftError`.

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
from ._kernels import _ic2_field, _sines
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
# the same product for the default step: half the accepted one, so the
# default is never refused; the Magnus-4 error falls about 16x per halving
_DEFAULT_STEP_NORM = 0.5
# largest |squared norm - initial squared norm| a run may end with
_NORM_TOL = 1e-6


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step settings of the RK4 oracle and of :func:`magnus_full`.

    ``step`` is the nominal step; each inter-knot segment is subdivided
    into equal steps no longer than it.  A run whose squared norm drifts
    by more than 1e-6 raises :class:`NormDriftError`.
    """

    step: float

    def __post_init__(self):
        # written so that NaN fails too
        if not self.step > 0.0:
            raise ValueError("step must be positive")


@dataclass(frozen=True)
class Trace:
    """Sampled evolution of one block (2 amplitudes) or of the full state.

    The full state has 4 amplitudes in uncoupled order.
    """

    times: np.ndarray
    amplitudes: np.ndarray  # shape (n, 2) or (n, 4), complex
    norm_drift: float


def suggest_step(params: ModelParams, t_end: float) -> float:
    """Default step: shortest drive period / 200; t_end/2000 for static drives.

    Capped at 0.5 over the Hamiltonian norm bound, so :func:`magnus_full`
    accepts it.  A bound that is not finite and positive leaves the step
    as it is, for :func:`magnus_full` to judge.
    """
    freqs = params.all_frequencies()
    # t_end / 2000 is 0 for t_end below about 1e-320: then one step, exact
    # for static drives
    step = (2.0 * math.pi / max(freqs)) / 200.0 if freqs else (t_end / 2000.0 or t_end)
    bound = _norm_bound(params)
    if 0.0 < bound < math.inf:
        step = min(step, _DEFAULT_STEP_NORM / bound)
    return step


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


def _drift(samples: np.ndarray, initial: Sequence[complex]) -> float:
    """Largest |squared norm - initial squared norm| over the sampled states.

    A NaN sticks (``np.max`` keeps it) and a square past the float range
    is inf, so a blown-up run always fails the drift check of :func:`_march`.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        norm0 = np.sum(np.abs(np.asarray(initial, dtype=complex)) ** 2)
        return float(np.max(np.abs(np.sum(np.abs(samples) ** 2, axis=1) - norm0)))


def _march(
    advance: Callable,
    blocks: Sequence,
    initial: Sequence[complex],
    t_end: float,
    cfg: IntegratorConfig,
    sample_times: Sequence[float] | None,
    breakpoints: Iterable[float] = (),
) -> Trace:
    """States of every block at the sample times, each block stepped by ``advance``.

    ``advance(block, y1, y2, events, counts)`` is a kernel of
    :mod:`spinpair._kernels`; ``initial`` holds two amplitudes per block.

    Raises
    ------
    ConfigError
        If the march needs more than ``_MAX_STEPS`` steps.
    NormDriftError
        If the squared norm drifts by more than 1e-6 (NaN included).
    """
    events, is_sample = _event_grid(t_end, sample_times, breakpoints)
    # steps per event segment: each no longer than the step, at least one
    counts = np.maximum(1.0, np.ceil(np.diff(events) / cfg.step))
    total = float(np.sum(counts))
    # written so that a NaN count fails too
    if not total <= _MAX_STEPS:
        raise ConfigError(
            f"the march needs {total:.3e} steps, over the step budget of {_MAX_STEPS:.0e}; "
            "raise the step or shorten the run"
        )
    counts = counts.astype(np.int64)
    y = [complex(v) for v in initial]
    amps = np.empty((events.size, len(y)), dtype=complex)
    for k, block in enumerate(blocks):
        amps[:, 2 * k], amps[:, 2 * k + 1] = advance(block, y[2 * k], y[2 * k + 1], events, counts)
    out = amps[is_sample]
    drift = _drift(out, y)
    # written so that a NaN drift fails too
    if not drift <= _NORM_TOL:
        raise NormDriftError(
            f"norm drift {drift:.3e} exceeds tolerance {_NORM_TOL:.3e}; reduce the step"
        )
    return Trace(events[is_sample], out, drift)


def _block_deriv(params: ModelParams) -> Callable:
    """Amplitude derivatives of subspace I's block of ``params``."""
    (wt, wo), (lt, lo), (zt, zo) = params.block_terms()

    def deriv(t, y1, y2):
        w = _sines(wt, wo, t)
        l = _sines(lt, lo, t)
        z = _sines(zt, zo, t)
        return -1j * ((w + z) * y1 + l * y2), -1j * (l * y1 + (z - w) * y2)

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
    blocks = [_block_deriv(params), _block_deriv(map_params_I_to_II(params))]
    return _march(_kernels.rk4_clamped, blocks, initial, t_end, cfg, sample_times)


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

    return _march(_kernels.rk4_clamped, [deriv], initial, t_end, cfg, sample_times, breakpoints)


def integrate_block_ic2(
    coeffs: Sequence[float],
    initial: Sequence[complex],
    t_end: float,
    cfg: IntegratorConfig,
    sample_times: Sequence[float] | None = None,
    breakpoints: Iterable[float] = (),
) -> Trace:
    """RK4 propagation of the block driven by the rate-matched derived field.

    ``coeffs`` comes from :func:`spinpair.exact.ic2_kernel_coeffs`: 10
    floats (mu, beta, phi, kappa, cos2theta0, 1-cos2theta0, then
    lambda_z as amplitude, frequency, phase and offset).
    ``breakpoints`` comes from :func:`spinpair.exact.ic2_breakpoints`
    (the derived field jumps there, so segments must not straddle
    them).  Steps with :func:`spinpair._kernels.rk4_clamped`, so
    one-sided limits at branch-touch segment ends are taken from the
    segment interior.

    Raises
    ------
    ConfigError
        If ``coeffs`` is not 10 finite floats with nonzero frequency
        ``beta`` (entry 1) and rate (entry 3).
    BranchExitError
        If the angle reaches the branch edge inside a segment (an
        inadmissible setup).
    """
    coeffs = tuple(float(v) for v in coeffs)
    if len(coeffs) != 10:
        raise ConfigError(f"ic2 kernel coefficients must be 10 floats, got {len(coeffs)}")
    if not all(map(math.isfinite, coeffs)):
        raise ConfigError("ic2 kernel coefficients must be finite")
    mu, beta, phi, kappa, cos2t0, big_a, amp, freq, phase, offset = coeffs
    for name, value in (("beta", beta), ("rate", kappa)):
        if value == 0.0:
            raise ConfigError(f"ic2 kernel coefficient {name} must be nonzero")
    z_terms = ((amp, freq, phase),) if amp != 0.0 else ()

    def deriv(t, y1, y2):
        w = _ic2_field(mu, beta, phi, kappa, cos2t0, big_a, t)
        l = mu * math.sin(beta * t + phi)
        z = 0.25 * _sines(z_terms, offset, t)
        return -1j * ((w + z) * y1 + l * y2), -1j * (l * y1 + (z - w) * y2)

    return _march(_kernels.rk4_clamped, [deriv], initial, t_end, cfg, sample_times, breakpoints)


def _norm_bound(params: ModelParams) -> float:
    """Bound of the spectral norm of either block over all t.

    hypot(field, coupling) + |z| per block, each bounded by
    :meth:`ModelParams.block_bounds`.
    """
    bounds = []
    for block in (params, map_params_I_to_II(params)):
        field, coupling, z = block.block_bounds()
        bounds.append(math.hypot(field, coupling) + z)
    # np.max, not max(): a NaN bound must stick
    return float(np.max(bounds))


def magnus_full(
    params: ModelParams,
    initial: Sequence[complex],
    t_end: float,
    cfg: IntegratorConfig,
    sample_times: Sequence[float] | None = None,
) -> Trace:
    """Magnus-4 propagation of the full 4-amplitude state (uncoupled order).

    Numeric mode's path; the same march as :func:`integrate_full`,
    with each block stepped by
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
        If the squared norm drifts by more than 1e-6 (NaN included).
    """
    bound = _norm_bound(params)
    # written so that a NaN product is refused too
    if not cfg.step * bound < _MAX_STEP_NORM:
        raise ConfigError(
            f"step {cfg.step:.3e} times the Hamiltonian norm bound {bound:.3e} is not "
            f"below {_MAX_STEP_NORM:g}; reduce the step"
        )
    blocks = [params.block_values, map_params_I_to_II(params).block_values]
    return _march(_kernels.magnus_block_profiles, blocks, initial, t_end, cfg, sample_times)
