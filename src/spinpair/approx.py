"""Approximate subspace-I propagators: perturbation theory and the RWA.

Both treat a block with one static parameter and one sinusoidal drive.
First-order perturbation theory gives the weak-transition amplitude and
carries an artificial pole at the two-photon resonance; the
rotating-wave approximation removes that pole and stays exactly
unitary.  Every propagator takes a single time or an array of times
and returns amplitudes shaped like it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import drive as drive_mod
from .drive import Constant, DriveProfile, Sinusoid
from .errors import ConfigError, ResonancePoleError
from .exact import BlockAmplitudes

__all__ = [
    "RwaMode",
    "RwaSetup",
    "perturb_x1",
    "perturb_x2",
    "perturb_validity",
    "rwa_evolve",
    "rwa_orthogonal",
]

_RESONANCE_TOL = 1e-12


class RwaMode(Enum):
    """Which block parameter carries the sinusoidal drive.

    ``LAMBDA_DRIVE``: static field, sinusoidal coupling.
    ``FIELD_DRIVE``: static coupling, sinusoidal field.
    """

    LAMBDA_DRIVE = "lambda_drive"
    FIELD_DRIVE = "field_drive"


@dataclass(frozen=True)
class RwaSetup:
    """Rotating-wave configuration for subspace I.

    Parameters
    ----------
    mode : RwaMode
        Placement of the sinusoidal drive.
    static_value : float
        The non-driven parameter (the field for ``LAMBDA_DRIVE``, the
        coupling for ``FIELD_DRIVE``).
    drive : Sinusoid
        The driven parameter; its frequency must be positive.
    theta10 : float
        Initial mixing angle of the evolved eigenstate pair, radians.
    lambda_z : DriveProfile, optional
        Common diagonal drive, contributing only a global phase.
    """

    mode: RwaMode
    static_value: float
    drive: Sinusoid
    theta10: float
    lambda_z: DriveProfile = Constant(0.0)

    def __post_init__(self):
        if not isinstance(self.drive, Sinusoid):
            raise ValueError("drive must be a Sinusoid")
        # the Sinusoid itself refuses non-finite numbers
        if not all(map(math.isfinite, (self.static_value, self.theta10))):
            raise ValueError("static_value and theta10 must be finite")
        if self.drive.frequency <= 0.0:
            raise ValueError("drive frequency must be positive")


def _check_phases(t: float | np.ndarray, *rates: float) -> None:
    # exp(i*rate*t) is NaN once rate*t overflows
    span = float(np.max(np.abs(t), initial=0.0))
    if not all(math.isfinite(rate) and math.isfinite(rate * span) for rate in rates):
        raise ConfigError(f"perturbative phase rates {rates} overflow for |t| up to {span:g}")


def perturb_x1(omega_plus: float, t: float | np.ndarray) -> complex | np.ndarray:
    """Leading-order surviving amplitude ``exp(-i*omega_plus*t)``; ConfigError if it overflows."""
    t = np.asarray(t, dtype=float)
    _check_phases(t, omega_plus)
    return np.exp(-1j * omega_plus * t)


def perturb_x2(
    omega_plus: float, drive: Sinusoid, t: float | np.ndarray
) -> complex | np.ndarray:
    """First-order transition amplitude under a weak sinusoidal coupling.

    For ``coupling = mu*sin(beta*t)`` (zero phase) on a static field:

    ``x2(t) = (i/2) e^{i w t} mu [e^{i(b-2w)t}/(b-2w) + e^{-i(b+2w)t}/(b+2w)
    - 1/(b-2w) - 1/(b+2w)]``

    with ``w = omega_plus`` and ``b`` the drive frequency.

    Raises
    ------
    ResonancePoleError
        If either denominator ``b - 2w`` or ``b + 2w`` is within 1e-12
        of zero; the pole is an artifact of first order.
    ValueError
        If the drive carries a nonzero phase (the closed form assumes
        none).
    ConfigError
        If ``b +- 2w`` or a phase ``w*t``, ``(b +- 2w)*t`` overflows.
    """
    if drive.phase != 0.0:
        raise ValueError("the perturbative closed form requires zero drive phase")
    mu = drive.amplitude
    beta = drive.frequency
    d_minus = beta - 2.0 * omega_plus
    d_plus = beta + 2.0 * omega_plus
    t = np.asarray(t, dtype=float)
    _check_phases(t, omega_plus, d_minus, d_plus)
    if abs(d_minus) < _RESONANCE_TOL or abs(d_plus) < _RESONANCE_TOL:
        raise ResonancePoleError(
            "perturbative amplitude evaluated at its pole (drive frequency "
            "within 1e-12 of twice the field)"
        )
    bracket = (
        np.exp(1j * d_minus * t) / d_minus
        + np.exp(-1j * d_plus * t) / d_plus
        - 1.0 / d_minus
        - 1.0 / d_plus
    )
    return 0.5j * np.exp(1j * omega_plus * t) * mu * bracket


def perturb_validity(omega_plus: float, drive: Sinusoid) -> float:
    """Smallness parameter ``|mu/(beta - 2*omega_plus)|`` of the expansion.

    Values well below 1 indicate a consistent weak transition.

    Raises
    ------
    ResonancePoleError
        At exact two-photon resonance (denominator below 1e-12).
    ConfigError
        If the denominator overflows.
    """
    d_minus = drive.frequency - 2.0 * omega_plus
    _check_phases(0.0, d_minus)
    if abs(d_minus) < _RESONANCE_TOL:
        raise ResonancePoleError(
            "validity metric undefined at the two-photon resonance"
        )
    return abs(drive.amplitude / d_minus)


def _dressed_pair(
    detuning: float,
    mu: float,
    beta: float,
    phi: float,
    c_init: float,
    s_init: float,
    t: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    # closed-form rotating-frame propagator applied to (c_init, s_init):
    # gamma = hypot(mu, detuning); the signed cos(2*theta) = detuning/gamma
    # solves the frame equation of motion for either detuning sign
    gamma = math.hypot(mu, detuning)
    if gamma == 0.0:
        c2t, s2t = 1.0, 0.0
    else:
        c2t = detuning / gamma
        s2t = mu / gamma
    ch = np.cos(0.5 * gamma * t)
    sh = np.sin(0.5 * gamma * t)
    frame = np.exp(-0.5j * beta * t)
    u1 = frame * ((ch + 1j * sh * c2t) * c_init + s2t * sh * cmath.exp(-1j * phi) * s_init)
    u2 = frame.conjugate() * (
        -s2t * sh * cmath.exp(1j * phi) * c_init + (ch - 1j * sh * c2t) * s_init
    )
    return u1, u2


def _rwa_amplitudes(
    setup: RwaSetup, t: float | np.ndarray, c0: float, s0: float
) -> BlockAmplitudes:
    mu = setup.drive.amplitude
    beta = setup.drive.frequency
    phi = setup.drive.phase
    detuning = beta - 2.0 * setup.static_value
    t = np.asarray(t, dtype=float)
    lam = np.exp(-0.25j * drive_mod.integral(setup.lambda_z, t))
    if setup.mode is RwaMode.LAMBDA_DRIVE:
        u1, u2 = _dressed_pair(detuning, mu, beta, phi, c0, s0, t)
        return BlockAmplitudes(lam * u1, lam * u2)
    # field drive: propagate the sum/difference combinations, then recombine
    cp = c0 + s0
    cm = c0 - s0
    u1, u2 = _dressed_pair(detuning, mu, beta, phi, cp, cm, t)
    x_plus = 0.5 * lam * u1
    x_minus = 0.5 * lam * u2
    return BlockAmplitudes(x_plus + x_minus, x_plus - x_minus)


def rwa_evolve(setup: RwaSetup, t: float | np.ndarray) -> BlockAmplitudes:
    """Rotating-wave evolution of the first subspace-I eigenstate.

    Exactly unitary for all parameters; finite at the two-photon
    resonance where the dressed splitting reduces to the drive
    amplitude (full population flopping).

    Returns
    -------
    BlockAmplitudes
        Components on ``{|++>, |-->}`` starting from
        ``(cos(theta10), sin(theta10))``, shaped like ``t`` (a float or
        an array of times).
    """
    return _rwa_amplitudes(setup, t, math.cos(setup.theta10), math.sin(setup.theta10))


def rwa_orthogonal(setup: RwaSetup, t: float | np.ndarray) -> BlockAmplitudes:
    """Rotating-wave evolution of the orthogonal eigenstate.

    Applies the replacement ``cos(theta10) -> -sin(theta10)``,
    ``sin(theta10) -> cos(theta10)`` to :func:`rwa_evolve`; the result
    stays orthogonal to it for all t.
    """
    return _rwa_amplitudes(setup, t, -math.sin(setup.theta10), math.cos(setup.theta10))
