"""Drive profiles and their exact time integrals.

Every time-dependent coefficient in the model (exchange couplings and
local fields) is one of three closed profile kinds: a constant, a pure
sinusoid, or a scalar multiple of another profile.  The closed algebra
keeps every integral exact, which the analytic propagators rely on.

Profiles are frozen dataclasses; sharing a profile between two
parameter sets is safe because no profile can be mutated after
construction.  Values and integrals take a single time or an array of
times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import NonConvergenceError

__all__ = [
    "Constant",
    "Sinusoid",
    "Scaled",
    "DriveProfile",
    "evaluate",
    "integral",
    "integral_abs",
    "quadrature",
    "is_static",
    "negate",
    "single_term",
    "frequencies",
]


@dataclass(frozen=True)
class Constant:
    """Time-independent value."""

    value: float


@dataclass(frozen=True)
class Sinusoid:
    """amplitude * sin(frequency * t + phase).

    ``frequency`` is angular (multiplies t directly) and must be nonzero;
    a zero-frequency drive is a :class:`Constant`.
    """

    amplitude: float
    frequency: float
    phase: float = 0.0

    def __post_init__(self):
        if self.frequency == 0.0:
            raise ValueError("sinusoid frequency must be nonzero")


@dataclass(frozen=True)
class Scaled:
    """factor * base, with ``base`` any other profile."""

    factor: float
    base: "DriveProfile"


DriveProfile = Union[Constant, Sinusoid, Scaled]


def evaluate(profile: DriveProfile, t: float | np.ndarray) -> float | np.ndarray:
    """Value of the profile at time t.

    ``t`` is a float or an array of times; the result has its shape.
    """
    t = np.asarray(t, dtype=float)
    match profile:
        case Constant(value=v):
            return np.full_like(t, v)[()]
        case Sinusoid(amplitude=a, frequency=b, phase=p):
            return a * np.sin(b * t + p)
        case Scaled(factor=k, base=base):
            return k * evaluate(base, t)
    raise TypeError(f"not a drive profile: {profile!r}")


def integral(profile: DriveProfile, t: float | np.ndarray) -> float | np.ndarray:
    """Exact integral of the profile over [0, t]; ``t`` a float or an array."""
    t = np.asarray(t, dtype=float)
    match profile:
        case Constant(value=v):
            return v * t[()]
        case Sinusoid(amplitude=a, frequency=b, phase=p):
            return (a / b) * (math.cos(p) - np.cos(b * t + p))
        case Scaled(factor=k, base=base):
            return k * integral(base, t)
    raise TypeError(f"not a drive profile: {profile!r}")


def _abs_sin_primitive(psi: np.ndarray) -> np.ndarray:
    # integral of |sin| from 0 to psi; exact for any real psi
    n = np.floor(psi / math.pi)
    return 2.0 * n + 1.0 - np.cos(psi - n * math.pi)


def integral_abs(profile: DriveProfile, t: float | np.ndarray) -> float | np.ndarray:
    """Exact integral of |profile| over [0, t], t >= 0; ``t`` a float or an array."""
    t = np.asarray(t, dtype=float)
    match profile:
        case Constant(value=v):
            return abs(v) * t[()]
        case Sinusoid(amplitude=a, frequency=b, phase=p):
            return abs(a) * (_abs_sin_primitive(b * t + p) - _abs_sin_primitive(p)) / b
        case Scaled(factor=k, base=base):
            return abs(k) * integral_abs(base, t)
    raise TypeError(f"not a drive profile: {profile!r}")


def quadrature(
    f: Callable[[float], float],
    t0: float,
    t1: float,
    tol: float = 1e-10,
    max_depth: int = 50,
) -> float:
    """Adaptive Simpson integration of a scalar callable over [t0, t1].

    Fallback for integrands with no closed form (e.g. the magnitude of a
    multi-term drive).  Raises :class:`NonConvergenceError` if the
    subdivision limit is reached before the error estimate drops below
    ``tol``.
    """
    if t0 == t1:
        return 0.0

    def simpson(a, fa, b, fb, fm):
        return (b - a) * (fa + 4.0 * fm + fb) / 6.0

    def recurse(a, fa, b, fb, fm, whole, tol, depth):
        m = 0.5 * (a + b)
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm = f(lm)
        frm = f(rm)
        left = simpson(a, fa, m, fm, flm)
        right = simpson(m, fm, b, fb, frm)
        if depth <= 0:
            raise NonConvergenceError(
                f"adaptive quadrature hit the subdivision limit on [{a}, {b}]"
            )
        if abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        half = 0.5 * tol
        return recurse(a, fa, m, fm, flm, left, half, depth - 1) + recurse(
            m, fm, b, fb, frm, right, half, depth - 1
        )

    fa, fb = f(t0), f(t1)
    fm = f(0.5 * (t0 + t1))
    whole = simpson(t0, fa, t1, fb, fm)
    return recurse(t0, fa, t1, fb, fm, whole, tol, max_depth)


def is_static(profile: DriveProfile) -> bool:
    """True if the profile does not depend on time."""
    match profile:
        case Constant():
            return True
        case Sinusoid():
            return False
        case Scaled(base=base):
            return is_static(base)
    raise TypeError(f"not a drive profile: {profile!r}")


def negate(profile: DriveProfile) -> DriveProfile:
    """Structural negation; applying it twice returns an equal profile."""
    match profile:
        case Constant(value=v):
            return Constant(-v)
        case Sinusoid(amplitude=a, frequency=b, phase=p):
            return Sinusoid(-a, b, p)
        case Scaled(factor=k, base=base):
            return Scaled(-k, base)
    raise TypeError(f"not a drive profile: {profile!r}")


def single_term(profile: DriveProfile) -> tuple[float, float, float, float]:
    """Collapse a profile to (amplitude, frequency, phase, offset).

    Every profile in the closed algebra is exactly
    amplitude*sin(frequency*t + phase) + offset.
    """
    match profile:
        case Constant(value=v):
            return (0.0, 0.0, 0.0, v)
        case Sinusoid(amplitude=a, frequency=b, phase=p):
            return (a, b, p, 0.0)
        case Scaled(factor=k, base=base):
            a, b, p, o = single_term(base)
            return (k * a, b, p, k * o)
    raise TypeError(f"not a drive profile: {profile!r}")


def frequencies(profile: DriveProfile) -> list[float]:
    """All angular frequencies appearing in the profile (possibly empty)."""
    match profile:
        case Constant():
            return []
        case Sinusoid(frequency=b):
            return [abs(b)]
        case Scaled(base=base):
            return frequencies(base)
    raise TypeError(f"not a drive profile: {profile!r}")
