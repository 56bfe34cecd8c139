"""Drive profiles and their exact time integrals.

Every time-dependent coefficient in the model (exchange couplings and
local fields) is one of two profile kinds: a constant or a pure
sinusoid, and :func:`scale` keeps the kind.  Every integral is exact,
which the analytic propagators rely on.

Profiles are frozen dataclasses that refuse non-finite numbers; sharing
a profile between two parameter sets is safe because no profile can be
mutated after construction.  Values and integrals take a single time or
an array of times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Constant",
    "Sinusoid",
    "DriveProfile",
    "evaluate",
    "integral",
    "integral_abs",
    "is_static",
    "scale",
    "single_term",
    "frequencies",
]


@dataclass(frozen=True)
class Constant:
    """Time-independent value."""

    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError(f"constant value must be finite, got {self.value!r}")


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
        if not all(map(math.isfinite, (self.amplitude, self.frequency, self.phase))):
            raise ValueError("sinusoid amplitude, frequency and phase must be finite")
        if self.frequency == 0.0:
            raise ValueError("sinusoid frequency must be nonzero")


DriveProfile = Constant | Sinusoid


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
    raise TypeError(f"not a drive profile: {profile!r}")


def integral(profile: DriveProfile, t: float | np.ndarray) -> float | np.ndarray:
    """Exact integral of the profile over [0, t]; ``t`` a float or an array."""
    t = np.asarray(t, dtype=float)
    match profile:
        case Constant(value=v):
            return v * t[()]
        case Sinusoid(amplitude=a, frequency=b, phase=p):
            return (a / b) * (math.cos(p) - np.cos(b * t + p))
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
    raise TypeError(f"not a drive profile: {profile!r}")


def is_static(profile: DriveProfile) -> bool:
    """True if the profile does not depend on time."""
    match profile:
        case Constant():
            return True
        case Sinusoid():
            return False
    raise TypeError(f"not a drive profile: {profile!r}")


def scale(factor: float, profile: DriveProfile) -> DriveProfile:
    """factor * profile as a profile of the same kind.

    ``scale(-1.0, p)`` negates exactly, signed zeros included.  A
    non-finite product is refused with ``ValueError``, as by any profile.
    """
    match profile:
        case Constant(value=v):
            return Constant(factor * v)
        case Sinusoid(amplitude=a, frequency=b, phase=p):
            return Sinusoid(factor * a, b, p)
    raise TypeError(f"not a drive profile: {profile!r}")


def single_term(profile: DriveProfile) -> tuple[float, float, float, float]:
    """Collapse a profile to (amplitude, frequency, phase, offset).

    Every profile is exactly amplitude*sin(frequency*t + phase) + offset.
    """
    match profile:
        case Constant(value=v):
            return (0.0, 0.0, 0.0, v)
        case Sinusoid(amplitude=a, frequency=b, phase=p):
            return (a, b, p, 0.0)
    raise TypeError(f"not a drive profile: {profile!r}")


def frequencies(profile: DriveProfile) -> list[float]:
    """All angular frequencies appearing in the profile (possibly empty)."""
    match profile:
        case Constant():
            return []
        case Sinusoid(frequency=b):
            return [abs(b)]
    raise TypeError(f"not a drive profile: {profile!r}")
