"""Concurrence of two-qubit states: general machinery and closed forms.

The general mixed-state route takes the square-rooted eigenvalues of
``R = rho (sy x sy) rho* (sy x sy)`` as the singular values of
``sqrt(rho) (sy x sy) sqrt(rho)*``: one ``numpy.linalg.eigh`` of rho,
which also serves the density-matrix checks, and one ``svd``.
Pure states get the direct quadratic formulas in either basis order,
and the propagated amplitude pairs of the closed-form regimes get their
fully reduced concurrence expressions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidDensityMatrixError
from .exact import BlockAmplitudes, IC2Setup, ic2_theta
from .model import basis_change_matrix

__all__ = [
    "Basis",
    "FourState",
    "DensityMatrix",
    "basis_convert",
    "concurrence_pure",
    "concurrence_wootters",
    "concurrence_generic",
    "concurrence_ic1",
    "concurrence_ic2",
    "spin_flip_matrix",
]

_KINDS = ("pp", "mm", "bell_s", "bell_a")

_HERMITICITY_TOL = 1e-12
_TRACE_TOL = 1e-12
_PSD_TOL = -1e-10
_NORM_TOL = 1e-9
# orthogonal and involutory: a coupled-order rho = V D V^H is (B V) D (B V)^H uncoupled
_BASIS_CHANGE = basis_change_matrix()


class Basis(Enum):
    """Four-state amplitude ordering.

    ``UNCOUPLED``: ``|++>, |-->, |+->, |-+>``.
    ``COUPLED``: ``|++>, |-->, |s>, |a>`` with the symmetric and
    antisymmetric combinations of the middle pair.
    """

    UNCOUPLED = "uncoupled"
    COUPLED = "coupled"


@dataclass(frozen=True)
class FourState:
    """Normalized pure state of the two qubits in a declared basis order."""

    basis: Basis
    amplitudes: tuple[complex, complex, complex, complex]

    def __post_init__(self):
        if not isinstance(self.basis, Basis):
            raise ValueError(f"basis must be a Basis member, got {self.basis!r}")
        amps = tuple(complex(a) for a in self.amplitudes)
        if len(amps) != 4:
            raise ValueError("a four-state needs exactly 4 amplitudes")
        object.__setattr__(self, "amplitudes", amps)
        norm = sum(abs(a) ** 2 for a in amps)
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"state norm {norm!r} is not 1 within {_NORM_TOL}")

    @classmethod
    def uncoupled(cls, fpp: complex, fmm: complex, fpm: complex, fmp: complex) -> "FourState":
        return cls(Basis.UNCOUPLED, (fpp, fmm, fpm, fmp))

    @classmethod
    def coupled(cls, f1: complex, f2: complex, f3: complex, f4: complex) -> "FourState":
        return cls(Basis.COUPLED, (f1, f2, f3, f4))

    def as_array(self) -> np.ndarray:
        return np.array(self.amplitudes, dtype=complex)


def basis_convert(state: FourState, target: Basis) -> FourState:
    """Re-express the state in the other basis order.

    The first two amplitudes are shared; the last two mix through the
    involutory map ``(u, v) -> ((u + v)/sqrt(2), (u - v)/sqrt(2))``.
    """
    if state.basis is target:
        return state
    f0, f1, f2, f3 = state.amplitudes
    r = 1.0 / math.sqrt(2.0)
    return FourState(target, (f0, f1, r * (f2 + f3), r * (f2 - f3)))


def concurrence_pure(state: FourState | np.ndarray) -> float | np.ndarray:
    """Concurrence of a normalized pure state, in [0, 1].

    ``state`` is a :class:`FourState` in either basis order, or an array
    of shape ``(..., 4)`` of normalized uncoupled amplitudes, one state
    per row; the result is a float or an array of shape ``(...)``.
    Uncoupled order: ``2|f_pp f_mm - f_pm f_mp|``; a coupled-order state
    is first re-expressed with :func:`basis_convert`, which is the same
    as ``|2 f1 f2 - (f3^2 - f4^2)|``.
    """
    if isinstance(state, FourState):
        state = basis_convert(state, Basis.UNCOUPLED).as_array()
    f = np.asarray(state, dtype=complex)
    return np.minimum(2.0 * np.abs(f[..., 0] * f[..., 1] - f[..., 2] * f[..., 3]), 1.0)


def spin_flip_matrix() -> np.ndarray:
    """``sigma_y x sigma_y`` in the uncoupled amplitude order."""
    rows = [[0, -1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    return np.array(rows, dtype=complex)


_FLIP = spin_flip_matrix()


@dataclass(frozen=True)
class DensityMatrix:
    """4x4 density matrix in a declared basis order.

    Must be finite, Hermitian, unit trace within 1e-12, and positive
    semidefinite within -1e-10 on the eigenvalues;
    :meth:`validate` enforces all four.
    """

    matrix: np.ndarray
    basis: Basis = Basis.UNCOUPLED

    def __post_init__(self):
        if not isinstance(self.basis, Basis):
            raise InvalidDensityMatrixError(f"basis must be a Basis member, got {self.basis!r}")
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise InvalidDensityMatrixError(f"expected a 4x4 matrix, got {m.shape}")
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_pure(cls, state: FourState) -> "DensityMatrix":
        f = state.as_array()
        return cls(np.outer(f, f.conj()), state.basis)

    def validate(self) -> None:
        """Raise :class:`InvalidDensityMatrixError` on any broken invariant."""
        _checked_eigh(self.matrix)


def _checked_eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # the four density-matrix checks; returns eigh of the Hermitian part
    if not np.isfinite(m).all():
        raise InvalidDensityMatrixError("matrix has non-finite entries")
    adj = m.conj().T
    if abs(m - adj).max() > _HERMITICITY_TOL:
        raise InvalidDensityMatrixError("matrix is not Hermitian within 1e-12")
    tr = m.trace()
    if abs(tr.real - 1.0) > _TRACE_TOL or abs(tr.imag) > _TRACE_TOL:
        raise InvalidDensityMatrixError(f"trace {complex(tr)!r} is not 1 within 1e-12")
    evals, vecs = np.linalg.eigh(0.5 * (m + adj))
    if evals[0] < _PSD_TOL:
        raise InvalidDensityMatrixError(
            f"matrix has an eigenvalue {float(evals[0])!r} below {_PSD_TOL}"
        )
    return evals, vecs


def concurrence_wootters(rho: DensityMatrix) -> float:
    """Concurrence of a general (mixed) two-qubit state, in [0, 1].

    The descending square-rooted eigenvalues ``l1..l4`` of
    ``rho (sy x sy) rho* (sy x sy)`` are the singular values of
    ``sqrt(rho) (sy x sy) sqrt(rho)*``, which with ``rho = V D V^H`` are
    those of ``sqrt(D) V^T (sy x sy) V sqrt(D)``; returns ``max(l1 - l2 - l3 - l4, 0)``.

    Raises
    ------
    InvalidDensityMatrixError
        If ``rho`` has non-finite entries or fails Hermiticity, trace or
        positivity checks.
    """
    evals, vecs = _checked_eigh(rho.matrix)
    if rho.basis is Basis.COUPLED:
        vecs = _BASIS_CHANGE @ vecs
    scaled = vecs * np.sqrt(np.maximum(evals, 0.0))
    lam = np.linalg.svd(scaled.T @ (_FLIP @ scaled), compute_uv=False)
    return min(max(float(lam[0] - lam[1] - lam[2] - lam[3]), 0.0), 1.0)


def _mixing_pair(u: complex, v: complex, theta0: float) -> tuple[complex, complex]:
    # projections of initial amplitudes (u, v) on the frozen eigenpair
    c0, s0 = math.cos(theta0), math.sin(theta0)
    return u * c0 + v * s0, -u * s0 + v * c0


def concurrence_generic(
    a: complex,
    b: complex,
    c: complex,
    d: complex,
    x: BlockAmplitudes,
    y: BlockAmplitudes,
    z: BlockAmplitudes,
    w: BlockAmplitudes,
    theta10: float,
    theta20: float,
) -> float:
    """Concurrence of a state spread over both subspaces.

    ``(a, b)`` start on ``{|++>, |-->}`` and ``(c, d)`` on
    ``{|+->, |-+>}``; the two subspaces contribute with opposite signs
    and can interfere constructively or destructively:

    ``C = 2|alpha^2 x1 x2 + beta^2 y1 y2 + alpha beta (x1 y2 + x2 y1)
    - gamma^2 z1 z2 - delta^2 w1 w2 - gamma delta (z1 w2 + z2 w1)|``

    with ``(alpha, beta)`` the subspace-I projections at ``theta10``
    and ``(gamma, delta)`` the subspace-II projections at ``theta20``.
    """
    alpha, beta = _mixing_pair(a, b, theta10)
    gamma, delta = _mixing_pair(c, d, theta20)
    val = (
        alpha * alpha * x.a1 * x.a2
        + beta * beta * y.a1 * y.a2
        + alpha * beta * (x.a1 * y.a2 + x.a2 * y.a1)
        - gamma * gamma * z.a1 * z.a2
        - delta * delta * w.a1 * w.a2
        - gamma * delta * (z.a1 * w.a2 + z.a2 * w.a1)
    )
    return 2.0 * abs(val)


def concurrence_ic1(kind: str, theta10: float, j_phase: float | np.ndarray) -> float | np.ndarray:
    """Closed-form concurrence under proportional drive.

    ``j_phase`` is the accumulated splitting phase (the integral of the
    subspace-I gap), a float or an array; the result is shaped like it.
    ``kind`` selects the initial state: ``"pp"`` (``|++>``), ``"mm"``
    (``|-->``), ``"bell_s"``/``"bell_a"`` (the symmetric/antisymmetric
    equal superpositions).
    """
    s2 = math.sin(2.0 * theta10)
    c2 = math.cos(2.0 * theta10)
    j = np.asarray(j_phase, dtype=float)
    sj = np.sin(j)
    im = -s2 * np.sin(2.0 * j)
    # each mirrored pair differs only in the sign of the real part
    if kind in ("pp", "mm"):
        return np.hypot(2.0 * s2 * c2 * sj * sj, im)
    if kind in ("bell_s", "bell_a"):
        return np.hypot(s2 * s2 * np.cos(2.0 * j) + c2 * c2, im)
    raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")


def concurrence_ic2(kind: str, setup: IC2Setup, t: float | np.ndarray) -> float | np.ndarray:
    """Closed-form concurrence under rate-matched drive (subspace I).

    Combines the reduced sub-expressions ``Re(x1 x2)``, ``Im(x1 x2)``
    and ``x1 y2 + y1 x2`` of the propagated pair products, with the
    common diagonal phase factored out; ``kind`` selects the initial
    state as in :func:`concurrence_ic1`.  ``t`` is a float or an array
    of times; the result is shaped like it.

    Raises
    ------
    BranchExitError
        Propagated from the angle evaluation on inadmissible setups.
    """
    kappa = setup.kappa
    theta1 = ic2_theta(setup, t)
    delta = (theta1 - setup.theta10) * math.sqrt(1.0 + kappa**-2)
    one_k2 = 1.0 + kappa * kappa
    kbar = abs(kappa) / math.sqrt(one_k2)
    s2t = np.sin(2.0 * theta1)
    c2t = np.cos(2.0 * theta1)
    s2d = np.sin(2.0 * delta)
    sd = np.sin(delta)
    cd = np.cos(delta)
    re = 0.5 * s2t * np.cos(2.0 * delta) - 0.5 * kbar * s2d * c2t
    im = kappa * sd * sd * c2t / one_k2 - 0.5 * math.copysign(1.0, kappa) * s2t * s2d / math.sqrt(one_k2)
    cross = kbar * s2t * s2d + cd * cd * c2t + sd * sd * c2t * (1.0 - kappa * kappa) / one_k2
    s2 = math.sin(2.0 * setup.theta10)
    c2 = math.cos(2.0 * setup.theta10)
    # each mirrored pair differs only in the sign of the real part
    if kind in ("pp", "mm"):
        return np.hypot(2.0 * c2 * re - s2 * cross, 2.0 * im)
    if kind in ("bell_s", "bell_a"):
        return np.hypot(2.0 * s2 * re + c2 * cross, 2.0 * im)
    raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
