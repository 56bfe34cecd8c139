"""Shared fixtures, CSV helpers and references: quadrature, Hamiltonian, Wootters."""

import math

import numpy as np
import pytest

from spinpair.errors import InvalidDensityMatrixError


def read_csv(path):
    """Parse a trace or summary CSV into {column: array}, skipping echo lines."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    names = lines[0].strip().split(",")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return {name: data[:, i] for i, name in enumerate(names)}


SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)

# tensor order {++, +-, -+, --} -> uncoupled order {++, --, +-, -+}
PERM = [0, 3, 1, 2]
# the terms of lambda_x, lambda_y, lambda_z, omega_1 and omega_2, each
# built from spin operators S = sigma/2 and put in uncoupled order
SPIN_TERMS = [
    (c * np.kron(a, b))[np.ix_(PERM, PERM)]
    for c, a, b in ((0.25, SX, SX), (0.25, SY, SY), (0.25, SZ, SZ), (0.5, SZ, I2), (0.5, I2, SZ))
]


def tensor_hamiltonian(lx, ly, lz, w1, w2):
    """The 4x4 Hamiltonian in uncoupled order, from the spin-operator terms.

    Independent of :mod:`spinpair.model`'s blocks and of the I<->II map:
    the reference both are checked against.
    """
    return sum(v * term for v, term in zip((lx, ly, lz, w1, w2), SPIN_TERMS))


def quadrature(f, t0, t1, tol=1e-10, max_depth=50):
    """Adaptive Simpson integral of the scalar callable ``f`` over [t0, t1].

    Raises ``RuntimeError`` if the subdivision limit is reached before
    the error estimate drops below ``tol``.
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
            raise RuntimeError(f"adaptive quadrature hit the subdivision limit on [{a}, {b}]")
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


def wootters_reference(m, coupled=False):
    """Wootters concurrence by three 4x4 decompositions, after the density-matrix checks.

    The earlier form of :func:`spinpair.entangle.concurrence_wootters`,
    kept as its reference: ``eigvalsh`` for positivity, ``eigh`` for
    ``sqrt(rho)``, ``eigvalsh`` on ``sqrt(rho) rho~ sqrt(rho)``, and a
    rank floor on the last.  ``coupled`` marks a coupled-order ``m``.
    Raises ``InvalidDensityMatrixError`` with the library's messages.
    """
    if not np.all(np.isfinite(m)):
        raise InvalidDensityMatrixError("matrix has non-finite entries")
    if np.max(np.abs(m - m.conj().T)) > 1e-12:
        raise InvalidDensityMatrixError("matrix is not Hermitian within 1e-12")
    tr = np.trace(m).real
    if abs(tr - 1.0) > 1e-12 or abs(np.trace(m).imag) > 1e-12:
        raise InvalidDensityMatrixError(f"trace {complex(np.trace(m))!r} is not 1 within 1e-12")
    evals = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
    if evals[0] < -1e-10:
        raise InvalidDensityMatrixError(
            f"matrix has an eigenvalue {float(evals[0])!r} below {-1e-10}"
        )
    if coupled:
        r = math.sqrt(0.5)
        b = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, r, r], [0, 0, r, -r]], dtype=complex)
        m = b @ m @ b
    m = 0.5 * (m + m.conj().T)
    evals, vecs = np.linalg.eigh(m)
    root = (vecs * np.sqrt(np.maximum(evals, 0.0))) @ vecs.conj().T
    y = np.kron(SY, SY)[np.ix_(PERM, PERM)]
    core = root @ (y @ m.conj() @ y) @ root
    evals2 = np.linalg.eigvalsh(0.5 * (core + core.conj().T))
    floor = 1e-13 * max(max(evals2), 0.0)
    lam = sorted((math.sqrt(ev) if ev > floor else 0.0 for ev in evals2), reverse=True)
    return min(max(lam[0] - lam[1] - lam[2] - lam[3], 0.0), 1.0)


@pytest.fixture
def trace_reader():
    return read_csv


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)
