"""Shared fixtures, CSV helpers, a reference quadrature and a reference Hamiltonian."""

import numpy as np
import pytest


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


@pytest.fixture
def trace_reader():
    return read_csv


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)
