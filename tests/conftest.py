"""Shared fixtures, CSV helpers and a reference quadrature for the test suite."""

import numpy as np
import pytest


def read_csv(path):
    """Parse a trace or summary CSV into {column: array}, skipping echo lines."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    names = lines[0].strip().split(",")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return {name: data[:, i] for i, name in enumerate(names)}


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
