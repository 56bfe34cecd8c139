"""Fixed-step RK4 kernels of the numerical oracle.

Plain Python loops over complex scalars: the oracle is a check on the
closed forms, so it is kept small and obvious rather than fast.

Drive coefficients are "two-term" tuples
``(a1, b1, p1, a2, b2, p2, off)`` encoding
``a1*sin(b1*t + p1) + a2*sin(b2*t + p2) + off``, which represents every
derived drive combination exactly.
"""

from __future__ import annotations

import math

from .errors import BranchExitError

__all__ = ["rk4_block_profiles", "rk4_block_ic2", "rk4_clamped"]


def _two_term(c, base, t):
    v = c[base + 6]
    a1 = c[base]
    if a1 != 0.0:
        v += a1 * math.sin(c[base + 1] * t + c[base + 2])
    a2 = c[base + 3]
    if a2 != 0.0:
        v += a2 * math.sin(c[base + 4] * t + c[base + 5])
    return v


def rk4_block_profiles(c, y1, y2, t0, t1, n):
    """Advance a 2-amplitude block state from t0 to t1 in n RK4 steps.

    c: 21 floats, three two-term drives (field, coupling, z-diagonal);
    the block is [[field + z/4, coupling], [coupling, -field + z/4]].
    """
    h = (t1 - t0) / n
    for i in range(n):
        t = t0 + i * h

        w = _two_term(c, 0, t)
        l = _two_term(c, 7, t)
        z4 = 0.25 * _two_term(c, 14, t)
        k1a = -1j * ((w + z4) * y1 + l * y2)
        k1b = -1j * (l * y1 + (z4 - w) * y2)

        tm = t + 0.5 * h
        w = _two_term(c, 0, tm)
        l = _two_term(c, 7, tm)
        z4 = 0.25 * _two_term(c, 14, tm)
        u1 = y1 + 0.5 * h * k1a
        u2 = y2 + 0.5 * h * k1b
        k2a = -1j * ((w + z4) * u1 + l * u2)
        k2b = -1j * (l * u1 + (z4 - w) * u2)

        u1 = y1 + 0.5 * h * k2a
        u2 = y2 + 0.5 * h * k2b
        k3a = -1j * ((w + z4) * u1 + l * u2)
        k3b = -1j * (l * u1 + (z4 - w) * u2)

        te = t + h
        w = _two_term(c, 0, te)
        l = _two_term(c, 7, te)
        z4 = 0.25 * _two_term(c, 14, te)
        u1 = y1 + h * k3a
        u2 = y2 + h * k3b
        k4a = -1j * ((w + z4) * u1 + l * u2)
        k4b = -1j * (l * u1 + (z4 - w) * u2)

        y1 = y1 + (h / 6.0) * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
        y2 = y2 + (h / 6.0) * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
    return y1, y2


def rk4_clamped(deriv, y1, y2, t0, t1, n):
    """Advance a 2-amplitude state from t0 to t1 in n RK4 steps of ``deriv``.

    ``deriv(t, y1, y2)`` returns the two derivatives.  Stage times are
    clamped 1e-9 inside [t0, t1] (a quarter of the segment when it is
    shorter than 4e-9), so a right-hand side that jumps at a segment end
    is only asked for its one-sided limit from the segment interior.
    """
    h = (t1 - t0) / n
    nudge = 1e-9
    if (t1 - t0) < 4.0 * nudge:
        nudge = 0.25 * (t1 - t0)
    lo = t0 + nudge
    hi = t1 - nudge
    hh = 0.5 * h
    for i in range(n):
        t = t0 + i * h
        ts = lo if t < lo else (hi if t > hi else t)
        k1a, k1b = deriv(ts, y1, y2)
        tm = t + hh
        tm = lo if tm < lo else (hi if tm > hi else tm)
        k2a, k2b = deriv(tm, y1 + hh * k1a, y2 + hh * k1b)
        k3a, k3b = deriv(tm, y1 + hh * k2a, y2 + hh * k2b)
        te = t + h
        te = lo if te < lo else (hi if te > hi else te)
        k4a, k4b = deriv(te, y1 + h * k3a, y2 + h * k3b)
        y1 = y1 + (h / 6.0) * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
        y2 = y2 + (h / 6.0) * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
    return y1, y2


def _branch_exit(t):
    return BranchExitError(
        f"angle touches the branch edge at t = {t!r}; the derived field is one-sided there"
    )


def _ic2_field(mu, beta, phi, kappa, cos2t0, big_a, t):
    # Effective field mu*sin(beta*t+phi)/tan(2*theta(t)) on the principal
    # branch, evaluated cancellation-free.  big_a = 1 - cos2t0 exactly.
    half = 0.5 * beta * t
    if big_a == 0.0 and phi == 0.0:
        q = math.sin(half)
        p = math.cos(half)
        one_minus = (4.0 * kappa * mu / beta) * q * q
        cth = 1.0 - one_minus
        one_plus = 1.0 + cth
        if one_plus <= 0.0 or kappa * mu / beta < 0.0:
            raise _branch_exit(t)
        sgn = 1.0 if q >= 0.0 else -1.0
        return sgn * p * cth * math.sqrt(mu * beta / (kappa * one_plus))
    ff = (2.0 * mu / beta) * math.sin(half) * math.sin(half + phi)
    one_minus = big_a + 2.0 * kappa * ff
    cth = 1.0 - one_minus
    one_plus = 2.0 - one_minus
    s2 = one_minus * one_plus
    if s2 <= 0.0:
        raise _branch_exit(t)
    return mu * math.sin(beta * t + phi) * cth / math.sqrt(s2)


def rk4_block_ic2(c, y1, y2, t0, t1, n):
    """RK4 for the block driven by the rate-matched effective field.

    c: 13 floats (mu, beta, phi, kappa, cos2theta0, 1-cos2theta0,
    then a two-term lambda_z drive).  Steps with :func:`rk4_clamped`, so
    one-sided limits at branch-touch segment endpoints are taken from
    the segment interior.

    Raises
    ------
    BranchExitError
        If the angle reaches the branch edge inside the segment.
    """
    mu, beta, phi, kappa, cos2t0, big_a = c[0], c[1], c[2], c[3], c[4], c[5]

    def deriv(t, g1, g2):
        w = _ic2_field(mu, beta, phi, kappa, cos2t0, big_a, t)
        l = mu * math.sin(beta * t + phi)
        z4 = 0.25 * _two_term(c, 6, t)
        return -1j * ((w + z4) * g1 + l * g2), -1j * (l * g1 + (z4 - w) * g2)

    return rk4_clamped(deriv, y1, y2, t0, t1, n)
