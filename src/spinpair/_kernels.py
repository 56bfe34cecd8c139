"""Propagation kernels: fixed-step RK4 (the oracle) and Magnus-4.

Both take a block, its two starting amplitudes, the event times and
the steps per event segment, and return the block's states at every
event.  :func:`rk4_clamped` steps any ``deriv(t, y1, y2)`` in a plain
Python loop: it is the check on the closed forms and on the Magnus
kernel, so it is kept small and obvious rather than fast.
:func:`magnus_block_profiles`, numeric mode's path, works on whole
arrays of steps.  RK4 reads a drive as a sum of sines ``(terms,
offset)`` from :meth:`spinpair.model.ModelParams.block_terms`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BranchExitError

__all__ = ["rk4_clamped", "magnus_block_profiles"]

# offset of the two Gauss-Legendre points from a step's midpoint, in steps
_GAUSS = math.sqrt(3.0) / 6.0
# Magnus steps evaluated at once; bounds memory at any step count
_CHUNK = 1 << 12


def _sines(terms, offset, t):
    v = offset
    for a, b, p in terms:
        v += a * math.sin(b * t + p)
    return v


def rk4_clamped(deriv, y1, y2, events, counts):
    """States of a 2-amplitude block at every event time, by RK4 steps of ``deriv``.

    ``deriv(t, y1, y2)`` returns the two derivatives; ``events``,
    ``counts`` and the result are as for :func:`magnus_block_profiles`.
    Stage times are clamped 1e-9 inside each segment (a quarter of a
    segment shorter than 4e-9), so a right-hand side that jumps at a
    segment end is only asked for its one-sided limit from inside.
    """
    out1, out2 = [y1], [y2]
    for t0, t1, n in zip(events[:-1].tolist(), events[1:].tolist(), counts.tolist()):
        h = (t1 - t0) / n
        nudge = min(1e-9, 0.25 * (t1 - t0))
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
        out1.append(y1)
        out2.append(y2)
    return np.array(out1, dtype=complex), np.array(out2, dtype=complex)


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


def _compose(la, lb, ea, eb):
    """(alpha, beta) of U_later @ U_earlier, each U = [[alpha, -conj(beta)], [beta, conj(alpha)]]."""
    return la * ea - np.conj(lb) * eb, lb * ea + np.conj(la) * eb


def _run_products(al, be, seg):
    """Ordered product of each run of equal ids in the ascending ``seg``.

    Adjacent pairs inside a run are multiplied, later times earlier,
    level by level, until each run is one element.
    """
    while True:
        head = np.ones(seg.size, dtype=bool)
        np.not_equal(seg[1:], seg[:-1], out=head[1:])
        starts = np.flatnonzero(head)
        lengths = np.diff(np.append(starts, seg.size))
        if lengths.max() == 1:
            return al, be, seg
        lead = (np.arange(seg.size) - np.repeat(starts, lengths)) % 2 == 0
        idx = np.flatnonzero(lead)
        paired = np.append(~lead[1:], False)[idx]
        later = idx[paired] + 1
        out_al, out_be = al[idx], be[idx]
        out_al[paired], out_be[paired] = _compose(
            al[later], be[later], out_al[paired], out_be[paired]
        )
        al, be, seg = out_al, out_be, seg[idx]


def _prefix_products(al, be):
    """In place: element k becomes the product of elements k, k-1, ..., 0."""
    d = 1
    while d < al.size:
        al[d:], be[d:] = _compose(al[d:], be[d:], al[:-d], be[:-d])
        d *= 2


def magnus_block_profiles(values, y1, y2, events, counts):
    """States of a 2-amplitude block at every event time, by Magnus-4 steps.

    ``values(t)`` gives the block's (field, coupling, z) on an array of
    times, as :meth:`spinpair.model.ModelParams.block_values` does.
    ``events`` is a float array and ``counts`` an integer array: the
    segment from events[k] to events[k + 1] is split into counts[k]
    equal steps.  Each step is the closed-form exponential of the
    fourth-order Magnus generator from two Gauss points (Blanes, Casas,
    Oteo & Ros, Phys. Rep. 470, 151 (2009)),
    -i*(phi*I + ax*sigma_x + ay*sigma_y + az*sigma_z), where ay is the
    one commutator term.  The SU(2) part is kept as a pair
    (alpha, beta) and the z/4 phase phi is summed apart: exp(-i*phi)
    times an SU(2) matrix does not compose by the SU(2) rule.  The
    steps of each segment are multiplied pairwise, ``_CHUNK`` steps at
    a time, and a prefix product over the segments gives the
    propagator to every event.

    Returns two complex arrays of len(events) amplitudes; the first
    entries are y1 and y2.
    """
    a1 = np.full(events.size, y1, dtype=complex)
    a2 = np.full(events.size, y2, dtype=complex)
    if counts.size == 0:
        return a1, a2
    widths = np.diff(events) / counts
    ends = np.cumsum(counts)
    phase = np.zeros(counts.size)
    pieces = []
    for lo in range(0, int(ends[-1]), _CHUNK):
        step = np.arange(lo, min(lo + _CHUNK, int(ends[-1])))
        seg = np.searchsorted(ends, step, side="right")
        h = widths[seg]
        start = events[seg] + (step - (ends[seg] - counts[seg])) * h
        ta = start + (0.5 - _GAUSS) * h
        tb = start + (0.5 + _GAUSS) * h
        wa, la, za = values(ta)
        wb, lb, zb = values(tb)
        ax = 0.5 * h * (la + lb)
        ay = -_GAUSS * h * h * (lb * wa - wb * la)
        az = 0.5 * h * (wa + wb)
        phi = 0.5 * h * (za + zb)
        phase[seg[0] : seg[-1] + 1] += np.bincount(seg - seg[0], weights=phi)
        theta = np.sqrt(ax * ax + ay * ay + az * az)
        s = np.sinc(theta / np.pi)
        al = np.cos(theta) - 1j * (s * az)
        be = s * ay - 1j * (s * ax)
        pieces.append(_run_products(al, be, seg))
    al, be, _ = _run_products(*(np.concatenate(part) for part in zip(*pieces)))
    _prefix_products(al, be)
    rot = np.exp(-1j * np.cumsum(phase))
    a1[1:] = rot * (al * y1 - np.conj(be) * y2)
    a2[1:] = rot * (be * y1 + np.conj(al) * y2)
    return a1, a2
