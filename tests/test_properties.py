"""Differential property tests: closed forms against Magnus-4 over generated setups."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spinpair.drive import Constant, Scaled, Sinusoid
from spinpair.exact import IC1Setup, ic1_evolve
from spinpair.model import ModelParams
from spinpair.oracle import IntegratorConfig, magnus_full

T_END = 10.0
# Magnus steps per unit of beta*t: each step spans at most 0.05 rad of the drive
STEP_PHASE = 0.05


def magnus_bound(gain, beta, step, steps):
    """Largest amplitude error of Magnus-4 on a proportional block.

    A proportional block is g(t) times a fixed Pauli combination plus a
    multiple of the identity, so its values commute and both the
    commutator term and the Magnus truncation vanish.  What is left is
    the two-point Gauss rule on the phase integral of g: at most
    step**5/4320 * max|g''''| per step, and g = gain*sin(beta*t + phi)
    gives max|g''''| = gain*beta**4.  An amplitude is a unit-modulus
    phase factor, so it errs by at most the phase error.  The second
    term allows a few roundings per step.
    """
    truncation = T_END * step**4 * gain * beta**4 / 4320.0
    return truncation + 8.0 * steps * np.finfo(float).eps


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(
    k=st.floats(-3.0, 3.0),
    k2=st.floats(-3.0, 3.0),
    amp_plus=st.floats(0.2, 3.0),
    amp_minus=st.floats(-3.0, 3.0),
    beta=st.floats(0.5, 30.0),
    phase=st.floats(-3.0, 3.0),
    lambda_z=st.floats(-2.0, 2.0),
)
def test_ic1_matches_magnus_over_proportional_setups(
    k, k2, amp_plus, amp_minus, beta, phase, lambda_z
):
    # omega_minus shares omega_plus's frequency and phase: from_derived
    # refuses incommensurate pairs
    omega_plus = Sinusoid(amp_plus, beta, phase)
    omega_minus = Sinusoid(amp_minus, beta, phase)
    params = ModelParams.from_derived(
        omega_plus=omega_plus,
        omega_minus=omega_minus,
        lambda_m=Scaled(k, omega_plus),
        lambda_p=Scaled(k2, omega_minus),
        lambda_z=Constant(lambda_z),
    )
    setup = IC1Setup.from_ratios(k, k2)
    times = np.linspace(0.0, T_END, 201)
    step = STEP_PHASE / max(beta, 1.0)
    # each block's splitting is its field times hypot(1, ratio)
    gain = max(abs(amp_plus) * math.hypot(1.0, k), abs(amp_minus) * math.hypot(1.0, k2))
    steps = math.ceil(T_END / step) + times.size
    tol = magnus_bound(gain, beta, step, steps)
    c1, s1 = math.cos(setup.theta10), math.sin(setup.theta10)
    c2, s2 = math.cos(setup.theta20), math.sin(setup.theta20)
    # one run carries phi1 and phi4, the other phi2 and phi3
    for (upper, lower), start in (
        (("phi1", "phi4"), (c1, s1, -s2, c2)),
        (("phi2", "phi3"), (-s1, c1, c2, s2)),
    ):
        trace = magnus_full(params, start, T_END, IntegratorConfig(step=step), sample_times=times)
        x = ic1_evolve(setup, params, times, upper)
        y = ic1_evolve(setup, params, times, lower)
        want = np.column_stack((x.a1, x.a2, y.a1, y.a2))
        assert np.max(np.abs(trace.amplitudes - want)) <= tol
