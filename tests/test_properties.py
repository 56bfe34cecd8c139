"""Differential property tests: closed forms against Magnus-4 over generated setups."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spinpair.drive import Constant, Sinusoid, scale
from spinpair.entangle import Basis, FourState, concurrence_pure
from spinpair.exact import IC1Setup, PhaseConvention, ic1_evolve
from spinpair.model import ModelParams
from spinpair.oracle import IntegratorConfig, magnus_full
from spinpair.symmetry import map_params_global_flip, map_state_global_flip

T_END = 10.0
# Magnus steps per unit of beta*t: each step spans at most 0.05 rad of the drive
STEP_PHASE = 0.05


def magnus_bound(t_end, gain, beta, step, steps):
    """Largest amplitude error of Magnus-4 on a proportional block.

    A proportional block is g(t) times a fixed Pauli combination plus a
    multiple of the identity, so its values commute and both the
    commutator term and the Magnus truncation vanish.  What is left is
    the two-point Gauss rule on the phase integral of g: at most
    step**5/4320 * max|g''''| per step, and g = gain*sin(beta*t + phi)
    gives max|g''''| = gain*beta**4 (0 for a constant g, beta = 0).  An
    amplitude is a unit-modulus phase factor, so it errs by at most the
    phase error.  The second term allows a few roundings per step.
    """
    truncation = t_end * step**4 * gain * beta**4 / 4320.0
    return truncation + 8.0 * steps * np.finfo(float).eps


def check_ic1_against_magnus(field, amp_plus, amp_minus, k, k2, lambda_z, t_end, beta, convention):
    """ic1_evolve phi1-phi4 against magnus_full within :func:`magnus_bound`.

    ``field(amplitude)`` is the drive profile of both fields, and
    ``beta`` its frequency (0 for a constant).
    """
    omega_plus, omega_minus = field(amp_plus), field(amp_minus)
    params = ModelParams.from_derived(
        omega_plus=omega_plus,
        omega_minus=omega_minus,
        lambda_m=scale(k, omega_plus),
        lambda_p=scale(k2, omega_minus),
        lambda_z=Constant(lambda_z),
    )
    setup = IC1Setup.from_ratios(k, k2)
    times = np.linspace(0.0, t_end, 201)
    step = STEP_PHASE / max(beta, 1.0)
    # each block's splitting is its field times hypot(1, ratio)
    gain = max(abs(amp_plus) * math.hypot(1.0, k), abs(amp_minus) * math.hypot(1.0, k2))
    steps = math.ceil(t_end / step) + times.size
    tol = magnus_bound(t_end, gain, beta, step, steps)
    c1, s1 = math.cos(setup.theta10), math.sin(setup.theta10)
    c2, s2 = math.cos(setup.theta20), math.sin(setup.theta20)
    # one run carries phi1 and phi4, the other phi2 and phi3
    for (upper, lower), start in (
        (("phi1", "phi4"), (c1, s1, -s2, c2)),
        (("phi2", "phi3"), (-s1, c1, c2, s2)),
    ):
        trace = magnus_full(params, start, t_end, IntegratorConfig(step=step), sample_times=times)
        x = ic1_evolve(setup, params, times, upper, convention)
        y = ic1_evolve(setup, params, times, lower, convention)
        want = np.column_stack((x.a1, x.a2, y.a1, y.a2))
        assert np.max(np.abs(trace.amplitudes - want)) <= tol


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
    check_ic1_against_magnus(
        lambda amp: Sinusoid(amp, beta, phase), amp_plus, amp_minus, k, k2, lambda_z,
        T_END, beta, PhaseConvention.SIGNED,
    )


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(
    k=st.floats(-3.0, 3.0),
    k2=st.floats(-3.0, 3.0),
    amp_plus=st.floats(0.2, 3.0),
    amp_minus=st.floats(0.0, 3.0),
    static=st.booleans(),
    beta=st.floats(0.5, 30.0),
    phase=st.floats(0.1, 3.0),
    reach=st.floats(0.05, 0.99),
    lambda_z=st.floats(-2.0, 2.0),
)
def test_ic1_nonnegative_matches_magnus_while_the_splitting_keeps_its_sign(
    k, k2, amp_plus, amp_minus, static, beta, phase, reach, lambda_z
):
    # The nonnegative convention integrates |g|, so it is the propagator
    # only while each block's splitting g keeps a positive sign: g is the
    # block's field times cos(2*theta0)*(1 + ratio**2) > 0.  The fields
    # are positive constants, or sinusoids with a phase in (0, pi) stopped
    # before their first zero at t = (pi - phase)/beta.
    if static:
        field, t_end, beta = Constant, T_END, 0.0
    else:
        field, t_end = (lambda amp: Sinusoid(amp, beta, phase)), reach * (math.pi - phase) / beta
    check_ic1_against_magnus(
        field, amp_plus, amp_minus, k, k2, lambda_z, t_end, beta, PhaseConvention.NONNEGATIVE
    )


_PRIMITIVE = st.one_of(
    st.builds(Constant, st.floats(-3.0, 3.0)),
    st.builds(Sinusoid, st.floats(-3.0, 3.0), st.floats(0.5, 20.0), st.floats(-3.0, 3.0)),
)
_AMPLITUDE = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(
    profiles=st.tuples(*[_PRIMITIVE] * 5),
    amplitudes=st.tuples(*[_AMPLITUDE] * 4).filter(lambda a: sum(abs(v) ** 2 for v in a) > 0.1),
)
def test_global_flip_commutes_with_magnus_and_keeps_concurrence(profiles, amplitudes):
    # The flip negates both fields, so every block's field term changes
    # sign and nothing else does: each Magnus step of the flipped run is
    # the original step with |++> and |--> (and |+-> and |-+>) swapped,
    # up to rounding.  So the runs may differ only by a few roundings per
    # step (the 8*eps allowance of magnus_bound), whatever the drives.
    params = ModelParams(*profiles)
    norm = math.sqrt(sum(abs(v) ** 2 for v in amplitudes))
    state = FourState(Basis.UNCOUPLED, tuple(v / norm for v in amplitudes))
    flipped_state = map_state_global_flip(state)
    t_end, step = 2.0, 0.01
    times = np.linspace(0.0, t_end, 21)
    cfg = IntegratorConfig(step=step)
    trace = magnus_full(params, state.amplitudes, t_end, cfg, sample_times=times)
    mirror = magnus_full(
        map_params_global_flip(params), flipped_state.amplitudes, t_end, cfg, sample_times=times
    )
    steps = math.ceil(t_end / step) + times.size
    tol = 8.0 * steps * np.finfo(float).eps
    flipped_back = np.array([
        map_state_global_flip(FourState(Basis.UNCOUPLED, tuple(row))).amplitudes
        for row in mirror.amplitudes
    ])
    assert np.max(np.abs(flipped_back - trace.amplitudes)) <= tol
    # C = 2|f_pp f_mm - f_pm f_mp| of unit-norm rows: two products of
    # amplitudes each off by at most tol move C by at most 2*2*2*tol
    change = np.abs(concurrence_pure(mirror.amplitudes) - concurrence_pure(trace.amplitudes))
    assert np.max(change) <= 8.0 * tol
