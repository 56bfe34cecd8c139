import cmath
import math
import time

import numpy as np
import pytest

from conftest import tensor_hamiltonian
from spinpair import drive
from spinpair.cli import compute_trace
from spinpair.config import build_ic1, build_ic2, parse_config
from spinpair.drive import Constant, Sinusoid, scale
from spinpair.errors import AdmissibilityError, BranchExitError, ConfigError, NotIntegrableError
from spinpair.exact import (
    IC1Setup,
    IC2Setup,
    PhaseConvention,
    ic1_evolve,
    ic1_phase,
    ic2_admissible,
    ic2_breakpoints,
    ic2_derived_field,
    ic2_evolve,
    ic2_kernel_coeffs,
    ic2_theta,
)
from spinpair.model import ModelParams
from spinpair.oracle import (
    IntegratorConfig,
    integrate_block_fn,
    integrate_block_ic2,
    integrate_full,
    magnus_full,
)

WP = Sinusoid(2.0, 50.0, math.pi / 50)


def proportional_params(k, k2=0.0):
    return ModelParams.from_derived(
        omega_plus=WP,
        lambda_m=scale(k, WP),
        omega_minus=Sinusoid(1.0, 50.0, math.pi / 50),
        lambda_p=scale(k2, Sinusoid(1.0, 50.0, math.pi / 50)),
        lambda_z=Constant(0.5),
    )


# --- proportional drive ----------------------------------------------------

@pytest.mark.parametrize("initial", ["phi1", "phi2", "phi3", "phi4"])
@pytest.mark.parametrize("t", [0.0, 0.37, 2.0])
def test_ic1_unitarity(initial, t):
    setup = IC1Setup.from_ratios(0.5, 0.3)
    params = proportional_params(0.5, 0.3)
    amps = ic1_evolve(setup, params, t, initial)
    assert amps.norm() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("pair", [("phi1", "phi2"), ("phi3", "phi4")])
def test_ic1_orthogonality(pair):
    setup = IC1Setup.from_ratios(0.5, 0.3)
    params = proportional_params(0.5, 0.3)
    a = ic1_evolve(setup, params, 1.3, pair[0])
    b = ic1_evolve(setup, params, 1.3, pair[1])
    overlap = a.a1 * b.a1.conjugate() + a.a2 * b.a2.conjugate()
    assert abs(overlap) < 1e-12


def test_ic1_initial_condition():
    setup = IC1Setup.from_ratios(0.5)
    params = proportional_params(0.5)
    x = ic1_evolve(setup, params, 0.0, "phi1")
    assert x.a1 == pytest.approx(math.cos(setup.theta10), abs=1e-15)
    assert x.a2 == pytest.approx(math.sin(setup.theta10), abs=1e-15)
    y = ic1_evolve(setup, params, 0.0, "phi2")
    assert y.a1 == pytest.approx(-math.sin(setup.theta10), abs=1e-15)
    assert y.a2 == pytest.approx(math.cos(setup.theta10), abs=1e-15)


@pytest.mark.parametrize("initial,one", [
    pytest.param("phi1", True, id="phi1-Subspace.ONE"),
    pytest.param("phi2", True, id="phi2-Subspace.ONE"),
    pytest.param("phi3", False, id="phi3-Subspace.TWO"),
    pytest.param("phi4", False, id="phi4-Subspace.TWO"),
])
def test_ic1_matches_rk4(initial, one):
    setup = IC1Setup.from_ratios(0.5, 0.3)
    params = proportional_params(0.5, 0.3)
    theta0 = setup.theta10 if one else setup.theta20
    c0, s0 = math.cos(theta0), math.sin(theta0)
    start = (c0, s0) if initial in ("phi1", "phi3") else (-s0, c0)
    state = start + (0.0, 0.0) if one else (0.0, 0.0) + start
    cols = slice(0, 2) if one else slice(2, 4)
    times = [0.25, 0.5, 1.0]
    cfg = IntegratorConfig(step=1e-4)
    trace = integrate_full(params, state, 1.0, cfg, sample_times=times)
    for t, row in zip(trace.times, trace.amplitudes[:, cols]):
        amps = ic1_evolve(setup, params, t, initial)
        assert abs(amps.a1 - row[0]) < 1e-7
        assert abs(amps.a2 - row[1]) < 1e-7


def test_ic1_subspace_two_matches_rk4_of_the_spin_hamiltonian():
    # an oracle apart from the I<->II map: RK4 on the lower-right block
    # of the spin-operator Hamiltonian, against ic1 phi3/phi4 and against
    # magnus_full's subspace-II columns
    setup = IC1Setup.from_ratios(0.5, 0.3)
    params = proportional_params(0.5, 0.3)
    names = ("lambda_x", "lambda_y", "lambda_z", "omega_1", "omega_2")

    def hfun(t):
        return tensor_hamiltonian(*(drive.evaluate(getattr(params, n), t) for n in names))[2:, 2:]

    c0, s0 = math.cos(setup.theta20), math.sin(setup.theta20)
    times = np.linspace(0.0, 1.0, 11)
    # RK4's error at this step is about 2e-9, against the 1e-8 bound
    cfg = IntegratorConfig(step=2e-3)
    for initial, start in (("phi3", (c0, s0)), ("phi4", (-s0, c0))):
        rk4 = integrate_block_fn(hfun, start, 1.0, cfg, sample_times=times).amplitudes
        amps = ic1_evolve(setup, params, times, initial)
        assert np.max(np.abs(rk4 - np.column_stack((amps.a1, amps.a2)))) < 1e-8
        magnus = magnus_full(params, (0.0, 0.0) + start, 1.0, cfg, sample_times=times)
        assert np.max(np.abs(rk4 - magnus.amplitudes[:, 2:])) < 1e-8


def test_ic1_constant_drive_phase_known_value():
    k = 0.5
    w0 = 2.0
    lz = 0.8
    setup = IC1Setup.from_ratios(k)
    params = ModelParams.from_derived(
        omega_plus=Constant(w0),
        lambda_m=Constant(k * w0),
        lambda_z=Constant(lz),
    )
    t = 1.7
    expected = cmath.exp(-1j * (0.25 * lz * t + math.sqrt(1 + k * k) * w0 * t))
    assert abs(ic1_phase(setup, params, t, 1) - expected) < 1e-12
    assert abs(ic1_phase(setup, params, t, 2) - cmath.exp(-1j * (0.25 * lz * t - math.sqrt(1 + k * k) * w0 * t))) < 1e-12


def test_ic1_not_proportional_raises():
    setup = IC1Setup.from_ratios(0.5)
    params = ModelParams.from_derived(
        omega_plus=WP,
        lambda_m=Sinusoid(1.0, 30.0),
    )
    with pytest.raises(NotIntegrableError):
        ic1_phase(setup, params, 1.0, 1)


def test_ic1_proportionality_is_decided_for_all_times():
    # the extra lambda_y term vanishes on every point of a uniform
    # 1000-sample grid over [0, 1024], yet makes the drive non-proportional
    setup = IC1Setup.from_ratios(0.5)
    params = ModelParams(
        lambda_x=Sinusoid(2.0, 3.0),
        lambda_y=Sinusoid(-4.0, 999.0 * math.pi / 1024.0),
        lambda_z=Constant(0.0),
        omega_1=Sinusoid(1.0, 3.0),
        omega_2=Sinusoid(1.0, 3.0),
    )
    with pytest.raises(NotIntegrableError, match="5.963e-01"):
        ic1_evolve(setup, params, 1000.0, "phi1")
    # a coupling written as (-a, -b, -p) is the same term as (a, b, p)
    mirrored = ModelParams.from_derived(
        omega_plus=WP, lambda_m=Sinusoid(-1.0, -50.0, -math.pi / 50)
    )
    direct = ModelParams.from_derived(omega_plus=WP, lambda_m=scale(0.5, WP))
    t = np.linspace(0.0, 2.0, 9)
    assert np.max(np.abs(ic1_phase(setup, mirrored, t, 1) - ic1_phase(setup, direct, t, 1))) < 1e-12


def test_ic1_conventions_agree_until_field_changes_sign():
    setup = IC1Setup.from_ratios(0.5)
    params = proportional_params(0.5)
    first_zero = (math.pi - math.pi / 50) / 50.0
    before = 0.8 * first_zero
    signed = ic1_phase(setup, params, before, 1, PhaseConvention.SIGNED)
    nonneg = ic1_phase(setup, params, before, 1, PhaseConvention.NONNEGATIVE)
    assert abs(signed - nonneg) < 1e-12
    after = 3.0 * first_zero
    signed = ic1_phase(setup, params, after, 1, PhaseConvention.SIGNED)
    nonneg = ic1_phase(setup, params, after, 1, PhaseConvention.NONNEGATIVE)
    assert abs(signed - nonneg) > 1e-3


def test_ic1_nonnegative_without_closed_form_is_refused():
    # the subspace-I field mixes frequencies 5 and 7 (the coupling is 0),
    # so |g| has no closed integral; this used to fall back to adaptive
    # quadrature per time, a path no config reaches
    params = ModelParams(
        lambda_x=Sinusoid(1.0, 3.0),
        lambda_y=Sinusoid(1.0, 3.0),
        lambda_z=Constant(0.0),
        omega_1=Sinusoid(2.0, 5.0),
        omega_2=Sinusoid(1.0, 7.0),
    )
    setup = IC1Setup.from_ratios(0.0)
    t = np.linspace(0.0, 1.0, 5)
    assert np.all(np.abs(ic1_phase(setup, params, t, 1)) == pytest.approx(1.0))
    with pytest.raises(NotIntegrableError, match="signed phase convention"):
        ic1_phase(setup, params, t, 1, PhaseConvention.NONNEGATIVE)
    # finite drives whose splitting c2*field + s2*coupling overflows: the
    # magnitude profile would be infinite, which drive profiles refuse
    setup, params, _conv = build_ic1(
        {"k": 0.15, "omega_plus": {"kind": "sinusoid", "amplitude": 1.78e308, "frequency": 3.0}}
    )
    with pytest.raises(NotIntegrableError, match="splitting overflows"):
        ic1_phase(setup, params, t, 1, PhaseConvention.NONNEGATIVE)


def test_ic1_nonnegative_rejects_negative_time():
    setup = IC1Setup.from_ratios(0.5)
    params = proportional_params(0.5)
    with pytest.raises(ValueError):
        ic1_phase(setup, params, -1.0, 1, PhaseConvention.NONNEGATIVE)


def test_ic1_setup_validation():
    with pytest.raises(ValueError):
        IC1Setup(k=0.5, theta10=0.3)
    for k, k2 in [(math.inf, 0.0), (-math.inf, 0.0), (math.nan, 0.0), (0.5, math.nan)]:
        with pytest.raises(ValueError):
            IC1Setup.from_ratios(k, k2)
    with pytest.raises(ValueError):
        IC1Setup(k=0.5, theta10=0.5 * math.atan(0.5), theta20=math.inf)
    setup = IC1Setup.from_ratios(2.0, 0.7)
    assert setup.k == 2.0
    assert setup.k2 == pytest.approx(0.7, abs=1e-14)


def test_ic1_bad_indices():
    setup = IC1Setup.from_ratios(0.5)
    params = proportional_params(0.5)
    with pytest.raises(ValueError):
        ic1_phase(setup, params, 1.0, 5)
    with pytest.raises(ValueError):
        ic1_evolve(setup, params, 1.0, "phi9")


# --- rate-matched drive ----------------------------------------------------

INTERIOR = IC2Setup(kappa=0.1, theta10=math.pi / 4, lambda_m=Sinusoid(4.0, 50.0, math.pi / 50))
EDGE_START = IC2Setup(kappa=0.1, theta10=0.0, lambda_m=Sinusoid(4.0, 50.0, 0.0))


@pytest.mark.parametrize("setup", [INTERIOR, EDGE_START])
@pytest.mark.parametrize("t", [0.0, 0.21, 0.9])
def test_ic2_unitarity_and_orthogonality(setup, t):
    x = ic2_evolve(setup, t, "phi1")
    y = ic2_evolve(setup, t, "phi2")
    assert x.norm() == pytest.approx(1.0, abs=1e-12)
    assert y.norm() == pytest.approx(1.0, abs=1e-12)
    overlap = x.a1 * y.a1.conjugate() + x.a2 * y.a2.conjugate()
    assert abs(overlap) < 1e-12


def test_ic2_theta_manual():
    setup = INTERIOR
    mu, beta, phi = 4.0, 50.0, math.pi / 50
    for t in (0.0, 0.1, 0.63):
        integral = (mu / beta) * (math.cos(phi) - math.cos(beta * t + phi))
        c = math.cos(2 * setup.theta10) - 2 * setup.kappa * integral
        assert ic2_theta(setup, t) == pytest.approx(0.5 * math.acos(c), abs=1e-14)


def test_ic2_theta_branch_exit():
    setup = IC2Setup(kappa=1.0, theta10=math.pi / 4, lambda_m=Constant(0.25))
    # cos(2*theta) falls linearly, reaching -1 at t ~ 2
    assert ic2_theta(setup, 1.99) < 0.5 * math.pi
    with pytest.raises(BranchExitError):
        ic2_theta(setup, 2.5)


def test_ic2_admissible_interior():
    assert ic2_admissible(INTERIOR).valid
    tight = IC2Setup(kappa=1.0, theta10=math.pi / 4, lambda_m=Sinusoid(4.0, 10.0))
    verdict = ic2_admissible(tight)
    assert not verdict.valid
    assert "confinement bound" in verdict.reason


def test_ic2_admissible_exact_boundary_is_valid():
    # frequency/(2*rate*amplitude) lands exactly on the bound
    setup = IC2Setup(kappa=0.5, theta10=math.pi / 4, lambda_m=Sinusoid(25.0, 50.0, 0.1))
    assert 50.0 / (2.0 * 0.5 * 25.0) == 2.0
    assert ic2_admissible(setup).valid


def test_ic2_admissible_edge_start():
    assert ic2_admissible(EDGE_START).valid
    shifted = IC2Setup(kappa=0.1, theta10=0.0, lambda_m=Sinusoid(4.0, 50.0, 0.3))
    verdict = ic2_admissible(shifted)
    assert not verdict.valid
    assert "phase must vanish" in verdict.reason
    deep = IC2Setup(kappa=0.1, theta10=0.0, lambda_m=Sinusoid(4.0, 1.0, 0.0))
    verdict = ic2_admissible(deep)
    assert not verdict.valid
    assert "exceeds 1" in verdict.reason
    backward = IC2Setup(kappa=-0.1, theta10=0.0, lambda_m=Sinusoid(4.0, 50.0, 0.0))
    verdict = ic2_admissible(backward)
    assert not verdict.valid
    assert "nonnegative" in verdict.reason


def test_ic2_admissible_requires_sinusoid():
    setup = IC2Setup(kappa=0.1, theta10=math.pi / 4, lambda_m=Constant(1.0))
    verdict = ic2_admissible(setup)
    assert not verdict.valid
    assert "sinusoid" in verdict.reason


def test_ic2_subspace_two_disabled():
    # without chi a subspace-II state has no block to run on
    data = {
        "mode": "ic2",
        "initial_state": "pm",
        "time": {"t_end": 1.0, "samples": 11},
        "ic2": {"kappa": 0.1, "theta10": math.pi / 4, "lambda_m": 4.0},
    }
    with pytest.raises(AdmissibilityError, match="subspace II requested but chi is 0"):
        compute_trace(parse_config(data, "case"))
    for initial in ("phiX", "phi3", "phi4"):
        with pytest.raises(ValueError):
            ic2_evolve(INTERIOR, 0.5, initial)


@pytest.mark.parametrize("setup,t_end", [(INTERIOR, 1.0), (EDGE_START, 1.0)])
@pytest.mark.parametrize("initial", ["phi1", "phi2"])
def test_ic2_matches_rate_matched_kernel(setup, t_end, initial):
    theta0 = setup.theta10
    c0, s0 = math.cos(theta0), math.sin(theta0)
    start = (c0, s0) if initial == "phi1" else (-s0, c0)
    marks = ic2_breakpoints(setup, t_end)
    coeffs = ic2_kernel_coeffs(setup)
    times = [0.2 * t_end, 0.5 * t_end, t_end]
    cfg = IntegratorConfig(step=1e-4, norm_tolerance=1e-6)
    trace = integrate_block_ic2(coeffs, start, t_end, cfg, sample_times=times, breakpoints=marks)
    for t, row in zip(trace.times, trace.amplitudes):
        amps = ic2_evolve(setup, t, initial)
        assert abs(amps.a1 - row[0]) < 1e-5
        assert abs(amps.a2 - row[1]) < 1e-5


def test_ic2_matches_generic_integrator_on_smooth_drive():
    setup = INTERIOR
    mu, beta, phi = 4.0, 50.0, math.pi / 50
    assert ic2_breakpoints(setup, 1.0) == []

    def hfun(t):
        w = ic2_derived_field(setup, t)
        l = mu * math.sin(beta * t + phi)
        return ((w, l), (l, -w))

    start = (math.cos(setup.theta10), math.sin(setup.theta10))
    cfg = IntegratorConfig(step=1e-4, norm_tolerance=1e-6)
    trace = integrate_block_fn(hfun, start, 1.0, cfg, sample_times=[0.5, 1.0])
    for t, row in zip(trace.times, trace.amplitudes):
        amps = ic2_evolve(setup, t, "phi1")
        assert abs(amps.a1 - row[0]) < 1e-6
        assert abs(amps.a2 - row[1]) < 1e-6


def test_ic2_derived_field_matches_naive_ratio():
    setup = INTERIOR
    mu, beta, phi = 4.0, 50.0, math.pi / 50
    for t in (0.033, 0.21, 0.77):
        theta = ic2_theta(setup, t)
        naive = mu * math.sin(beta * t + phi) / math.tan(2.0 * theta)
        assert ic2_derived_field(setup, t) == pytest.approx(naive, rel=1e-9, abs=1e-9)


def test_ic2_derived_field_jump_at_edge_touch():
    # theta returns to 0 at multiples of 2*pi/beta; the field flips sign
    beta = 50.0
    touch = 2.0 * math.pi / beta
    eps = 1e-7
    left = ic2_derived_field(EDGE_START, touch - eps)
    right = ic2_derived_field(EDGE_START, touch + eps)
    assert left < 0.0 < right
    assert abs(abs(left) - abs(right)) < 1e-3 * abs(left)


def test_ic2_derived_field_outside_branch_raises():
    bad = IC2Setup(kappa=1.0, theta10=math.pi / 4, lambda_m=Sinusoid(4.0, 10.0))
    with pytest.raises(BranchExitError):
        ic2_derived_field(bad, math.pi / 10.0)


def test_ic2_breakpoints_edge_start():
    beta = 50.0
    t_end = 1.0
    marks = ic2_breakpoints(EDGE_START, t_end)
    period = 2.0 * math.pi / beta
    expected = [n * period for n in range(1, int(t_end / period) + 1)]
    assert np.allclose(marks, expected, atol=1e-12)
    for tt in marks:
        assert ic2_theta(EDGE_START, tt) < 1e-6


@pytest.mark.parametrize("theta10,coupling,expected", [
    (1.0, Sinusoid(1e-300, 1.0), []),
    (0.0, Sinusoid(1e-300, 1.0), [2.0 * math.pi]),
    (1.0, Constant(1e-300), []),
])
def test_ic2_breakpoints_underflowing_rate(theta10, coupling, expected):
    # 2*kappa*mu underflows to 0: an infinite scale, not a ZeroDivisionError
    setup = IC2Setup(kappa=1e-150, theta10=theta10, lambda_m=coupling)
    assert ic2_breakpoints(setup, 10.0) == expected


def test_ic2_breakpoints_interior_drive_has_none():
    assert ic2_breakpoints(INTERIOR, 2.0) == []


@pytest.mark.parametrize("kappa,mu,beta,t_end", [
    (0.1, 4.0, 50.0, 1.0),
    (0.37, 7.3, 29.0, 40.37 * 2.0 * math.pi / 29.0),
    (1.0, 0.25e4, 1e4, 100.0),
])
def test_ic2_breakpoints_equal_one_touch_at_a_time(kappa, mu, beta, t_end):
    # theta10 = 0 and phase 0 touch the edge at beta*t = 2*pi*n; the
    # vectorized list holds exactly the floats of one scalar per n
    setup = IC2Setup(kappa=kappa, theta10=0.0, lambda_m=Sinusoid(mu, beta, 0.0))
    expected = []
    n = 1
    while (tt := (0.0 + 2.0 * math.pi * n - 0.0) / beta) < t_end:
        expected.append(tt)
        n += 1
    assert ic2_breakpoints(setup, t_end) == expected


@pytest.mark.parametrize("t_end", [math.nan, math.inf])
def test_ic2_breakpoints_refuses_a_non_finite_end(t_end):
    # the touch loop never ended for these
    with pytest.raises(ValueError, match="t_end must be finite"):
        ic2_breakpoints(EDGE_START, t_end)


def test_ic2_breakpoints_refuses_more_touches_than_the_step_budget():
    # one touch a period: about 1.6e7 counted before any is built
    setup = IC2Setup(kappa=1.0, theta10=0.0, lambda_m=Sinusoid(1e5, 1e6))
    start = time.perf_counter()
    with pytest.raises(ConfigError, match="step budget"):
        ic2_breakpoints(setup, 100.0)
    assert time.perf_counter() - start < 0.1
    with pytest.raises(ConfigError, match="step budget"):
        ic2_breakpoints(setup, 1e300)


def test_ic2_breakpoints_constant_coupling():
    setup = IC2Setup(kappa=1.0, theta10=math.pi / 4, lambda_m=Constant(0.25))
    marks = ic2_breakpoints(setup, 3.0)
    assert len(marks) == 1
    # cos(2 theta) = cos(pi/2) - 0.5 t hits -1 at t = 2
    assert marks[0] == pytest.approx(2.0, abs=1e-12)
    # a zero sinusoid is a zero constant; it was refused as neither kind
    assert ic2_breakpoints(IC2Setup(1.0, 0.3, Sinusoid(0.0, 5.0)), 3.0) == []


def test_ic2_kernel_coeffs_subspace_two_negates_diagonal():
    one, two = build_ic2({
        "kappa": 0.1,
        "theta10": math.pi / 4,
        "lambda_m": {"kind": "sinusoid", "amplitude": 4.0, "frequency": 50.0},
        "lambda_z": 0.4,
        "chi": 0.2,
        "theta20": 0.3,
        "lambda_p": {"kind": "sinusoid", "amplitude": 2.0, "frequency": 30.0},
    })
    c1 = ic2_kernel_coeffs(one)
    c2 = ic2_kernel_coeffs(two)
    assert c1[:3] == (4.0, 50.0, 0.0)
    assert c2[:3] == (2.0, 30.0, 0.0)
    assert c1[3] == 0.1 and c2[3] == 0.2
    assert c1[-1] == 0.4 and c2[-1] == -0.4


def test_ic2_subspace_two_mirrors_subspace_one():
    # the config's subspace-II block is the subspace-I setup on
    # (chi, theta20, lambda_p) with lambda_z negated, so ic2_evolve runs
    # phi3/phi4 as its phi1/phi2; RK4 of the block's own Hamiltonian
    # checks the result in test_cli
    _one, two = build_ic2({
        "kappa": 0.7,
        "theta10": 0.2,
        "lambda_m": {"kind": "sinusoid", "amplitude": 1.0, "frequency": 40.0},
        "lambda_z": 0.4,
        "chi": 0.1,
        "theta20": math.pi / 4,
        "lambda_p": {"kind": "sinusoid", "amplitude": 4.0, "frequency": 50.0, "phase": math.pi / 50},
    })
    mirror = IC2Setup(
        kappa=0.1,
        theta10=math.pi / 4,
        lambda_m=Sinusoid(4.0, 50.0, math.pi / 50),
        lambda_z=scale(-1.0, Constant(0.4)),
    )
    assert two == mirror


def test_ic2_setup_validation():
    with pytest.raises(ValueError):
        IC2Setup(kappa=0.0, theta10=0.1, lambda_m=Sinusoid(1.0, 10.0))
    with pytest.raises(ValueError):
        IC2Setup(kappa=0.1, theta10=-0.1, lambda_m=Sinusoid(1.0, 10.0))
    with pytest.raises(ValueError):
        IC2Setup(kappa=0.1, theta10=2.0, lambda_m=Sinusoid(1.0, 10.0))
    # rate**-2 would overflow in the closed form
    with pytest.raises(ValueError, match=r"^\|kappa\| must be at least 1e-150$"):
        IC2Setup(kappa=-1e-200, theta10=0.1, lambda_m=Sinusoid(1.0, 10.0))
    # non-finite rates gave valid=True and NaN amplitudes; the chi, theta20
    # cases are config keys now (test_config)
    for kappa in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            IC2Setup(kappa=kappa, theta10=0.3, lambda_m=Sinusoid(1.0, 5.0))


def test_ic2_underflowing_rate_times_amplitude_is_a_verdict():
    # 2*kappa*mu underflows to zero: the angle never moves, so the setup
    # is admissible; this raised ZeroDivisionError
    setup = IC2Setup(kappa=1e-150, theta10=1.0, lambda_m=Sinusoid(1e-300, 1.0))
    assert ic2_admissible(setup).valid
