import cmath
import math

import numpy as np
import pytest

from conftest import quadrature
from spinpair import drive
from spinpair.approx import (
    RwaMode,
    RwaSetup,
    perturb_validity,
    perturb_x1,
    perturb_x2,
    rwa_evolve,
    rwa_orthogonal,
)
from spinpair.drive import Constant, Sinusoid
from spinpair.errors import ConfigError, ResonancePoleError
from spinpair.oracle import IntegratorConfig, integrate_block_fn

R2 = math.sqrt(0.5)


def first_order_quadrature(omega_plus, mu, beta, t):
    """x2 from the interaction-picture integral, done numerically."""

    def integrand(s):
        return mu * math.sin(beta * s) * cmath.exp(-2j * omega_plus * s)

    re = quadrature(lambda s: integrand(s).real, 0.0, t)
    im = quadrature(lambda s: integrand(s).imag, 0.0, t)
    return -1j * cmath.exp(1j * omega_plus * t) * (re + 1j * im)


# --- first-order perturbation ---------------------------------------------

def test_perturb_x1_is_free_phase():
    assert perturb_x1(2.0, 0.7) == pytest.approx(cmath.exp(-1j * 1.4), abs=1e-15)


@pytest.mark.parametrize("omega_plus,mu,beta", [
    (5.0, 0.25, 10.5),
    (5.0, 0.25, 9.5),
    (-3.0, 0.1, 7.0),
    (1.0, 0.5, 0.3),
])
@pytest.mark.parametrize("t", [0.4, 2.9])
def test_perturb_x2_matches_quadrature(omega_plus, mu, beta, t):
    closed = perturb_x2(omega_plus, Sinusoid(mu, beta), t)
    reference = first_order_quadrature(omega_plus, mu, beta, t)
    assert abs(closed - reference) < 1e-9


def test_perturb_x2_zero_at_start():
    assert abs(perturb_x2(5.0, Sinusoid(0.25, 10.5), 0.0)) < 1e-15


@pytest.mark.parametrize("omega_plus,beta", [(5.0, 10.0), (-5.0, 10.0)])
def test_perturb_x2_pole(omega_plus, beta):
    with pytest.raises(ResonancePoleError):
        perturb_x2(omega_plus, Sinusoid(0.25, beta), 1.0)


def test_perturb_x2_rejects_phase():
    with pytest.raises(ValueError):
        perturb_x2(5.0, Sinusoid(0.25, 10.5, 0.1), 1.0)


def test_perturb_validity():
    assert perturb_validity(5.0, Sinusoid(0.25, 10.5)) == pytest.approx(0.5)
    with pytest.raises(ResonancePoleError):
        perturb_validity(5.0, Sinusoid(0.25, 10.0))


def test_perturbation_refuses_overflowing_phases():
    # 2*omega_plus overflows: perturb_validity read the infinite
    # denominator as a validity of 0, and perturb_x2 warned and gave NaN
    drive_ = Sinusoid(0.25, 10.5)
    with pytest.raises(ConfigError, match=r"phase rates \(-inf,\) overflow"):
        perturb_validity(1e308, drive_)
    with pytest.raises(ConfigError, match=r"phase rates \(1e\+308, -inf, inf\) overflow"):
        perturb_x2(1e308, drive_, 1.0)
    # 2*omega_plus is finite, but omega_plus*t overflows by t = 100
    for call in (lambda t: perturb_x1(1e307, t), lambda t: perturb_x2(1e307, drive_, t)):
        with pytest.raises(ConfigError, match=r"overflow for \|t\| up to 100$"):
            call(np.array([0.0, 100.0]))
        assert np.isfinite(call(np.array([0.0, 1.0]))).all()


# --- rotating-wave approximation -------------------------------------------

def truncated_lambda_drive(setup):
    """Lab-frame Hamiltonian with the counter-rotating coupling dropped."""
    w = setup.static_value
    mu = setup.drive.amplitude
    beta = setup.drive.frequency
    phi = setup.drive.phase

    def hfun(t):
        z4 = 0.25 * drive.evaluate(setup.lambda_z, t)
        h12 = 0.5j * mu * cmath.exp(-1j * (beta * t + phi))
        return ((w + z4, h12), (h12.conjugate(), -w + z4))

    return hfun


def truncated_field_drive(setup):
    """Same truncation written in the sum/difference basis, rotated back."""
    l0 = setup.static_value
    mu = setup.drive.amplitude
    beta = setup.drive.frequency
    phi = setup.drive.phase
    r = np.array([[R2, R2], [R2, -R2]])

    def hfun(t):
        z4 = 0.25 * drive.evaluate(setup.lambda_z, t)
        h12 = 0.5j * mu * cmath.exp(-1j * (beta * t + phi))
        inner = np.array([[l0, h12], [h12.conjugate(), -l0]])
        return r @ inner @ r + z4 * np.eye(2)

    return hfun


RWA_CASES = [
    RwaSetup(RwaMode.LAMBDA_DRIVE, 1.0, Sinusoid(0.3, 2.6, 0.0), 0.0),
    RwaSetup(RwaMode.LAMBDA_DRIVE, 1.0, Sinusoid(0.3, 1.4, 0.4), 0.3,
             lambda_z=Constant(0.8)),
    RwaSetup(RwaMode.FIELD_DRIVE, 1.0, Sinusoid(0.3, 2.6, 0.0), 0.0),
    RwaSetup(RwaMode.FIELD_DRIVE, 0.7, Sinusoid(0.2, 1.0, 0.2), 0.5,
             lambda_z=Constant(-0.6)),
]


@pytest.mark.parametrize("setup", RWA_CASES)
def test_rwa_solves_truncated_hamiltonian(setup):
    make = truncated_lambda_drive if setup.mode is RwaMode.LAMBDA_DRIVE else truncated_field_drive
    hfun = make(setup)
    c0, s0 = math.cos(setup.theta10), math.sin(setup.theta10)
    t_end = 3.0
    cfg = IntegratorConfig(step=2e-4)
    trace = integrate_block_fn(hfun, (c0, s0), t_end, cfg, sample_times=[1.0, 2.0, 3.0])
    for t, row in zip(trace.times, trace.amplitudes):
        out = rwa_evolve(setup, t)
        assert abs(out.a1 - row[0]) < 1e-9
        assert abs(out.a2 - row[1]) < 1e-9


def test_rwa_orthogonal_solves_truncated_hamiltonian():
    setup = RWA_CASES[1]
    hfun = truncated_lambda_drive(setup)
    c0, s0 = math.cos(setup.theta10), math.sin(setup.theta10)
    cfg = IntegratorConfig(step=2e-4)
    trace = integrate_block_fn(hfun, (-s0, c0), 2.0, cfg, sample_times=[2.0])
    out = rwa_orthogonal(setup, 2.0)
    assert abs(out.a1 - trace.amplitudes[0][0]) < 1e-9
    assert abs(out.a2 - trace.amplitudes[0][1]) < 1e-9


@pytest.mark.parametrize("setup", RWA_CASES)
@pytest.mark.parametrize("t", [0.0, 1.7, 6.4])
def test_rwa_unitarity_and_orthogonality(setup, t):
    x = rwa_evolve(setup, t)
    y = rwa_orthogonal(setup, t)
    assert x.norm() == pytest.approx(1.0, abs=1e-12)
    assert y.norm() == pytest.approx(1.0, abs=1e-12)
    overlap = x.a1 * y.a1.conjugate() + x.a2 * y.a2.conjugate()
    assert abs(overlap) < 1e-12


def test_rwa_initial_condition():
    setup = RWA_CASES[1]
    out = rwa_evolve(setup, 0.0)
    assert out.a1 == pytest.approx(math.cos(0.3), abs=1e-15)
    assert out.a2 == pytest.approx(math.sin(0.3), abs=1e-15)


def test_rwa_resonant_flopping():
    # on resonance the transition probability is sin(mu*t/2)**2 exactly
    mu = 0.2
    setup = RwaSetup(RwaMode.LAMBDA_DRIVE, 1.0, Sinusoid(mu, 2.0, 0.0), 0.0)
    for t in (0.0, 3.0, math.pi / mu, 20.0):
        out = rwa_evolve(setup, t)
        assert abs(out.a2) ** 2 == pytest.approx(math.sin(0.5 * mu * t) ** 2, abs=1e-12)
    with pytest.raises(ResonancePoleError):
        perturb_x2(1.0, Sinusoid(mu, 2.0), 1.0)


def test_rwa_finite_at_zero_splitting():
    setup = RwaSetup(RwaMode.LAMBDA_DRIVE, 1.3, Sinusoid(0.0, 2.6, 0.0), 0.4)
    out = rwa_evolve(setup, 5.0)
    assert out.norm() == pytest.approx(1.0, abs=1e-12)
    assert abs(out.a2) == pytest.approx(math.sin(0.4), abs=1e-12)


def test_rwa_tracks_full_drive_when_weak():
    # weak off-resonant drive: full (untruncated) dynamics differ from the
    # rotating-wave result only by fast small-amplitude ripples
    w, mu, beta = 5.0, 0.025, 10.5
    setup = RwaSetup(RwaMode.LAMBDA_DRIVE, w, Sinusoid(mu, beta, 0.0), 0.0)
    gamma = math.hypot(mu, beta - 2.0 * w)
    t_end = 2.0 * (2.0 * math.pi / gamma)

    def hfun(t):
        l = mu * math.sin(beta * t)
        return ((w, l), (l, -w))

    cfg = IntegratorConfig(step=5e-4)
    times = np.linspace(0.0, t_end, 40)[1:]
    trace = integrate_block_fn(hfun, (1.0, 0.0), t_end, cfg, sample_times=list(times))
    worst = 0.0
    for t, row in zip(trace.times, trace.amplitudes):
        out = rwa_evolve(setup, t)
        worst = max(worst, abs(abs(out.a2) ** 2 - abs(row[1]) ** 2))
    assert worst < 0.02


def test_rwa_setup_validation():
    with pytest.raises(ValueError):
        RwaSetup(RwaMode.LAMBDA_DRIVE, 1.0, Constant(0.3), 0.0)
    with pytest.raises(ValueError):
        RwaSetup(RwaMode.LAMBDA_DRIVE, 1.0, Sinusoid(0.3, -2.0), 0.0)
    # each of these gave NaN amplitudes from rwa_evolve; a non-finite
    # drive is refused by the Sinusoid itself
    nan, inf = math.nan, math.inf
    for static, drive_, theta10 in (
        (nan, (0.3, 2.0), 0.0),
        (inf, (0.3, 2.0), 0.0),
        (1.0, (0.3, 2.0), nan),
        (1.0, (0.3, nan), 0.0),
        (1.0, (0.3, inf), 0.0),
        (1.0, (nan, 2.0), 0.0),
        (1.0, (0.3, 2.0, nan), 0.0),
    ):
        for mode in RwaMode:
            with pytest.raises(ValueError, match="finite"):
                RwaSetup(mode, static, Sinusoid(*drive_), theta10)
