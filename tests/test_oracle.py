import math

import numpy as np
import pytest

from spinpair.drive import Constant, Sinusoid
from spinpair.errors import BranchExitError, ConfigError, NormDriftError
from spinpair.exact import IC2Setup, ic2_breakpoints, ic2_kernel_coeffs
from spinpair.model import ModelParams, Subspace
from spinpair.oracle import (
    IntegratorConfig,
    integrate_block,
    integrate_block_fn,
    integrate_block_ic2,
    integrate_full,
    suggest_step,
)

STATIC = ModelParams(
    lambda_x=Constant(1.3),
    lambda_y=Constant(-0.4),
    lambda_z=Constant(0.9),
    omega_1=Constant(2.0),
    omega_2=Constant(-0.7),
)

DRIVEN = ModelParams.from_derived(
    omega_plus=Sinusoid(2.0, 50.0, math.pi / 50),
    lambda_m=Sinusoid(1.0, 50.0, math.pi / 50),
    lambda_z=Constant(0.5),
)


def expm_herm(h, t):
    """exp(-i h t) for Hermitian h via eigendecomposition."""
    w, v = np.linalg.eigh(h)
    return v @ np.diag(np.exp(-1j * w * t)) @ v.conj().T


# --- integrators ----------------------------------------------------------

@pytest.mark.parametrize("subspace", [Subspace.ONE, Subspace.TWO])
def test_integrate_block_constant_hamiltonian(subspace):
    from spinpair.model import block

    h = block(STATIC, 0.0, subspace)
    initial = np.array([0.6, 0.8j])
    cfg = IntegratorConfig(step=1e-3)
    trace = integrate_block(STATIC, subspace, initial, 2.0, cfg, sample_times=[0.0, 0.9, 2.0])
    for t, row in zip(trace.times, trace.amplitudes):
        assert np.allclose(row, expm_herm(h, t) @ initial, atol=1e-9)
    assert trace.norm_drift < 1e-10
    assert trace.error_estimate is None


def test_integrate_full_constant_hamiltonian():
    from spinpair.model import hamiltonian_uncoupled

    h = hamiltonian_uncoupled(STATIC, 0.0)
    initial = np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)
    cfg = IntegratorConfig(step=1e-3)
    trace = integrate_full(STATIC, initial, 1.5, cfg, sample_times=[0.0, 1.5])
    assert np.allclose(trace.amplitudes[-1], expm_herm(h, 1.5) @ initial, atol=1e-9)


def test_sample_times_respected():
    times = [0.0, 0.123, 0.5, 1.618, 2.0]
    cfg = IntegratorConfig(step=1e-3)
    trace = integrate_block(DRIVEN, Subspace.ONE, [1.0, 0.0], 2.0, cfg, sample_times=times)
    assert np.array_equal(trace.times, np.array(times))
    assert trace.amplitudes.shape == (5, 2)
    assert np.array_equal(trace.amplitudes[0], np.array([1.0, 0.0]))


def test_block_diagonality_gives_exact_zero_leakage():
    cfg = IntegratorConfig(step=1e-3)
    trace = integrate_full(DRIVEN, [1.0, 0.0, 0.0, 0.0], 1.0, cfg, sample_times=[0.0, 1.0])
    assert trace.amplitudes[-1, 2] == 0.0
    assert trace.amplitudes[-1, 3] == 0.0
    assert abs(trace.amplitudes[-1, 0]) > 0.0


@pytest.mark.parametrize("method", ["rk4_fixed", "rk4_doubling"])
def test_integrate_full_is_the_two_blocks(method):
    params = ModelParams(
        lambda_x=Sinusoid(1.3, 50.0, 0.1),
        lambda_y=Sinusoid(-0.4, 7.0, 0.2),
        lambda_z=Sinusoid(0.5, 7.0, 0.1),
        omega_1=Sinusoid(2.0, 13.0, 0.3),
        omega_2=Constant(-0.7),
    )
    initial = [0.5, 0.5j, 0.5, -0.5]
    times = np.linspace(0.0, 1.7, 23)
    cfg = IntegratorConfig(step=2e-3, method=method)
    full = integrate_full(params, initial, 1.7, cfg, sample_times=times)
    one = integrate_block(params, Subspace.ONE, initial[:2], 1.7, cfg, sample_times=times)
    two = integrate_block(params, Subspace.TWO, initial[2:], 1.7, cfg, sample_times=times)
    assert np.all(full.amplitudes[:, :2] == one.amplitudes)
    assert np.all(full.amplitudes[:, 2:] == two.amplitudes)
    assert np.all(full.amplitudes[-1] != initial)


def test_norm_drift_error_with_coarse_step():
    cfg = IntegratorConfig(step=0.5, norm_tolerance=1e-10)
    with pytest.raises(NormDriftError):
        integrate_block(DRIVEN, Subspace.ONE, [1.0, 0.0], 10.0, cfg)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_amplitudes_fail_the_norm_check():
    # the steps overflow to NaN amplitudes; max() used to drop the NaN
    # drift and return them with norm_drift == 0.0
    params = ModelParams.from_derived(omega_plus=Sinusoid(1e150, 3.0))
    cfg = IntegratorConfig(step=suggest_step(params, 1.0))
    with pytest.raises(NormDriftError, match="nan"):
        integrate_full(params, [1.0, 0.0, 0.0, 0.0], 1.0, cfg)


def test_doubling_estimate_bounds_error():
    from spinpair.model import block

    h = block(STATIC, 0.0, Subspace.ONE)
    initial = np.array([1.0, 0.0], dtype=complex)
    cfg = IntegratorConfig(step=2e-2, method="rk4_doubling")
    trace = integrate_block(STATIC, Subspace.ONE, initial, 3.0, cfg, sample_times=[0.0, 3.0])
    exact = expm_herm(h, 3.0) @ initial
    actual = np.linalg.norm(trace.amplitudes[-1] - exact)
    assert trace.error_estimate is not None
    assert 0.0 < actual < 10.0 * trace.error_estimate
    assert trace.error_estimate < 1e-6


def test_suggest_step_values():
    assert suggest_step(DRIVEN, 10.0) == pytest.approx((2 * math.pi / 50.0) / 200.0)
    assert suggest_step(STATIC, 10.0) == pytest.approx(10.0 / 2000.0)


def test_integrator_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(step=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(step=1e-3, method="euler")
    with pytest.raises(ValueError):
        IntegratorConfig(step=1e-3, norm_tolerance=0.0)


@pytest.mark.parametrize(
    "times", [[0.0, 0.5, 0.5], [0.5, 0.2], [-0.1, 0.5], [0.0, 3.0]]
)
def test_bad_sample_times_rejected(times):
    cfg = IntegratorConfig(step=1e-2)
    with pytest.raises(ValueError):
        integrate_block(STATIC, Subspace.ONE, [1.0, 0.0], 2.0, cfg, sample_times=times)


def test_integrate_block_fn_constant():
    h = np.array([[0.7, 0.4 - 0.2j], [0.4 + 0.2j, -0.7]])
    initial = np.array([0.6, 0.8], dtype=complex)
    cfg = IntegratorConfig(step=1e-3)
    trace = integrate_block_fn(lambda t: h, initial, 2.0, cfg, sample_times=[0.0, 2.0])
    assert np.allclose(trace.amplitudes[-1], expm_herm(h, 2.0) @ initial, atol=1e-9)


def test_integrate_block_fn_piecewise_with_breakpoints():
    h1 = np.array([[1.0, 0.3], [0.3, -1.0]], dtype=complex)
    h2 = np.array([[-0.2, 0.9j], [-0.9j, 0.2]], dtype=complex)
    tb = 0.8377
    initial = np.array([1.0, 0.0], dtype=complex)
    cfg = IntegratorConfig(step=1e-3)
    trace = integrate_block_fn(
        lambda t: h1 if t < tb else h2,
        initial,
        2.0,
        cfg,
        sample_times=[0.0, 2.0],
        breakpoints=[tb],
    )
    exact = expm_herm(h2, 2.0 - tb) @ expm_herm(h1, tb) @ initial
    assert np.allclose(trace.amplitudes[-1], exact, atol=1e-9)


def test_integrate_block_ic2_runs_and_conserves_norm():
    setup = IC2Setup(kappa=0.1, theta10=math.pi / 4, lambda_m=Sinusoid(4.0, 50.0, math.pi / 50))
    coeffs = ic2_kernel_coeffs(setup, Subspace.ONE)
    marks = ic2_breakpoints(setup, 1.0, Subspace.ONE)
    cfg = IntegratorConfig(step=2e-4, norm_tolerance=1e-8)
    trace = integrate_block_ic2(
        coeffs, [1.0, 0.0], 1.0, cfg, sample_times=[0.0, 0.5, 1.0], breakpoints=marks
    )
    assert trace.norm_drift < 1e-9
    assert trace.amplitudes.shape == (3, 2)


@pytest.mark.parametrize("theta10", [0.0, 0.3])
def test_integrate_block_ic2_branch_exit_is_typed(theta10):
    # 4*kappa*mu/beta = 3: the angle leaves the principal branch inside
    # the first segment
    setup = IC2Setup(
        kappa=0.3, theta10=theta10, lambda_m=Sinusoid(50.0, 20.0, 0.0), lambda_z=Constant(0.2)
    )
    coeffs = ic2_kernel_coeffs(setup, Subspace.ONE)
    cfg = IntegratorConfig(step=1e-3)
    with pytest.raises(BranchExitError, match="branch edge"):
        integrate_block_ic2(coeffs, [1.0, 0.0], 0.5, cfg, sample_times=[0.0, 0.5])


@pytest.mark.parametrize("coeffs", [
    (4.0, 50.0, 0.0, 0.1, 1.0, 0.0),
    (4.0, 0.0, 0.0, 0.1, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    (4.0, 50.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    (4.0, 50.0, 0.0, 0.1, 0.0, 1.0, math.nan, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
], ids=["short", "beta_zero", "kappa_zero", "nan_entry"])
def test_integrate_block_ic2_checks_its_coeffs(coeffs):
    # with kappa = 0 and the angle inside the branch the kernel used to
    # run to the end without a complaint
    cfg = IntegratorConfig(step=1e-3)
    with pytest.raises(ConfigError, match="ic2 kernel coefficients"):
        integrate_block_ic2(coeffs, [1.0, 0.0], 0.5, cfg, sample_times=[0.0, 0.5])
