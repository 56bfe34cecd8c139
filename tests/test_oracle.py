import math

import numpy as np
import pytest

from conftest import tensor_hamiltonian
from spinpair import _kernels
from spinpair.config import build_ic1
from spinpair.drive import Constant, Sinusoid
from spinpair.errors import BranchExitError, ConfigError, NormDriftError
from spinpair.exact import IC2Setup, ic1_evolve, ic2_breakpoints, ic2_kernel_coeffs
from spinpair.model import ModelParams
from spinpair.oracle import (
    IntegratorConfig,
    integrate_block_fn,
    integrate_block_ic2,
    integrate_full,
    magnus_full,
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

@pytest.mark.parametrize(
    "cols",
    [pytest.param(slice(0, 2), id="Subspace.ONE"), pytest.param(slice(2, 4), id="Subspace.TWO")],
)
def test_integrate_block_constant_hamiltonian(cols):
    # STATIC's block from the spin operators, not from the model
    h = tensor_hamiltonian(1.3, -0.4, 0.9, 2.0, -0.7)[cols, cols]
    initial = np.array([0.6, 0.8j])
    state = np.zeros(4, dtype=complex)
    state[cols] = initial
    cfg = IntegratorConfig(step=1e-3)
    trace = integrate_full(STATIC, state, 2.0, cfg, sample_times=[0.0, 0.9, 2.0])
    for t, row in zip(trace.times, trace.amplitudes[:, cols]):
        assert np.allclose(row, expm_herm(h, t) @ initial, atol=1e-9)
    assert trace.norm_drift < 1e-10


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
    trace = integrate_full(DRIVEN, [1.0, 0.0, 0.0, 0.0], 2.0, cfg, sample_times=times)
    assert np.array_equal(trace.times, np.array(times))
    assert trace.amplitudes.shape == (5, 4)
    assert np.array_equal(trace.amplitudes[0], np.array([1.0, 0.0, 0.0, 0.0]))


def test_block_diagonality_gives_exact_zero_leakage():
    cfg = IntegratorConfig(step=1e-3)
    trace = integrate_full(DRIVEN, [1.0, 0.0, 0.0, 0.0], 1.0, cfg, sample_times=[0.0, 1.0])
    assert trace.amplitudes[-1, 2] == 0.0
    assert trace.amplitudes[-1, 3] == 0.0
    assert abs(trace.amplitudes[-1, 0]) > 0.0


def test_integrate_full_is_the_two_blocks():
    params = ModelParams(
        lambda_x=Sinusoid(1.3, 50.0, 0.1),
        lambda_y=Sinusoid(-0.4, 7.0, 0.2),
        lambda_z=Sinusoid(0.5, 7.0, 0.1),
        omega_1=Sinusoid(2.0, 13.0, 0.3),
        omega_2=Constant(-0.7),
    )
    initial = np.array([0.5, 0.5j, 0.5, -0.5])
    times = np.linspace(0.0, 1.7, 23)
    cfg = IntegratorConfig(step=2e-3)
    full = integrate_full(params, initial, 1.7, cfg, sample_times=times)
    # each block alone, the other zeroed: bitwise the same amplitudes
    one = integrate_full(params, initial * [1, 1, 0, 0], 1.7, cfg, sample_times=times)
    two = integrate_full(params, initial * [0, 0, 1, 1], 1.7, cfg, sample_times=times)
    assert full.amplitudes[:, :2].tobytes() == one.amplitudes[:, :2].tobytes()
    assert full.amplitudes[:, 2:].tobytes() == two.amplitudes[:, 2:].tobytes()
    assert np.all(one.amplitudes[:, 2:] == 0.0)
    assert np.all(two.amplitudes[:, :2] == 0.0)
    assert np.all(full.amplitudes[-1] != initial)


def test_norm_drift_error_with_coarse_step():
    cfg = IntegratorConfig(step=0.5, norm_tolerance=1e-10)
    with pytest.raises(NormDriftError):
        integrate_full(DRIVEN, [1.0, 0.0, 0.0, 0.0], 10.0, cfg)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_amplitudes_fail_the_norm_check():
    # the steps overflow to NaN amplitudes; max() used to drop the NaN
    # drift and return them with norm_drift == 0.0
    params = ModelParams.from_derived(omega_plus=Sinusoid(1e150, 3.0))
    cfg = IntegratorConfig(step=suggest_step(params, 1.0))
    with pytest.raises(NormDriftError, match="nan"):
        integrate_full(params, [1.0, 0.0, 0.0, 0.0], 1.0, cfg)


def test_suggest_step_values():
    assert suggest_step(DRIVEN, 10.0) == pytest.approx((2 * math.pi / 50.0) / 200.0)
    assert suggest_step(STATIC, 10.0) == pytest.approx(10.0 / 2000.0)


def test_integrator_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(step=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(step=math.nan)
    with pytest.raises(ValueError):
        IntegratorConfig(step=1e-3, norm_tolerance=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(step=1e-3, norm_tolerance=math.nan)


@pytest.mark.parametrize(
    "times", [[0.0, 0.5, 0.5], [0.5, 0.2], [-0.1, 0.5], [0.0, 3.0]]
)
def test_bad_sample_times_rejected(times):
    cfg = IntegratorConfig(step=1e-2)
    with pytest.raises(ValueError):
        integrate_full(STATIC, [1.0, 0.0, 0.0, 0.0], 2.0, cfg, sample_times=times)


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
    coeffs = ic2_kernel_coeffs(setup)
    marks = ic2_breakpoints(setup, 1.0)
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
    coeffs = ic2_kernel_coeffs(setup)
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


# --- Magnus-4 against the RK4 oracle ---------------------------------------

PRIMITIVE = ModelParams(
    lambda_x=Sinusoid(1.3, 50.0, 0.1),
    lambda_y=Sinusoid(-0.4, 7.0, 0.2),
    lambda_z=Sinusoid(0.5, 7.0, 0.1),
    omega_1=Sinusoid(2.0, 13.0, 0.3),
    omega_2=Constant(-0.7),
)

DERIVED = ModelParams.from_derived(
    omega_plus=Sinusoid(3.0, 20.0, 0.3),
    omega_minus=Sinusoid(1.5, 20.0, 0.3),
    lambda_m=Sinusoid(1.2, 9.0, 0.1),
    lambda_p=Sinusoid(-0.8, 9.0, 0.1),
    lambda_z=Constant(0.6),
)


@pytest.mark.parametrize("params", [PRIMITIVE, DERIVED], ids=["primitive", "derived"])
def test_magnus_matches_rk4_at_the_same_step(params):
    initial = [0.5, 0.5j, 0.3 - 0.4j, -0.5]
    times = np.linspace(0.0, 1.7, 23)
    cfg = IntegratorConfig(step=2e-3)
    magnus = magnus_full(params, initial, 1.7, cfg, sample_times=times)
    rk4 = integrate_full(params, initial, 1.7, cfg, sample_times=times)
    assert np.array_equal(magnus.times, rk4.times)
    assert np.array_equal(magnus.amplitudes[0], np.array(initial))
    assert np.max(np.abs(magnus.amplitudes - rk4.amplitudes)) < 1e-9
    assert np.all(np.abs(magnus.amplitudes[-1] - initial) > 1e-2)
    assert magnus.norm_drift <= 1e-12


def test_magnus_constant_hamiltonian_is_exact():
    from spinpair.model import hamiltonian_uncoupled

    h = hamiltonian_uncoupled(STATIC, 0.0)
    initial = np.array([0.5, 0.5j, -0.5, 0.5], dtype=complex)
    times = [0.0, 0.7, 1.5]
    trace = magnus_full(STATIC, initial, 1.5, IntegratorConfig(step=0.05), sample_times=times)
    for t, row in zip(trace.times, trace.amplitudes):
        assert np.max(np.abs(row - expm_herm(h, t) @ initial)) < 1e-12
    alone = magnus_full(STATIC, initial, 1.5, IntegratorConfig(step=0.05), sample_times=[0.0])
    assert np.array_equal(alone.amplitudes, [initial])


def test_magnus_block_starting_at_zero_stays_zero():
    trace = magnus_full(DRIVEN, [0.6, 0.8j, 0.0, 0.0], 1.0, IntegratorConfig(step=1e-3))
    assert np.all(trace.amplitudes[:, 2:] == 0.0)
    assert np.all(np.abs(trace.amplitudes[1:, 0] - 0.6) > 0.0)


def test_magnus_chunks_do_not_change_the_product(monkeypatch):
    # a chunk of 7 steps splits segments at odd places; more steps than
    # one default chunk, so the default run also spans chunks
    initial = [0.5, 0.5j, 0.3 - 0.4j, -0.5]
    times = np.linspace(0.0, 2.5, 11)
    cfg = IntegratorConfig(step=1e-4)
    whole = magnus_full(PRIMITIVE, initial, 2.5, cfg, sample_times=times)
    assert whole.norm_drift <= 1e-12
    monkeypatch.setattr(_kernels, "_CHUNK", 7)
    cfg = IntegratorConfig(step=2.5e-2)
    small = magnus_full(PRIMITIVE, initial, 2.5, cfg, sample_times=times)
    monkeypatch.undo()
    reference = magnus_full(PRIMITIVE, initial, 2.5, cfg, sample_times=times)
    assert np.max(np.abs(small.amplitudes - reference.amplitudes)) < 1e-13
    assert np.max(np.abs(whole.amplitudes - reference.amplitudes)) < 1e-5


def test_magnus_error_falls_16x_per_halved_step():
    setup, params, convention = build_ic1({
        "k": 0.7,
        "omega_plus": {"kind": "sinusoid", "amplitude": 3.0, "frequency": 20.0, "phase": 0.3},
        "lambda_z": {"kind": "sinusoid", "amplitude": 0.8, "frequency": 7.0},
    })
    # segments of 0.5 split into exactly 16 and 32 steps
    times = np.linspace(0.0, 2.0, 5)
    exact = ic1_evolve(setup, params, times, "phi1", convention)
    initial = (math.cos(setup.theta10), math.sin(setup.theta10), 0.0, 0.0)
    errors = []
    for step in (2.0**-5, 2.0**-6):
        trace = magnus_full(params, initial, 2.0, IntegratorConfig(step=step), sample_times=times)
        errors.append(
            max(
                np.max(np.abs(trace.amplitudes[:, 0] - exact.a1)),
                np.max(np.abs(trace.amplitudes[:, 1] - exact.a2)),
            )
        )
    assert 14.0 < errors[0] / errors[1] < 18.0


def test_rk4_error_falls_16x_per_halved_step():
    # integrate_full steps each block through the same rk4_clamped loop as
    # the ic2 and generic-block oracles; three halvings keep it fourth order
    setup, params, convention = build_ic1({
        "k": 0.7,
        "omega_plus": {"kind": "sinusoid", "amplitude": 1.0, "frequency": 10.0, "phase": 0.3},
        "lambda_z": {"kind": "sinusoid", "amplitude": 0.8, "frequency": 7.0},
    })
    # segments of 0.5 split into exactly 16, 32, 64 and 128 steps
    times = np.linspace(0.0, 2.0, 5)
    exact = ic1_evolve(setup, params, times, "phi1", convention)
    initial = (math.cos(setup.theta10), math.sin(setup.theta10), 0.0, 0.0)
    errors = []
    for step in (2.0**-5, 2.0**-6, 2.0**-7, 2.0**-8):
        trace = integrate_full(params, initial, 2.0, IntegratorConfig(step=step), sample_times=times)
        errors.append(
            max(
                np.max(np.abs(trace.amplitudes[:, 0] - exact.a1)),
                np.max(np.abs(trace.amplitudes[:, 1] - exact.a2)),
            )
        )
    ratios = [coarse / fine for coarse, fine in zip(errors, errors[1:])]
    assert all(14.0 < r < 18.0 for r in ratios), ratios


def test_magnus_refuses_a_step_too_long_for_the_drives():
    params = ModelParams.from_derived(omega_plus=Sinusoid(1e150, 3.0))
    cfg = IntegratorConfig(step=suggest_step(params, 1.0))
    with pytest.raises(ConfigError, match="norm bound"):
        magnus_full(params, [1.0, 0.0, 0.0, 0.0], 1.0, cfg)
    # the bound: hypot(3, 4) + 0.8/4 = 5.2, so a step of 1/5.2 is refused
    edge = ModelParams.from_derived(
        omega_plus=Constant(3.0), lambda_m=Constant(4.0), lambda_z=Constant(0.8)
    )
    with pytest.raises(ConfigError, match="norm bound"):
        magnus_full(edge, [1.0, 0.0, 0.0, 0.0], 1.0, IntegratorConfig(step=1.0 / 5.2))
    magnus_full(edge, [1.0, 0.0, 0.0, 0.0], 1.0, IntegratorConfig(step=0.99 / 5.2))
    # finite profiles whose bound overflows: hypot(1.7e308, 0.85e308) is inf
    inf = ModelParams(
        lambda_x=Constant(1.7e308),
        lambda_y=Constant(-1.7e308),
        lambda_z=Constant(0.0),
        omega_1=Constant(1.7e308),
        omega_2=Constant(1.7e308),
    )
    with pytest.raises(ConfigError, match="norm bound inf"):
        magnus_full(inf, [1.0, 0.0, 0.0, 0.0], 1.0, IntegratorConfig(step=1e-3))


def test_magnus_refuses_a_run_over_the_step_budget():
    cfg = IntegratorConfig(step=1e-7)
    with pytest.raises(ConfigError, match="step budget"):
        magnus_full(DRIVEN, [1.0, 0.0, 0.0, 0.0], 2.0, cfg)
