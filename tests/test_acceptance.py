"""End-to-end acceptance checks for the packaged simulator.

One test per headline requirement; each prints a single summary line
with the measured quantities, so ``pytest -v tests/test_acceptance.py``
reads as a ten-line pass/fail report.
"""

import math
import time

import numpy as np
import pytest

from conftest import read_csv
from spinpair.approx import RwaMode, RwaSetup, perturb_x1, perturb_x2, rwa_evolve
from spinpair.cli import compute_trace, load_preset, preset_ids, run_sweep
from spinpair.config import apply_sweep_value, parse_config
from spinpair.drive import Constant, Sinusoid, scale
from spinpair.entangle import (
    DensityMatrix,
    FourState,
    concurrence_pure,
    concurrence_ic2,
    concurrence_wootters,
)
from spinpair.errors import ResonancePoleError
from spinpair.exact import (
    IC1Setup,
    IC2Setup,
    ic1_evolve,
    ic2_admissible,
    ic2_breakpoints,
    ic2_evolve,
    ic2_kernel_coeffs,
)
from spinpair.model import ModelParams
from spinpair.oracle import IntegratorConfig, integrate_block_ic2, integrate_full
from spinpair.symmetry import (
    map_params_global_flip,
    map_params_I_to_II,
    map_state_global_flip,
    map_state_I_to_II,
)

R2 = math.sqrt(0.5)


def peak_concurrence(preset_id):
    start = time.perf_counter()
    trace = compute_trace(load_preset(preset_id))
    elapsed = time.perf_counter() - start
    return float(np.max(trace.concurrences)), elapsed


def test_criterion_01_proportional_peak_at_half_ratio():
    peak, elapsed = peak_concurrence("fig1b")
    assert abs(peak - 0.8) <= 1e-3
    assert elapsed < 1.0
    print(f"criterion 1 PASS: k=0.5 peak concurrence {peak:.6f} "
          f"(target 0.8 +- 1e-3), {elapsed:.2f} s")


def test_criterion_02_proportional_peak_at_unit_ratio():
    peak, elapsed = peak_concurrence("fig1c")
    assert abs(peak - 1.0) <= 1e-3
    assert elapsed < 1.0
    print(f"criterion 2 PASS: k=1 peak concurrence {peak:.6f} "
          f"(target 1.0 +- 1e-3), {elapsed:.2f} s")


def test_criterion_03_proportional_closed_form_vs_rk4():
    start = time.perf_counter()
    worst = 0.0
    cfg = IntegratorConfig(step=1e-4)
    times = list(np.linspace(0.0, 10.0, 201)[1:])
    for k in (0.5, 1.0):
        wp = Sinusoid(2.0, 50.0, math.pi / 50)
        # subspace II is driven like subspace I, so one run carries the
        # first eigenstate in I and the second in II
        setup = IC1Setup.from_ratios(k, k)
        params = ModelParams.from_derived(
            omega_plus=wp, lambda_m=scale(k, wp), omega_minus=wp, lambda_p=scale(k, wp)
        )
        c0, s0 = math.cos(setup.theta10), math.sin(setup.theta10)
        trace = integrate_full(params, (c0, s0, -s0, c0), 10.0, cfg, sample_times=times)
        for initial, cols in (("phi1", slice(0, 2)), ("phi4", slice(2, 4))):
            for t, row in zip(trace.times, trace.amplitudes[:, cols]):
                amps = ic1_evolve(setup, params, float(t), initial)
                worst = max(worst, abs(amps.a1 - row[0]), abs(amps.a2 - row[1]))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-6
    assert elapsed < 10.0
    print(f"criterion 3 PASS: proportional closed form vs RK4(1e-4) on [0, 10], "
          f"max componentwise error {worst:.2e} <= 1e-6, {elapsed:.2f} s")


IC2_CASES = [
    IC2Setup(kappa=0.1, theta10=math.pi / 4, lambda_m=Sinusoid(4.0, 10.0, math.pi / 50)),
    IC2Setup(kappa=0.1, theta10=0.0, lambda_m=Sinusoid(4.0, 50.0, 0.0)),
]


def test_criterion_04_rate_matched_closed_form_vs_rk4():
    start = time.perf_counter()
    worst = 0.0
    cfg = IntegratorConfig(step=1e-4, norm_tolerance=1e-6)
    times = list(np.linspace(0.0, 10.0, 201)[1:])
    for setup in IC2_CASES:
        coeffs = ic2_kernel_coeffs(setup)
        marks = ic2_breakpoints(setup, 10.0)
        c0, s0 = math.cos(setup.theta10), math.sin(setup.theta10)
        for initial, state0 in (("phi1", (c0, s0)), ("phi2", (-s0, c0))):
            trace = integrate_block_ic2(
                coeffs, state0, 10.0, cfg, sample_times=times, breakpoints=marks
            )
            for t, row in zip(trace.times, trace.amplitudes):
                amps = ic2_evolve(setup, float(t), initial)
                worst = max(worst, abs(amps.a1 - row[0]), abs(amps.a2 - row[1]))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-5
    assert elapsed < 10.0
    print(f"criterion 4 PASS: rate-matched closed form vs RK4 over the derived field "
          f"on [0, 10], max error {worst:.2e} <= 1e-5, {elapsed:.2f} s")


def test_criterion_05_rate_matched_admissibility_boundary():
    start = time.perf_counter()
    base = IC2_CASES[0]
    verdict = ic2_admissible(base)
    assert verdict.valid
    lhs = 10.0 / (2.0 * 0.1 * 4.0)
    assert lhs == 12.5
    scaled = IC2Setup(
        kappa=base.kappa, theta10=base.theta10, lambda_m=Sinusoid(128.0, 10.0, math.pi / 50)
    )
    refused = ic2_admissible(scaled)
    assert not refused.valid
    assert "confinement bound" in refused.reason
    assert "0.390625" in refused.reason
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 5 PASS: admissible at 12.5 >= 2; 32x amplitude refused with "
          f"{refused.reason!r}, {elapsed:.2f} s")


def test_criterion_06_concurrence_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(20260815)
    worst = 0.0
    for _ in range(1000):
        f = rng.normal(size=4) + 1j * rng.normal(size=4)
        f = f / np.linalg.norm(f)
        state = FourState.uncoupled(*f)
        worst = max(
            worst,
            abs(concurrence_wootters(DensityMatrix.from_pure(state)) - concurrence_pure(state)),
        )
    assert worst <= 1e-9
    bell = np.array([R2, R2, 0.0, 0.0], dtype=complex)
    werner = DensityMatrix(0.5 * np.outer(bell, bell.conj()) + 0.5 * np.eye(4) / 4.0)
    assert concurrence_wootters(werner) == pytest.approx(0.25, abs=1e-9)
    assert concurrence_pure(FourState.uncoupled(1.0, 0.0, 0.0, 0.0)) == 0.0
    assert concurrence_pure(FourState.uncoupled(R2, R2, 0.0, 0.0)) == 1.0
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"criterion 6 PASS: mixed-state construction vs pure formula on 1000 states, "
          f"max gap {worst:.2e} <= 1e-9; Werner(p=0.5) = 0.25; product 0, Bell 1; "
          f"{elapsed:.2f} s")


def test_criterion_07_rwa_vs_perturbation():
    start = time.perf_counter()
    omega, detuning = 5.0, 0.5
    beta = 2.0 * omega + detuning
    mu = 0.05 * detuning
    setup = RwaSetup(RwaMode.LAMBDA_DRIVE, omega, Sinusoid(mu, beta, 0.0), 0.0)
    t_end = 2.0 * (2.0 * math.pi / detuning)
    worst = 0.0
    for t in np.linspace(0.0, t_end, 400):
        rwa_p2 = abs(rwa_evolve(setup, float(t)).a2) ** 2
        pert_p2 = abs(perturb_x2(omega, Sinusoid(mu, beta), float(t))) ** 2
        worst = max(worst, abs(rwa_p2 - pert_p2))
    assert worst <= 0.02
    resonant = RwaSetup(RwaMode.LAMBDA_DRIVE, omega, Sinusoid(0.2, 2.0 * omega, 0.0), 0.0)
    for t in (0.7, 3.0, 11.0):
        p2 = abs(rwa_evolve(resonant, t).a2) ** 2
        assert p2 == pytest.approx(math.sin(0.5 * 0.2 * t) ** 2, abs=1e-12)
    with pytest.raises(ResonancePoleError):
        perturb_x2(omega, Sinusoid(0.2, 2.0 * omega), 1.0)
    assert abs(perturb_x1(omega, 1.0)) == pytest.approx(1.0, abs=1e-15)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 7 PASS: weak-drive transition probabilities agree to "
          f"{worst:.2e} <= 0.02 over two beats; resonance flops as sin^2 and the "
          f"perturbative pole raises, {elapsed:.2f} s")


def _random_params(rng):
    def profile():
        if rng.uniform() < 0.4:
            return Constant(float(rng.uniform(-2.0, 2.0)))
        return Sinusoid(
            float(rng.uniform(-2.0, 2.0)),
            float(rng.uniform(1.0, 6.0)),
            float(rng.uniform(0.0, 2.0 * math.pi)),
        )

    return ModelParams(
        lambda_x=profile(),
        lambda_y=profile(),
        lambda_z=profile(),
        omega_1=profile(),
        omega_2=profile(),
    )


def test_criterion_08_symmetry_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(20260815)
    cfg = IntegratorConfig(step=1e-3, norm_tolerance=1e-4)
    worst = 0.0
    for _ in range(100):
        params = _random_params(rng)
        f = rng.normal(size=4) + 1j * rng.normal(size=4)
        f = f / np.linalg.norm(f)
        direct = integrate_full(params, f, 1.0, cfg, sample_times=[1.0]).amplitudes[0]
        for map_params, map_state in (
            (map_params_I_to_II, map_state_I_to_II),
            (map_params_global_flip, map_state_global_flip),
        ):
            routed = integrate_full(
                map_params(params),
                np.array(map_state(FourState.uncoupled(*f)).amplitudes),
                1.0,
                cfg,
                sample_times=[1.0],
            ).amplitudes[0]
            back = np.array(map_state(FourState.uncoupled(*routed)).amplitudes)
            worst = max(worst, float(np.max(np.abs(direct - back))))
    assert worst <= 1e-8

    mirror_worst = 0.0
    lm = Sinusoid(4.0, 50.0, math.pi / 50)
    for theta10 in np.linspace(0.15, math.pi / 2 - 0.15, 12):
        setup = IC2Setup(kappa=0.1, theta10=float(theta10), lambda_m=lm)
        mirror = IC2Setup(kappa=-0.1, theta10=0.5 * math.pi - float(theta10), lambda_m=lm)
        for t in np.linspace(0.0, 1.0, 26):
            mirror_worst = max(
                mirror_worst,
                abs(concurrence_ic2("mm", setup, float(t))
                    - concurrence_ic2("pp", mirror, float(t))),
            )
    assert mirror_worst <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"criterion 8 PASS: swap/flip commutation on 100 draws, worst {worst:.2e} "
          f"<= 1e-8; entanglement mirror worst {mirror_worst:.2e} <= 1e-9, "
          f"{elapsed:.2f} s")


def test_criterion_09_sweep_trends(tmp_path):
    start = time.perf_counter()
    summaries = {}
    for preset_id in ("fig2", "fig9", "fig13"):
        run_sweep(load_preset(preset_id), tmp_path / preset_id)
        summaries[preset_id] = read_csv(tmp_path / preset_id / f"{preset_id}_summary.csv")

    freq2 = summaries["fig2"]["dominant_frequency"]
    assert np.all(np.diff(freq2) > 0.0)

    freq9 = summaries["fig9"]["dominant_frequency"]
    amp9 = summaries["fig9"]["oscillation_amplitude"]
    assert np.all(np.diff(freq9) > 0.0)
    assert np.all(np.diff(amp9) < 0.0)

    amp13 = summaries["fig13"]["oscillation_amplitude"]
    values13 = summaries["fig13"]["value"]
    assert values13[0] == 0.1 and values13[-1] == 2.0
    assert amp13[-1] < amp13[0]
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"criterion 9 PASS: drive-amplitude sweep frequency strictly rises "
          f"{np.round(freq2, 2).tolist()}; drive-frequency sweep rises "
          f"{np.round(freq9, 2).tolist()} while amplitude falls "
          f"{np.round(amp9, 3).tolist()}; rate-constant sweep amplitude "
          f"{amp13[-1]:.4f} < {amp13[0]:.4f}, {elapsed:.2f} s")


def test_criterion_10_unitarity_across_presets():
    start = time.perf_counter()
    worst_analytic = 0.0
    count = 0
    for preset_id in preset_ids():
        cfg = load_preset(preset_id)
        if cfg.sweep is None:
            points = [cfg]
        else:
            points = [
                parse_config(apply_sweep_value(cfg.data, cfg.sweep.parameter, v), cfg.name)
                for v in cfg.sweep.values
            ]
        for point in points:
            trace = compute_trace(point)
            worst_analytic = max(worst_analytic, float(np.max(np.abs(trace.norms - 1.0))))
            count += 1
    assert worst_analytic <= 1e-9

    numeric = {
        "mode": "numeric",
        "initial_state": "pp",
        "time": {"t_end": 10.0, "samples": 201},
        "numeric": {
            "omega_plus": {"kind": "sinusoid", "amplitude": 2.0, "frequency": 50.0,
                           "phase": math.pi / 50},
            "lambda_m": {"kind": "scaled", "factor": 0.5,
                         "base": {"kind": "sinusoid", "amplitude": 2.0, "frequency": 50.0,
                                  "phase": math.pi / 50}},
        },
    }
    rk4 = compute_trace(parse_config(numeric, "norm_check"))
    worst_numeric = float(np.max(np.abs(rk4.norms - 1.0)))
    assert worst_numeric <= 1e-6

    rwa = {
        "mode": "rwa",
        "initial_state": "pp",
        "time": {"t_end": 20.0, "samples": 201},
        "rwa": {
            "mode": "lambda_drive",
            "static_value": 5.0,
            "drive": {"kind": "sinusoid", "amplitude": 0.25, "frequency": 10.5},
            "theta10": 0.0,
        },
    }
    dressed = compute_trace(parse_config(rwa, "rwa_check"))
    worst_rwa = float(np.max(np.abs(dressed.norms - 1.0)))
    assert worst_rwa <= 1e-9
    elapsed = time.perf_counter() - start
    print(f"criterion 10 PASS: norm drift <= {worst_analytic:.2e} over {count} "
          f"closed-form preset traces (tol 1e-9); {worst_numeric:.2e} for the "
          f"default-step integrator (tol 1e-6); {worst_rwa:.2e} for the "
          f"rotating-wave propagator, {elapsed:.2f} s")
