import copy
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import spinpair
from spinpair.cli import (
    CSV_COLUMNS,
    SUMMARY_COLUMNS,
    compute_trace,
    dominant_frequency,
    load_preset,
    main,
    preset_ids,
    run_single,
    run_sweep,
    trace_stats,
)
from spinpair.approx import perturb_x1, perturb_x2, rwa_evolve, rwa_orthogonal
from spinpair.config import (
    build_ic1,
    build_ic2,
    build_perturbation,
    build_rwa,
    parse_config,
    parse_profile,
    sweep_point_name,
)
from spinpair.drive import Constant
from spinpair.entangle import FourState, concurrence_pure
from spinpair.errors import AdmissibilityError, ConfigError, NormDriftError
from spinpair.exact import IC2Setup, ic1_evolve, ic2_evolve
from spinpair.oracle import IntegratorConfig, integrate_block_fn

SINUSOID = {"kind": "sinusoid", "amplitude": 2.0, "frequency": 50.0, "phase": math.pi / 50}


def write_yaml(tmp_path, name, data):
    path = tmp_path / f"{name}.yaml"
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    return path


def ic1_data(**overrides):
    data = {
        "mode": "ic1",
        "initial_state": "pp",
        "time": {"t_end": 2.0, "samples": 41},
        "ic1": {"k": 0.5, "omega_plus": dict(SINUSOID), "lambda_z": 0.4},
    }
    data.update(overrides)
    return data


# --- presets ------------------------------------------------------------------

def test_preset_suite_parses():
    ids = preset_ids()
    assert len(ids) == 26
    for expected in ("fig1b", "fig2", "fig8a", "fig9", "fig11a", "fig13"):
        assert expected in ids
    for preset_id in ids:
        cfg = load_preset(preset_id)
        assert cfg.name == preset_id


def test_load_preset_unknown():
    with pytest.raises(ConfigError):
        load_preset("fig99")


def test_figures_list(capsys):
    assert main(["figures", "--list"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == preset_ids()


# --- trace computation ----------------------------------------------------------

def test_trace_shape_and_grid():
    cfg = parse_config(ic1_data(), "case")
    trace = compute_trace(cfg)
    assert trace.times.shape == (41,)
    assert trace.times[0] == 0.0
    assert trace.times[-1] == 2.0
    assert trace.amplitudes.shape == (41, 4)
    assert np.allclose(trace.norms, 1.0, atol=1e-12)
    assert np.all(trace.concurrences >= 0.0)
    assert np.all(trace.concurrences <= 1.0 + 1e-12)


def test_numeric_matches_proportional_closed_form():
    numeric = {
        "mode": "numeric",
        "initial_state": "pp",
        "time": {"t_end": 2.0, "samples": 41},
        "numeric": {
            "omega_plus": dict(SINUSOID),
            "lambda_m": {"kind": "scaled", "factor": 0.5, "base": dict(SINUSOID)},
            "lambda_z": 0.4,
        },
    }
    exact = compute_trace(parse_config(ic1_data(), "a"))
    rk4 = compute_trace(parse_config(numeric, "b"))
    assert np.max(np.abs(exact.amplitudes - rk4.amplitudes)) < 1e-5
    assert np.max(np.abs(exact.concurrences - rk4.concurrences)) < 1e-5


def test_numeric_echo_injects_step():
    numeric = {
        "mode": "numeric",
        "initial_state": "pp",
        "time": {"t_end": 1.0, "samples": 11},
        "numeric": {"omega_plus": dict(SINUSOID)},
    }
    trace = compute_trace(parse_config(numeric, "case"))
    assert trace.echo["numeric"]["step"] == pytest.approx((2 * math.pi / 50.0) / 200.0)
    numeric["numeric"]["step"] = 1e-3
    configured = compute_trace(parse_config(numeric, "case"))
    assert configured.echo["numeric"]["step"] == 1e-3


def test_explicit_amplitude_initial_state():
    r = math.sqrt(0.5)
    numeric = {
        "mode": "numeric",
        "initial_state": [[r, 0.0], [0.0, r], 0.0, 0.0],
        "time": {"t_end": 0.5, "samples": 6},
        "numeric": {"omega_plus": dict(SINUSOID)},
    }
    trace = compute_trace(parse_config(numeric, "case"))
    assert trace.amplitudes[0, 0] == complex(r)
    assert trace.amplitudes[0, 1] == complex(0.0, r)


def test_perturbation_requires_pp_initial():
    data = {
        "mode": "perturbation",
        "initial_state": "mm",
        "time": {"t_end": 1.0, "samples": 11},
        "perturbation": {
            "omega_plus": 5.0,
            "drive": {"kind": "sinusoid", "amplitude": 0.25, "frequency": 10.5},
        },
    }
    with pytest.raises(ConfigError):
        compute_trace(parse_config(data, "case"))


def test_perturbation_norm_reported_not_enforced():
    data = {
        "mode": "perturbation",
        "initial_state": "pp",
        "time": {"t_end": 30.0, "samples": 301},
        "perturbation": {
            "omega_plus": 5.0,
            "drive": {"kind": "sinusoid", "amplitude": 0.025, "frequency": 10.5},
        },
    }
    trace = compute_trace(parse_config(data, "case"))
    assert np.max(trace.norms) > 1.0
    assert np.max(np.abs(trace.norms - 1.0)) < 0.05


def test_rwa_rejects_other_subspace():
    data = {
        "mode": "rwa",
        "initial_state": "pm",
        "time": {"t_end": 1.0, "samples": 11},
        "rwa": {
            "mode": "lambda_drive",
            "static_value": 5.0,
            "drive": {"kind": "sinusoid", "amplitude": 0.25, "frequency": 10.5},
            "theta10": 0.0,
        },
    }
    with pytest.raises(ConfigError):
        compute_trace(parse_config(data, "case"))


def test_inadmissible_rate_matched_run_is_refused():
    data = {
        "mode": "ic2",
        "initial_state": "pp",
        "time": {"t_end": 1.0, "samples": 11},
        "ic2": {
            "kappa": 0.1,
            "theta10": math.pi / 4,
            "lambda_m": {"kind": "sinusoid", "amplitude": 128.0, "frequency": 10.0},
        },
    }
    with pytest.raises(AdmissibilityError, match="confinement bound"):
        compute_trace(parse_config(data, "case"))


# every closed-form mode on the whole grid against one scalar call per sample
HALF = [0.5, [0.0, 0.5], -0.5, [0.5, 0.0]]
RWA_INITIAL = [[0.6, 0.0], [0.0, 0.8], 0.0, 0.0]
AGREEMENT_SECTIONS = {
    "ic1_signed": (HALF, {
        "k": 0.5, "k2": -0.7, "omega_plus": dict(SINUSOID), "lambda_z": 0.4,
        "omega_minus": dict(SINUSOID, amplitude=1.0),
    }),
    "ic1_nonnegative": (HALF, {
        "k": 0.5, "k2": -0.7, "omega_plus": dict(SINUSOID), "lambda_z": 0.4,
        "omega_minus": dict(SINUSOID, amplitude=1.0), "phase_convention": "nonnegative",
    }),
    "ic2": (HALF, {
        "kappa": 0.1, "theta10": math.pi / 4, "lambda_m": dict(SINUSOID, amplitude=4.0),
        "chi": 0.2, "theta20": 0.3, "lambda_p": dict(SINUSOID, phase=0.0), "lambda_z": 0.4,
    }),
    "rwa_lambda_drive": (RWA_INITIAL, {
        "mode": "lambda_drive", "static_value": 1.0, "theta10": 0.3, "lambda_z": 0.8,
        "drive": {"kind": "sinusoid", "amplitude": 0.3, "frequency": 1.4, "phase": 0.4},
    }),
    "rwa_field_drive": (RWA_INITIAL, {
        "mode": "field_drive", "static_value": 0.7, "theta10": 0.5, "lambda_z": -0.6,
        "drive": {"kind": "sinusoid", "amplitude": 0.2, "frequency": 1.0, "phase": 0.2},
    }),
    "perturbation": ("pp", {
        "omega_plus": 5.0, "drive": {"kind": "sinusoid", "amplitude": 0.25, "frequency": 10.5},
    }),
}


def per_sample_reference(cfg):
    """Amplitudes and concurrences from scalar calls, one sample at a time."""
    times = np.linspace(0.0, cfg.t_end, cfg.samples)
    section = cfg.data[cfg.mode]
    amps = np.zeros((times.size, 4), dtype=complex)
    if cfg.mode == "perturbation":
        omega_plus, drive = build_perturbation(section)
        for i, t in enumerate(times):
            amps[i, 0] = perturb_x1(omega_plus, float(t))
            amps[i, 1] = perturb_x2(omega_plus, drive, float(t))
    else:
        if cfg.mode == "ic1":
            setup, params, convention = build_ic1(section)
            angles = (setup.theta10, setup.theta20)
            evolve = lambda t, phi: ic1_evolve(setup, params, t, phi, convention)
        elif cfg.mode == "ic2":
            one, _two = build_ic2(section)
            # phi3/phi4 are phi1/phi2 of the mirrored subspace-II block,
            # written out here rather than taken from build_ic2's mirror
            two = IC2Setup(
                section["chi"],
                section["theta20"],
                parse_profile(section["lambda_p"], "lambda_p"),
                Constant(-section["lambda_z"]),
            )
            angles = (one.theta10, two.theta10)
            blocks = {"phi1": (one, "phi1"), "phi2": (one, "phi2"),
                      "phi3": (two, "phi1"), "phi4": (two, "phi2")}
            evolve = lambda t, phi: ic2_evolve(blocks[phi][0], t, blocks[phi][1])
        else:
            setup = build_rwa(section)
            angles = (setup.theta10, 0.0)
            rwa = {"phi1": rwa_evolve, "phi2": rwa_orthogonal}
            evolve = lambda t, phi: rwa[phi](setup, t)
        a, b, c, d = cfg.initial
        (c1, s1), (c2, s2) = [(math.cos(x), math.sin(x)) for x in angles]
        weights = {
            "phi1": (0, a * c1 + b * s1),
            "phi2": (0, -a * s1 + b * c1),
            "phi3": (2, c * c2 + d * s2),
            "phi4": (2, -c * s2 + d * c2),
        }
        for i, t in enumerate(times):
            for phi, (col, w) in weights.items():
                if w != 0:
                    out = evolve(float(t), phi)
                    amps[i, col] += w * out.a1
                    amps[i, col + 1] += w * out.a2
    conc = [
        concurrence_pure(FourState.uncoupled(*(row / math.sqrt(np.sum(np.abs(row) ** 2)))))
        for row in amps
    ]
    return amps, np.array(conc)


@pytest.mark.parametrize("case", sorted(AGREEMENT_SECTIONS))
def test_trace_matches_per_sample_scalar_calls(case):
    initial, section = AGREEMENT_SECTIONS[case]
    mode = case.split("_")[0]
    data = {
        "mode": mode,
        "initial_state": initial,
        "time": {"t_end": 2.0, "samples": 201},
        mode: section,
    }
    cfg = parse_config(data, case)
    trace = compute_trace(cfg)
    amps, conc = per_sample_reference(cfg)
    assert np.max(np.abs(trace.amplitudes - amps)) <= 1e-12
    assert np.max(np.abs(trace.concurrences - conc)) <= 1e-12
    if mode in ("ic1", "ic2"):
        # both blocks are populated, so both are propagated
        assert np.all(np.abs(trace.amplitudes[1:, 2:]) > 0.0)


def test_ic2_subspace_two_matches_rk4_of_its_own_block():
    # an oracle apart from the I<->II mirror: RK4 on the subspace-II block
    # [[w + z, lp], [lp, -w + z]] with z = -lambda_z/4 and the rate-matched
    # field w = lp/tan(2*theta2), theta2 from the naive cosine formula
    initial, section = AGREEMENT_SECTIONS["ic2"]
    data = {"mode": "ic2", "initial_state": initial, "time": {"t_end": 2.0, "samples": 201}}
    cfg = parse_config(dict(data, ic2=section), "ic2")
    trace = compute_trace(cfg)
    chi, theta20, lz = section["chi"], section["theta20"], section["lambda_z"]
    mu, beta = section["lambda_p"]["amplitude"], section["lambda_p"]["frequency"]

    def hfun(t):
        lp = mu * math.sin(beta * t)
        cos2 = math.cos(2.0 * theta20) - 2.0 * chi * (mu / beta) * (1.0 - math.cos(beta * t))
        w = lp / math.tan(math.acos(cos2))
        z = -lz / 4.0
        return ((w + z, lp), (lp, -w + z))

    cfg_rk4 = IntegratorConfig(step=1e-3, norm_tolerance=1e-8)
    rk4 = integrate_block_fn(hfun, cfg.initial[2:], 2.0, cfg_rk4, sample_times=trace.times)
    assert np.max(np.abs(rk4.amplitudes - trace.amplitudes[:, 2:])) < 1e-8


# --- statistics -----------------------------------------------------------------

def test_dominant_frequency_recovers_sinusoid_rate():
    t = np.linspace(0.0, 10.0, 2001)
    assert dominant_frequency(t, np.sin(7.0 * t)) == pytest.approx(7.0, rel=0.05)


def test_trace_stats_keys():
    trace = compute_trace(parse_config(ic1_data(), "case"))
    stats = trace_stats(trace)
    assert set(stats) == set(SUMMARY_COLUMNS) - {"value"}
    assert stats["oscillation_amplitude"] == pytest.approx(
        float(np.max(trace.concurrences) - np.min(trace.concurrences))
    )


# --- file output ------------------------------------------------------------------

def test_trace_csv_layout(tmp_path, trace_reader):
    cfg = parse_config(ic1_data(), "case")
    path = run_single(cfg, tmp_path)
    assert path == tmp_path / "case.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    echo = [ln for ln in lines if ln.startswith("# ")]
    keys = [ln[2:].split(":", 1)[0] for ln in echo]
    assert keys == sorted(keys)
    assert "ic1.k" in keys
    header = lines[len(echo)]
    assert header == ",".join(CSV_COLUMNS)
    cols = trace_reader(path)
    assert cols["t"].size == 41
    assert np.allclose(cols["norm"], 1.0, atol=1e-12)


def test_run_is_byte_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["figures", "fig1b", "--output", str(a)]) == 0
    assert main(["figures", "fig1b", "--output", str(b)]) == 0
    assert (a / "fig1b.csv").read_bytes() == (b / "fig1b.csv").read_bytes()


def test_sweep_outputs_and_thread_invariance(tmp_path, trace_reader):
    cfg = load_preset("fig2")
    serial = tmp_path / "serial"
    again = tmp_path / "again"
    paths = run_sweep(cfg, serial)
    run_sweep(cfg, again)
    names = sorted(p.name for p in paths)
    assert names == ["fig2_10.csv", "fig2_2.csv", "fig2_6.csv", "fig2_summary.csv"]
    for name in names:
        assert (serial / name).read_bytes() == (again / name).read_bytes()
    summary = trace_reader(serial / "fig2_summary.csv")
    assert list(summary) == list(SUMMARY_COLUMNS)
    assert np.array_equal(summary["value"], [2.0, 6.0, 10.0])


def test_sweep_requires_sweep_block(tmp_path):
    cfg = parse_config(ic1_data(), "case")
    with pytest.raises(ConfigError):
        run_sweep(cfg, tmp_path)


# --- entry point -----------------------------------------------------------------

def test_main_run_and_errors(tmp_path, capsys):
    path = write_yaml(tmp_path, "case", ic1_data())
    assert main(["run", str(path), "--output", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert str(tmp_path / "case.csv") in out

    assert main(["run", str(tmp_path / "absent.yaml")]) == 2
    assert "error:" in capsys.readouterr().err

    sweep_path = write_yaml(
        tmp_path,
        "swept",
        ic1_data(sweep={"parameter": "ic1.k", "values": [0.5, 1.0]}),
    )
    assert main(["run", str(sweep_path)]) == 2
    assert "simulate sweep" in capsys.readouterr().err

    assert main(["figures", "fig99"]) == 2
    assert "unknown preset" in capsys.readouterr().err


@pytest.mark.parametrize("command,replace", [
    ("run", ("t_end: 2.0", "t_end: .nan")),
    ("run", ("t_end: 2.0", "t_end: .inf")),
    ("run", ("k: 0.5", "k: .nan")),
    ("sweep", ("- 1.0", "- .nan")),
])
def test_main_rejects_non_finite_yaml(tmp_path, capsys, command, replace):
    data = ic1_data()
    if command == "sweep":
        data["sweep"] = {"parameter": "ic1.k", "values": [0.5, 1.0]}
    text = yaml.safe_dump(data)
    assert replace[0] in text
    path = tmp_path / "case.yaml"
    path.write_text(text.replace(replace[0], replace[1]), encoding="utf-8")
    assert main([command, str(path), "--output", str(tmp_path)]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_overflowing_drive_fails_the_norm_check():
    # finite inputs whose integral overflows give NaN amplitudes, which
    # must fail the norm check rather than reach the CSV
    huge = {"kind": "sinusoid", "amplitude": 1e300, "frequency": 1e-300}
    cfg = parse_config(ic1_data(ic1={"k": 0.5, "omega_plus": huge}), "case")
    with pytest.raises(NormDriftError, match="nan"):
        compute_trace(cfg)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_main_numeric_nan_amplitudes_exit_2(tmp_path, capsys):
    # the RK4 steps overflowed to NaN; this wrote a CSV of nan and exited 0.
    # Magnus steps would stay unitary, so the step check refuses the run.
    # PyYAML reads 1.0e150 (no exponent sign) as a string, so 1.0e+150
    path = tmp_path / "huge.yaml"
    path.write_text(
        "mode: numeric\n"
        "initial_state: pp\n"
        "time: {t_end: 1.0, samples: 11}\n"
        "numeric:\n"
        "  omega_plus: {kind: sinusoid, amplitude: 1.0e+150, frequency: 3.0}\n",
        encoding="utf-8",
    )
    outdir = tmp_path / "out"
    assert main(["run", str(path), "--output", str(outdir)]) == 2
    assert "times the Hamiltonian norm bound" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.csv"))


def test_main_numeric_over_step_budget_exit_2(tmp_path, capsys):
    # a step of ~3e-14 over t = 1 once stepped until the process was killed
    path = tmp_path / "fast.yaml"
    path.write_text(
        "mode: numeric\n"
        "initial_state: pp\n"
        "time: {t_end: 1.0, samples: 11}\n"
        "numeric:\n"
        "  omega_plus: {kind: sinusoid, amplitude: 1.0, frequency: 1.0e+12}\n",
        encoding="utf-8",
    )
    outdir = tmp_path / "out"
    assert main(["run", str(path), "--output", str(outdir)]) == 2
    assert "step budget" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.csv"))


def test_sweep_over_numeric_step_echoes_each_step(tmp_path):
    data = {
        "mode": "numeric",
        "name": "stepped",
        "initial_state": "pp",
        "time": {"t_end": 0.5, "samples": 6},
        "numeric": {"omega_plus": dict(SINUSOID), "step": 0.01},
        "sweep": {"parameter": "numeric.step", "values": [0.01, 0.001]},
    }
    paths = run_sweep(parse_config(data, "stepped"), tmp_path)
    assert [p.name for p in paths] == ["stepped_0.001.csv", "stepped_0.01.csv", "stepped_summary.csv"]
    for path, step in zip(paths, (0.001, 0.01)):
        assert f"# numeric.step: {step}" in path.read_text(encoding="utf-8").splitlines()


def test_main_sweep_writes_summary(tmp_path, capsys):
    path = write_yaml(
        tmp_path,
        "swept",
        ic1_data(
            time={"t_end": 1.0, "samples": 101},
            sweep={"parameter": "ic1.omega_plus.amplitude", "values": [2.0, 6.0]},
        ),
    )
    outdir = tmp_path / "out"
    assert main(["sweep", str(path), "--output", str(outdir)]) == 0
    assert (outdir / "swept_summary.csv").is_file()
    assert (outdir / "swept_2.csv").is_file()
    assert (outdir / "swept_6.csv").is_file()


def test_main_sweep_refuses_values_that_share_a_point_file(tmp_path, capsys):
    # distinct values that print alike under %g once wrote s_0.5.csv three
    # times, leaving one point file for a three-row summary
    path = write_yaml(
        tmp_path, "s", ic1_data(sweep={"parameter": "ic1.k", "values": [0.5, 0.5000001, 0.50000001]})
    )
    outdir = tmp_path / "out"
    assert main(["sweep", str(path), "--output", str(outdir)]) == 2
    assert "sweep.values 0.5 and 0.5000001 both write the point file s_0.5.csv" in (
        capsys.readouterr().err
    )
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("sweep", [
    pytest.param({"parameter": "numeric.step", "values": [0.01, -0.01]}, id="refused-by-parse"),
    pytest.param({"parameter": "numeric.omega_plus.amplitude", "values": [2.0, 1e150]}, id="refused-by-run"),
])
def test_main_sweep_refused_at_a_later_point_writes_nothing(tmp_path, capsys, sweep):
    # the first point's CSV was written before the second point was refused
    data = {
        "mode": "numeric",
        "initial_state": "pp",
        "time": {"t_end": 0.5, "samples": 6},
        "numeric": {"omega_plus": dict(SINUSOID), "step": 0.01},
        "sweep": sweep,
    }
    path = write_yaml(tmp_path, "s", data)
    assert main(["sweep", str(path), "--output", str(tmp_path / "out")]) == 2
    assert "error:" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.csv"))


def test_sweep_over_samples_keeps_an_integer(tmp_path, trace_reader):
    # time.samples once took float(value) and refused every point
    data = ic1_data(name="n", sweep={"parameter": "time.samples", "values": [11, 6]})
    paths = run_sweep(parse_config(data, "n"), tmp_path)
    assert [p.name for p in paths] == ["n_6.csv", "n_11.csv", "n_summary.csv"]
    for path, samples in zip(paths, (6, 11)):
        assert f"# time.samples: {samples}" in path.read_text(encoding="utf-8").splitlines()
        assert trace_reader(path)["t"].size == samples
    with pytest.raises(ConfigError, match="'time.samples' is an integer; value 6.5 is not"):
        parse_config(ic1_data(sweep={"parameter": "time.samples", "values": [11, 6.5]}), "n")


@pytest.mark.parametrize("where", ["a file", "under a file", "a directory named like the CSV"])
def test_main_unwritable_output_exits_2(tmp_path, capsys, where):
    blocker = tmp_path / "afile"
    blocker.write_text("x", encoding="utf-8")
    output = {"a file": blocker, "under a file": blocker / "sub"}.get(where, tmp_path / "out")
    if where == "a directory named like the CSV":
        (output / "fig1b.csv").mkdir(parents=True)
    assert main(["figures", "fig1b", "--output", str(output)]) == 2
    assert f"error: cannot write {output / 'fig1b.csv'}: " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep", "figures"])
def test_main_unwritable_summary_leaves_no_point_csv(tmp_path, capsys, command):
    # the point CSVs were written, then the summary failed and they stayed
    outdir = tmp_path / "out"
    if command == "sweep":
        data = ic1_data(sweep={"parameter": "ic1.k", "values": [0.5, 1.0]})
        path = write_yaml(tmp_path, "s", data)
        argv, blocked = ["sweep", str(path)], outdir / "s_summary.csv"
    else:
        argv, blocked = ["figures", "fig9"], outdir / "fig9_summary.csv"
    blocked.mkdir(parents=True)
    assert main(argv + ["--output", str(outdir)]) == 2
    assert f"error: cannot write {blocked}: " in capsys.readouterr().err
    assert [p for p in tmp_path.rglob("*.csv") if p.is_file()] == []


def test_main_overflowing_scaled_profile_exits_2(tmp_path, capsys):
    # this passed parsing, printed a NumPy overflow warning and only then
    # failed the step check
    path = tmp_path / "huge.yaml"
    path.write_text(
        "mode: numeric\n"
        "initial_state: pp\n"
        "time: {t_end: 1.0, samples: 11}\n"
        "numeric:\n"
        "  lambda_x: 0.0\n"
        "  lambda_y: 0.0\n"
        "  lambda_z: {kind: scaled, factor: 1.0e+200, base: 1.0e+200}\n"
        "  omega_1: 1.0\n"
        "  omega_2: 1.0\n",
        encoding="utf-8",
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(path), "--output", str(tmp_path / "out")]) == 2
    assert "error: numeric.lambda_z: factor 1e+200 times its base overflows" in (
        capsys.readouterr().err
    )
    assert not list(tmp_path.rglob("*.csv"))


# --- determinism across processes, and of a sweep point against a run -----------

def _csv_from_a_fresh_process(argv, outdir, name):
    src = str(Path(spinpair.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    subprocess.run(
        [sys.executable, "-m", "spinpair.cli", *argv, "--output", str(outdir)],
        env=env, check=True, capture_output=True,
    )
    return (outdir / name).read_bytes()


def test_csv_bytes_repeat_in_a_fresh_process(tmp_path):
    numeric = write_yaml(tmp_path, "num", {
        "mode": "numeric",
        "initial_state": "bell_s",
        "time": {"t_end": 1.0, "samples": 51},
        "numeric": {
            "omega_plus": dict(SINUSOID),
            "lambda_m": {"kind": "scaled", "factor": 0.5, "base": dict(SINUSOID)},
            "omega_minus": dict(SINUSOID, amplitude=1.0),
            "lambda_z": 0.4,
        },
    })
    for argv, name in ((["figures", "fig8a"], "fig8a.csv"), (["run", str(numeric)], "num.csv")):
        first = _csv_from_a_fresh_process(argv, tmp_path / "first", name)
        assert _csv_from_a_fresh_process(argv, tmp_path / "second", name) == first


@pytest.mark.parametrize("data", [
    pytest.param(
        ic1_data(
            initial_state="bell_s",
            ic1={"k": 0.5, "k2": 0.3, "omega_plus": dict(SINUSOID),
                 "omega_minus": dict(SINUSOID, amplitude=1.0), "lambda_z": 0.4},
            sweep={"parameter": "ic1.omega_plus.amplitude", "values": [3.0, 0.5, 2.0]},
        ),
        id="ic1",
    ),
    pytest.param(
        {
            "mode": "rwa",
            "initial_state": "phi1",
            "time": {"t_end": 2.0, "samples": 41},
            "rwa": {
                "mode": "field_drive",
                "static_value": 5.0,
                "drive": {"kind": "sinusoid", "amplitude": 0.25, "frequency": 10.5},
                "theta10": 0.3,
            },
            "sweep": {"parameter": "rwa.drive.frequency", "values": [10.0, 10.5, 11.25]},
        },
        id="rwa",
    ),
])
def test_sweep_point_csv_equals_a_run_of_its_config(tmp_path, data):
    config = write_yaml(tmp_path, "s", data)
    assert main(["sweep", str(config), "--output", str(tmp_path / "sweep")]) == 0
    *parents, leaf = data["sweep"]["parameter"].split(".")
    for value in data["sweep"]["values"]:
        point = copy.deepcopy(data)
        del point["sweep"]
        _at(point, parents)[leaf] = value
        point["name"] = f"s_{value:g}"
        run = write_yaml(tmp_path, point["name"], point)
        assert main(["run", str(run), "--output", str(tmp_path / "run")]) == 0
        csv = f"{point['name']}.csv"
        assert (tmp_path / "run" / csv).read_bytes() == (tmp_path / "sweep" / csv).read_bytes()


# --- property: main() ends in 0 or 2 on any small config ---------------------

def _profiles(amplitudes, frequencies):
    sinusoid = st.fixed_dictionaries(
        {"kind": st.just("sinusoid"), "amplitude": amplitudes, "frequency": frequencies},
        optional={"phase": st.floats(-3.0, 3.0)},
    )
    scaled = st.fixed_dictionaries(
        {"kind": st.just("scaled"), "factor": st.floats(-2.0, 2.0), "base": sinusoid}
    )
    return st.one_of(amplitudes, sinusoid, scaled)


# huge frequencies reach the RK4 step budget in numeric mode
_FREQ = st.floats(0.5, 20.0) | st.floats(-20.0, -0.5) | st.sampled_from([1e12, -1e300])
_PROFILE = _profiles(st.floats(-5.0, 5.0), _FREQ)
_ANGLE = st.floats(0.0, 0.5 * math.pi)
_SECTIONS = {
    "ic1": st.fixed_dictionaries(
        {"k": st.floats(-3.0, 3.0), "omega_plus": _PROFILE},
        optional={
            "k2": st.floats(-3.0, 3.0),
            "omega_minus": _PROFILE,
            "lambda_z": _PROFILE,
            "phase_convention": st.sampled_from(["signed", "nonnegative"]),
        },
    ),
    "ic2": st.fixed_dictionaries(
        {"kappa": st.floats(-1.0, 1.0), "theta10": _ANGLE, "lambda_m": _PROFILE},
        optional={
            "lambda_z": _PROFILE,
            "chi": st.floats(-1.0, 1.0),
            "theta20": _ANGLE,
            "lambda_p": _PROFILE,
        },
    ),
    "rwa": st.fixed_dictionaries(
        {
            "mode": st.sampled_from(["lambda_drive", "field_drive"]),
            "static_value": st.floats(-5.0, 5.0),
            "drive": _profiles(st.floats(-5.0, 5.0), st.floats(0.5, 20.0)),
            "theta10": st.floats(-1.6, 1.6),
        },
        optional={"lambda_z": _PROFILE},
    ),
    "perturbation": st.fixed_dictionaries(
        {"omega_plus": st.floats(-5.0, 5.0), "drive": _profiles(st.floats(-1.0, 1.0), _FREQ)}
    ),
    "numeric": st.one_of(
        st.fixed_dictionaries(
            {},
            optional={
                name: _PROFILE
                for name in ("omega_plus", "omega_minus", "lambda_m", "lambda_p", "lambda_z")
            }
            | {"step": st.sampled_from([0.01, 0.05])},
        ),
        st.fixed_dictionaries(
            {name: _PROFILE for name in ("lambda_x", "lambda_y", "lambda_z", "omega_1", "omega_2")}
        ),
    ),
}


def _leaves(node, path=()):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path]
    return [leaf for key, child in items for leaf in _leaves(child, path + (key,))]


def _at(data, path):
    for key in path:
        data = data[key]
    return data


@st.composite
def _configs_in_range(draw):
    mode = draw(st.sampled_from(sorted(_SECTIONS)))
    initial = st.sampled_from(
        ["pp", "mm", "pm", "mp", "bell_s", "bell_a", "phi1", "phi2", "phi3", "phi4",
         [0.5, [0.0, 0.5], 0.5, -0.5]]
    )
    time = {"t_end": draw(st.sampled_from([0.5, 1.0, 2.0])), "samples": draw(st.integers(2, 50))}
    # a copy: changes by the caller must not reach the shared sampled values
    return copy.deepcopy(
        {"mode": mode, "initial_state": draw(initial), "time": time, mode: draw(_SECTIONS[mode])}
    )


@st.composite
def _configs(draw):
    # a config in range; every other one then gets one leaf replaced by a
    # zero, negative, huge, non-finite or non-numeric value
    data = draw(_configs_in_range())
    if draw(st.booleans()):
        path = draw(st.sampled_from(_leaves(data)))
        bad = [0.0, -1.0, 1e150, -1e300, math.nan, math.inf, -math.inf, "x", None]
        _at(data, path[:-1])[path[-1]] = draw(st.sampled_from(bad))
    return data


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=_configs())
def test_main_exits_0_or_2_on_generated_configs(data):
    # exit 0 writes one CSV without a NaN; exit 2 writes nothing
    with tempfile.TemporaryDirectory() as tmp:
        path = write_yaml(Path(tmp), "case", data)
        outdir = Path(tmp) / "out"
        code = main(["run", str(path), "--output", str(outdir)])
        assert code in (0, 2)
        csvs = list(outdir.glob("*.csv"))
        if code == 0:
            (csv,) = csvs
            rows = [ln for ln in csv.read_text().splitlines() if not ln.startswith("#")]
            assert "nan" not in "".join(rows).lower()
        else:
            assert not csvs


@st.composite
def _sweep_configs(draw):
    # a config in range swept over one of its numeric leaves: 2-3 values
    # drawn from the leaf's own, its neighbours and bad ones
    data = draw(_configs_in_range())
    numeric = [
        path for path in _leaves(data)
        if all(isinstance(key, str) for key in path)
        and isinstance(_at(data, path), (int, float))
        and not isinstance(_at(data, path), bool)
    ]
    path = draw(st.sampled_from(numeric))
    old = _at(data, path)
    near = [old, 2 * old, old + 1, old - 1] if isinstance(old, int) else [old, 2.0 * old, 0.5 * old]
    bad = [0.0, -1.0, 2.5, 1e150, -1e300, math.nan]
    values = draw(st.lists(st.sampled_from(near + bad), min_size=2, max_size=3, unique=True))
    data["sweep"] = {"parameter": ".".join(path), "values": values}
    return data


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=_sweep_configs())
def test_main_sweep_exits_0_or_2_on_generated_configs(data):
    # exit 0 writes every point CSV and the summary, without a NaN; exit 2
    # writes nothing, even when an early point was fine
    with tempfile.TemporaryDirectory() as tmp:
        path = write_yaml(Path(tmp), "case", data)
        outdir = Path(tmp) / "out"
        code = main(["sweep", str(path), "--output", str(outdir)])
        assert code in (0, 2)
        csvs = sorted(outdir.glob("*.csv"))
        if code == 0:
            names = {f"{sweep_point_name('case', float(v))}.csv" for v in data["sweep"]["values"]}
            assert {csv.name for csv in csvs} == names | {"case_summary.csv"}
            for csv in csvs:
                # the rows after the header: "dominant_frequency" holds "nan"
                rows = [ln for ln in csv.read_text().splitlines() if not ln.startswith("#")]
                assert "nan" not in "".join(rows[1:]).lower()
        else:
            assert not csvs
