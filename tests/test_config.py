import math

import pytest

from spinpair.approx import RwaMode
from spinpair.config import (
    NAMED_STATES,
    apply_sweep_value,
    build_ic1,
    build_ic2,
    build_numeric,
    build_perturbation,
    build_rwa,
    load_config,
    parse_config,
    parse_profile,
)
from spinpair.drive import Constant, Sinusoid
from spinpair.errors import ConfigError
from spinpair.exact import IC2Setup, PhaseConvention
from spinpair.model import map_params_I_to_II

SINUSOID_NODE = {"kind": "sinusoid", "amplitude": 2.0, "frequency": 50.0, "phase": 0.1}


def minimal_ic1(**overrides):
    data = {
        "mode": "ic1",
        "initial_state": "pp",
        "time": {"t_end": 1.0, "samples": 11},
        "ic1": {"k": 0.5, "omega_plus": dict(SINUSOID_NODE)},
    }
    data.update(overrides)
    return data


# --- profiles ---------------------------------------------------------------

def test_parse_profile_forms():
    assert parse_profile(3, "x") == Constant(3.0)
    assert parse_profile({"kind": "constant", "value": -1.5}, "x") == Constant(-1.5)
    assert parse_profile(SINUSOID_NODE, "x") == Sinusoid(2.0, 50.0, 0.1)
    assert parse_profile(
        {"kind": "sinusoid", "amplitude": 1, "frequency": 2}, "x"
    ) == Sinusoid(1.0, 2.0, 0.0)
    nested = {"kind": "scaled", "factor": 0.5, "base": SINUSOID_NODE}
    assert parse_profile(nested, "x") == Sinusoid(1.0, 50.0, 0.1)


@pytest.mark.parametrize("node", [
    {"kind": "sinusoid", "amplitude": 1.0, "frequency": 0.0},
    {"kind": "ramp", "value": 1.0},
    {"kind": "constant", "value": 1.0, "extra": 2},
    {"kind": "constant", "value": True},
    {"kind": "scaled", "factor": 1.0},
    True,
    "fast",
    # a scaled node is folded when parsed, and the product must stay finite
    {"kind": "scaled", "factor": 1.0e200, "base": 1.0e200},
    {"kind": "scaled", "factor": -1.0e200, "base": {"kind": "sinusoid", "amplitude": 1.0e200,
                                                    "frequency": 1.0}},
])
def test_parse_profile_rejects(node):
    with pytest.raises(ConfigError):
        parse_profile(node, "x")


# --- schema -----------------------------------------------------------------

def test_parse_config_minimal():
    cfg = parse_config(minimal_ic1(), "stem")
    assert cfg.name == "stem"
    assert cfg.mode == "ic1"
    assert cfg.initial == "pp"
    assert cfg.t_end == 1.0
    assert cfg.samples == 11
    assert cfg.sweep is None


def test_parse_config_explicit_name_wins():
    cfg = parse_config(minimal_ic1(name="custom"), "stem")
    assert cfg.name == "custom"


def test_parse_config_explicit_amplitudes():
    r = math.sqrt(0.5)
    data = minimal_ic1(initial_state=[[r, 0.0], 0.0, 0.0, [0.0, r]])
    cfg = parse_config(data, "stem")
    assert cfg.initial == (complex(r), 0j, 0j, complex(0.0, r))


@pytest.mark.parametrize("mutate", [
    {"mode": "magic"},
    {"wibble": 1},
    {"initial_state": "psi"},
    {"initial_state": [1.0, 0.0, 0.0]},
    {"initial_state": [0.9, 0.0, 0.0, 0.0]},
    {"initial_state": [True, 0.0, 0.0, 0.0]},
    {"initial_state": [[math.nan, 0.0], 0.0, 0.0, 0.0]},
    {"time": {"t_end": 0.0, "samples": 11}},
    {"time": {"t_end": math.nan, "samples": 11}},
    {"time": {"t_end": math.inf, "samples": 11}},
    {"time": {"t_end": 1.0, "samples": 1}},
    {"time": {"t_end": 1.0, "samples": 10.5}},
    {"time": {"t_end": 1.0, "samples": 11, "dt": 0.1}},
    {"name": ""},
    {"ic1": {"k": 0.5}},
    {"ic1": {"k": math.nan, "omega_plus": dict(SINUSOID_NODE)}},
    {"ic1": {"k": -math.inf, "omega_plus": dict(SINUSOID_NODE)}},
    {"ic1": {"k": 0.5, "omega_plus": dict(SINUSOID_NODE, phase=math.nan)}},
    {"ic1": {"k": 0.5, "omega_plus": dict(SINUSOID_NODE), "lambda_z": math.inf}},
    {"ic1": {"k": 0.5, "omega_plus": dict(SINUSOID_NODE), "mu": 1.0}},
    # these raised OverflowError and a bare ValueError
    {"initial_state": [1e300, 0.0, 0.0, 0.0]},
    {"initial_state": [[1.7e308, 1.7e308], 0.0, 0.0, 0.0]},
    {"ic1": {"k": 1e300, "omega_plus": dict(SINUSOID_NODE)}},
    # 10**30 samples ended in a raw ValueError from np.linspace
    {"time": {"t_end": 1.0, "samples": 10**7 + 1}},
])
def test_parse_config_rejects(mutate):
    with pytest.raises(ConfigError):
        parse_config(minimal_ic1(**mutate), "stem")


def test_parse_config_missing_mode_section():
    data = minimal_ic1()
    del data["ic1"]
    with pytest.raises(ConfigError):
        parse_config(data, "stem")


def test_named_states_cover_eigenstates():
    assert set(NAMED_STATES) >= {"pp", "mm", "pm", "mp", "bell_s", "bell_a", "phi1", "phi4"}


def test_initial_amplitudes_of_named_and_explicit_states():
    c1, s1, c2, s2 = math.cos(0.3), math.sin(0.3), math.cos(0.7), math.sin(0.7)
    expected = {
        "pp": (1, 0, 0, 0),
        "bell_a": (math.sqrt(0.5), -math.sqrt(0.5), 0, 0),
        "phi2": (-s1, c1, 0, 0),
        "phi3": (0, 0, c2, s2),
    }
    for name, amps in expected.items():
        cfg = parse_config(minimal_ic1(initial_state=name), "stem")
        assert cfg.initial_amplitudes(0.3, 0.7) == tuple(complex(v) for v in amps)
    explicit = parse_config(minimal_ic1(initial_state=[0.0, 1.0, 0.0, 0.0]), "stem")
    assert explicit.initial_amplitudes(0.3, 0.7) == (0j, 1 + 0j, 0j, 0j)


SECTIONS = {
    "ic1": minimal_ic1()["ic1"],
    "ic2": {"kappa": 0.1, "theta10": 0.4, "lambda_m": dict(SINUSOID_NODE)},
    "rwa": {
        "mode": "field_drive",
        "static_value": 0.7,
        "drive": dict(SINUSOID_NODE),
        "theta10": 0.5,
    },
    "perturbation": {
        "omega_plus": 5.0,
        "drive": {"kind": "sinusoid", "amplitude": 0.25, "frequency": 10.5},
    },
    "numeric": {"omega_plus": dict(SINUSOID_NODE), "step": 1e-3},
}
BUILDERS = {
    "ic1": build_ic1,
    "ic2": build_ic2,
    "rwa": build_rwa,
    "perturbation": build_perturbation,
    "numeric": build_numeric,
}


@pytest.mark.parametrize("mode", sorted(SECTIONS))
def test_parse_config_keeps_built_section(mode):
    data = {
        "mode": mode,
        "initial_state": "pp",
        "time": {"t_end": 1.0, "samples": 11},
        mode: SECTIONS[mode],
    }
    assert parse_config(data, "stem").setup == BUILDERS[mode](SECTIONS[mode])


# --- sweeps -----------------------------------------------------------------

def test_sweep_parsing_and_application():
    data = minimal_ic1(
        sweep={"parameter": "ic1.omega_plus.amplitude", "values": [1, 2, 4]}
    )
    cfg = parse_config(data, "stem")
    assert cfg.sweep.parameter == "ic1.omega_plus.amplitude"
    assert cfg.sweep.values == (1.0, 2.0, 4.0)
    point = apply_sweep_value(cfg.data, cfg.sweep.parameter, 4.0)
    assert point["ic1"]["omega_plus"]["amplitude"] == 4.0
    assert "sweep" not in point
    # the original mapping is untouched
    assert cfg.data["ic1"]["omega_plus"]["amplitude"] == 2.0


@pytest.mark.parametrize("sweep", [
    {"parameter": "ic1.omega_plus.amplitude", "values": []},
    {"parameter": "ic1.omega_plus.amplitude", "values": [1, 1]},
    {"parameter": "ic1.omega_plus.amplitude", "values": ["a"]},
    {"parameter": "ic1.omega_plus.amplitude", "values": [1, math.nan]},
    {"parameter": "ic1.omega_plus.amplitude", "values": [math.inf]},
    {"parameter": "", "values": [1]},
    {"parameter": "ic1.missing", "values": [1]},
    {"parameter": "ic1.omega_plus", "values": [1]},
    {"parameter": "ic1.omega_plus.amplitude", "values": [1], "mode": "x"},
])
def test_sweep_rejects(sweep):
    with pytest.raises(ConfigError):
        parse_config(minimal_ic1(sweep=sweep), "stem")


# --- builders ----------------------------------------------------------------

def test_build_ic1_defaults_and_proportionality():
    setup, params, convention = build_ic1({"k": 0.5, "omega_plus": dict(SINUSOID_NODE)})
    assert setup.k == 0.5
    assert setup.theta20 == 0.0
    assert convention is PhaseConvention.SIGNED
    for t in (0.0, 0.3):
        field, coupling, _z = params.block_values(t)
        assert coupling == pytest.approx(0.5 * field, abs=1e-15)
        assert map_params_I_to_II(params).block_values(t)[0] == 0.0


def test_build_ic1_nonnegative_convention():
    _s, _p, convention = build_ic1(
        {"k": 1.0, "omega_plus": dict(SINUSOID_NODE), "phase_convention": "nonnegative"}
    )
    assert convention is PhaseConvention.NONNEGATIVE
    with pytest.raises(ConfigError):
        build_ic1({"k": 1.0, "omega_plus": dict(SINUSOID_NODE), "phase_convention": "abs"})


def test_build_ic2():
    one, two = build_ic2(
        {"kappa": 0.1, "theta10": 0.4, "lambda_m": dict(SINUSOID_NODE), "lambda_z": 0.3}
    )
    assert one == IC2Setup(0.1, 0.4, Sinusoid(2.0, 50.0, 0.1), Constant(0.3))
    # chi absent (0): subspace II is unused
    assert two is None
    with pytest.raises(ConfigError):
        build_ic2({"kappa": 0.0, "theta10": 0.4, "lambda_m": dict(SINUSOID_NODE)})
    # the I<->II map: subspace II is subspace I on (chi, theta20, lambda_p, -lambda_z)
    _one, two = build_ic2({
        "kappa": 0.1, "theta10": 0.4, "lambda_m": dict(SINUSOID_NODE), "lambda_z": 0.3,
        "chi": 0.2, "theta20": 0.3, "lambda_p": dict(SINUSOID_NODE, amplitude=-1.0),
    })
    assert two == IC2Setup(0.2, 0.3, Sinusoid(-1.0, 50.0, 0.1), Constant(-0.3))


IC2_SECTION = {"kappa": 0.1, "theta10": 0.4, "lambda_m": dict(SINUSOID_NODE)}


CHI_TINY = r"ic2: \|chi\| must be 0 or at least 1e-150"
THETA20_RANGE = r"ic2: theta20 must lie in \[0, pi/2\]"


@pytest.mark.parametrize("case", [
    ({"chi": 1e-160}, CHI_TINY),
    ({"chi": -1e-160, "theta20": 0.3}, CHI_TINY),
    ({"chi": math.nan}, "ic2.chi must be finite"),
    ({"chi": -math.inf}, "ic2.chi must be finite"),
    ({"chi": "x"}, "ic2.chi must be a number"),
    # with chi absent or 0 the subspace-II keys are still checked
    ({"theta20": 2.0}, THETA20_RANGE),
    ({"chi": 0.0, "theta20": -0.1}, THETA20_RANGE),
    ({"chi": 0.2, "theta20": 2.0}, THETA20_RANGE),
    ({"theta20": math.inf}, "ic2.theta20 must be finite"),
    ({"lambda_p": {"kind": "bogus"}}, "ic2.lambda_p.kind must be one of"),
    ({"lambda_p": "x"}, "ic2.lambda_p must be a mapping"),
    ({"chi": 0.2, "lambda_p": {"kind": "bogus"}}, "ic2.lambda_p.kind must be one of"),
], ids=lambda case: ",".join(f"{k}={v}" for k, v in sorted(case[0].items())))
def test_parse_config_rejects_ic2_subspace_two_keys(case):
    extra, match = case
    data = {
        "mode": "ic2",
        "initial_state": "pp",
        "time": {"t_end": 1.0, "samples": 11},
        "ic2": dict(IC2_SECTION, **extra),
    }
    with pytest.raises(ConfigError, match=match):
        parse_config(data, "stem")


def test_build_rwa():
    setup = build_rwa(
        {
            "mode": "lambda_drive",
            "static_value": 5.0,
            "drive": {"kind": "sinusoid", "amplitude": 0.25, "frequency": 10.5},
            "theta10": 0.0,
        }
    )
    assert setup.mode is RwaMode.LAMBDA_DRIVE
    with pytest.raises(ConfigError):
        build_rwa(
            {"mode": "lambda_drive", "static_value": 5.0, "drive": 3.0, "theta10": 0.0}
        )
    with pytest.raises(ConfigError):
        build_rwa(
            {
                "mode": "detune",
                "static_value": 5.0,
                "drive": {"kind": "sinusoid", "amplitude": 0.25, "frequency": 10.5},
                "theta10": 0.0,
            }
        )


def test_build_perturbation():
    omega_plus, drive = build_perturbation(
        {"omega_plus": 5.0, "drive": {"kind": "sinusoid", "amplitude": 0.25, "frequency": 10.5}}
    )
    assert omega_plus == 5.0
    assert drive == Sinusoid(0.25, 10.5, 0.0)
    with pytest.raises(ConfigError):
        build_perturbation(
            {
                "omega_plus": 5.0,
                "drive": {"kind": "sinusoid", "amplitude": 0.25, "frequency": 10.5, "phase": 0.1},
            }
        )


def test_rwa_and_perturbation_accept_a_scaled_sinusoid():
    # a scaled node was refused as "must be a sinusoid profile"; it is
    # folded into one when parsed
    scaled = {"kind": "scaled", "factor": 0.5,
              "base": {"kind": "sinusoid", "amplitude": 0.5, "frequency": 10.5}}
    setup = build_rwa(
        {"mode": "lambda_drive", "static_value": 5.0, "drive": scaled, "theta10": 0.0}
    )
    assert setup.drive == Sinusoid(0.25, 10.5, 0.0)
    assert build_perturbation({"omega_plus": 5.0, "drive": scaled}) == (5.0, Sinusoid(0.25, 10.5))
    with pytest.raises(ConfigError, match="rwa.drive must be a sinusoid"):
        build_rwa({"mode": "lambda_drive", "static_value": 5.0, "theta10": 0.0,
                   "drive": {"kind": "scaled", "factor": 0.5, "base": 3.0}})


def test_scaled_profile_overflow_names_its_path():
    # the inner product 2e10 is finite, the outer one is not
    inner = {"kind": "scaled", "factor": 1e10, "base": 2.0}
    with pytest.raises(ConfigError, match=r"^ic2\.lambda_z: factor 1e\+300 times its base"):
        parse_profile({"kind": "scaled", "factor": 1e300, "base": inner}, "ic2.lambda_z")
    # k*omega_plus was a lazy node that from_derived refused as an overflowing combination
    huge = {"kind": "sinusoid", "amplitude": 1e308, "frequency": 1.0}
    with pytest.raises(ConfigError, match=r"ic1: k\*omega_plus or k2\*omega_minus overflows"):
        build_ic1({"k": 10.0, "omega_plus": huge})


def test_build_numeric_primitive():
    section = {
        "lambda_x": 1.3,
        "lambda_y": -0.4,
        "lambda_z": 0.9,
        "omega_1": 2.0,
        "omega_2": -0.7,
        "step": 1e-3,
    }
    params, step = build_numeric(section)
    assert step == 1e-3
    assert params.lambda_x == Constant(1.3)


def test_build_numeric_derived():
    params, step = build_numeric({"omega_plus": dict(SINUSOID_NODE)})
    assert step is None
    field, coupling, _z = params.block_values(0.1)
    assert field == pytest.approx(2.0 * math.sin(5.1), abs=1e-14)
    assert coupling == 0.0


@pytest.mark.parametrize("section", [
    {"lambda_x": 1.0, "omega_plus": 1.0},
    {"lambda_x": 1.0, "lambda_y": 1.0, "lambda_z": 0.0, "omega_1": 1.0},
    {"coupling": 1.0},
    {"omega_plus": 1.0, "step": 0.0},
])
def test_build_numeric_rejects(section):
    with pytest.raises(ConfigError):
        build_numeric(section)


# --- file loading -------------------------------------------------------------

def test_load_config_roundtrip(tmp_path):
    import yaml

    path = tmp_path / "case.yaml"
    path.write_text(yaml.safe_dump(minimal_ic1()), encoding="utf-8")
    cfg = load_config(path)
    assert cfg.name == "case"


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("mode: [unclosed", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(bad)


def test_presets_load_alike_through_both_yaml_loaders(tmp_path, monkeypatch):
    # the pure-Python SafeLoader is the fallback when PyYAML lacks libyaml
    import yaml

    from spinpair import config
    from spinpair.cli import load_preset, preset_ids

    bad = tmp_path / "bad.yaml"
    bad.write_text("mode: [unclosed", encoding="utf-8")
    loaded = []
    for loader in (config._YAML_LOADER, yaml.SafeLoader):
        monkeypatch.setattr(config, "_YAML_LOADER", loader)
        loaded.append([load_preset(preset) for preset in preset_ids()])
        with pytest.raises(ConfigError, match="malformed YAML in"):
            load_config(bad)
    assert loaded[0] == loaded[1]
