"""Run configuration: YAML schema, strict validation, and object builders.

A run config is a mapping with the keys

* ``mode``: one of ``ic1``, ``ic2``, ``rwa``, ``perturbation``, ``numeric``
* ``initial_state``: a named state (``pp``, ``mm``, ``pm``, ``mp``,
  ``bell_s``, ``bell_a``, ``phi1``..``phi4``) or a list of four
  amplitudes, each a number or an ``[re, im]`` pair (uncoupled order,
  normalized)
* ``time``: ``{t_end, samples}`` with ``samples >= 2``
* a section named after the mode (see the ``build_*`` functions)
* optional ``sweep``: ``{parameter: dotted.path, values: [..]}``
* optional ``name``: output stem (defaults to the config file stem)

Drive profiles are written as ``{kind: constant, value: v}``,
``{kind: sinusoid, amplitude: a, frequency: b, phase: p}`` (phase
optional) or ``{kind: scaled, factor: k, base: <profile>}``; a bare
number is shorthand for a constant.  Unknown keys anywhere are errors:
configs are meant to reproduce exactly or fail loudly.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import yaml

from .approx import RwaMode, RwaSetup
from .drive import Constant, DriveProfile, Scaled, Sinusoid, negate
from .errors import ConfigError
from .exact import _MIN_RATE, IC1Setup, IC2Setup, PhaseConvention
from .model import ModelParams

__all__ = [
    "RunConfig",
    "SweepSpec",
    "load_config",
    "parse_config",
    "apply_sweep_value",
    "sweep_point_name",
    "parse_profile",
    "build_ic1",
    "build_ic2",
    "build_rwa",
    "build_perturbation",
    "build_numeric",
    "NAMED_STATES",
]

MODES = ("ic1", "ic2", "rwa", "perturbation", "numeric")
# libyaml's safe loader when PyYAML was built with it: about 8x faster
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

_ROOT2 = math.sqrt(0.5)
# uncoupled amplitudes of each named state from (c1, s1, c2, s2), the
# cosines and sines of the frozen mixing angles theta10 and theta20
_NAMED_AMPLITUDES = {
    "pp": lambda c1, s1, c2, s2: (1.0, 0.0, 0.0, 0.0),
    "mm": lambda c1, s1, c2, s2: (0.0, 1.0, 0.0, 0.0),
    "pm": lambda c1, s1, c2, s2: (0.0, 0.0, 1.0, 0.0),
    "mp": lambda c1, s1, c2, s2: (0.0, 0.0, 0.0, 1.0),
    "bell_s": lambda c1, s1, c2, s2: (_ROOT2, _ROOT2, 0.0, 0.0),
    "bell_a": lambda c1, s1, c2, s2: (_ROOT2, -_ROOT2, 0.0, 0.0),
    "phi1": lambda c1, s1, c2, s2: (c1, s1, 0.0, 0.0),
    "phi2": lambda c1, s1, c2, s2: (-s1, c1, 0.0, 0.0),
    "phi3": lambda c1, s1, c2, s2: (0.0, 0.0, c2, s2),
    "phi4": lambda c1, s1, c2, s2: (0.0, 0.0, -s2, c2),
}
NAMED_STATES = tuple(_NAMED_AMPLITUDES)

_STATE_NORM_TOL = 1e-9


@dataclass(frozen=True)
class SweepSpec:
    """One swept scalar: a dotted config path and its value list."""

    parameter: str
    values: tuple[float, ...]


@dataclass(frozen=True)
class RunConfig:
    """A validated run request.

    ``data`` holds the full effective config mapping; it is echoed
    verbatim into output headers so every artifact names its inputs.
    ``setup`` is what the ``build_*`` function of the mode returns for
    its section.
    """

    name: str
    mode: str
    initial: Any  # named-state str or tuple of 4 complex
    t_end: float
    samples: int
    sweep: SweepSpec | None
    data: dict[str, Any]
    setup: Any

    def initial_amplitudes(
        self, theta10: float, theta20: float
    ) -> tuple[complex, complex, complex, complex]:
        """Uncoupled-order amplitudes of the initial state.

        ``phi1``..``phi4`` are the eigenstates at the frozen mixing
        angles ``theta10`` (subspace I) and ``theta20`` (subspace II).
        """
        if isinstance(self.initial, tuple):
            return self.initial
        trig = (math.cos(theta10), math.sin(theta10), math.cos(theta20), math.sin(theta20))
        return tuple(complex(v) for v in _NAMED_AMPLITUDES[self.initial](*trig))


def _require_mapping(node: Any, where: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(node).__name__}")
    return node


def _check_keys(node: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(node) - allowed)
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {where}")


def _number(node: dict, key: str, where: str, default: Any = ...) -> float:
    if key not in node:
        if default is ...:
            raise ConfigError(f"missing key {key!r} in {where}")
        return default
    return _finite(node[key], f"{where}.{key}")


def _finite(v: Any, where: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where} must be a number, got {v!r}")
    if not math.isfinite(v):
        raise ConfigError(f"{where} must be finite, got {v!r}")
    return float(v)


def parse_profile(node: Any, where: str) -> DriveProfile:
    """Parse a drive profile node; bare numbers mean a constant."""
    if isinstance(node, bool):
        raise ConfigError(f"{where} must be a profile or number, got {node!r}")
    if isinstance(node, (int, float)):
        return Constant(_finite(node, where))
    mapping = _require_mapping(node, where)
    kind = mapping.get("kind")
    if kind == "constant":
        _check_keys(mapping, {"kind", "value"}, where)
        return Constant(_number(mapping, "value", where))
    if kind == "sinusoid":
        _check_keys(mapping, {"kind", "amplitude", "frequency", "phase"}, where)
        freq = _number(mapping, "frequency", where)
        if freq == 0.0:
            raise ConfigError(f"{where}.frequency must be nonzero")
        return Sinusoid(
            _number(mapping, "amplitude", where),
            freq,
            _number(mapping, "phase", where, 0.0),
        )
    if kind == "scaled":
        _check_keys(mapping, {"kind", "factor", "base"}, where)
        if "base" not in mapping:
            raise ConfigError(f"missing key 'base' in {where}")
        return Scaled(
            _number(mapping, "factor", where),
            parse_profile(mapping["base"], f"{where}.base"),
        )
    raise ConfigError(
        f"{where}.kind must be one of constant, sinusoid, scaled; got {kind!r}"
    )


def _parse_initial(node: Any) -> Any:
    if isinstance(node, str):
        if node not in NAMED_STATES:
            raise ConfigError(
                f"initial_state must be one of {NAMED_STATES} or 4 amplitudes, "
                f"got {node!r}"
            )
        return node
    if not isinstance(node, list) or len(node) != 4:
        raise ConfigError("explicit initial_state must be a list of 4 amplitudes")
    amps = []
    for i, item in enumerate(node):
        where = f"initial_state[{i}]"
        parts = item if isinstance(item, list) and len(item) == 2 else [item, 0.0]
        if any(isinstance(v, (bool, list)) for v in parts):
            raise ConfigError(f"{where} must be a number or [re, im] pair")
        amps.append(complex(*(_finite(v, where) for v in parts)))
    # products: abs() and ** raise OverflowError past ~1e154
    norm = sum(a.real * a.real + a.imag * a.imag for a in amps)
    if abs(norm - 1.0) > _STATE_NORM_TOL:
        raise ConfigError(f"explicit initial_state has norm {norm!r}, expected 1")
    return tuple(amps)


def _parse_sweep(node: Any) -> SweepSpec:
    mapping = _require_mapping(node, "sweep")
    _check_keys(mapping, {"parameter", "values"}, "sweep")
    parameter = mapping.get("parameter")
    if not isinstance(parameter, str) or not parameter:
        raise ConfigError("sweep.parameter must be a nonempty dotted path string")
    values = mapping.get("values")
    if not isinstance(values, list) or not values:
        raise ConfigError("sweep.values must be a nonempty list of numbers")
    out = [_finite(v, "sweep.values entries") for v in values]
    if len(set(out)) != len(out):
        raise ConfigError("sweep.values must be distinct")
    return SweepSpec(parameter, tuple(out))


def parse_config(data: Any, name: str) -> RunConfig:
    """Validate a config mapping and return the run request.

    Raises :class:`ConfigError` on any schema violation: unknown keys,
    missing sections, malformed profiles, or an unbuildable mode
    section.
    """
    mapping = _require_mapping(data, "config")
    mode = mapping.get("mode")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    _check_keys(mapping, {"mode", "initial_state", "time", "name", "sweep", mode}, "config")
    if "initial_state" not in mapping:
        raise ConfigError("missing key 'initial_state' in config")
    initial = _parse_initial(mapping["initial_state"])
    time_node = _require_mapping(mapping.get("time"), "time")
    _check_keys(time_node, {"t_end", "samples"}, "time")
    t_end = _number(time_node, "t_end", "time")
    if t_end <= 0.0:
        raise ConfigError("time.t_end must be positive")
    samples_raw = time_node.get("samples")
    if isinstance(samples_raw, bool) or not isinstance(samples_raw, int):
        raise ConfigError("time.samples must be an integer")
    if samples_raw < 2:
        raise ConfigError("time.samples must be at least 2")
    if mode not in mapping:
        raise ConfigError(f"missing section {mode!r} for mode {mode!r}")
    cfg_name = mapping.get("name", name)
    if not isinstance(cfg_name, str) or not cfg_name:
        raise ConfigError("name must be a nonempty string")
    sweep = _parse_sweep(mapping["sweep"]) if "sweep" in mapping else None
    setup = _BUILDERS[mode](mapping[mode])
    if sweep is not None:
        # the path must resolve against this very config
        apply_sweep_value(mapping, sweep.parameter, sweep.values[0])
        points: dict[str, float] = {}
        for value in sweep.values:
            point = sweep_point_name(cfg_name, value)
            first = points.setdefault(point, value)
            if first != value:
                raise ConfigError(
                    f"sweep.values {first!r} and {value!r} both write the point file {point}.csv"
                )
    return RunConfig(
        name=cfg_name,
        mode=mode,
        initial=initial,
        t_end=t_end,
        samples=samples_raw,
        sweep=sweep,
        data=mapping,
        setup=setup,
    )


def load_config(path: str | Path) -> RunConfig:
    """Load and validate a YAML config file."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from exc
    try:
        data = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed YAML in {p}: {exc}") from exc
    return parse_config(data, p.stem)


def sweep_point_name(name: str, value: float) -> str:
    """Name of one sweep point's run, and so the stem of its trace file."""
    return f"{name}_{value:g}"


def apply_sweep_value(data: dict, parameter: str, value: float) -> dict:
    """Copy of the config with one dotted-path scalar replaced.

    The sweep block itself is dropped from the copy, turning a sweep
    point into a plain run config.
    """
    out = copy.deepcopy(data)
    node: Any = out
    parts = parameter.split(".")
    for part in parts[:-1]:
        if not isinstance(node, dict) or part not in node:
            raise ConfigError(f"sweep parameter path {parameter!r} not found")
        node = node[part]
    leaf = parts[-1]
    if not isinstance(node, dict) or leaf not in node:
        raise ConfigError(f"sweep parameter path {parameter!r} not found")
    old = node[leaf]
    if isinstance(old, bool) or not isinstance(old, (int, float)):
        raise ConfigError(
            f"sweep parameter {parameter!r} must point at a number, found {old!r}"
        )
    node[leaf] = float(value)
    out.pop("sweep", None)
    return out


# -- mode section builders ----------------------------------------------


def build_ic1(section: Any) -> tuple[IC1Setup, ModelParams, PhaseConvention]:
    """Proportional-drive section: the couplings are derived from the fields.

    Keys: ``k``, ``omega_plus`` (profile), optional ``k2``,
    ``omega_minus``, ``lambda_z``, ``phase_convention``
    (``signed``/``nonnegative``).  Sets ``lambda_m = k*omega_plus`` and
    ``lambda_p = k2*omega_minus``, so the proportionality holds by
    construction.
    """
    mapping = _require_mapping(section, "ic1")
    _check_keys(
        mapping,
        {"k", "omega_plus", "k2", "omega_minus", "lambda_z", "phase_convention"},
        "ic1",
    )
    k = _number(mapping, "k", "ic1")
    k2 = _number(mapping, "k2", "ic1", 0.0)
    try:
        setup = IC1Setup.from_ratios(k, k2)
    except ValueError as exc:
        # |k| near 1e16 and above: tan(2*theta10) cannot reproduce k
        raise ConfigError(f"ic1: {exc}") from None
    if "omega_plus" not in mapping:
        raise ConfigError("missing key 'omega_plus' in ic1")
    omega_plus = parse_profile(mapping["omega_plus"], "ic1.omega_plus")
    omega_minus = parse_profile(mapping.get("omega_minus", 0.0), "ic1.omega_minus")
    lambda_z = parse_profile(mapping.get("lambda_z", 0.0), "ic1.lambda_z")
    params = ModelParams.from_derived(
        omega_plus=omega_plus,
        omega_minus=omega_minus,
        lambda_m=Scaled(k, omega_plus),
        lambda_p=Scaled(k2, omega_minus),
        lambda_z=lambda_z,
    )
    conv_raw = mapping.get("phase_convention", "signed")
    try:
        convention = PhaseConvention(conv_raw)
    except ValueError:
        raise ConfigError(
            f"ic1.phase_convention must be 'signed' or 'nonnegative', got {conv_raw!r}"
        ) from None
    return setup, params, convention


def build_ic2(section: Any) -> tuple[IC2Setup, IC2Setup | None]:
    """Rate-matched section: one :class:`IC2Setup` per subspace.

    Keys: ``kappa``, ``theta10``, ``lambda_m`` (profile), optional
    ``lambda_z``, ``chi``, ``theta20``, ``lambda_p``.  The paper's
    I<->II map makes subspace II's block subspace I's on
    ``IC2Setup(chi, theta20, lambda_p, -lambda_z)``; it is ``None``
    when ``chi`` is 0 (absent), which leaves subspace II unused.
    """
    mapping = _require_mapping(section, "ic2")
    _check_keys(
        mapping,
        {"kappa", "theta10", "lambda_m", "lambda_z", "chi", "theta20", "lambda_p"},
        "ic2",
    )
    if "lambda_m" not in mapping:
        raise ConfigError("missing key 'lambda_m' in ic2")
    kappa = _number(mapping, "kappa", "ic2")
    theta10 = _number(mapping, "theta10", "ic2")
    lambda_m = parse_profile(mapping["lambda_m"], "ic2.lambda_m")
    lambda_z = parse_profile(mapping.get("lambda_z", 0.0), "ic2.lambda_z")
    chi = _number(mapping, "chi", "ic2", 0.0)
    theta20 = _number(mapping, "theta20", "ic2", 0.0)
    lambda_p = parse_profile(mapping.get("lambda_p", 0.0), "ic2.lambda_p")
    try:
        one = IC2Setup(kappa, theta10, lambda_m, lambda_z)
    except ValueError as exc:
        raise ConfigError(f"ic2: {exc}") from None
    # the same limits as IC2Setup's, under the subspace-II names
    if 0.0 < abs(chi) < _MIN_RATE:
        raise ConfigError(f"ic2: |chi| must be 0 or at least {_MIN_RATE:g}")
    if not 0.0 <= theta20 <= 0.5 * math.pi:
        raise ConfigError("ic2: theta20 must lie in [0, pi/2]")
    return one, (IC2Setup(chi, theta20, lambda_p, negate(lambda_z)) if chi else None)


def build_rwa(section: Any) -> RwaSetup:
    """Rotating-wave section.

    Keys: ``mode`` (``lambda_drive``/``field_drive``), ``static_value``,
    ``drive`` (sinusoid profile), ``theta10``, optional ``lambda_z``.
    """
    mapping = _require_mapping(section, "rwa")
    _check_keys(mapping, {"mode", "static_value", "drive", "theta10", "lambda_z"}, "rwa")
    mode_raw = mapping.get("mode")
    try:
        mode = RwaMode(mode_raw)
    except ValueError:
        raise ConfigError(
            f"rwa.mode must be 'lambda_drive' or 'field_drive', got {mode_raw!r}"
        ) from None
    if "drive" not in mapping:
        raise ConfigError("missing key 'drive' in rwa")
    drive = parse_profile(mapping["drive"], "rwa.drive")
    if not isinstance(drive, Sinusoid):
        raise ConfigError("rwa.drive must be a sinusoid profile")
    try:
        return RwaSetup(
            mode=mode,
            static_value=_number(mapping, "static_value", "rwa"),
            drive=drive,
            theta10=_number(mapping, "theta10", "rwa"),
            lambda_z=parse_profile(mapping.get("lambda_z", 0.0), "rwa.lambda_z"),
        )
    except ValueError as exc:
        raise ConfigError(f"rwa: {exc}") from None


def build_perturbation(section: Any) -> tuple[float, Sinusoid]:
    """Perturbative section: static ``omega_plus`` plus a zero-phase sinusoid."""
    mapping = _require_mapping(section, "perturbation")
    _check_keys(mapping, {"omega_plus", "drive"}, "perturbation")
    omega_plus = _number(mapping, "omega_plus", "perturbation")
    if "drive" not in mapping:
        raise ConfigError("missing key 'drive' in perturbation")
    drive = parse_profile(mapping["drive"], "perturbation.drive")
    if not isinstance(drive, Sinusoid):
        raise ConfigError("perturbation.drive must be a sinusoid profile")
    if drive.phase != 0.0:
        raise ConfigError("perturbation.drive.phase must be 0")
    return omega_plus, drive


def build_numeric(section: Any) -> tuple[ModelParams, float | None]:
    """Direct-integration section.

    Either the five primitive profiles (``lambda_x``, ``lambda_y``,
    ``lambda_z``, ``omega_1``, ``omega_2``) or any of the derived ones
    (``omega_plus``, ``omega_minus``, ``lambda_m``, ``lambda_p``,
    ``lambda_z``; omitted means zero).  Optional ``step`` sets the
    integrator step (default: :func:`spinpair.oracle.suggest_step`).
    """
    mapping = _require_mapping(section, "numeric")
    step = None
    if "step" in mapping:
        step = _number(mapping, "step", "numeric")
        if step <= 0.0:
            raise ConfigError("numeric.step must be positive")
    keys = set(mapping) - {"step"}
    primitive = {"lambda_x", "lambda_y", "lambda_z", "omega_1", "omega_2"}
    derived = {"omega_plus", "omega_minus", "lambda_m", "lambda_p", "lambda_z"}
    if keys & {"lambda_x", "lambda_y", "omega_1", "omega_2"}:
        if keys - primitive:
            raise ConfigError(
                "numeric mixes primitive and derived profile keys; "
                "use lambda_x/lambda_y/lambda_z/omega_1/omega_2 only"
            )
        missing = sorted(primitive - keys)
        if missing:
            raise ConfigError(f"missing key {missing[0]!r} in numeric")
        params = ModelParams(
            lambda_x=parse_profile(mapping["lambda_x"], "numeric.lambda_x"),
            lambda_y=parse_profile(mapping["lambda_y"], "numeric.lambda_y"),
            lambda_z=parse_profile(mapping["lambda_z"], "numeric.lambda_z"),
            omega_1=parse_profile(mapping["omega_1"], "numeric.omega_1"),
            omega_2=parse_profile(mapping["omega_2"], "numeric.omega_2"),
        )
        return params, step
    unknown = sorted(keys - derived)
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in numeric")
    kwargs = {
        key: parse_profile(mapping[key], f"numeric.{key}") for key in sorted(keys)
    }
    return ModelParams.from_derived(**kwargs), step


_BUILDERS = {
    "ic1": build_ic1,
    "ic2": build_ic2,
    "rwa": build_rwa,
    "perturbation": build_perturbation,
    "numeric": build_numeric,
}
