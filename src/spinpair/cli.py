"""Command line front end: ``simulate run | sweep | figures``.

``run`` executes one config and writes a trace CSV; ``sweep`` executes
the config once per swept value and adds a summary CSV; ``figures``
does either for a packaged preset.  Output is deterministic: the same
config produces byte-identical files.

Trace CSV layout: ``#``-prefixed lines echo the effective config as
sorted dotted keys, then a header row, then one row per sample with
columns ``t``, the real/imaginary parts of the four uncoupled
amplitudes, ``norm`` and ``concurrence``.  Sweep summaries carry one
row per swept value with ``value``, ``peak_concurrence``,
``mean_concurrence``, ``oscillation_amplitude`` (max minus min) and
``dominant_frequency`` (an angular estimate from mean crossings),
sorted by value.
"""

from __future__ import annotations

import argparse
import copy
import functools
import json
import math
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from .approx import perturb_x1, perturb_x2, rwa_evolve, rwa_orthogonal
from .config import RunConfig, apply_sweep_value, load_config, parse_config, sweep_point_name
from .entangle import _mixing_pair, concurrence_pure
from .errors import AdmissibilityError, ConfigError, NormDriftError, SpinpairError
from .exact import BlockAmplitudes, ic1_evolve, ic2_admissible, ic2_evolve
from .model import map_params_I_to_II, spectrum
from .oracle import IntegratorConfig, magnus_full, suggest_step

__all__ = [
    "CSV_COLUMNS",
    "SUMMARY_COLUMNS",
    "EvolutionTrace",
    "compute_trace",
    "dominant_frequency",
    "trace_stats",
    "run_single",
    "run_sweep",
    "preset_ids",
    "load_preset",
    "main",
]

CSV_COLUMNS = (
    "t",
    "re_fpp",
    "im_fpp",
    "re_fmm",
    "im_fmm",
    "re_fpm",
    "im_fpm",
    "re_fmp",
    "im_fmp",
    "norm",
    "concurrence",
)

SUMMARY_COLUMNS = (
    "value",
    "peak_concurrence",
    "mean_concurrence",
    "oscillation_amplitude",
    "dominant_frequency",
)

_PRESET_PACKAGE = "spinpair.presets"
_ANALYTIC_NORM_TOL = 1e-9


@dataclass(frozen=True)
class EvolutionTrace:
    """Sampled four-amplitude evolution plus derived columns.

    ``amplitudes`` is (n, 4) complex in uncoupled order; ``norms`` the
    raw squared norms; ``concurrences`` the pure-state concurrence of
    each normalized sample.  ``echo`` is the effective config mapping
    written into the CSV header.
    """

    times: np.ndarray
    amplitudes: np.ndarray
    norms: np.ndarray
    concurrences: np.ndarray
    echo: dict[str, Any]

    def to_csv(self, path: Path) -> None:
        """Write the trace; same trace, same bytes."""
        lines = [f"# {key}: {val}" for key, val in _flatten_echo(self.echo)]
        lines.append(",".join(CSV_COLUMNS))
        fmt = ",".join(["%.12e"] * len(CSV_COLUMNS))
        parts = np.stack((self.amplitudes.real, self.amplitudes.imag), axis=-1)
        table = np.column_stack(
            (self.times, parts.reshape(-1, 8), self.norms, self.concurrences)
        )
        lines.extend(fmt % tuple(row) for row in table.tolist())
        _write_text(path, lines)


def _write_text(path: Path, lines: list[str]) -> None:
    """Write the lines to ``path``, making its directory; an OSError is a ConfigError."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _flatten_echo(node: Any, prefix: str = "") -> list[tuple[str, str]]:
    if isinstance(node, dict):
        out: list[tuple[str, str]] = []
        for key in sorted(node):
            out.extend(_flatten_echo(node[key], f"{prefix}{key}."))
        return out
    return [(prefix[:-1], json.dumps(node, sort_keys=True))]


def _eigen_mixtures(
    cfg: RunConfig, theta10: float, theta20: float
) -> tuple[complex, complex, complex, complex]:
    """Project the initial state onto the canonical eigenstate pairs."""
    a, b, c, d = cfg.initial_amplitudes(theta10, theta20)
    return _mixing_pair(a, b, theta10) + _mixing_pair(c, d, theta20)


def _finish(
    times: np.ndarray,
    amps: np.ndarray,
    echo: dict[str, Any],
    norm_tol: float | None,
) -> EvolutionTrace:
    norms = np.sum(np.abs(amps) ** 2, axis=1)
    if norm_tol is not None:
        drift = float(np.max(np.abs(norms - 1.0)))
        # written so that a NaN drift fails too
        if not drift <= norm_tol:
            raise NormDriftError(
                f"trace norm drifted by {drift:.3e}, tolerance {norm_tol:.3e}"
            )
    conc = concurrence_pure(amps / np.sqrt(norms)[:, None])
    return EvolutionTrace(times, amps, norms, conc, echo)


def _superpose(
    times: np.ndarray,
    mixtures: tuple[complex, complex, complex, complex],
    evolve: Callable[[int, int], BlockAmplitudes],
) -> np.ndarray:
    """Uncoupled amplitudes of the mixture of propagated canonical eigenstates.

    ``evolve(block, j)`` propagates eigenstate ``j`` (0: the first of the
    pair, 1: the orthogonal one) of ``block`` (0: subspace I, 1:
    subspace II) over ``times``; a block whose two mixture weights are
    zero is not propagated.
    """
    amps = np.zeros((times.size, 4), dtype=complex)
    for block, (p, q) in enumerate((mixtures[:2], mixtures[2:])):
        if p != 0 or q != 0:
            x, y = evolve(block, 0), evolve(block, 1)
            amps[:, 2 * block] = p * x.a1 + q * y.a1
            amps[:, 2 * block + 1] = p * x.a2 + q * y.a2
    return amps


def _trace_ic1(cfg: RunConfig, times: np.ndarray) -> EvolutionTrace:
    setup, params, convention = cfg.setup
    mixtures = _eigen_mixtures(cfg, setup.theta10, setup.theta20)
    names = (("phi1", "phi2"), ("phi3", "phi4"))
    amps = _superpose(
        times,
        mixtures,
        lambda block, j: ic1_evolve(setup, params, times, names[block][j], convention),
    )
    return _finish(times, amps, copy.deepcopy(cfg.data), _ANALYTIC_NORM_TOL)


def _trace_ic2(cfg: RunConfig, times: np.ndarray) -> EvolutionTrace:
    one, two = cfg.setup
    mixtures = _eigen_mixtures(cfg, one.theta10, two.theta10 if two else 0.0)
    for pair, block in ((mixtures[:2], one), (mixtures[2:], two)):
        if any(m != 0 for m in pair):
            if block is None:
                raise AdmissibilityError("subspace II requested but chi is 0 (unused)")
            verdict = ic2_admissible(block)
            if not verdict.valid:
                raise AdmissibilityError(verdict.reason)
    # subspace II runs as phi1/phi2 of its mirrored subspace-I block
    amps = _superpose(
        times, mixtures, lambda block, j: ic2_evolve((one, two)[block], times, ("phi1", "phi2")[j])
    )
    return _finish(times, amps, copy.deepcopy(cfg.data), _ANALYTIC_NORM_TOL)


def _trace_rwa(cfg: RunConfig, times: np.ndarray) -> EvolutionTrace:
    setup = cfg.setup
    mixtures = _eigen_mixtures(cfg, setup.theta10, 0.0)
    if mixtures[2] != 0 or mixtures[3] != 0:
        raise ConfigError("rwa mode supports subspace-I initial states only")
    evolve = (rwa_evolve, rwa_orthogonal)
    amps = _superpose(times, mixtures, lambda _block, j: evolve[j](setup, times))
    return _finish(times, amps, copy.deepcopy(cfg.data), _ANALYTIC_NORM_TOL)


def _trace_perturbation(cfg: RunConfig, times: np.ndarray) -> EvolutionTrace:
    omega_plus, drive_profile = cfg.setup
    if cfg.initial != "pp":
        raise ConfigError("perturbation mode requires initial_state: pp")
    amps = np.zeros((times.size, 4), dtype=complex)
    amps[:, 0] = perturb_x1(omega_plus, times)
    amps[:, 1] = perturb_x2(omega_plus, drive_profile, times)
    # first-order amplitudes are not unitary; norm is reported, not checked
    return _finish(times, amps, copy.deepcopy(cfg.data), None)


def _trace_numeric(cfg: RunConfig, times: np.ndarray) -> EvolutionTrace:
    params, step = cfg.setup
    if step is None:
        step = suggest_step(params, cfg.t_end)
    theta10 = spectrum(params, 0.0).theta
    theta20 = spectrum(map_params_I_to_II(params), 0.0).theta
    initial = cfg.initial_amplitudes(theta10, theta20)
    trace = magnus_full(
        params, initial, cfg.t_end, IntegratorConfig(step=step), sample_times=times
    )
    echo = copy.deepcopy(cfg.data)
    echo["numeric"]["step"] = float(step)
    return _finish(trace.times, trace.amplitudes, echo, None)


def compute_trace(cfg: RunConfig) -> EvolutionTrace:
    """Evaluate one run request on its sample grid.

    Raises
    ------
    ConfigError
        On mode/initial-state mismatches, or a numeric run over the
        step budget or with a step too long for its drives.
    AdmissibilityError
        If a rate-matched run violates its branch-confinement
        inequality.
    """
    times = np.linspace(0.0, cfg.t_end, cfg.samples)
    if cfg.mode == "ic1":
        return _trace_ic1(cfg, times)
    if cfg.mode == "ic2":
        return _trace_ic2(cfg, times)
    if cfg.mode == "rwa":
        return _trace_rwa(cfg, times)
    if cfg.mode == "perturbation":
        return _trace_perturbation(cfg, times)
    return _trace_numeric(cfg, times)


def dominant_frequency(times: Sequence[float], values: Sequence[float]) -> float:
    """Angular frequency estimate: pi * mean crossings / duration."""
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    centered = v - np.mean(v)
    signs = np.signbit(centered)
    crossings = int(np.count_nonzero(signs[1:] != signs[:-1]))
    return math.pi * crossings / float(t[-1] - t[0])


def trace_stats(trace: EvolutionTrace) -> dict[str, float]:
    """Summary row of one sweep point."""
    c = trace.concurrences
    return {
        "peak_concurrence": float(np.max(c)),
        "mean_concurrence": float(np.mean(c)),
        "oscillation_amplitude": float(np.max(c) - np.min(c)),
        "dominant_frequency": dominant_frequency(trace.times, c),
    }


def run_single(cfg: RunConfig, outdir: Path) -> Path:
    """Execute one run and write ``<outdir>/<name>.csv``."""
    trace = compute_trace(cfg)
    path = outdir / f"{cfg.name}.csv"
    trace.to_csv(path)
    return path


def _sweep_point(base: RunConfig, value: float) -> RunConfig:
    data = apply_sweep_value(base.data, base.sweep.parameter, value)
    data["name"] = sweep_point_name(base.name, value)
    return parse_config(data, data["name"])


def run_sweep(cfg: RunConfig, outdir: Path) -> list[Path]:
    """Execute each sweep point in turn and write the summary.

    Point traces land next to the summary as ``<name>_<value>.csv``;
    the summary rows are sorted by swept value.  Every point is parsed,
    then computed, before the first file is written, and a failed write
    removes the files written before it, so no partial sweep is left.
    """
    if cfg.sweep is None:
        raise ConfigError("config has no sweep block; use 'simulate run'")
    points = [(value, _sweep_point(cfg, value)) for value in cfg.sweep.values]
    traces = sorted(
        ((value, point.name, compute_trace(point)) for value, point in points),
        key=lambda item: item[0],
    )
    lines = [f"# {key}: {val}" for key, val in _flatten_echo(cfg.data)]
    lines.append(",".join(SUMMARY_COLUMNS))
    paths = []
    try:
        for value, name, trace in traces:
            path = outdir / f"{name}.csv"
            trace.to_csv(path)
            paths.append(path)
            stats = trace_stats(trace)
            row = (value,) + tuple(stats[k] for k in SUMMARY_COLUMNS[1:])
            lines.append(",".join("%.12e" % v for v in row))
        summary = outdir / f"{cfg.name}_summary.csv"
        _write_text(summary, lines)
    except ConfigError:
        for path in paths:
            path.unlink(missing_ok=True)
        raise
    return paths + [summary]


def preset_ids() -> list[str]:
    """Identifiers of the packaged figure presets."""
    root = resources.files(_PRESET_PACKAGE)
    return sorted(
        entry.name[: -len(".yaml")]
        for entry in root.iterdir()
        if entry.name.endswith(".yaml")
    )


def load_preset(preset_id: str) -> RunConfig:
    """Load one packaged preset by id."""
    entry = resources.files(_PRESET_PACKAGE) / f"{preset_id}.yaml"
    if not entry.is_file():
        raise ConfigError(
            f"unknown preset {preset_id!r}; available: {', '.join(preset_ids())}"
        )
    with resources.as_file(entry) as path:
        return load_config(path)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--output", type=Path, default=Path("."), help="output directory (default: .)"
    )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser unchanged, and
    # rebuilding it costs about 1 ms on every further main() call
    parser = argparse.ArgumentParser(
        prog="simulate",
        description="Two-qubit exchange-model simulator: traces, sweeps and presets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute one config and write its trace CSV")
    run_p.add_argument("config", type=Path, help="YAML run config")
    _add_common(run_p)
    sweep_p = sub.add_parser("sweep", help="execute a sweep config and its summary")
    sweep_p.add_argument("config", type=Path, help="YAML sweep config")
    _add_common(sweep_p)
    fig_p = sub.add_parser("figures", help="run a packaged preset (or all of them)")
    fig_p.add_argument("preset", nargs="?", help="preset id, or 'all'")
    fig_p.add_argument("--list", action="store_true", help="list preset ids and exit")
    _add_common(fig_p)
    return parser


def _dispatch(args: argparse.Namespace) -> list[Path]:
    if args.command == "run":
        cfg = load_config(args.config)
        if cfg.sweep is not None:
            raise ConfigError("config contains a sweep block; use 'simulate sweep'")
        return [run_single(cfg, args.output)]
    if args.command == "sweep":
        cfg = load_config(args.config)
        return run_sweep(cfg, args.output)
    if args.list:
        for preset_id in preset_ids():
            print(preset_id)
        return []
    if not args.preset:
        raise ConfigError("preset id required (or --list)")
    ids = preset_ids() if args.preset == "all" else [args.preset]
    written: list[Path] = []
    for preset_id in ids:
        cfg = load_preset(preset_id)
        if cfg.sweep is not None:
            written.extend(run_sweep(cfg, args.output))
        else:
            written.append(run_single(cfg, args.output))
    return written


def main(argv: Sequence[str] | None = None) -> int:
    """Console entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        for path in _dispatch(args):
            print(path)
    except SpinpairError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
