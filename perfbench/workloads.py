"""The three benchmark workloads and their correctness gates.

Each workload makes its inputs from a seed without importing the
program, so the inputs are fixed before any timing starts.  ``load``
runs after a fresh import of ``spinpair`` and is timed as set-up: it
loads and validates every config and builds the in-memory inputs.  It
returns the operations of one pass.  Every operation goes through a
public surface (``spinpair.cli.main`` with default flags, or a public
function of ``oracle``, ``exact`` or ``entangle``), and its check runs
after the pass, outside the timed phase.

Generated parameters keep away from resonance poles, branch exits and
inadmissible rate-matched setups by construction; the inequalities are
written out here rather than asking the program's own checks.  The
amount of work in a pass (operations, samples and, up to rounding of
segment ends, integrator steps) is fixed by the workload's shape, so it
does not depend on the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import sys
from collections import Counter
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable

import numpy as np
import yaml

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "figures_reference.json"

REFERENCE_TOL = 1e-9     # figures: every stored value, scaled by max(1, |value|)
ANCHOR_TOL = 1e-3        # figures: the paper's peak concurrences
COLUMN_TOL = 1e-9        # sweep/oracle: columns recomputed from a CSV's amplitudes
NUMERIC_TOL = 1e-6       # oracle: RK4 full system against the ic1 closed form
IC2_TOL = 1e-6           # oracle: RK4 ic2 block against ic2_evolve
WOOTTERS_TOL = 1e-9      # oracle: Wootters against max(0, (3p-1)/2)

# figures anchors from the paper: peak concurrence of the trace
ANCHORS = {"fig1b.csv": 0.8, "fig1c.csv": 1.0}
TINY_PRESETS = ("fig1b", "fig1c", "fig13")

_ROOT2 = math.sqrt(0.5)


@dataclass
class Op:
    """One user operation: ``call(outdir)`` is timed, ``check(result)`` is not."""

    name: str
    call: Callable[[Path], Any]
    check: Callable[[Any], list[str]]


@dataclass
class CliResult:
    code: int
    listing: list[str]


def run_cli(argv: list[str], outdir: Path) -> CliResult:
    """``simulate <argv> --output outdir`` with its path listing captured."""
    main = sys.modules["spinpair.cli"].main
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([*argv, "--output", str(outdir)])
    return CliResult(code, buf.getvalue().split())


def _plain(value: Any) -> Any:
    arr = np.asarray(value)
    return [arr.real.tolist(), arr.imag.tolist()] if np.iscomplexobj(arr) else arr.tolist()


def digest(obj: Any) -> str:
    """Short content hash of generated inputs, to show equal seeds give equal inputs."""
    text = json.dumps(obj, sort_keys=True, default=_plain)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Workload:
    """Generated inputs, per-pass operations and the work their outputs hold."""

    name = ""

    def __init__(self) -> None:
        self.work: Counter = Counter()
        self.inputs_digest = ""

    def load(self) -> list[Op]:
        raise NotImplementedError

    def read_csv(self, path: str | Path) -> np.ndarray:
        """Numeric rows of a trace or summary CSV; counts files, rows and bytes."""
        text = Path(path).read_text(encoding="utf-8")
        body = [line for line in text.splitlines() if not line.startswith("#")][1:]
        rows = np.loadtxt(body, delimiter=",", ndmin=2)
        self.work["files"] += 1
        self.work["samples"] += len(rows)
        self.work["csv_bytes"] += len(text.encode())
        return rows

    def _cli_ok(self, result: CliResult, expected: list[str]) -> list[str]:
        if result.code != 0:
            return [f"exit code {result.code}"]
        names = [Path(p).name for p in result.listing]
        if names != expected:
            return [f"listed {names}, expected {expected}"]
        return []


def _columns_problems(rows: np.ndarray, norm_tol: float | None) -> list[str]:
    """Norm and concurrence columns recomputed from the amplitude columns.

    ``norm_tol`` bounds the drift of the norm from 1; None for the
    first-order perturbative amplitudes, which are not unitary.
    """
    amps = rows[:, 1:9:2] + 1j * rows[:, 2:9:2]
    norms = np.sum(np.abs(amps) ** 2, axis=1)
    f = amps / np.sqrt(norms)[:, None]
    conc = np.minimum(2.0 * np.abs(f[:, 0] * f[:, 1] - f[:, 2] * f[:, 3]), 1.0)
    out = []
    if np.max(np.abs(norms - rows[:, 9])) > COLUMN_TOL * max(1.0, float(np.max(norms))):
        out.append("norm column differs from the amplitudes")
    if np.max(np.abs(conc - rows[:, 10])) > COLUMN_TOL:
        out.append("concurrence column differs from the amplitudes")
    if norm_tol is not None and np.max(np.abs(rows[:, 9] - 1.0)) > norm_tol:
        out.append("norm of a unitary trace drifted")
    return out


def trace_stats(rows: np.ndarray) -> dict[str, Any]:
    """Reference summary of one trace CSV."""
    return {
        "peak": float(np.max(rows[:, 10])),
        "mean": float(np.mean(rows[:, 10])),
        "final": rows[-1, 1:9].tolist(),
        "norm_dev": float(np.max(np.abs(rows[:, 9] - 1.0))),
    }


def csv_stats(name: str, rows: np.ndarray) -> dict[str, Any]:
    """Reference summary of a trace CSV, or every value of a sweep summary."""
    if name.endswith("_summary.csv"):
        return {"rows": rows.tolist()}
    return trace_stats(rows)


def _stats_problems(name: str, got: dict, want: dict) -> list[str]:
    out = []
    for key, ref in want.items():
        a = np.asarray(got[key], dtype=float)
        b = np.asarray(ref, dtype=float)
        if a.shape != b.shape or np.any(
            np.abs(a - b) > REFERENCE_TOL * np.maximum(1.0, np.abs(b))
        ):
            out.append(f"{name}: {key} differs from the reference")
    return out


# -- figures -------------------------------------------------------------


class Figures(Workload):
    """The packaged presets, one ``simulate figures <id>`` each, in sorted order."""

    name = "figures"

    def __init__(self, seed: int, tiny: bool, inputs: Path) -> None:
        super().__init__()
        del seed, inputs  # fixed inputs: the packaged presets
        self.reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
        # the presets of the reference file, so a preset added later does not change the workload
        self.ids = list(TINY_PRESETS) if tiny else sorted(self.reference["presets"])
        cli = sys.modules["spinpair.cli"]
        self.inputs_digest = digest([cli.load_preset(preset).data for preset in self.ids])

    def load(self) -> list[Op]:
        cli = sys.modules["spinpair.cli"]
        for preset in self.ids:
            cli.load_preset(preset)
        return [
            Op(preset, partial(run_cli, ["figures", preset]), partial(self.check, preset))
            for preset in self.ids
        ]

    def check(self, preset: str, result: CliResult) -> list[str]:
        expected = self.reference["presets"][preset]
        out = self._cli_ok(result, expected)
        if out:
            return out
        for path in result.listing:
            name = Path(path).name
            rows = self.read_csv(path)
            out += _stats_problems(name, csv_stats(name, rows), self.reference["files"][name])
            if name in ANCHORS and abs(np.max(rows[:, 10]) - ANCHORS[name]) > ANCHOR_TOL:
                out.append(f"{name}: peak concurrence is not {ANCHORS[name]}")
        return out


def figures_reference(outdir: Path) -> dict:
    """Run every preset once and summarise its CSVs (for ``make_reference.py``)."""
    cli = sys.modules["spinpair.cli"]
    ref: dict[str, dict] = {"presets": {}, "files": {}}
    reader = Workload()
    for preset in cli.preset_ids():
        result = run_cli(["figures", preset], outdir)
        if result.code != 0:
            raise RuntimeError(f"preset {preset} failed with exit code {result.code}")
        ref["presets"][preset] = [Path(p).name for p in result.listing]
        for path in result.listing:
            name = Path(path).name
            ref["files"][name] = csv_stats(name, reader.read_csv(path))
    return ref


# -- sweep ---------------------------------------------------------------


def _sinusoid(amplitude: float, frequency: float, phase: float = 0.0) -> dict:
    return {"kind": "sinusoid", "amplitude": amplitude, "frequency": frequency, "phase": phase}


def _grid(lo: float, hi: float, n: int) -> list[float]:
    # rounded to 3 decimals and at least 0.01 apart, so "%g" point names stay distinct
    return [round(lo + (hi - lo) * i / (n - 1), 3) for i in range(n)]


def _ic1_sweep(rng: random.Random, slot: int, n: int) -> dict:
    wp = _sinusoid(rng.uniform(1.0, 4.0), rng.uniform(20.0, 60.0), rng.uniform(0.0, 0.5))
    section = {"k": rng.uniform(0.2, 1.5), "omega_plus": wp, "phase_convention": "signed"}
    if slot == 0:
        sweep = {"parameter": "ic1.omega_plus.amplitude", "values": _grid(0.5, 6.0, n)}
        initial = "pp"
    else:
        # both blocks driven: omega_minus shares the drive's frequency and phase
        section["k2"] = rng.uniform(-1.0, 1.0)
        section["omega_minus"] = _sinusoid(rng.uniform(0.5, 2.0), wp["frequency"], wp["phase"])
        section["lambda_z"] = rng.uniform(-1.0, 1.0)
        sweep = {"parameter": "ic1.k", "values": _grid(-2.0, 2.0, n)}
        initial = "bell_s"
    return {"mode": "ic1", "initial_state": initial, "ic1": section, "sweep": sweep}


def _ic2_sweep(rng: random.Random, slot: int, n: int) -> dict:
    kappa = rng.uniform(0.05, 0.5)
    beta = rng.uniform(10.0, 60.0)
    if slot == 0:
        # angle starts at 0: phase 0 and 0 < 4*kappa*mu/beta <= 1
        mu_max = 0.8 * beta / (4.0 * kappa)
        section = {"kappa": kappa, "theta10": 0.0, "lambda_m": _sinusoid(mu_max, beta)}
        sweep = {"parameter": "ic2.lambda_m.amplitude", "values": _grid(0.05 * mu_max, mu_max, n)}
        initial = "pp"
    else:
        # interior angle: beta/(2*kappa*mu) >= max(2/(1+c0), 2/(1-c0)); sweep beta upward
        theta0 = rng.uniform(0.3, 1.2)
        c0 = math.cos(2.0 * theta0)
        bound = max(2.0 / (1.0 + c0), 2.0 / (1.0 - c0))
        mu = rng.uniform(0.5, 4.0)
        beta_min = 1.25 * 2.0 * kappa * mu * bound
        section = {
            "kappa": kappa,
            "theta10": theta0,
            "lambda_m": _sinusoid(mu, beta_min, rng.uniform(0.0, 0.5)),
            "lambda_z": rng.uniform(-1.0, 1.0),
        }
        values = _grid(beta_min, beta_min + 40.0, n)
        sweep = {"parameter": "ic2.lambda_m.frequency", "values": values}
        initial = "bell_s"
    return {"mode": "ic2", "initial_state": initial, "ic2": section, "sweep": sweep}


def _rwa_sweep(rng: random.Random, slot: int, n: int) -> dict:
    static = rng.uniform(1.0, 5.0)
    section = {
        "mode": "lambda_drive" if slot == 0 else "field_drive",
        "static_value": static,
        "drive": _sinusoid(rng.uniform(0.2, 1.0), 2.0 * static, rng.uniform(0.0, 0.5)),
        "theta10": rng.uniform(0.0, 0.5),
        "lambda_z": rng.uniform(-1.0, 1.0),
    }
    # frequencies around the two-photon resonance, all positive
    values = _grid(2.0 * static - 1.5, 2.0 * static + 1.5, n)
    sweep = {"parameter": "rwa.drive.frequency", "values": values}
    return {"mode": "rwa", "initial_state": ("pp", "bell_s")[slot], "rwa": section, "sweep": sweep}


def _perturbation_sweep(rng: random.Random, slot: int, n: int) -> dict:
    omega = rng.uniform(1.0, 4.0)
    section = {"omega_plus": omega, "drive": _sinusoid(rng.uniform(0.05, 0.3), 1.0)}
    # the pole is at frequency 2*omega: stay at least 0.5 away on one side
    lo, hi = (2.0 * omega + 0.5, 2.0 * omega + 8.0) if slot == 0 else (0.2, 2.0 * omega - 0.5)
    sweep = {"parameter": "perturbation.drive.frequency", "values": _grid(lo, hi, n)}
    return {"mode": "perturbation", "initial_state": "pp", "perturbation": section, "sweep": sweep}


SWEEP_T_END = 4.0

SWEEP_MAKERS = {
    "ic1": _ic1_sweep,
    "ic2": _ic2_sweep,
    "rwa": _rwa_sweep,
    "perturbation": _perturbation_sweep,
}


def _crossings(values: np.ndarray) -> int:
    signs = np.signbit(values - np.mean(values))
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


class Sweep(Workload):
    """Seeded ``simulate sweep`` configs, four per analytic mode, on short grids.

    Each mode's two kinds of sweep alternate.  Sixteen configs of twelve
    points, rather than fewer and longer sweeps, and one fixed time span
    keep the work of a pass nearly the same from seed to seed.
    """

    name = "sweep"

    def __init__(self, seed: int, tiny: bool, inputs: Path) -> None:
        super().__init__()
        rng = random.Random(seed)
        per_mode, points, samples = (2, 3, 41) if tiny else (4, 12, 401)
        self.configs: list[dict] = []
        for mode, make in SWEEP_MAKERS.items():
            for i in range(per_mode):
                cfg = make(rng, i % 2, points)
                cfg["name"] = f"sw_{mode}_{i}"
                cfg["time"] = {"t_end": SWEEP_T_END, "samples": samples}
                self.configs.append(cfg)
        self.paths = []
        for cfg in self.configs:
            path = inputs / f"{cfg['name']}.yaml"
            path.write_text(yaml.safe_dump(cfg, sort_keys=True), encoding="utf-8")
            self.paths.append(path)
        self.inputs_digest = digest(self.configs)

    def load(self) -> list[Op]:
        config = sys.modules["spinpair.config"]
        for path in self.paths:
            config.load_config(path)
        return [
            Op(cfg["name"], partial(run_cli, ["sweep", str(path)]), partial(self.check, cfg))
            for cfg, path in zip(self.configs, self.paths)
        ]

    def check(self, cfg: dict, result: CliResult) -> list[str]:
        values = sorted(cfg["sweep"]["values"])
        names = [f"{cfg['name']}_{v:g}.csv" for v in values] + [f"{cfg['name']}_summary.csv"]
        out = self._cli_ok(result, names)
        if out:
            return out
        t_end, samples = cfg["time"]["t_end"], cfg["time"]["samples"]
        expected_rows = []
        for value, path in zip(values, result.listing):
            rows = self.read_csv(path)
            if rows.shape != (samples, 11) or np.max(
                np.abs(rows[:, 0] - np.linspace(0.0, t_end, samples))
            ) > 1e-12 * t_end:
                out.append(f"{Path(path).name}: wrong time grid")
                continue
            out += [f"{Path(path).name}: {p}" for p in
                    _columns_problems(rows, None if cfg["mode"] == "perturbation" else COLUMN_TOL)]
            c = rows[:, 10]
            expected_rows.append(
                (value, np.max(c), np.mean(c), np.max(c) - np.min(c), _crossings(c), c)
            )
        summary = self.read_csv(result.listing[-1])
        if len(summary) != len(expected_rows):
            return out + ["summary has the wrong number of rows"]
        for row, (value, peak, mean, amp, crossings, c) in zip(summary, expected_rows):
            want = np.array([value, peak, mean, amp])
            if np.any(np.abs(row[:4] - want) > COLUMN_TOL * np.maximum(1.0, np.abs(want))):
                out.append(f"summary row {value:g} differs from its point CSV")
            # a sample within print precision of the mean may flip one crossing
            got = row[4] * t_end / math.pi
            ties = int(np.count_nonzero(np.abs(c - np.mean(c)) < 1e-10))
            if abs(got - crossings) > 1e-6 + 2 * ties:
                out.append(f"summary row {value:g}: dominant frequency differs")
        return out


# -- oracle --------------------------------------------------------------


def _random_state(rng: random.Random) -> list[list[float]]:
    amps = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)]
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
    return [[a.real / norm, a.imag / norm] for a in amps]


def _haar_su2(gen: np.random.Generator) -> np.ndarray:
    z = (gen.normal(size=(2, 2)) + 1j * gen.normal(size=(2, 2))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


# uncoupled order (pp, mm, pm, mp) within the tensor order (pp, pm, mp, mm)
_UNCOUPLED = [0, 3, 1, 2]
_BELLS = (
    np.array([_ROOT2, 0, 0, _ROOT2]),
    np.array([_ROOT2, 0, 0, -_ROOT2]),
    np.array([0, _ROOT2, _ROOT2, 0]),
    np.array([0, _ROOT2, -_ROOT2, 0]),
)


class Oracle(Workload):
    """RK4 and Wootters checked against closed forms: the validation loop."""

    name = "oracle"

    def __init__(self, seed: int, tiny: bool, inputs: Path) -> None:
        super().__init__()
        rng = random.Random(seed)
        gen = np.random.default_rng(seed)
        n_numeric, n_ic2, n_batches, batch = (1, 1, 1, 4) if tiny else (6, 6, 4, 250)
        periods_numeric, periods_ic2 = (2.37, 2.37) if tiny else (40.37, 40.37)

        self.numeric: list[dict] = []
        for i in range(n_numeric):
            beta = rng.uniform(20.0, 60.0)
            phase = rng.uniform(0.0, 0.5)
            wp = _sinusoid(rng.uniform(1.0, 4.0), beta, phase)
            wm = _sinusoid(rng.uniform(0.5, 2.0), beta, phase)
            k, k2 = rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)
            self.numeric.append({
                "name": f"num_{i}",
                "mode": "numeric",
                "initial_state": _random_state(rng),
                "time": {"t_end": periods_numeric * 2.0 * math.pi / beta, "samples": 201},
                "numeric": {
                    "omega_plus": wp,
                    "lambda_m": {"kind": "scaled", "factor": k, "base": wp},
                    "omega_minus": wm,
                    "lambda_p": {"kind": "scaled", "factor": k2, "base": wm},
                    "lambda_z": rng.uniform(-1.0, 1.0),
                },
            })
        self.paths = []
        for cfg in self.numeric:
            path = inputs / f"{cfg['name']}.yaml"
            path.write_text(yaml.safe_dump(cfg, sort_keys=True), encoding="utf-8")
            self.paths.append(path)

        # rate-matched blocks starting on the branch edge (theta10 = 0, phase 0):
        # admissible for 0 < x = 4*kappa*mu/beta <= 1, and the angle touches the
        # edge again every period, so each period ends at a breakpoint.  The
        # derived field peaks near beta*sqrt(x/8)/kappa, so kappa >= 0.2 keeps
        # field*step below 0.03 with 400 steps a period.
        self.ic2: list[dict] = []
        for _ in range(n_ic2):
            kappa, beta = rng.uniform(0.2, 0.5), rng.uniform(10.0, 40.0)
            period = 2.0 * math.pi / beta
            self.ic2.append({
                "kappa": kappa,
                "beta": beta,
                "mu": rng.uniform(0.2, 0.9) * beta / (4.0 * kappa),
                "lambda_z": rng.uniform(-1.0, 1.0),
                "initial": rng.choice(("phi1", "phi2")),
                "t_end": periods_ic2 * period,
                "step": period / 400.0,
            })

        # Werner-type states p|Bell><Bell| + (1-p) I/4 after local unitaries
        self.werner: list[list[dict]] = []
        for _ in range(n_batches):
            states = []
            for _ in range(batch):
                p = float(gen.uniform())
                bell = _BELLS[int(gen.integers(4))]
                rho = p * np.outer(bell, bell) + (1.0 - p) * np.eye(4) / 4.0
                u = np.kron(_haar_su2(gen), _haar_su2(gen))
                rho = (u @ rho @ u.conj().T)[np.ix_(_UNCOUPLED, _UNCOUPLED)]
                states.append({"p": p, "rho": rho})
            self.werner.append(states)
        self.inputs_digest = digest([self.numeric, self.ic2, self.werner])

    def load(self) -> list[Op]:
        sp = sys.modules["spinpair"]
        for path in self.paths:
            sp.load_config(path)
        ops = [
            Op(cfg["name"], partial(run_cli, ["run", str(path)]), partial(self.check_numeric, cfg))
            for cfg, path in zip(self.numeric, self.paths)
        ]
        for i, spec in enumerate(self.ic2):
            setup = sp.IC2Setup(
                kappa=spec["kappa"],
                theta10=0.0,
                lambda_m=sp.Sinusoid(spec["mu"], spec["beta"], 0.0),
                lambda_z=sp.Constant(spec["lambda_z"]),
            )
            args = (
                sp.ic2_kernel_coeffs(setup),
                (1.0, 0.0) if spec["initial"] == "phi1" else (0.0, 1.0),
                spec["t_end"],
                sp.IntegratorConfig(step=spec["step"]),
                np.linspace(0.0, spec["t_end"], 51),
                sp.ic2_breakpoints(setup, spec["t_end"]),
            )
            check = partial(self.check_ic2, setup, spec)
            ops.append(Op(f"ic2_{i}", partial(_ic2_call, args), check))
        for i, states in enumerate(self.werner):
            rhos = [sp.DensityMatrix(s["rho"]) for s in states]
            check = partial(self.check_werner, states)
            ops.append(Op(f"werner_{i}", partial(_wootters_call, rhos), check))
        return ops

    def check_numeric(self, cfg: dict, result: CliResult) -> list[str]:
        out = self._cli_ok(result, [f"{cfg['name']}.csv"])
        if out:
            return out
        rows = self.read_csv(result.listing[0])
        out += _columns_problems(rows, NUMERIC_TOL)
        sp = sys.modules["spinpair"]
        sec = cfg["numeric"]
        setup, params, convention = sp.config.build_ic1({
            "k": sec["lambda_m"]["factor"],
            "k2": sec["lambda_p"]["factor"],
            "omega_plus": sec["omega_plus"],
            "omega_minus": sec["omega_minus"],
            "lambda_z": sec["lambda_z"],
            "phase_convention": "signed",
        })
        init = np.array([complex(re, im) for re, im in cfg["initial_state"]])
        worst = 0.0
        for row in rows:
            t = float(row[0])
            got = row[1:9:2] + 1j * row[2:9:2]
            for block, (j1, j2), theta in ((0, ("phi1", "phi2"), setup.theta10),
                                           (2, ("phi3", "phi4"), setup.theta20)):
                x = sp.ic1_evolve(setup, params, t, j1, convention)
                y = sp.ic1_evolve(setup, params, t, j2, convention)
                c, s = math.cos(theta), math.sin(theta)
                # propagator = [x y] R^T with R the eigenvector rotation
                prop = np.array([[x.a1, y.a1], [x.a2, y.a2]]) @ np.array([[c, s], [-s, c]])
                want = prop @ init[block:block + 2]
                worst = max(worst, float(np.max(np.abs(want - got[block:block + 2]))))
        if worst > NUMERIC_TOL:
            out.append(f"RK4 differs from the ic1 closed form by {worst:.3e}")
        return out

    def check_ic2(self, setup: Any, spec: dict, trace: Any) -> list[str]:
        sp = sys.modules["spinpair"]
        times = np.linspace(0.0, spec["t_end"], 51)
        if trace.times.shape != times.shape or np.any(trace.times != times):
            return ["ic2 trace is not on the requested samples"]
        worst = 0.0
        for t, row in zip(trace.times, trace.amplitudes):
            amps = sp.ic2_evolve(setup, float(t), spec["initial"])
            worst = max(worst, abs(amps.a1 - row[0]), abs(amps.a2 - row[1]))
        return [] if worst <= IC2_TOL else [f"RK4 differs from ic2_evolve by {worst:.3e}"]

    def check_werner(self, states: list[dict], values: list[float]) -> list[str]:
        worst = max(abs(c - max(0.0, (3.0 * s["p"] - 1.0) / 2.0)) for s, c in zip(states, values))
        return [] if worst <= WOOTTERS_TOL else [f"Wootters differs from (3p-1)/2 by {worst:.3e}"]


def _ic2_call(args: tuple, outdir: Path) -> Any:
    coeffs, initial, t_end, cfg, samples, marks = args
    return sys.modules["spinpair"].integrate_block_ic2(
        coeffs, initial, t_end, cfg, sample_times=samples, breakpoints=marks
    )


def _wootters_call(rhos: list, outdir: Path) -> list[float]:
    wootters = sys.modules["spinpair"].concurrence_wootters
    return [wootters(rho) for rho in rhos]


WORKLOADS = {cls.name: cls for cls in (Figures, Sweep, Oracle)}
