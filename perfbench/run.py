"""spinpair benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload figures|sweep|oracle --seed N --seconds S --trace 0|1

The program is imported from ``src/`` of the checkout, single-threaded,
with default flags.  A run repeats passes over the workload's
operations until the timed passes add up to ``--seconds``.  Every pass
starts from a fresh import of ``spinpair`` (so no cache outlives a
pass, as for a user's process), loads its configs (timed as set-up),
runs its operations (timed) in a fresh output directory, and then
checks every output (not timed).  An operation fails if it exits
nonzero, raises, or fails a check.

The host is shared, and its speed drifts by up to 1.8x over minutes
while CPU time tracks wall time.  So each pass also times a short
pure-Python loop that runs no ``spinpair`` code (``host_speed``) before
its first operation and after every operation, and the pass's times
are scaled by ``CALIB_REF_S`` over the median of those loops: the
reported ``setup_s``, ``wall_s`` and ``op_p50_ms`` are times at the
host speed at which the loop takes ``CALIB_REF_S``.  The raw pass times
and the loop's medians are kept in the run record.

``--trace 0`` reports the end-to-end metrics: set-up time, pass wall
time, median operation latency and peak memory.  ``--trace 1``
alternates untraced and traced passes and reports per-layer calls,
self time and work, the tracing overhead, and the median time of the
host-speed loop described above.  Human-readable lines come first; the
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import cmath
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

# one thread: BLAS pools would otherwise start with NumPy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from tracing import Patcher, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SPEC = ROOT / "BENCHMARK.json"
COUNT_SUFFIXES = (".calls", ".steps", ".csv_bytes")
MIN_SETUPS = 21
CALIB_LOOP = 60_000
CALIB_ROWS = 1_200
CALIB_REF_S = 0.008  # host_speed() on an unloaded 2-CPU Xeon host is about 8 ms


@dataclass
class Pass:
    setup_s: float
    wall_s: float
    latencies: list[float]
    calib_s: float
    failed: int
    work: dict
    layers: dict = field(default_factory=dict)
    absent: list[str] = field(default_factory=list)


def fresh_import() -> None:
    """Drop every loaded spinpair module and import the CLI (and so the package) again."""
    for name in [n for n in sys.modules if n == "spinpair" or n.startswith("spinpair.")]:
        del sys.modules[name]
    importlib.import_module("spinpair.cli")


def set_up(workload) -> tuple[float, list]:
    t0 = perf_counter()
    fresh_import()
    ops = workload.load()
    return perf_counter() - t0, ops


def _describe(exc: BaseException) -> str:
    errors = sys.modules.get("spinpair.errors")
    if errors is None or not isinstance(exc, errors.SpinpairError):
        traceback.print_exception(exc, file=sys.stderr)
    return f"{type(exc).__name__}: {exc}"


def host_speed() -> float:
    """Time of a fixed pure-Python loop that runs no spinpair code.

    About half of it is bare integer arithmetic, the other half complex
    arithmetic, small dicts and float formatting, like the program's
    per-sample work and CSV rows.
    """
    t0 = perf_counter()
    acc = 0
    for i in range(CALIB_LOOP):
        acc += i * i % 7
    rows = []
    for i in range(CALIB_ROWS):
        t = 0.001 * i
        z = cmath.exp(1j * t) * (0.5 + 0.5j) + math.sin(3.0 * t)
        d = {"t": t, "re": z.real, "im": z.imag}
        rows.append(f"{d['t']:.17g},{d['re']:.17g},{d['im']:.17g}")
    "\n".join(rows)
    return perf_counter() - t0


def one_pass(workload, outdir: Path, traced: bool, plant: Callable | None) -> Pass:
    setup_s, ops = set_up(workload)
    patcher, tracer = Patcher(), Tracer()
    if plant is not None:
        plant(patcher)
    if traced:
        tracer.install()
    outcomes, latencies = [], []
    calib = [host_speed()]
    for op in ops:
        t0 = perf_counter()
        try:
            outcome = (op.call(outdir), None)
        except Exception as exc:  # a failed operation is counted, not fatal
            outcome = (None, exc)
        latencies.append(perf_counter() - t0)
        outcomes.append(outcome)
        calib.append(host_speed())
    wall = sum(latencies)
    tracer.remove()
    patcher.restore()

    workload.work.clear()
    failed = 0
    for op, (result, exc) in zip(ops, outcomes):
        try:
            problems = [_describe(exc)] if exc is not None else op.check(result)
        except Exception as check_exc:
            problems = [f"check raised {_describe(check_exc)}"]
        if problems:
            failed += 1
            print(f"FAILED {workload.name}/{op.name}: {'; '.join(problems[:3])}", file=sys.stderr)
    work = {"operations": len(ops), **workload.work}
    layers = tracer.metrics(wall) if traced else {}
    return Pass(setup_s, wall, latencies, statistics.median(calib), failed, work, layers,
                sorted(set(tracer.absent)))


def _scaled(seconds: float, calib_s: float) -> float:
    """A time measured while ``host_speed`` took ``calib_s``, at CALIB_REF_S host speed."""
    return seconds * CALIB_REF_S / calib_s


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
        plant: Callable | None = None) -> dict:
    """Run one workload and return its metrics, counts and run record."""
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        inputs = scratch / "inputs"
        inputs.mkdir()
        workload = WORKLOADS[name](seed, tiny, inputs)
        modes = (False, True) if trace else (False,)
        passes: dict[bool, list[Pass]] = {False: [], True: []}
        measured = 0.0
        while measured < seconds or not passes[modes[-1]]:
            for traced in modes:
                outdir = Path(tempfile.mkdtemp(prefix="pass-", dir=scratch))
                result = one_pass(workload, outdir, traced, plant)
                shutil.rmtree(outdir)
                passes[traced].append(result)
                measured += result.wall_s
        setups = [_scaled(p.setup_s, p.calib_s) for ps in passes.values() for p in ps]
        while len(setups) < MIN_SETUPS:
            # the loop right after each extra set-up gives its host speed
            setups.append(_scaled(set_up(workload)[0], host_speed()))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            OUT.rmdir()
        except OSError:  # another run still uses it
            pass

    everything = passes[False] + passes[True]
    plain = passes[False]
    attempted = sum(len(p.latencies) for p in everything)
    failed = sum(p.failed for p in everything)
    if trace:
        traced = passes[True]
        counts = [{k: v for k, v in p.layers.items() if k.endswith(COUNT_SUFFIXES)}
                  for p in traced]
        counts_repeat = all(c == counts[0] for c in counts)
        metrics = {
            key: statistics.median(p.layers[key] for p in traced)
            for key in traced[0].layers
        }
        metrics.update(counts[0])
        metrics["trace.overhead"] = (
            statistics.median(_scaled(p.wall_s, p.calib_s) for p in traced)
            / statistics.median(_scaled(p.wall_s, p.calib_s) for p in plain)
        )
        metrics["host.calib_s"] = statistics.median(p.calib_s for p in everything)
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(_scaled(p.wall_s, p.calib_s) for p in plain),
            # each operation's mean over the passes, then the median over operations
            "op_p50_ms": 1000.0 * statistics.median(
                statistics.fmean(_scaled(p.latencies[i], p.calib_s) for p in plain)
                for i in range(len(plain[0].latencies))
            ),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    sp = sys.modules["spinpair"]
    oracle = sys.modules.get("spinpair.oracle")
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "inputs_digest": workload.inputs_digest,
        "spinpair_version": getattr(sp, "__version__", None),
        "kernel_backend": oracle.kernel_backend() if hasattr(oracle, "kernel_backend") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "passes": len(everything),
        "pass_walls_s": [round(p.wall_s, 4) for p in everything],
        "pass_calib_ms": [round(1000.0 * p.calib_s, 3) for p in everything],
        "calib_ref_ms": 1000.0 * CALIB_REF_S,
        "set_ups": len(setups),
        "work_per_pass": everything[0].work,
        "operations": attempted,
        "error_rate": failed / attempted,
    }
    if trace:
        record["absent"] = traced[0].absent
        record["counts_repeat"] = counts_repeat
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "record": record,
    }


def prepare() -> str | None:
    """Import spinpair from this checkout's sources; the reason if that fails."""
    if not (SRC / "spinpair" / "__init__.py").is_file():
        return f"no spinpair sources under {SRC}"
    sys.path.insert(0, str(SRC))
    fresh_import()
    if not Path(sys.modules["spinpair"].__file__).resolve().is_relative_to(SRC):
        return "spinpair was not imported from this checkout"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("figures", "sweep", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    error = prepare()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    record = out["record"]
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    metrics = {name: {"value": out["metrics"][name], "unit": unit} for name, unit in units.items()}
    print(f"workload {args.workload}, seed {args.seed}: {record['passes']} passes, "
          f"{out['attempted']} operations, {record['set_ups']} set-ups")
    for name, metric in metrics.items():
        print(f"  {name:22s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'error_rate':22s} {record['error_rate']:.6g} "
          f"({out['failed']} of {out['attempted']} operations failed)")
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
