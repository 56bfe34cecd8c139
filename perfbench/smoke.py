"""Fast self-check of the benchmark harness on tiny inputs (about half a minute).

    python3 perfbench/smoke.py

For each of the three workloads it checks that

* untraced and traced runs finish with no failed operation and report
  exactly the metrics named in BENCHMARK.json;
* the traced run sees every layer entry point, repeats its per-pass
  counts and covers at least 90% of the traced wall time;
* equal seeds give equal inputs and another seed other inputs (except
  for ``figures``, whose inputs are the fixed presets);
* a planted error in the program (a concurrence off by 1e-6) trips the
  correctness gate, so the run reports failures and a nonzero error
  rate.

Exits 0 when every check holds and prints each one that does not.
"""

from __future__ import annotations

import json
import sys

from run import SPEC, prepare, run

SECONDS = 0.5
PLANTED = {
    "figures": ("spinpair.entangle", "concurrence_pure"),
    "sweep": ("spinpair.entangle", "concurrence_pure"),
    "oracle": ("spinpair.entangle", "concurrence_wootters"),
}


def _planted(module: str, name: str):
    def plant(patcher) -> None:
        patcher.replace(module, name, lambda fn: lambda *a, **k: fn(*a, **k) + 1e-6)

    return plant


def main() -> int:
    error = prepare()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    names = {section: {m["name"] for m in spec[section]} for section in ("end_to_end", "per_layer")}
    problems: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            problems.append(what)

    for workload, (module, name) in PLANTED.items():
        plain = run(workload, 1, SECONDS, trace=False, tiny=True)
        traced = run(workload, 1, SECONDS, trace=True, tiny=True)
        again = run(workload, 1, SECONDS, trace=False, tiny=True)
        other = run(workload, 2, SECONDS, trace=False, tiny=True)
        expect(plain["failed"] == 0 and traced["failed"] == 0, f"{workload}: no failed operation")
        expect(set(plain["metrics"]) == names["end_to_end"], f"{workload}: end-to-end metric names")
        expect(set(traced["metrics"]) == names["per_layer"], f"{workload}: per-layer metric names")
        expect(not traced["record"]["absent"], f"{workload}: every traced entry point exists")
        expect(traced["record"]["counts_repeat"], f"{workload}: per-pass counts repeat")
        expect(traced["metrics"]["trace.coverage"] >= 0.9, f"{workload}: trace coverage >= 0.9")
        digests = [r["record"]["inputs_digest"] for r in (plain, again, other)]
        expect(digests[0] == digests[1], f"{workload}: equal seeds give equal inputs")
        if workload != "figures":
            expect(digests[0] != digests[2], f"{workload}: another seed gives other inputs")
        bad = run(workload, 1, SECONDS, trace=False, tiny=True, plant=_planted(module, name))
        expect(
            bad["failed"] > 0 and bad["record"]["error_rate"] > 0,
            f"{workload}: planted error in {module}.{name} raises error_rate "
            f"({bad['failed']} of {bad['attempted']} failed)",
        )
    print("smoke: all checks hold" if not problems else f"smoke: {len(problems)} checks failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
