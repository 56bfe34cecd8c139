"""Regenerate figures_reference.json from the presets of this checkout.

    python3 perfbench/make_reference.py

Run it only when a change is meant to alter the figures output, and
state the largest change against the previous file.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

from run import OUT, prepare
from workloads import REFERENCE, figures_reference


def main() -> int:
    error = prepare()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    outdir = tempfile.mkdtemp(prefix="reference-", dir=OUT)
    try:
        ref = figures_reference(outdir)
    finally:
        shutil.rmtree(outdir)
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE.name}: {len(ref['presets'])} presets, {len(ref['files'])} CSVs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
