"""Record the golden digests that ``run.py`` checks every output against.

    python3 perfbench/golden.py

Runs every bundled scenario at its own dt and one repetition of each
workload (``scenario_sweep`` at ``SWEEP_SEED``), and writes the exit code,
stdout digest and per-file sha256 of every operation to golden.json.  Rerun
it only in a change that means to alter the program's output, and say why.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SWEEP_SEED = 1


def record(work: Path) -> dict:
    import workloads

    ops = {}
    for name, build in {"bundled": workloads.bundled, **workloads.WORKLOADS}.items():
        spec = build(SWEEP_SEED, work)
        results = [workloads.run_op(op) for op in spec.ops]
        failures = workloads.check(name, results, None)
        if failures:
            raise SystemExit("\n".join(failures))
        ops[name] = [workloads.digests(r) for r in results]
        shutil.rmtree(work / "out", ignore_errors=True)
    return {"sweep_seed": SWEEP_SEED, "ops": ops}


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    shutil.rmtree(workloads.WORK, ignore_errors=True)
    try:
        doc = record(workloads.WORK)
    finally:
        shutil.rmtree(workloads.WORK, ignore_errors=True)
    (HERE / "golden.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
