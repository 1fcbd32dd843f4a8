"""Fresh-interpreter probes for the metrics a warm benchmark process cannot take.

    python3 perfbench/probe.py setup SPEC.json
        Import ``pqsim.cli``, then load and validate every scenario listed in
        SPEC.json; print the seconds this took.
    python3 perfbench/probe.py rss WORKLOAD SEED WORK_DIR
        Run one repetition of WORKLOAD; print its peak resident set size and
        how many operations ended with an unexpected exit code, as JSON.

Both are run from the root of a checkout by ``run.py``.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def setup_seconds(spec_path: str) -> float:
    start = time.perf_counter()
    import json

    import pqsim.cli  # noqa: F401  (the import is what is measured)
    from pqsim.errors import ValidationError
    from pqsim.scenario import load_scenario, validate_model

    for entry in json.loads(Path(spec_path).read_text()):
        scenario = load_scenario(entry["path"]).with_overrides(**entry["overrides"])
        for model in entry["models"]:
            try:
                validate_model(scenario, model)
            except ValidationError:
                pass  # the sweep's inadmissible cases are rejected here
    return time.perf_counter() - start


def peak_rss(workload: str, seed: int, work: str) -> dict:
    import resource

    import workloads

    spec = workloads.WORKLOADS[workload](seed, Path(work))
    results = [workloads.run_op(op) for op in spec.ops]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failed = sum(r.code != r.op.exit_code for r in results)
    return {"peak_rss_mb": peak_kib / 1024, "attempted": len(results), "failed": failed}


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"] and len(argv) == 2:
        print(repr(setup_seconds(argv[1])))
        return 0
    if argv[:1] == ["rss"] and len(argv) == 4:
        import json

        print(json.dumps(peak_rss(argv[1], int(argv[2]), argv[3])))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
