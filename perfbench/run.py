"""pqsim benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a pqsim checkout; the checkout root is the parent
of this file's directory.  Every CLI call runs in this process, one at a
time (closed loop, no threads).  ``--trace 0`` reports the end-to-end
metrics of BENCHMARK.json, ``--trace 1`` the per-layer metrics.  The last
line of stdout is the result as JSON; the full record with every sample
goes to ``.perfbench_run/results/``.  Exit code 0 means every output was
correct, 1 that some check failed, 2 that the benchmark could not run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = Path(".perfbench_run")  # relative to ROOT, which is the working directory
SETUP_SAMPLES = 15
PROBE_TIMEOUT_S = 150
# Share of the traced wall time that the layers' self times may miss or
# exceed: the harness's own work around cli.main is all they leave out.
RECONCILE_SHARE = 0.02
# Quantile of an operation's latencies over the run, and of the set-up
# samples, that the timings report; README.md says why it is the 90th.
TYPICAL_QUANTILE = 0.9


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4, method="inclusive")


class Run:
    """One benchmark run: attempted/failed operation counts and samples."""

    def __init__(self, workloads, name: str, seed: int, golden: dict, work: Path):
        self.workloads = workloads
        self.name = name
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.reference: dict[str, list[dict]] = {}  # digests each repetition must reproduce
        ops = golden["ops"]
        self.golden = ops[name] if name != "scenario_sweep" or seed == golden["sweep_seed"] else None
        self.bundled_golden = ops["bundled"]

    def repetition(self, spec, golden, tracer=None) -> list[float]:
        """Run every operation of ``spec`` once, then check the outputs.

        Returns each operation's latency [s]; the repetition's wall time is
        their sum, since the calls run back to back.
        """
        gc.collect()
        if tracer is None:
            results = [self.workloads.run_op(op) for op in spec.ops]
        else:
            with tracer:
                results = [self.workloads.run_op(op) for op in spec.ops]
        self.attempted += len(results)
        # The first repetition is checked in full. Every later one must
        # reproduce the golden digests, or else the first repetition's bytes.
        first = spec.name not in self.reference
        if first:
            self.reference[spec.name] = golden or [self.workloads.digests(r) for r in results]
        self.failures += self.workloads.check(spec.name, results, self.reference[spec.name], invariants=first)
        shutil.rmtree(self.work / "out", ignore_errors=True)
        return [r.seconds for r in results]

    def window(self, seconds: float, body) -> None:
        """Call ``body`` until another call would end after ``seconds``."""
        deadline = time.perf_counter() + seconds
        while True:
            start = time.perf_counter()
            body()
            now = time.perf_counter()
            if now + (now - start) > deadline:
                return

    def check_sites(self, when: str) -> None:
        from layers import altered_sites

        altered = altered_sites()
        if altered:
            self.failures.append(f"{when}: wrap targets not the original objects: {', '.join(altered)}")

    def probe(self, *args: str) -> str:
        done = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), *args],
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=False,
        )
        if done.returncode != 0:
            raise RuntimeError(f"probe {args[0]} failed ({done.returncode}): {done.stderr.strip()}")
        return done.stdout.strip().splitlines()[-1]

    def end_to_end(self, spec, seconds: float) -> dict[str, float]:
        setup_spec = self.work / "setup.json"
        setup_spec.write_text(json.dumps(spec.setup))
        self.probe("setup", str(setup_spec))  # first import writes bytecode caches
        setup = [float(self.probe("setup", str(setup_spec))) for _ in range(SETUP_SAMPLES)]
        rss = json.loads(self.probe("rss", self.name, str(self.seed), str(self.work / "rss")))
        shutil.rmtree(self.work / "rss", ignore_errors=True)
        self.attempted += rss["attempted"]
        self.failures += ["rss probe: an operation ended with an unexpected exit code"] * rss["failed"]

        self.check_sites("before the untraced window")
        self.repetition(spec, self.golden)  # warm-up: checked, not timed
        reps: list[list[float]] = []
        self.window(seconds, lambda: reps.append(self.repetition(spec, self.golden)))
        self.check_sites("after the untraced window")

        # Each operation's TYPICAL_QUANTILE latency over the run.
        typical = [self.workloads.percentile(latencies, TYPICAL_QUANTILE) for latencies in zip(*reps)]
        typical_ms = [t * 1e3 for t in typical]
        self.samples.update(
            repetition_wall_s=[sum(rep) for rep in reps],
            op_ms=[[t * 1e3 for t in rep] for rep in reps],
            typical_op_ms=typical_ms,
            setup_s=setup,
        )
        return {
            "wall_s": sum(typical),
            "steps_per_s": spec.rows / sum(typical),
            "run_p50_ms": self.workloads.percentile(typical_ms, 0.5),
            "run_p90_ms": self.workloads.percentile(typical_ms, 0.9),
            "setup_s": self.workloads.percentile(setup, TYPICAL_QUANTILE),
            "peak_rss_mb": rss["peak_rss_mb"],
        }

    def per_layer(self, spec, seconds: float) -> dict[str, float]:
        from layers import Tracer

        plain: list[float] = []
        traced: list[tuple[float, Tracer]] = []

        def pair() -> None:
            plain.append(sum(self.repetition(spec, self.golden)))
            tracer = Tracer()
            wall = sum(self.repetition(spec, self.golden, tracer))
            traced.append((wall, tracer))
            share = abs(tracer.self_total() - wall) / wall
            if share > RECONCILE_SHARE:
                self.failures.append(
                    f"trace: layer self times sum to {tracer.self_total():.6f} s against a traced wall "
                    f"time of {wall:.6f} s (off by {share:.2%}, allowed {RECONCILE_SHARE:.0%})"
                )

        self.repetition(spec, self.golden)  # warm-up: checked, not timed
        self.window(seconds, pair)
        self.check_sites("after tracing")
        layer_samples = [tracer.metrics() for _, tracer in traced]
        for name in layer_samples[0]:
            self.samples[name] = [s[name] for s in layer_samples]
        self.samples["trace.traced_wall_s"] = [wall for wall, _ in traced]
        self.samples["trace.untraced_wall_s"] = plain
        # Each pair runs back to back, so its difference is the least
        # disturbed by the host's speed drifting between pairs.
        overhead = [wall - p for (wall, _), p in zip(traced, plain)]
        self.samples["trace.overhead_s"] = overhead
        # The traced repetition at TYPICAL_QUANTILE of wall time gives the
        # layer figures, matching how wall_s is taken in the untraced run.
        _, typical = sorted(traced, key=lambda item: item[0])[round(TYPICAL_QUANTILE * (len(traced) - 1))]
        return {**typical.metrics(), "trace.overhead_s": statistics.median(overhead)}


def git_state() -> dict:
    if not Path(".git").exists():
        return {"sha": None, "dirty": None}
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30, check=True)
        status = subprocess.run(
            ["git", "status", "--porcelain"], capture_output=True, text=True, timeout=30, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}
    return {"sha": sha.stdout.strip(), "dirty": bool(status.stdout.strip())}


def environment() -> dict:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {
        **git_state(),
        "python": platform.python_version(),
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "numpy": numpy,
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    missing = [p for p in ("src/pqsim/cli.py", "scenarios", "BENCHMARK.json") if not (ROOT / p).exists()]
    if missing:
        print(f"perfbench: {ROOT} is not a pqsim checkout (missing {', '.join(missing)})", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec_doc = json.loads(Path("BENCHMARK.json").read_text())
    declared = spec_doc["per_layer" if args.trace else "end_to_end"]
    golden = json.loads((HERE / "golden.json").read_text())

    work = workloads.WORK
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(workloads, args.workload, args.seed, golden, work)
    try:
        run.repetition(workloads.bundled(args.seed, work), run.bundled_golden)
        spec = workloads.WORKLOADS[args.workload](args.seed, work)
        if args.trace:
            values = run.per_layer(spec, args.seconds)
        else:
            values = run.end_to_end(spec, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    names = [m["name"] for m in declared]
    if set(names) != set(values):
        print(f"perfbench: metrics {sorted(set(values) ^ set(names))} do not match BENCHMARK.json", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    failed = len(run.failures)
    result = {"correct": not run.failures, "attempted": run.attempted, "failed": failed, "metrics": metrics}

    record = {
        "argv": sys.argv[1:] if argv is None else argv,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rows_per_repetition": spec.rows,
        "fail_frac": failed / run.attempted,
        "failures": run.failures,
        "environment": environment(),
        "result": result,
        "samples": run.samples,
    }
    results_dir = RUN_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record_path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1))

    for failure in run.failures[:20]:
        print(f"FAILED {failure}")
    print(f"{args.workload} seed {args.seed}: {len(spec.ops)} operations per repetition, {spec.rows} rows")
    for m in declared:
        line = f"  {m['name']:<44} {values[m['name']]:>14.6g} {m['unit']:<8}"
        samples = run.samples.get(m["name"], [])
        if len(samples) > 1:
            q1, q2, q3 = quartiles(samples)
            line += f" samples: median {q2:.6g}, q1 {q1:.6g}, q3 {q3:.6g}, n={len(samples)}"
        print(line)
    walls = run.samples.get("repetition_wall_s") or run.samples.get("trace.untraced_wall_s")
    q1, q2, q3 = quartiles(walls) if len(walls) > 1 else walls * 3
    print(f"  repetitions: {len(walls)}, untraced wall time median {q2:.6g} s, q1 {q1:.6g}, q3 {q3:.6g}")
    print(f"  {'fail_frac':<44} {failed / run.attempted:>14.6g} ratio    ({failed}/{run.attempted})")
    print(f"  record: {record_path}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
