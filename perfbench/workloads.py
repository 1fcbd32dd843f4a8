"""The benchmark's workloads: CLI invocations, their inputs and their checks.

An operation is one in-process call of ``pqsim.cli.main(argv)`` with its
stdout and stderr captured.  A repetition is one pass over a workload's
operations, run back to back; outputs are checked after the repetition,
outside the timed calls.  See README.md for why each workload exists.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from pqsim import cli
from pqsim.trajectory import Trajectory

SCENARIOS = Path("scenarios")
# Inputs and outputs of the benchmark's runs, relative to the checkout root.
# Output paths appear in the CLI's stdout, so the golden digests depend on it.
WORK = Path(".perfbench_run") / "work"
BUNDLED = ("sine_floor_single_queue", "sine_floor_relaxed", "congested_link", "tandem_spillback")
POINT_MODELS = ("pqm1", "pqm2", "pqm3", "pqm4", "eps-pqm1", "eps-pqm2", "eps-pqm3", "eps-pqm4")
# Sizes keep a repetition of each fixed workload near a tenth of a second,
# so a run holds well over a hundred repetitions to take quantiles of
# (see README.md).
DT = 8e-4
CONVERGENCE_DTS = (4e-3, 2e-3, 1e-3, 5e-4)

# Largest |F - G - lambda| [veh] accepted in a sweep CSV.  Formulation A
# carries lambda and the cumulative flows F, G separately, so they drift
# apart by round-off: at most a few ulps of F (< 2e4 veh) per step, i.e.
# below 1e-8 veh even over 4000 steps.  The bound leaves ample margin.
CONSERVATION_TOL = 1e-6


@dataclass
class Op:
    argv: list[str]
    rows: int = 0  # trajectory rows the call produces
    out_dir: Path | None = None
    exit_code: int = 0
    case: "SweepCase | None" = None


@dataclass
class OpResult:
    op: Op
    code: int
    stdout: str
    stderr: str
    seconds: float

    def files(self) -> dict[str, Path]:
        out = self.op.out_dir
        if out is None or not out.is_dir():
            return {}
        return {p.name: p for p in sorted(out.iterdir())}


def run_op(op: Op) -> OpResult:
    """Run one CLI call in-process; ``cli.main`` is looked up at call time."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(op.argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
        seconds = time.perf_counter() - start
    return OpResult(op, code, out.getvalue(), err.getvalue(), seconds)


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def digests(result: OpResult) -> dict[str, object]:
    """Exit code, stdout digest and one digest per written file."""
    record: dict[str, object] = {
        "exit": result.code,
        "stdout": hashlib.sha256(result.stdout.encode()).hexdigest(),
    }
    for name, path in result.files().items():
        record[name] = sha256_file(path)
    return record


def _steps(scenario: str, dt: float) -> int:
    doc = json.loads((SCENARIOS / f"{scenario}.json").read_text())
    return round(doc["horizon"] / dt)


# --------------------------------------------------------------------------
# scenario_sweep input generation


SWEEP_MODELS = POINT_MODELS + ("vickrey", "ltm", "lqm")
SWEEP_STEPS = tuple(250 + 31 * j for j in range(9))  # 250 .. 498 steps
SWEEP_DEMANDS = ("sine_floor", "piecewise_constant", "constant")
SWEEP_DTS = (1e-3, 5e-4, 2.5e-4)
# Inadmissible cases: (model, violated bound as the rejection names it).
SWEEP_REJECTS = (
    ("pqm3", "PQM3-D requires dt <= capacity/sigma_max"),
    ("pqm4", "PQM4-D requires dt <= capacity/delta_max"),
    ("eps-pqm1", "relaxed models require dt <= epsilon"),
    ("eps-pqm3", "eps-PQM3 requires epsilon <= capacity/sigma_max"),
    ("eps-pqm4", "eps-PQM4 requires epsilon <= capacity/delta_max"),
    ("ltm", "LTM requires dt <= min(T1, T2)"),
    ("lqm", "LQM requires dt <= min(T1, T2)"),
)
SWEEP_REJECT_COUNT = 11
LINK = {"lanes": 1, "free_flow_speed": 60, "wave_speed": 20, "jam_density": 150}


@dataclass
class SweepCase:
    name: str
    doc: dict
    steps: int
    expect: str | None = None  # rejection text, None when admissible
    ceiling: float | None = None  # upper bound on lambda, None = unbounded

    @property
    def model(self) -> str:
        return self.doc["model"]


def _demand(rng: random.Random, kind: str, horizon: float) -> dict:
    if kind == "constant":
        return {"type": "constant", "rate": rng.uniform(500, 2500)}
    if kind == "sine_floor":
        amplitude = rng.uniform(1500, 3000)
        return {"type": "sine_floor", "amplitude": amplitude, "floor": rng.uniform(0, 0.8 * amplitude)}
    return {
        "type": "piecewise_constant",
        "breakpoints": [0, horizon / 4, horizon / 2, 3 * horizon / 4],
        "rates": [rng.uniform(200, 3000) for _ in range(4)],
    }


def _admissible_case(rng: random.Random, name: str, model: str, steps: int, demand_kind: str) -> SweepCase:
    dt = rng.choice(SWEEP_DTS)
    horizon = steps * dt
    doc = {
        "model": model,
        "demand": _demand(rng, demand_kind, horizon),
        "supply": {"type": "constant", "rate": rng.uniform(800, 2000)},
        "dt": dt,
        "horizon": horizon,
    }
    ceiling = None
    if model in ("ltm", "lqm"):
        # T1 = length/60 >= 3.3e-3 hr > dt, so the step bound holds.
        link = dict(LINK, length=rng.uniform(0.2, 1.0))
        storage = link["length"] * link["lanes"] * link["jam_density"]
        doc["link"] = dict(link, initial=rng.uniform(0, 0.3) * storage)
        ceiling = storage
    else:
        # capacity / max rate >= 50 / 3000 hr, well above dt and epsilon.
        capacity = rng.uniform(50, 400)
        doc["queue"] = {"capacity": capacity, "initial": rng.uniform(0, 0.5) * capacity}
        doc["formulation"] = rng.choice("AB")
        if model.startswith("eps-"):
            doc["epsilon"] = dt * rng.choice((1, 2, 4, 8))
        if model != "vickrey":
            ceiling = capacity
    return SweepCase(name, doc, steps, ceiling=ceiling)


def _rejected_case(rng: random.Random, name: str, model: str, expect: str) -> SweepCase:
    dt = rng.choice(SWEEP_DTS)
    delta = rng.uniform(1500, 3000)
    sigma = rng.uniform(800, 2000)
    doc = {
        "model": model,
        "demand": {"type": "constant", "rate": delta},
        "supply": {"type": "constant", "rate": sigma},
        "dt": dt,
        "horizon": 500 * dt,
    }
    if model in ("ltm", "lqm"):
        doc["link"] = dict(LINK, length=60 * dt / 4, initial=0)  # T1 = dt / 4
    else:
        eps = dt / 2 if model == "eps-pqm1" else 2 * dt
        limiter = sigma if model.endswith("pqm3") else delta
        window = eps if model.startswith("eps-") else dt
        doc["queue"] = {"capacity": limiter * window / 4, "initial": 0}
        if model.startswith("eps-"):
            doc["epsilon"] = eps
    return SweepCase(name, doc, 0, expect=expect)


def generate_sweep(seed: int) -> list[SweepCase]:
    """Scenario cases for one seed, in run order.

    The design is fixed so that every seed asks for the same work: each
    model runs the same 9 step counts over the same demand-type cycle, and
    11 cases cycle through the inadmissible kinds.  The seed draws every
    rate, capacity, step size, link length and epsilon, and the run order.
    """
    rng = random.Random(seed)
    plan = [(m, steps, SWEEP_DEMANDS[j % 3]) for m in SWEEP_MODELS for j, steps in enumerate(SWEEP_STEPS)]
    plan += [SWEEP_REJECTS[k % len(SWEEP_REJECTS)] for k in range(SWEEP_REJECT_COUNT)]
    rng.shuffle(plan)
    cases = []
    for i, item in enumerate(plan):
        name = f"case{i:03d}"
        if len(item) == 3:
            cases.append(_admissible_case(rng, name, *item))
        else:
            cases.append(_rejected_case(rng, name, *item))
    return cases


def check_sweep_result(result: OpResult) -> list[str]:
    """Invariants every sweep run satisfies, for any seed."""
    case = result.op.case
    where = f"{case.name} ({case.model})"
    if case.expect is not None:
        if result.code != 2 or case.expect not in result.stderr:
            return [f"{where}: expected exit 2 naming '{case.expect}', got {result.code}: {result.stderr.strip()}"]
        if result.files():
            return [f"{where}: rejected run wrote files"]
        return []
    if result.code != 0:
        return [f"{where}: exit {result.code}: {result.stderr.strip()}"]
    path = result.files().get(f"{case.model}.csv")
    if path is None:
        return [f"{where}: no CSV written"]
    traj = Trajectory.from_csv(path, label=case.model)
    problems = []
    if len(traj) != case.steps:
        problems.append(f"{len(traj)} rows, expected {case.steps}")
    low = min(traj.queue)
    high = max(traj.queue)
    # Formulation A clamps lambda itself, so it stays in [0, ceiling] exactly.
    # Formulation B and the link models derive lambda from F - G, which can
    # leave the range by the round-off of that difference.
    slack = 0.0 if case.doc.get("formulation") == "A" else CONSERVATION_TOL
    if low < -slack or (case.ceiling is not None and high > case.ceiling + slack):
        problems.append(f"lambda range [{low}, {high}] leaves [0, {case.ceiling}] by more than {slack:g}")
    # LTM reports the downstream queue F(t - T1) - G(t), which is at most
    # the link content F - G; every other model reports lambda = F - G.
    gaps = [f - g - q for q, f, g in zip(traj.queue, traj.arrivals, traj.departures)]
    if case.model == "ltm":
        worst = min(gaps)
        broken = worst < -CONSERVATION_TOL
    else:
        worst = max(gaps, key=abs)
        broken = abs(worst) > CONSERVATION_TOL
    if broken:
        problems.append(f"F - G - lambda reaches {worst:g}, tolerance {CONSERVATION_TOL:g}")
    line = f"{case.model}: {traj.stats().describe()}"
    if line not in result.stdout.splitlines():
        problems.append("stats recomputed from the CSV differ from the printed stats")
    return [f"{where}: {p}" for p in problems]


# --------------------------------------------------------------------------
# workloads


@dataclass
class Workload:
    name: str
    ops: list[Op]
    setup: list[dict] = field(default_factory=list)  # scenarios set-up loads and validates

    @property
    def rows(self) -> int:
        return sum(op.rows for op in self.ops)


def _out(work: Path, name: str) -> Path:
    return work / "out" / name


def point_compare(seed: int, work: Path) -> Workload:
    models = ",".join(POINT_MODELS)
    op = Op(
        ["compare", "scenarios/sine_floor_relaxed.json", "--models", models, "--dt", str(DT)],
        rows=len(POINT_MODELS) * _steps("sine_floor_relaxed", DT),
    )
    setup = [{"path": op.argv[1], "overrides": {"dt": DT}, "models": list(POINT_MODELS)}]
    return Workload("point_compare", [op], setup)


def tandem_csv(seed: int, work: Path) -> Workload:
    ops = []
    for command, scenario, rows in (("tandem", "tandem_spillback", 2), ("vickrey", "sine_floor_single_queue", 1)):
        out = _out(work, command)
        path = f"scenarios/{scenario}.json"
        ops.append(Op([command, path, "--dt", str(DT), "--out-dir", str(out)], rows * _steps(scenario, DT), out))
    setup = [
        {"path": ops[0].argv[1], "overrides": {"dt": DT}, "models": ["tandem"]},
        {"path": ops[1].argv[1], "overrides": {"dt": DT}, "models": []},
    ]
    return Workload("tandem_csv", ops, setup)


def link_convergence(seed: int, work: Path) -> Workload:
    dts = ",".join(repr(dt) for dt in CONVERGENCE_DTS)
    rows = 2 * sum(_steps("congested_link", dt) for dt in CONVERGENCE_DTS)
    op = Op(["convergence", "scenarios/congested_link.json", "--models", "ltm,lqm", "--dt-list", dts], rows)
    setup = [{"path": op.argv[1], "overrides": {"dt": dt}, "models": ["ltm", "lqm"]} for dt in CONVERGENCE_DTS]
    return Workload("link_convergence", [op], setup)


def scenario_sweep(seed: int, work: Path) -> Workload:
    inputs = work / "sweep"
    inputs.mkdir(parents=True, exist_ok=True)
    ops, setup = [], []
    for case in generate_sweep(seed):
        path = inputs / f"{case.name}.json"
        path.write_text(json.dumps(case.doc))
        out = _out(work, case.name)
        ops.append(
            Op(
                ["simulate", str(path), "--out-dir", str(out)],
                rows=case.steps,
                out_dir=out,
                exit_code=0 if case.expect is None else 2,
                case=case,
            )
        )
        setup.append({"path": str(path), "overrides": {}, "models": [case.model]})
    return Workload("scenario_sweep", ops, setup)


def bundled(seed: int, work: Path) -> Workload:
    """Every bundled scenario at its own dt: the byte-identity gate."""
    ops = []
    for scenario in BUNDLED:
        out = _out(work, f"bundled_{scenario}")
        ops.append(Op(["simulate", f"scenarios/{scenario}.json", "--out-dir", str(out)], out_dir=out))
    return Workload("bundled", ops)


WORKLOADS = {
    "point_compare": point_compare,
    "tandem_csv": tandem_csv,
    "link_convergence": link_convergence,
    "scenario_sweep": scenario_sweep,
}


def check(workload: str, results: list[OpResult], golden: list[dict] | None, invariants: bool = True) -> list[str]:
    """Failure messages for one repetition; each failed operation gives one.

    ``golden`` holds the expected digests per operation; ``invariants``
    also runs the sweep's invariant checks, which parse every CSV.
    """
    failures = []
    for i, result in enumerate(results):
        op = result.op
        problems = []
        if op.case is not None and invariants:
            problems = check_sweep_result(result)
        elif result.code != op.exit_code:
            problems = [f"exit {result.code}: {result.stderr.strip()}"]
        if not problems and golden is not None:
            want = golden[i]
            got = digests(result)
            problems = [f"{key} digest differs" for key in sorted(set(want) | set(got)) if want.get(key) != got.get(key)]
        if problems:
            failures.append(f"{workload} op {i} ({' '.join(op.argv[:2])}): {'; '.join(problems)}")
    return failures


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (q in [0, 1]) of a non-empty list."""
    data = sorted(values)
    pos = q * (len(data) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)
