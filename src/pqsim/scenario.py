"""Scenario files and the runners that execute them.

A scenario is a JSON document with snake_case fields, rates in veh/hr and
times in hours:

    {
      "model": "pqm2",
      "demand": {"type": "sine_floor", "amplitude": 2000, "floor": 1000},
      "supply": {"type": "constant", "rate": 1200},
      "queue": {"capacity": 200, "initial": 0},
      "dt": 0.01,
      "horizon": 2.0
    }

Model names: ``pqm1`` .. ``pqm4`` (exact point queues), ``eps-pqm1`` ..
``eps-pqm4`` (relaxed, need ``epsilon``), ``vickrey`` (unbounded storage),
``ltm``/``lqm`` (link models, need ``link``) and ``tandem`` (needs
``queues``, a list of ``{"capacity": ..., "initial": ..., "model": ...}``
records ordered origin to destination).  Optional fields: ``formulation``
("A" queue-length state, "B" cumulative-flow state), ``epsilon``,
``unsafe`` (run despite violated admissibility bounds), ``output``.
``MODELS`` is the one table of models: per name, the fields it needs, its
admissibility check, its runner and, optionally, its report notes.  Every
runner returns a list of trajectories: one for a point or link model, one
per queue for a tandem, so every model runs through the same path.

Every run validates the grid (dt, horizon, a whole number of at most
``MAX_STEPS`` steps) and the relevant admissibility bound first and
reports the violated bound by name; ``unsafe`` skips only those bound
checks, never structural ones.  Runs are deterministic: identical
scenarios produce byte-identical CSV files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace
from functools import partial
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Callable, NamedTuple

from . import approx, point_queue
from .errors import ScenarioError, ValidationError
from .link_models import LqmSimulation, LtmSimulation
from .links import LinkParams, QueueSpec
from .network import TandemQueue, TandemSpec, TandemState, step_tandem
from .point_queue import Formulation, PqModel, well_definedness_bound
from .profiles import Profile, profile_from_dict
from .trajectory import Trajectory, TrajectoryStats, sup_distance

__all__ = [
    "Scenario",
    "RunReport",
    "load_scenario",
    "scenario_from_dict",
    "check_grid",
    "simulate_model",
    "run_scenario",
    "convergence_table",
]


@dataclass(frozen=True)
class Scenario:
    model: str
    demand: Profile
    supply: Profile
    dt: float
    horizon: float
    queue: QueueSpec | None = None
    link: LinkParams | None = None
    link_initial: float = 0.0
    tandem: TandemSpec | None = None
    epsilon: float | None = None
    formulation: Formulation = Formulation.QUEUE
    unsafe: bool = False
    output: str | None = None
    source: str = "<scenario>"

    def with_overrides(self, **kwargs) -> "Scenario":
        kwargs = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **kwargs)


def _reject_non_finite(value, source: str, path: str = "") -> None:
    """Raise on any NaN or infinity in a parsed document, naming its field path."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ScenarioError(f"{source}: field '{path}' must be a finite number (got {value!r})")
    if isinstance(value, dict):
        for key, item in value.items():
            _reject_non_finite(item, source, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _reject_non_finite(item, source, f"{path}[{i}]")


def _field(doc: dict, name: str, kind, source: str, required: bool = True, default=None):
    if name not in doc:
        if required:
            raise ScenarioError(f"{source}: missing required field '{name}'")
        return default
    value = doc[name]
    if kind is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ScenarioError(f"{source}: field '{name}' must be a number (got {value!r})")
        return float(value)
    if not isinstance(value, kind):
        raise ScenarioError(f"{source}: field '{name}' must be a {kind.__name__} (got {value!r})")
    return value


def _queue_spec(doc: dict, source: str) -> QueueSpec:
    cap = None if doc.get("capacity") is None else _field(doc, "capacity", float, source)
    initial = _field(doc, "initial", float, source, required=False, default=0.0)
    try:
        return QueueSpec(capacity=cap, initial=initial)
    except ValueError as exc:
        raise ScenarioError(f"{source}: {exc}") from None


def _link_params(doc: dict, source: str) -> LinkParams:
    try:
        return LinkParams(**{f.name: _field(doc, f.name, float, source) for f in fields(LinkParams)})
    except ValueError as exc:
        raise ScenarioError(f"{source}: link: {exc}") from None


def _pq_model(name: str, source: str) -> PqModel:
    key = name.lower().removeprefix("eps-")
    try:
        return PqModel(key)
    except ValueError:
        raise ScenarioError(f"{source}: unknown point-queue model {name!r}") from None


def scenario_from_dict(doc: dict, source: str = "<scenario>") -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError(f"{source}: scenario must be a JSON object")
    _reject_non_finite(doc, source)
    model = _field(doc, "model", str, source).lower()
    if model not in MODEL_NAMES:
        raise ScenarioError(f"{source}: unknown model {model!r}; valid: {', '.join(MODEL_NAMES)}")
    try:
        demand = profile_from_dict(_field(doc, "demand", dict, source))
    except ValueError as exc:
        raise ScenarioError(f"{source}: demand: {exc}") from None
    try:
        supply = profile_from_dict(_field(doc, "supply", dict, source))
    except ValueError as exc:
        raise ScenarioError(f"{source}: supply: {exc}") from None
    dt = _field(doc, "dt", float, source)
    horizon = _field(doc, "horizon", float, source)
    queue = None
    if "queue" in doc:
        queue = _queue_spec(_field(doc, "queue", dict, source), f"{source}: queue")
    link = None
    link_initial = 0.0
    if "link" in doc:
        link_doc = _field(doc, "link", dict, source)
        link = _link_params(link_doc, source)
        link_initial = _field(link_doc, "initial", float, f"{source}: link", required=False, default=0.0)
    tandem = None
    if "queues" in doc:
        entries = _field(doc, "queues", list, source)
        queues = []
        for i, entry in enumerate(entries):
            where = f"{source}: queues[{i}]"
            if not isinstance(entry, dict):
                raise ScenarioError(f"{where}: must be an object")
            spec = _queue_spec(entry, where)
            member_model = _pq_model(entry.get("model", "pqm1"), where)
            queues.append(TandemQueue(spec=spec, model=member_model))
        if not queues:
            raise ScenarioError(f"{source}: 'queues' must list at least one queue")
        tandem = TandemSpec(tuple(queues))
    formulation_tag = _field(doc, "formulation", str, source, required=False, default="A").upper()
    if formulation_tag not in ("A", "B"):
        raise ScenarioError(f"{source}: formulation must be 'A' or 'B' (got {formulation_tag!r})")
    epsilon = _field(doc, "epsilon", float, source, required=False)
    unsafe = _field(doc, "unsafe", bool, source, required=False, default=False)
    output = _field(doc, "output", str, source, required=False)
    return Scenario(
        model=model,
        demand=demand,
        supply=supply,
        dt=dt,
        horizon=horizon,
        queue=queue,
        link=link,
        link_initial=link_initial,
        tandem=tandem,
        epsilon=epsilon,
        formulation=Formulation(formulation_tag),
        unsafe=unsafe,
        output=output,
        source=source,
    )


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"{path}: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    return scenario_from_dict(doc, source=str(path))


# The step and time fields a run cannot start without, and the CLI flag that overrides each.
_POSITIVE = {"dt": "--dt/--dt-list", "horizon": "--horizon", "epsilon": "--eps"}
# Most steps one run may take: 50 times the 2e5 steps of the longest acceptance runs.
MAX_STEPS = 10**7


def check_grid(scenario: Scenario) -> None:
    """Raise unless the run's grid is sound.

    dt, horizon and (when set) epsilon must be positive and finite, and the
    horizon a whole number of at most ``MAX_STEPS`` steps, checked before
    anything is allocated.  Structural, not a bound: ``unsafe`` does not
    skip it.  A JSON scenario cannot hold NaN or infinity, but the CLI
    overrides can.
    """
    for name, flag in _POSITIVE.items():
        value = getattr(scenario, name)
        if value is not None and not 0 < value < math.inf:
            raise ValidationError(
                f"{scenario.source}: {name} must be positive and finite (got {value!r}; set by field '{name}' or {flag})"
            )
    dt, horizon = scenario.dt, scenario.horizon
    steps = horizon / dt
    if steps > MAX_STEPS:
        problem = f"horizon/dt = {horizon:g}/{dt:g} exceeds {MAX_STEPS} steps"
    elif abs(round(steps) * dt - horizon) > 1e-9 * horizon:
        problem = f"horizon {horizon:g} hr is not a whole number of steps dt = {dt:g} hr"
    else:
        return
    raise ValidationError(
        f"{scenario.source}: {problem} (set by fields 'dt' and 'horizon', or {_POSITIVE['dt']} and {_POSITIVE['horizon']})"
    )


# How a missing-field message words each Scenario field a model can need.
_NEEDS = {
    "queue": "a 'queue' section",
    "epsilon": "an 'epsilon' field",
    "link": "a 'link' section",
    "tandem": "a 'queues' section",
}


def _check_queue_bound(
    scenario: Scenario, who: str, var: str, value: float, model: PqModel, capacity: float | None
) -> None:
    """Raise unless ``value`` (dt, or eps for a relaxed model) is within a point queue's bound."""
    bound = well_definedness_bound(model, scenario.demand.max_rate, scenario.supply.max_rate, capacity)
    if value > bound:
        limiter = "capacity/sigma_max" if model is PqModel.PQM3 else "capacity/delta_max"
        raise ValidationError(
            f"{scenario.source}: {who} requires {var} <= {limiter} = {bound:.4g} hr (got {var} = {value:g})"
        )


def _check_point(scenario: Scenario, name: str) -> None:
    model = _pq_model(name, scenario.source)
    _check_queue_bound(scenario, f"{model.label}-D", "dt", scenario.dt, model, scenario.queue.capacity)


def _check_eps(scenario: Scenario, name: str) -> None:
    eps = scenario.epsilon
    if scenario.dt > eps:
        raise ValidationError(
            f"{scenario.source}: relaxed models require dt <= epsilon = {eps:g} hr (got dt = {scenario.dt:g})"
        )
    model = _pq_model(name, scenario.source)
    _check_queue_bound(scenario, f"eps-{model.label}", "epsilon", eps, model, scenario.queue.capacity)


def _check_link(scenario: Scenario, name: str) -> None:
    bound = min(scenario.link.free_flow_time, scenario.link.wave_time)
    if scenario.dt > bound:
        raise ValidationError(
            f"{scenario.source}: {name.upper()} requires dt <= min(T1, T2) = {bound:.4g} hr (got dt = {scenario.dt:g})"
        )


def _check_tandem(scenario: Scenario, name: str) -> None:
    for i, member in enumerate(scenario.tandem.queues):
        who = f"queues[{i}] ({member.model.label}-D)"
        _check_queue_bound(scenario, who, "dt", scenario.dt, member.model, member.spec.capacity)


def _step_rates(scenario: Scenario, n: int, exact: bool = False):
    """(delta, sigma) at the start of each of n steps, sampled once per run.

    Iterate it in the ``for`` statement itself: the sampled lists then go
    when the loop ends, before the run builds its time column, so they add
    nothing to the run's peak memory.  ``exact`` yields Fractions.
    """
    deltas = scenario.demand.rates_on_grid(n, scenario.dt)
    sigmas = scenario.supply.rates_on_grid(n, scenario.dt)
    if exact:
        return zip(map(Fraction, deltas), map(Fraction, sigmas))
    return zip(deltas, sigmas)


def _run_point(
    scenario: Scenario, name: str, exact: bool, relaxed: bool = False, model: PqModel | None = None
) -> list[Trajectory]:
    """The point-queue loop: the state (lam, F, G) lives in locals, one junction-rule call per step."""
    queue = scenario.queue
    model = model or _pq_model(name, scenario.source)
    dt = scenario.dt
    n = round(scenario.horizon / dt)
    clamp = not scenario.unsafe
    cumulative = scenario.formulation is Formulation.CUMULATIVE
    conv = Fraction if exact else float
    cap = queue.capacity if queue.capacity is None else conv(queue.capacity)
    lam = arrivals = conv(queue.initial)
    departures = lam * 0
    # Looked up once per run, at run time, so a wrapper set on the module is seen.
    if relaxed:
        step, vol_dt = partial(approx._step_with_volumes, dt / scenario.epsilon), dt
    else:
        step, vol_dt = point_queue._step_with_volumes, conv(dt)
    queues, arrs, deps, fin, fout = [], [], [], [], []
    for delta, sigma in _step_rates(scenario, n, exact):
        queues.append(lam)
        arrs.append(arrivals)
        deps.append(departures)
        if cumulative:
            lam = arrivals - departures
        lam, in_vol, out_vol = step(model, lam, delta * vol_dt, sigma * vol_dt, cap, clamp)
        arrivals = arrivals + in_vol
        departures = departures + out_vol
        if cumulative:
            lam = arrivals - departures
        fin.append(in_vol / dt)
        fout.append(out_vol / dt)
    # The formulation-A clamp floors lambda at int 0, and exact runs carry
    # Fractions: every recorded value is written as a float.
    queues = list(map(float, queues))
    if exact:
        arrs = list(map(float, arrs))
        deps = list(map(float, deps))
    return [Trajectory(name, dt, [i * dt for i in range(n)], queues, arrs, deps, fin, fout)]


def _run_vickrey(scenario: Scenario, name: str, exact: bool) -> list[Trajectory]:
    """PQM1 with unbounded storage; a 'queue' section only sets the initial content."""
    initial = 0.0 if scenario.queue is None else scenario.queue.initial
    return _run_point(replace(scenario, queue=QueueSpec.unbounded(initial)), name, exact, model=PqModel.PQM1)


def _run_link(scenario: Scenario, name: str, exact: bool) -> list[Trajectory]:
    """Link models run in floats only; ``simulate_model`` rejects ``exact`` for them."""
    dt = scenario.dt
    n = round(scenario.horizon / dt)
    sim_cls = LtmSimulation if name == "ltm" else LqmSimulation
    try:
        sim = sim_cls(scenario.link, scenario.link_initial, dt)
    except ValueError as exc:
        raise ValidationError(f"{scenario.source}: {exc}") from None
    step = sim.step
    queues, arrs, deps, fin, fout = [], [], [], [], []
    for delta, sigma in _step_rates(scenario, n):
        arrs.append(sim.arrivals)
        deps.append(sim.departures)
        in_vol, out_vol = step(delta, sigma)
        queues.append(sim.step_queue)
        fin.append(in_vol / dt)
        fout.append(out_vol / dt)
    return [Trajectory(name, dt, [i * dt for i in range(n)], queues, arrs, deps, fin, fout)]


def _run_tandem(scenario: Scenario, name: str, exact: bool) -> list[Trajectory]:
    """One trajectory per queue, origin to destination; like the link models, it runs in floats only."""
    spec = scenario.tandem
    dt = scenario.dt
    n = round(scenario.horizon / dt)
    state = TandemState.initial(spec)
    m = len(spec.queues)
    queues = [[] for _ in range(m)]
    arrs = [[] for _ in range(m)]
    deps = [[] for _ in range(m)]
    fin = [[] for _ in range(m)]
    fout = [[] for _ in range(m)]
    columns = list(zip(queues, arrs, deps, fin, fout))
    for delta, sigma in _step_rates(scenario, n):
        arrivals, departures = state
        state, fluxes = step_tandem(spec, state, delta, sigma, dt)
        for k, (q, f, g, f_in, f_out) in enumerate(columns):
            q.append(arrivals[k] - departures[k])
            f.append(arrivals[k])
            g.append(departures[k])
            f_in.append(fluxes[k] / dt)
            f_out.append(fluxes[k + 1] / dt)
    times = [i * dt for i in range(n)]
    return [
        Trajectory(f"queue{k + 1}", dt, list(times), queues[k], arrs[k], deps[k], fin[k], fout[k])
        for k in range(m)
    ]


def _tandem_notes(scenario: Scenario, trajectories: list[Trajectory]) -> dict:
    """The worst conservation residual over the recorded rows, and whether the variants differ.

    A row's residual is |sum of contents - (initial total + origin inflow - destination outflow)|.
    """
    first, last = trajectories[0], trajectories[-1]
    initial_total = sum(t.queue[0] for t in trajectories)
    first_initial = first.arrivals[0]
    totals = map(sum, zip(*(t.queue for t in trajectories)))
    residuals = (
        abs(total - (initial_total + (f - first_initial) - g))
        for total, f, g in zip(totals, first.arrivals, last.departures)
    )
    return {
        "max_conservation_residual": max(residuals, default=0.0),
        "mixed_variant_tandem": scenario.tandem.mixed_models,
    }


class ModelSpec(NamedTuple):
    """One row of the model table.

    ``needs`` names the Scenario fields the model cannot run without,
    ``check(scenario, name)`` raises when its admissibility bound is
    violated (``unsafe`` skips it), and ``run(scenario, name, exact)``
    returns its trajectories: one for a point or link model, one per queue
    for a tandem.  ``notes(scenario, trajectories)``, when set, returns
    report lines computed from the recorded columns after the run.
    ``exact`` marks the models that can run on ``Fraction`` arithmetic.
    """

    needs: tuple[str, ...]
    check: Callable[[Scenario, str], None] | None
    run: Callable[[Scenario, str, bool], list[Trajectory]]
    notes: Callable[[Scenario, list[Trajectory]], dict] | None = None
    exact: bool = False


MODELS: dict[str, ModelSpec] = {
    **{m.value: ModelSpec(("queue",), _check_point, _run_point, exact=True) for m in PqModel},
    **{
        f"eps-{m.value}": ModelSpec(("queue", "epsilon"), _check_eps, partial(_run_point, relaxed=True))
        for m in PqModel
    },
    **{name: ModelSpec(("link",), _check_link, _run_link) for name in ("ltm", "lqm")},
    "vickrey": ModelSpec((), None, _run_vickrey, exact=True),
    "tandem": ModelSpec(("tandem",), _check_tandem, _run_tandem, _tandem_notes),
}
MODEL_NAMES = tuple(MODELS)


def validate_model(scenario: Scenario, model_name: str) -> None:
    """Check the grid, the fields a model needs and, unless ``unsafe``, its admissibility bound."""
    name = model_name.lower()
    spec = MODELS.get(name)
    if spec is None:
        raise ValidationError(f"{scenario.source}: unknown model {model_name!r}")
    check_grid(scenario)
    for need in spec.needs:
        if getattr(scenario, need) is None:
            raise ValidationError(f"{scenario.source}: model {name!r} needs {_NEEDS[need]}")
    if spec.check is not None and not scenario.unsafe:
        spec.check(scenario, name)


def simulate_model(scenario: Scenario, model_name: str | None = None, exact: bool = False) -> list[Trajectory]:
    """Validate and run one model of a scenario, returning its trajectories.

    One trajectory for a point or link model, one per queue for a tandem.
    ``exact=True`` runs the exact point-queue models and ``vickrey`` on
    dyadic-rational arithmetic (``fractions.Fraction``), under which
    formulations A and B coincide identically; outputs are converted back
    to floats.  Any other model with ``exact=True`` raises.
    """
    name = (model_name or scenario.model).lower()
    validate_model(scenario, name)
    if exact and not MODELS[name].exact:
        raise ValidationError(
            f"{scenario.source}: exact arithmetic is supported for the exact point models only (got {name!r})"
        )
    return MODELS[name].run(scenario, name, exact)


@dataclass
class RunReport:
    """Everything a run produced: trajectories, stats, distances, notes, files."""

    trajectories: dict[str, Trajectory]
    stats: dict[str, TrajectoryStats]
    distances: dict[tuple[str, str], float] = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)
    csv_paths: dict[str, Path] = field(default_factory=dict)

    @property
    def max_distance(self) -> float:
        return max(self.distances.values(), default=0.0)

    def summary_lines(self) -> list[str]:
        lines = []
        for label, st in self.stats.items():
            lines.append(f"{label}: {st.describe()}")
        for (a, b), d in self.distances.items():
            lines.append(f"sup |lambda_{a} - lambda_{b}| = {d:.6g} veh")
        for key, value in self.metadata.items():
            lines.append(f"{key}: {value}")
        return lines


def run_scenario(
    scenario: Scenario | str | Path,
    out_dir: str | Path | None = None,
    models: list[str] | None = None,
    exact: bool = False,
) -> RunReport:
    """Run a scenario (every model in ``models``, or its own), write CSVs.

    Trajectories are keyed by label: the model name, or ``queue1``..
    ``queueN`` for a tandem.  When more than one model is named, every
    pair of trajectories gets its sup distance.  A model's notes (a
    tandem's conservation residual) go into the report metadata.
    """
    if not isinstance(scenario, Scenario):
        scenario = load_scenario(scenario)
    if out_dir is None and scenario.output is not None:
        out_dir = scenario.output
    names = [m.lower() for m in (models or [scenario.model])]
    runs, metadata = [], {}
    for name in names:
        produced = simulate_model(scenario, name, exact=exact)
        runs += produced
        notes = MODELS[name].notes
        if notes is not None:
            metadata.update(notes(scenario, produced))
    distances = {}
    if len(names) > 1:
        distances = {(a.label, b.label): sup_distance(a, b) for a, b in combinations(runs, 2)}
    trajectories = {t.label: t for t in runs}
    stats = {label: t.stats() for label, t in trajectories.items()}
    report = RunReport(trajectories, stats, distances, metadata)
    if out_dir is not None:
        for label, traj in report.trajectories.items():
            report.csv_paths[label] = traj.write_csv(Path(out_dir) / f"{label.replace('/', '_')}.csv")
    return report


def convergence_table(
    scenario: Scenario | str | Path,
    models: list[str],
    dt_list: list[float],
) -> list[dict]:
    """Max pairwise sup-norm distance between models for each step size."""
    if not isinstance(scenario, Scenario):
        scenario = load_scenario(scenario)
    rows = []
    for dt in dt_list:
        report = run_scenario(scenario.with_overrides(dt=dt), models=models)
        rows.append({"dt": dt, "max_distance": report.max_distance})
    return rows
