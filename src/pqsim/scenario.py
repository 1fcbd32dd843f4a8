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
``unsafe`` (run despite violated admissibility bounds).
``_field`` reads every value; an error names the field's full path, such
as ``queues[1].capacity``, with the bad value shortened by ``reprlib``;
numbers must be finite, not bools; unread keys are ignored.  The records
check ranges: ``LinkParams`` holds ``link.initial`` in [0, storage].
Profiles are ``{"type": ..., <its fields>}`` records (``_PROFILES``).
``MODELS`` is the one table of models: per name, the fields it needs, its
admissibility check, its runner and, optionally, its report notes.  Every
runner returns a list of trajectories: one for a point or link model, one
per queue for a tandem, so every model runs through the same path.  The
models of one call share one sampling of the rates (``_Grid``); each
trajectory stores dt and five columns, and derives its times as i * dt.

``Scenario``, like the package's other frozen records, is a
``collections.namedtuple`` subclass, compared and hashed by value and cheap
to create on import, which every CLI process pays for.  Its ``__new__``
checks every field, and ``_replace``, ``_make`` and ``with_overrides`` run
it too: a type error is worded as ``_field`` words it, and the grid must be
sound (dt, horizon and epsilon positive and finite, the horizon a whole
number of at most ``MAX_STEPS`` steps).  Every run then checks the fields
its model needs and its admissibility bound, reporting a violated bound by
name; ``unsafe`` skips only the bounds, never a structural check.  Runs are
deterministic: identical scenarios produce byte-identical CSV files.
"""

from __future__ import annotations

import json
import math
import reprlib
import sys
from collections import namedtuple
from functools import partial
from itertools import combinations, repeat
from operator import add, truediv
from pathlib import Path

from . import approx, link_models, point_queue
from .errors import ScenarioError, ValidationError, checked_make
from .links import LinkParams, QueueSpec
from .network import TandemQueue, TandemSpec, step_tandem
from .point_queue import Formulation, PqModel, _violated_bound
from .profiles import Constant, PiecewiseConstant, Profile, sine_floor
from .trajectory import Trajectory, sup_distance

__all__ = [
    "Scenario",
    "RunReport",
    "load_scenario",
    "scenario_from_dict",
    "profile_from_dict",
    "simulate_model",
    "run_scenario",
    "convergence_table",
]


# The step and time fields a run cannot start without, and the CLI flag that overrides each.
_POSITIVE = {"dt": "--dt/--dt-list", "horizon": "--horizon", "epsilon": "--eps"}
# Most steps one run may take: 50 times the 2e5 steps of the longest acceptance runs.
MAX_STEPS = 10**7
# The other fields and their kinds, as ``_field`` reads them; a field a model can need (``_NEEDS``) may be None.
_KINDS = {"demand": Profile, "supply": Profile, "queue": QueueSpec, "link": LinkParams, "tandem": TandemSpec,
          "formulation": Formulation, "unsafe": bool}


class Scenario(
    namedtuple("Scenario", "model demand supply dt horizon queue link tandem epsilon formulation unsafe source")
):
    """A parsed scenario; ``queue``, ``link``, ``tandem`` and ``epsilon`` are None when absent."""

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(
        cls, model, demand, supply, dt, horizon, queue=None, link=None, tandem=None, epsilon=None,
        formulation=Formulation.QUEUE, unsafe=False, source="<scenario>",
    ):
        self = super().__new__(
            cls, model, demand, supply, dt, horizon, queue, link, tandem, epsilon, formulation, unsafe, source
        )
        fields, top = dict(zip(cls._fields, self)), (source, "")
        _one_of(_field(fields, "model", str, top).lower(), MODELS, "model", top)
        for name, kind in _KINDS.items():
            if not isinstance(fields[name], kind) and (fields[name] is not None or name not in _NEEDS):
                _field(fields, name, kind, top)  # raises, naming the field
        # The grid, checked before anything is allocated.  Structural, not a bound: ``unsafe`` does
        # not skip it.  A JSON scenario cannot hold NaN or infinity, but the CLI overrides can.
        for name, flag in _POSITIVE.items():
            value = fields[name]
            if type(value) not in (int, float) and not (value is None and name in _NEEDS):  # a bool is an int
                _field(fields, name, float, top)  # raises, naming the field
            if value is not None and not 0 < value < math.inf:
                raise ValidationError(
                    f"{source}: {name} must be positive and finite (got {value!r}; set by field '{name}' or {flag})"
                )
        steps = horizon / dt
        if steps > MAX_STEPS:
            problem = f"horizon/dt = {horizon:g}/{dt:g} exceeds {MAX_STEPS} steps"
        elif abs(round(steps) * dt - horizon) > 1e-9 * horizon:
            problem = f"horizon {horizon:g} hr is not a whole number of steps dt = {dt:g} hr"
        else:
            return self
        raise ValidationError(
            f"{source}: {problem} (set by fields 'dt' and 'horizon', or {_POSITIVE['dt']} and {_POSITIVE['horizon']})"
        )

    def with_overrides(self, **kwargs) -> "Scenario":
        return self._replace(**{k: v for k, v in kwargs.items() if v is not None})


def _field(doc, name, kind, where: tuple, required: bool = True, default=None):
    """Read ``doc[name]`` as ``kind``; every error names the file and the field's full path.

    ``where`` is (source, path of ``doc``), such as ("s.json", "queues[1]");
    an int ``name`` indexes a list.  Kinds: ``float``, a finite number and
    not a bool; ``tuple``, a list of such numbers, returned as a tuple of
    floats; any other type, checked with ``isinstance``.
    """
    source, path = where
    full = f"{path}[{name}]" if isinstance(name, int) else f"{path}.{name}" if path else name
    if isinstance(name, str) and name not in doc:
        if required:
            raise ScenarioError(f"{source}: missing required field '{full}'")
        return default
    value = doc[name]
    if kind is float:
        # type(), not isinstance: a bool is an int.  The bound rejects NaN, infinity and ints past the floats.
        if type(value) in (int, float) and abs(value) <= sys.float_info.max:
            return float(value)
        raise ScenarioError(f"{source}: field '{full}' must be a finite number (got {reprlib.repr(value)})")
    if kind is tuple:
        if not isinstance(value, (list, tuple)):
            raise ScenarioError(f"{source}: field '{full}' must be a list of numbers (got {reprlib.repr(value)})")
        return tuple(_field(value, i, float, (source, full)) for i in range(len(value)))
    if not isinstance(value, kind):
        raise ScenarioError(f"{source}: field '{full}' must be a {kind.__name__} (got {reprlib.repr(value)})")
    return value


def _build(make, where: tuple, *args):
    """``make(*args)``; a ``ValueError`` it raises is re-raised naming the file and the section ``where``."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ScenarioError(f"{where[0]}: {where[1]}: {exc}") from None


# Each profile type's constructor, and its fields with their kinds in argument order.
_PROFILES = {
    "constant": (Constant, (("rate", float),)),
    "piecewise_constant": (PiecewiseConstant, (("breakpoints", tuple), ("rates", tuple))),
    "sine_floor": (sine_floor, (("amplitude", float), ("floor", float))),
}
_PQ_NAMES = tuple(m.value for m in PqModel)  # a tandem member's models: the exact point queues


def _one_of(value: str, valid, what: str, where: tuple, error=ScenarioError) -> str:
    """``value`` if ``valid`` holds it; else an ``error`` naming the file, the section (if any) and the choices."""
    if value not in valid:
        prefix = ": ".join(filter(None, where))
        raise error(f"{prefix}: unknown {what} {reprlib.repr(value)}; valid: {', '.join(valid)}")
    return value


def profile_from_dict(spec: dict, where: tuple = ("<profile>", "profile")) -> Profile:
    """Build a profile from its tagged-record form, ``{"type": ..., <its fields>}``; ``where`` as for ``_field``."""
    source, path = where
    if not isinstance(spec, dict):
        raise ScenarioError(f"{source}: field '{path}' must be a dict (got {reprlib.repr(spec)})")
    make, fields = _PROFILES[_one_of(_field(spec, "type", str, where), _PROFILES, "profile type", where)]
    return _build(make, where, *(_field(spec, name, of, where) for name, of in fields))


def _queue_spec(doc: dict, where: tuple) -> QueueSpec:
    """A point queue's storage; a missing or null capacity is unbounded."""
    capacity = None if doc.get("capacity") is None else _field(doc, "capacity", float, where)
    return _build(QueueSpec, where, capacity, _field(doc, "initial", float, where, required=False, default=0.0))


def scenario_from_dict(doc: dict, source: str = "<scenario>") -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError(f"{source}: scenario must be a JSON object")
    top = (source, "")
    model = _field(doc, "model", object, top)  # Scenario checks the value, worded alike
    demand = profile_from_dict(_field(doc, "demand", dict, top), (source, "demand"))
    supply = profile_from_dict(_field(doc, "supply", dict, top), (source, "supply"))
    dt, horizon = _field(doc, "dt", float, top), _field(doc, "horizon", float, top)
    queue = _queue_spec(_field(doc, "queue", dict, top), (source, "queue")) if "queue" in doc else None
    link = None
    if "link" in doc:
        link_doc, where = _field(doc, "link", dict, top), (source, "link")
        values = (_field(link_doc, name, float, where, name != "initial", 0.0) for name in LinkParams._fields)
        link = _build(LinkParams, where, *values)
    tandem = None
    if "queues" in doc:
        entries, members = _field(doc, "queues", list, top), []
        for i in range(len(entries)):
            where = (source, f"queues[{i}]")
            entry = _field(entries, i, dict, (source, "queues"))
            name = _field(entry, "model", str, where, required=False, default="pqm1").lower()
            variant = PqModel(_one_of(name, _PQ_NAMES, "point-queue model", where))
            members.append(TandemQueue(_queue_spec(entry, where), variant))
        tandem = _build(TandemSpec, (source, "queues"), members)
    formulation = _field(doc, "formulation", str, top, required=False, default="A").upper()
    formulation = Formulation(_one_of(formulation, ("A", "B"), "formulation", top))
    epsilon = _field(doc, "epsilon", float, top, required=False)
    return Scenario(  # in the order of its fields; Scenario checks "unsafe", worded alike
        model, demand, supply, dt, horizon, queue, link, tandem, epsilon, formulation, doc.get("unsafe", False), source
    )


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"{path}: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:  # an integer past Python's digit limit; arrays nested too deep
        raise ScenarioError(f"{path}: {exc}") from None
    return scenario_from_dict(doc, source=str(path))


# How a missing-field message words each Scenario field a model can need.
_NEEDS = {
    "queue": "a 'queue' section",
    "epsilon": "an 'epsilon' field",
    "link": "a 'link' section",
    "tandem": "a 'queues' section",
}


def _check_queue_bound(scenario: Scenario, who: str, var: str, value, model: PqModel, capacity, sides=None) -> None:
    """Raise unless ``value`` (dt, or eps for a relaxed model) is within a queue's bound; ``sides``: a tandem's."""
    feed, service = sides or ((scenario.demand.max_rate, ()), (scenario.supply.max_rate, ()))
    violated = _violated_bound(model, value, feed, service, capacity, var)
    if violated is not None:
        raise ValidationError(f"{scenario.source}: {who} requires {violated} (got {var} = {value:g})")


def _check_point(scenario: Scenario, name: str, model: PqModel) -> None:
    _check_queue_bound(scenario, f"{model.label}-D", "dt", scenario.dt, model, scenario.queue.capacity)


def _check_eps(scenario: Scenario, name: str, model: PqModel) -> None:
    eps = scenario.epsilon
    if scenario.dt > eps:
        raise ValidationError(
            f"{scenario.source}: relaxed models require dt <= epsilon = {eps:g} hr (got dt = {scenario.dt:g})"
        )
    _check_queue_bound(scenario, f"eps-{model.label}", "epsilon", eps, model, scenario.queue.capacity)


def _check_link(scenario: Scenario, name: str) -> None:
    bound = min(scenario.link.free_flow_time, scenario.link.wave_time)
    if scenario.dt > bound:
        raise ValidationError(
            f"{scenario.source}: {name.upper()} requires dt <= min(T1, T2) = {bound:.4g} hr (got dt = {scenario.dt:g})"
        )


def _check_tandem(scenario: Scenario, name: str) -> None:
    """Bound each member by its largest feed and service volumes, as (rate, held): dt*rate plus the held capacities.

    The origin feeds at most delta_max*dt.  Any other member's feed is its
    upstream neighbour's demand volume: at most that neighbour's capacity
    (unbounded without one), plus its own largest feed if its demand
    includes the feed (PQM1, PQM3).  Services mirror this from the
    destination's sigma_max*dt, through supplies that include the service
    (PQM1, PQM4).
    """
    queues = scenario.tandem.queues
    feeds = _largest_volumes(queues, scenario.demand.max_rate, "demand_includes_feed")
    services = _largest_volumes(queues[::-1], scenario.supply.max_rate, "supply_includes_service")[::-1]
    for i, (q, sides) in enumerate(zip(queues, zip(feeds, services))):
        who = f"queues[{i}] ({q.model.label}-D)"
        _check_queue_bound(scenario, who, "dt", scenario.dt, q.model, q.spec.capacity, sides)


def _largest_volumes(queues, rate, passes_on: str) -> list:
    """Each queue's largest feed (service, on reversed ``queues``) as (rate, held), from the end's ``rate``."""
    volumes = [(rate, ())]
    for q in queues[:-1]:
        rate, held = volumes[-1] if getattr(q.model, passes_on) else (0.0, ())
        volumes.append((0.0, (math.inf,)) if q.spec.capacity is None else (rate, (q.spec.capacity, *held)))
    return volumes


class _Grid:
    """One call's step grid: the rates, sampled once for the ``uses`` runs that share them.

    ``rates(conv)`` gives (delta, sigma) at each step start, each converted
    by ``conv`` (such as Fraction) for that run only; the lists are built
    on first use.  The last run's ``rates`` owns them: they go when its loop ends.
    """

    __slots__ = ("scenario", "uses", "_rates")

    def __init__(self, scenario: Scenario, uses: int = 1):
        self.scenario, self.uses, self._rates = scenario, uses, None

    def rates(self, conv=None):
        s, self.uses = self.scenario, self.uses - 1
        n = round(s.horizon / s.dt)
        rates = self._rates or (s.demand.rates_on_grid(n, s.dt), s.supply.rates_on_grid(n, s.dt))
        self._rates = rates if self.uses else None
        return zip(*rates) if conv is None else zip(*(map(conv, column) for column in rates))


def _run_point(
    scenario: Scenario, name: str, exact: bool, grid: _Grid, model: PqModel, relaxed: bool = False
) -> list[Trajectory]:
    """The point-queue loop: the state (lam, F, G) lives in locals, one junction-rule call per step."""
    queue = scenario.queue
    dt = scenario.dt
    clamp = not scenario.unsafe
    cumulative = scenario.formulation is Formulation.CUMULATIVE
    conv = float
    if exact:  # imported here: only exact runs pay for fractions (and decimal)
        from fractions import Fraction as conv
    cap = queue.capacity if queue.capacity is None else conv(queue.capacity)
    lam = arrivals = conv(queue.initial)
    departures = lam * 0
    # Looked up once per run, at run time, so a wrapper set on the module is seen.
    if relaxed:
        step, vol_dt = partial(approx._step_with_volumes, dt / scenario.epsilon), dt
    else:
        step, vol_dt = point_queue._step_with_volumes, conv(dt)
    queues, arrs, deps, fin, fout = [], [], [], [], []
    for delta, sigma in grid.rates(conv if exact else None):
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
    return [Trajectory(name, dt, queues, arrs, deps, fin, fout)]


def _run_vickrey(scenario: Scenario, name: str, exact: bool, grid: _Grid) -> list[Trajectory]:
    """PQM1 with unbounded storage; a 'queue' section only sets the initial content."""
    initial = 0.0 if scenario.queue is None else scenario.queue.initial
    return _run_point(scenario._replace(queue=QueueSpec.unbounded(initial)), name, exact, grid, PqModel.PQM1)


def _run_link(scenario: Scenario, name: str, exact: bool, grid: _Grid) -> list[Trajectory]:
    """One kernel call runs the grid, in floats only; the F and G columns are its histories less the final entry."""
    dt, link = scenario.dt, scenario.link
    arrs, deps = [link.initial], [0.0]
    # Looked up at run time, so a wrapper set on the module is seen.
    advance = link_models._ltm_advance if name == "ltm" else link_models._lqm_advance
    queues, fin, fout = advance(link, dt, arrs, deps, grid.rates())
    del arrs[-1], deps[-1]
    fin = list(map(truediv, fin, repeat(dt)))
    fout = list(map(truediv, fout, repeat(dt)))
    return [Trajectory(name, dt, queues, arrs, deps, fin, fout)]


def _run_tandem(scenario: Scenario, name: str, exact: bool, grid: _Grid) -> list[Trajectory]:
    """The tandem loop: each queue's F and G live in locals, one step call per step; it runs in floats only."""
    spec = scenario.tandem
    dt = scenario.dt
    arrivals = [q.spec.initial for q in spec.queues]
    departures = [c * 0 for c in arrivals]
    columns = [([], [], [], [], []) for _ in arrivals]  # per queue: lambda, F, G, f, g
    step = step_tandem  # looked up once per run, at run time, so a wrapper set on the module is seen
    for delta, sigma in grid.rates():
        fluxes = step(spec, arrivals, departures, delta * dt, sigma * dt)
        for k, (q, f, g, f_in, f_out) in enumerate(columns):
            q.append(arrivals[k] - departures[k])
            f.append(arrivals[k])
            g.append(departures[k])
            f_in.append(fluxes[k] / dt)
            f_out.append(fluxes[k + 1] / dt)
        arrivals = list(map(add, arrivals, fluxes))
        departures = list(map(add, departures, fluxes[1:]))
    return [Trajectory(f"queue{k + 1}", dt, *column) for k, column in enumerate(columns)]


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


class ModelSpec(namedtuple("ModelSpec", "needs check run notes exact", defaults=(None, False))):
    """One row of the model table.

    ``needs`` names the Scenario fields the model cannot run without,
    ``check(scenario, name)`` raises when its admissibility bound is
    violated (``unsafe`` skips it), and ``run(scenario, name, exact, grid)``
    returns its trajectories: one for a point or link model, one per queue
    for a tandem.  A runner iterates ``grid.rates()`` once, holding it only
    in its loop, so every model of a call shares one ``_Grid``.
    ``notes(scenario, trajectories)``, when set, returns report lines
    computed from the recorded columns after the run.  ``exact`` marks the
    models that can run on ``Fraction`` arithmetic.
    """

    __slots__ = ()


MODELS: dict[str, ModelSpec] = {
    # Each point row binds its PqModel once, so its check and runner never parse the name.
    **{
        m.value: ModelSpec(("queue",), partial(_check_point, model=m), partial(_run_point, model=m), exact=True)
        for m in PqModel
    },
    **{
        f"eps-{m.value}": ModelSpec(
            ("queue", "epsilon"), partial(_check_eps, model=m), partial(_run_point, model=m, relaxed=True)
        )
        for m in PqModel
    },
    **{name: ModelSpec(("link",), _check_link, _run_link) for name in ("ltm", "lqm")},
    "vickrey": ModelSpec((), None, _run_vickrey, exact=True),
    "tandem": ModelSpec(("tandem",), _check_tandem, _run_tandem, _tandem_notes),
}


def validate_model(scenario: Scenario, model_name: str) -> None:
    """Check the fields a model needs and, unless ``unsafe``, its admissibility bound; ``Scenario`` checked the grid."""
    name = _one_of(model_name.lower(), MODELS, "model", (scenario.source, ""), ValidationError)
    spec = MODELS[name]
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
    return _run_models(scenario, [model_name or scenario.model], exact)[0][1]


def _run_models(scenario: Scenario, names: list[str], exact: bool = False) -> list[tuple[str, list[Trajectory]]]:
    """Validate and run each named model on one grid, in order; (name, its trajectories) per model."""
    names = [m.lower() for m in names]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValidationError(f"{scenario.source}: model {name!r} is named more than once (set by --models)")
    grid = _Grid(scenario, len(names))
    runs = []
    for name in names:
        validate_model(scenario, name)
        if exact and not MODELS[name].exact:
            raise ValidationError(
                f"{scenario.source}: exact arithmetic is supported for the exact point models only (got {name!r})"
            )
        runs.append((name, MODELS[name].run(scenario, name, exact, grid)))
    return runs


class RunReport(namedtuple("RunReport", "trajectories stats distances metadata")):
    """Everything a run produced: trajectories, their stats, pairwise distances and the models' notes.

    Dicts keyed by label (a pair of labels for ``distances``).
    """

    __slots__ = ()

    def summary_lines(self) -> list[str]:
        lines = [f"{label}: {st.describe()}" for label, st in self.stats.items()]
        lines += [f"sup |lambda_{a} - lambda_{b}| = {d:.6g} veh" for (a, b), d in self.distances.items()]
        return lines + [f"{key}: {value}" for key, value in self.metadata.items()]


def run_scenario(scenario: Scenario, models: list[str] | None = None, exact=False) -> RunReport:
    """Run a scenario (every model in ``models``, or its own) and report it; it writes nothing.

    Trajectories are keyed by label: the model name, or ``queue1``..
    ``queueN`` for a tandem.  When more than one model is named, every
    pair of trajectories gets its sup distance.  A model's notes (a
    tandem's conservation residual) go into the report metadata.  The
    models share one sampled grid; a model named twice raises.
    """
    produced = _run_models(scenario, models or [scenario.model], exact)
    runs, metadata = [], {}
    for name, trajectories in produced:
        runs += trajectories
        notes = MODELS[name].notes
        if notes is not None:
            metadata.update(notes(scenario, trajectories))
    distances = {(a.label, b.label): sup_distance(a, b) for a, b in combinations(runs, 2)} if len(produced) > 1 else {}
    trajectories = {t.label: t for t in runs}
    return RunReport(trajectories, {label: t.stats() for label, t in trajectories.items()}, distances, metadata)


def convergence_table(scenario: Scenario, models: list[str], dt_list: list[float]) -> list[dict]:
    """Max pairwise sup-norm distance between the models' trajectories for each step size.

    Needs at least two models; each step size samples one grid for all of
    them, and no trajectory stats are computed.
    """
    if len(models) < 2:
        got = ",".join(models)
        raise ValidationError(f"{scenario.source}: convergence compares at least two models (got --models {got!r})")
    rows = []
    for dt in dt_list:
        runs = [t for _, trajectories in _run_models(scenario.with_overrides(dt=dt), models) for t in trajectories]
        rows.append({"dt": dt, "max_distance": max(sup_distance(a, b) for a, b in combinations(runs, 2))})
    return rows
