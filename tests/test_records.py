"""The record types' contract, and what importing the CLI loads.

The frozen records are ``collections.namedtuple`` subclasses; the mutable
``Trajectory`` is a plain ``__slots__`` class.  None is a dataclass, so
``import pqsim.cli`` loads neither ``dataclasses`` nor ``typing``.  One
table pins, per public type: field names and order, defaults, equality,
hashing (``RunReport`` is frozen but holds dicts, so it has none), that
assigning a field of a frozen record raises ``AttributeError``, the
``Name(field=...)`` repr, and every constructor check, which a named
tuple's ``_replace`` and ``_make`` run too.
"""

import inspect
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

from pqsim import (
    Constant,
    Formulation,
    LinkParams,
    PiecewiseConstant,
    PqModel,
    QueueSpec,
    RunReport,
    Scenario,
    SineFloor,
    StationaryResult,
    TandemQueue,
    TandemSpec,
    Trajectory,
    TrajectoryStats,
    VickreySolution,
)
from pqsim.scenario import MAX_STEPS, ModelSpec

ROOT = Path(__file__).resolve().parents[1]
NAN, INF = math.nan, math.inf
QUEUE = QueueSpec(200.0)
COLUMN = [0.0]


def _scenario(**changes) -> tuple:
    """All twelve arguments of the ``Scenario`` row below, with ``changes``."""
    valid = Scenario("pqm1", Constant(1.0), Constant(2.0), 0.1, 1.0)
    return tuple({**valid._asdict(), **changes}.values())


def _record(cls, args, fields, defaults=None, frozen=True, bad=(), hashable=None):
    """One table row: ``args`` build a valid instance; ``bad`` lists (args, message) pairs that must raise.

    ``hashable`` defaults to ``frozen``.
    """
    hashable = frozen if hashable is None else hashable
    return pytest.param(cls, args, fields.split(), defaults or {}, frozen, hashable, bad, id=cls.__name__)


RECORDS = [
    _record(
        Scenario,
        ("pqm1", Constant(1.0), Constant(2.0), 0.1, 1.0),
        "model demand supply dt horizon queue link tandem epsilon formulation unsafe source",
        {
            "queue": None,
            "link": None,
            "tandem": None,
            "epsilon": None,
            "formulation": Formulation.QUEUE,
            "unsafe": False,
            "source": "<scenario>",
        },
        bad=[
            (_scenario(**{name: value}), message)
            for name, value, message in (
                ("model", "nope", "unknown model 'nope'; valid: pqm1"),
                ("model", 5, "field 'model' must be a str"),
                ("demand", 1000, "field 'demand' must be a Profile"),
                ("supply", None, "field 'supply' must be a Profile"),
                ("dt", "0.01", "field 'dt' must be a finite number"),
                ("dt", True, "field 'dt' must be a finite number"),
                ("horizon", None, "field 'horizon' must be a finite number"),
                ("queue", 200, "field 'queue' must be a QueueSpec"),
                ("link", QUEUE, "field 'link' must be a LinkParams"),
                ("tandem", (), "field 'tandem' must be a TandemSpec"),
                ("epsilon", 0.0, "epsilon must be positive and finite .*field 'epsilon' or --eps"),
                ("epsilon", NAN, "epsilon must be positive and finite .*field 'epsilon' or --eps"),
                ("epsilon", "0.1", "field 'epsilon' must be a finite number"),
                ("formulation", "B", "field 'formulation' must be a Formulation"),
                ("unsafe", "no", "field 'unsafe' must be a bool"),
                ("dt", 0.3, "horizon 1 hr is not a whole number of steps .*fields 'dt' and 'horizon'"),
                ("horizon", (MAX_STEPS + 1) * 0.1, f"exceeds {MAX_STEPS} steps .*fields 'dt' and 'horizon'"),
            )
        ],
    ),
    _record(
        QueueSpec,
        (200.0, 10.0),
        "capacity initial",
        {"initial": 0.0},
        bad=[
            ((0.0,), "capacity must be positive and finite, or None"),
            ((10.0, -1.0), "initial content must be nonnegative and finite"),
            ((10.0, 11.0), "initial content 11.0 exceeds capacity 10.0"),
            ((None, -1.0), "initial content must be nonnegative and finite"),
            ((NAN,), "capacity must be positive and finite, or None"),
            ((INF,), "capacity must be positive and finite, or None"),
            ((200.0, NAN), "initial content must be nonnegative and finite"),
            ((None, INF), "initial content must be nonnegative and finite"),
        ],
    ),
    _record(
        LinkParams,
        (1.0, 2.0, 60.0, 20.0, 150.0, 75.0),
        "length lanes free_flow_speed wave_speed jam_density initial",
        {"initial": 0.0},
        bad=[
            (tuple(bad if j == i else 1.0 for j in range(5)), f"{name} must be positive and finite")
            for i, name in enumerate(("length", "lanes", "free_flow_speed", "wave_speed", "jam_density"))
            for bad in (0.0, -1.0, NAN, INF)
        ]
        + [
            ((1.0, 2.0, 60.0, 20.0, 150.0, bad), re.escape(f"initial must lie in [0, 300] (got {bad:g})"))
            for bad in (-1.0, 300.5, NAN)
        ],
    ),
    _record(TandemQueue, (QUEUE, PqModel.PQM3), "spec model", {"model": PqModel.PQM1}),
    _record(TandemSpec, ((TandemQueue(QUEUE),),), "queues", bad=[(((),), "at least one queue")]),
    _record(Constant, (1200.0,), "rate", bad=[((bad,), "rate must be nonnegative") for bad in (-1.0, NAN)]),
    _record(
        PiecewiseConstant,
        ((0.0, 1.0), (1.0, 2.0)),
        "breakpoints rates",
        bad=[
            (((0.0, 1.0), (1.0,)), "equal, nonzero length"),
            (((), ()), "equal, nonzero length"),
            (((1.0,), (1.0,)), "first breakpoint must be 0"),
            (((0.0, 0.0), (1.0, 1.0)), "strictly increasing"),
            (((0.0,), (-1.0,)), "rates must be nonnegative"),
            (((0.0, NAN), (1.0, 2.0)), "strictly increasing"),
            (((0.0, 1.0), (5.0, NAN)), "rates must be nonnegative"),
        ],
    ),
    _record(
        SineFloor,
        (2000.0, 1000.0),
        "amplitude floor",
        bad=[((a, f), "amplitude > floor >= 0") for a, f in ((1000.0, 1000.0), (1000.0, -1.0), (NAN, 0.0), (1.0, NAN))],
    ),
    _record(
        TrajectoryStats,
        (5.0, 0.5, 0.1, 0.6, 0.9, 0.0),
        "max_queue max_queue_time first_positive_time dissipation_start_time vanish_time min_queue_after_peak",
    ),
    _record(StationaryResult, (0.0, 1.0, 2.0, True), "queue_lo queue_hi flux limit_of_discrete", {"limit_of_discrete": False}),
    _record(VickreySolution, (0.1, (0.0,), (0.0,), (0.0,), (0.0,), None), "dt grid arrivals departures queue waiting"),
    _record(ModelSpec, (("queue",), None, print), "needs check run notes exact", {"notes": None, "exact": False}),
    _record(
        Trajectory,
        ("x", 0.1, COLUMN, COLUMN, COLUMN, COLUMN, COLUMN),
        "label dt queue arrivals departures inflow_rate outflow_rate",
        frozen=False,
        bad=[
            (("x", 0.1, COLUMN, [], COLUMN, COLUMN, COLUMN), "column arrivals has length 0, expected 1"),
            (("x", 0.1, COLUMN, COLUMN, COLUMN, COLUMN, [1.0, 2.0]), "column outflow_rate has length 2"),
        ],
    ),
    _record(RunReport, ({}, {}, {}, {}), "trajectories stats distances metadata", hashable=False),
]


@pytest.mark.parametrize("cls, args, fields, defaults, frozen, hashable, bad", RECORDS)
def test_record_contract(cls, args, fields, defaults, frozen, hashable, bad):
    assert list(inspect.signature(cls).parameters) == fields
    required = len(fields) - len(defaults)
    assert list(defaults) == fields[required:]
    bare = cls(*args[:required])
    assert {name: getattr(bare, name) for name in defaults} == defaults

    record, twin = cls(*args), cls(*args)
    assert [getattr(record, name) for name in fields] == [*args, *list(defaults.values())[len(args) - required:]]
    assert record == twin and not record != twin
    assert repr(record).startswith(f"{cls.__name__}({fields[0]}={args[0]!r}")
    if hashable:
        assert hash(record) == hash(twin)
    else:
        with pytest.raises(TypeError):
            hash(record)
    if frozen:
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
    for bad_args, message in bad:
        with pytest.raises(ValueError, match=message):
            cls(*bad_args)
    if hasattr(cls, "_replace"):
        assert record._replace() == record and type(cls._make(record)) is cls
        for bad_args, message in bad:
            with pytest.raises(ValueError, match=message):
                record._replace(**dict(zip(fields, bad_args)))
            with pytest.raises(ValueError, match=message):
                cls._make(bad_args)


def test_cached_values_read_as_plain_attributes():
    """Derived values are computed once, then read from the instance dict; a tandem keeps none."""
    link = LinkParams(1.0, 1.0, 60.0, 20.0, 150.0)
    assert (link.storage, link.capacity) == (150.0, 2250.0) and "capacity" in vars(link)
    spec = TandemSpec([TandemQueue(QueueSpec(None)), TandemQueue(QUEUE, PqModel.PQM2)])
    assert type(spec.queues) is tuple and not hasattr(spec, "__dict__")
    profile = PiecewiseConstant([0, 1], [3, 5])
    assert profile.breakpoints == (0.0, 1.0) and type(profile.rates[0]) is float
    assert profile.cumulative(2.0) == 8.0 and vars(profile)["_cum"] == (0.0, 3.0)


def test_cli_import_leaves_out_dataclasses_typing_and_fractions():
    """A fresh interpreter without ``site`` (which preloads ``typing`` on some hosts) imports the CLI.

    ``csv`` stays out too: only ``Trajectory.from_csv`` reads one.  Then an
    exact run still imports ``fractions`` on demand and records what the
    same run records here.
    """
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import pqsim.cli\n"
        "print([m for m in ('dataclasses', 'typing', 'inspect', 'fractions', 'decimal', 'csv') if m in sys.modules])\n"
        "from pqsim.scenario import load_scenario, simulate_model\n"
        "(traj,) = simulate_model(load_scenario(sys.argv[2]).with_overrides(horizon=0.2), exact=True)\n"
        "print('fractions' in sys.modules, traj.queue)\n"
    )
    path = ROOT / "scenarios" / "sine_floor_single_queue.json"
    done = subprocess.run(
        [sys.executable, "-S", "-c", code, str(ROOT / "src"), str(path)], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    from pqsim.scenario import load_scenario, simulate_model

    (traj,) = simulate_model(load_scenario(path).with_overrides(horizon=0.2), exact=True)
    assert done.stdout.splitlines() == ["[]", f"True {traj.queue!r}"]
