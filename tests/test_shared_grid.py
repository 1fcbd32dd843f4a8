"""One grid per call: every model a call runs shares one sampling of the rates.

``run_scenario`` and ``convergence_table`` sample the demand and supply
profiles once per call (per step size for a convergence) and hand the same
lists to every model's runner.  These tests pin that the shared grid
changes no trajectory, that each profile is sampled once per call and
again by the next call, that a one-model run keeps its five columns and
no rate list, and the rejections of model lists that repeat a name or
leave nothing to compare.  A call checks every model it names (and a
convergence every step size's grid) before it samples or runs anything.
"""

import math
import sys
import tracemalloc
import weakref

import pytest

from pqsim import Constant, PiecewiseConstant, SineFloor, Trajectory, ValidationError, scenario_from_dict
from pqsim.cli import main
from pqsim.scenario import MODELS, convergence_table, load_scenario, run_scenario, simulate_model

# Every field any model needs, every bound admissible: demand 2000, supply 1200 veh/hr, 100 steps.
EVERY_MODEL = {
    "model": "pqm1",
    "demand": {"type": "sine_floor", "amplitude": 2000, "floor": 1000},
    "supply": {"type": "constant", "rate": 1200},
    "queue": {"capacity": 200, "initial": 20},
    "epsilon": 0.01,
    "link": {"length": 1, "lanes": 1, "free_flow_speed": 60, "wave_speed": 20, "jam_density": 150, "initial": 30},
    "queues": [{"capacity": 100, "initial": 10, "model": "pqm1"}, {"capacity": 50, "model": "pqm2"}],
    "dt": 0.005,
    "horizon": 0.5,
}
POINT_MODELS = "pqm1,pqm2,pqm3,pqm4,eps-pqm1,eps-pqm2,eps-pqm3,eps-pqm4"
RELAXED = "scenarios/sine_floor_relaxed.json"
LINK_SCENARIO = "scenarios/congested_link.json"


@pytest.mark.parametrize(
    "formulation, exact",
    [("A", False), ("B", False), ("A", True), ("B", True)],
)
def test_one_call_gives_what_separate_runs_give(formulation, exact):
    """Every MODELS row: the same trajectories, by repr and type, from one multi-model call as from one call each."""
    scenario = scenario_from_dict(dict(EVERY_MODEL, formulation=formulation))
    names = [name for name, spec in MODELS.items() if spec.exact or not exact]
    report = run_scenario(scenario, models=names, exact=exact)
    separate = [t for name in names for t in simulate_model(scenario, name, exact=exact)]
    assert list(report.trajectories) == [t.label for t in separate]
    for alone in separate:
        shared = report.trajectories[alone.label]
        assert type(shared) is type(alone) is Trajectory
        assert repr(shared) == repr(alone)


@pytest.fixture
def sampled(monkeypatch):
    """The profiles each ``rates_on_grid`` call sampled, in call order."""
    calls = []
    for cls in (Constant, PiecewiseConstant, SineFloor):

        def spy(self, n, dt, original=cls.rates_on_grid):
            calls.append(self)
            return original(self, n, dt)

        monkeypatch.setattr(cls, "rates_on_grid", spy)
    return calls


def test_compare_samples_each_profile_once_per_command(sampled, capsys):
    scenario = load_scenario(RELAXED)
    argv = ["compare", RELAXED, "--horizon", "0.05", "--models", POINT_MODELS]
    assert main(argv) == 0
    assert sampled == [scenario.demand, scenario.supply]
    # The next command samples again: nothing outlives a call.
    assert main(argv) == 0
    assert sampled == [scenario.demand, scenario.supply] * 2


def test_convergence_samples_each_profile_once_per_step_size(sampled, capsys):
    scenario = load_scenario(LINK_SCENARIO)
    assert main(["convergence", LINK_SCENARIO, "--models", "ltm,lqm", "--dt-list", "0.01,0.005"]) == 0
    assert sampled == [scenario.demand, scenario.supply] * 2


def test_convergence_computes_no_stats(monkeypatch):
    """Only the sup distances are reported, so no trajectory's stats are computed."""

    def stats(self):
        raise AssertionError("convergence_table computed stats")

    monkeypatch.setattr(Trajectory, "stats", stats)
    rows = convergence_table(load_scenario(LINK_SCENARIO), ["ltm", "lqm"], [0.01, 0.005])
    assert [row["dt"] for row in rows] == [0.01, 0.005] and all(row["max_distance"] > 0 for row in rows)


class _Sampled(list):
    """A rate list that a weak reference can watch."""

    __slots__ = ("__weakref__",)


@pytest.mark.parametrize("path, model", [(RELAXED, "pqm1"), (LINK_SCENARIO, "ltm")], ids=["pqm1", "ltm"])
def test_one_model_run_keeps_five_columns_and_no_rate_list(path, model, monkeypatch):
    """What a run keeps is its five stored columns, and its rate lists are gone before its trajectory is built.

    The kept memory is the five lists and their floats, to within half a
    list of pointers; a rate list kept past the call would add at least a
    whole one.  A rate list alive after the loop, while the run converts
    its columns, shows as a live weak reference when the trajectory is built.
    """
    scenario = load_scenario(path).with_overrides(model=model, dt=1e-4, horizon=0.5)
    simulate_model(scenario)
    tracemalloc.start()
    try:
        (traj,) = simulate_model(scenario)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    columns = [traj.queue, traj.arrivals, traj.departures, traj.inflow_rate, traj.outflow_rate]
    floats = {id(x): x for column in columns for x in column}.values()
    footprint = sum(map(sys.getsizeof, columns)) + sum(map(sys.getsizeof, floats))
    assert len(traj) == 5000 and kept < footprint + 8 * len(traj) / 2

    sampled, alive = [], []
    for cls in (Constant, PiecewiseConstant, SineFloor):

        def spy(self, n, dt, original=cls.rates_on_grid):
            rates = _Sampled(original(self, n, dt))
            sampled.append(weakref.ref(rates))
            return rates

        monkeypatch.setattr(cls, "rates_on_grid", spy)

    def init(self, *args, original=Trajectory.__init__):
        alive.append(sum(ref() is not None for ref in sampled))
        original(self, *args)

    monkeypatch.setattr(Trajectory, "__init__", init)
    assert simulate_model(scenario) == [traj]
    assert len(sampled) == 2 and alive == [0]


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", RELAXED, "--horizon", "0.05", "--models", "pqm1,PQM1"],
        ["simulate", "scenarios/tandem_spillback.json", "--horizon", "0.05", "--models", "tandem,tandem"],
        ["convergence", LINK_SCENARIO, "--models", "lqm,ltm,LQM", "--dt-list", "0.01"],
        ["convergence", LINK_SCENARIO, "--models", "lqm", "--dt-list", "0.01"],
    ],
)
def test_repeated_or_single_model_list_exits_2_naming_models(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "--models" in captured.err and captured.out == ""


def test_api_rejects_a_repeated_model_and_a_single_model_convergence():
    scenario = load_scenario(RELAXED).with_overrides(horizon=0.05)
    with pytest.raises(ValidationError, match="'pqm1' is named more than once"):
        run_scenario(scenario, models=["pqm1", "eps-pqm1", "PQM1"])
    with pytest.raises(ValidationError, match="at least two models"):
        convergence_table(scenario, ["pqm1"], [0.001])


def test_a_model_that_fails_its_check_stops_the_call_before_any_model_runs(sampled):
    """The models named ahead of the failing one neither run nor sample the rates."""
    scenario = load_scenario(RELAXED).with_overrides(horizon=0.2)
    with pytest.raises(ValidationError, match="PQM3-D requires dt <= capacity/sigma_max"):
        run_scenario(scenario.with_overrides(dt=0.2), models=["pqm1", "pqm3"])
    with pytest.raises(ValidationError, match="exact arithmetic is supported for the exact point models only"):
        run_scenario(scenario, models=["pqm1", "eps-pqm1"], exact=True)
    assert sampled == []


def test_compare_that_fails_a_bound_samples_and_writes_nothing(sampled, capsys, tmp_path):
    out = tmp_path / "failfast"
    argv = ["compare", "scenarios/sine_floor_single_queue.json", "--models", "pqm1,pqm3", "--dt", "0.2"]
    assert main([*argv, "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert "PQM3-D requires dt <=" in captured.err and captured.out == ""
    assert sampled == [] and not out.exists()


def test_convergence_checks_every_step_size_before_it_runs_any(sampled):
    with pytest.raises(ValidationError, match=r"dt must be positive and finite \(got nan; .*--dt/--dt-list"):
        convergence_table(load_scenario(LINK_SCENARIO), ["ltm", "lqm"], [0.01, math.nan])
    assert sampled == []
