"""Tests for scenario parsing, validation, runners, CSV output and the CLI."""

import csv
import importlib
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pqsim
from pqsim import (
    Constant,
    Formulation,
    LinkParams,
    ScenarioError,
    Trajectory,
    ValidationError,
    load_scenario,
    run_scenario,
    scenario_from_dict,
    simulate_model,
)
from pqsim import cli
from pqsim.cli import main
from pqsim.scenario import MAX_STEPS, convergence_table, validate_model

BASE = {
    "model": "pqm2",
    "demand": {"type": "sine_floor", "amplitude": 2000, "floor": 1000},
    "supply": {"type": "constant", "rate": 1200},
    "queue": {"capacity": 200, "initial": 0},
    "dt": 0.01,
    "horizon": 2.0,
}


def make(path, doc):
    path.write_text(json.dumps(doc))
    return path


class TestParsing:
    def test_valid_scenario(self):
        s = scenario_from_dict(dict(BASE))
        assert s.model == "pqm2" and s.queue.capacity == 200.0

    def test_missing_field_is_named(self):
        doc = dict(BASE)
        del doc["supply"]
        with pytest.raises(ScenarioError, match="'supply'"):
            scenario_from_dict(doc)

    def test_unknown_model_lists_choices(self):
        doc = dict(BASE, model="pqm9")
        with pytest.raises(ScenarioError, match="valid:.*pqm1"):
            scenario_from_dict(doc)

    def test_bad_profile_field(self):
        doc = dict(BASE, demand={"type": "sine_floor", "floor": 1000})
        with pytest.raises(ScenarioError, match="demand.*amplitude"):
            scenario_from_dict(doc)

    def test_bad_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"model": "pqm1",\n  "dt": }')
        with pytest.raises(ScenarioError, match=r"broken\.json:2:"):
            load_scenario(path)

    def test_round_trip_through_dict(self, tmp_path):
        """The document loaded from a file and parsed as a dict give one scenario, bar its source."""
        path = make(tmp_path / "s.json", BASE)
        assert load_scenario(path) == scenario_from_dict(dict(BASE))._replace(source=str(path))

    def test_tandem_queues_parsed(self):
        doc = dict(BASE, model="tandem", queues=[
            {"capacity": None, "initial": 0, "model": "pqm1"},
            {"capacity": 200, "initial": 0, "model": "pqm1"},
        ])
        s = scenario_from_dict(doc)
        assert len(s.tandem.queues) == 2
        assert s.tandem.queues[0].spec.capacity is None


class TestValidation:
    def test_step_bound_message_names_the_bound(self):
        doc = dict(BASE, model="pqm3", dt=0.2)
        with pytest.raises(ValidationError, match=r"PQM3-D requires dt <= capacity/sigma_max = 0.1667 hr"):
            simulate_model(scenario_from_dict(doc))

    def test_pqm4_bound(self):
        doc = dict(BASE, model="pqm4", dt=0.15, horizon=1.5)  # bound 200/2000 = 0.1; 10 whole steps
        with pytest.raises(ValidationError, match="capacity/delta_max = 0.1"):
            simulate_model(scenario_from_dict(doc))

    def test_bound_is_decided_exactly(self):
        """dt = capacity/sigma_max as a float lies half an ulp past the bound, where exact A and B leave [0, C]."""
        capacity, sigma = 250.66240133911356, 263.0499081000126
        dt = capacity / sigma
        doc = dict(
            BASE,
            model="pqm3",
            demand={"type": "constant", "rate": 5000},
            supply={"type": "constant", "rate": sigma},
            queue={"capacity": capacity, "initial": capacity},
            dt=dt,
            horizon=dt,
        )
        with pytest.raises(ValidationError, match=r"PQM3-D requires dt <= capacity/sigma_max = 0.9529 hr"):
            simulate_model(scenario_from_dict(doc), exact=True)
        with pytest.raises(ValidationError, match=r"capacity/sigma_max = 0 hr"):  # only the Python API takes inf
            simulate_model(scenario_from_dict(doc)._replace(supply=Constant(math.inf)))
        # The next float down is within the bound: there exact A and B agree and stay in [0, C].
        below = math.nextafter(dt, 0.0)
        scenario = scenario_from_dict(dict(doc, dt=below, horizon=3 * below))
        a, b = (simulate_model(scenario._replace(formulation=f), exact=True)[0] for f in Formulation)
        assert a.queue == b.queue and len(a) == 3
        assert all(0.0 <= q <= capacity for q in a.queue)

    def test_unsafe_skips_bound(self):
        doc = dict(BASE, model="pqm3", dt=0.2, horizon=1.0, unsafe=True)
        (traj,) = simulate_model(scenario_from_dict(doc))
        assert min(traj.queue) < 0  # the admissibility failure is visible

    def test_eps_requires_epsilon(self):
        doc = dict(BASE, model="eps-pqm1")
        with pytest.raises(ValidationError, match="'epsilon'"):
            simulate_model(scenario_from_dict(doc))

    def test_eps_step_bound(self):
        doc = dict(BASE, model="eps-pqm1", epsilon=0.001, dt=0.01)
        with pytest.raises(ValidationError, match="dt <= epsilon"):
            simulate_model(scenario_from_dict(doc))

    def test_eps_relaxation_bound(self):
        doc = dict(BASE, model="eps-pqm3", epsilon=0.25, dt=0.01)
        with pytest.raises(ValidationError, match="eps-PQM3 requires epsilon <= capacity/sigma_max"):
            simulate_model(scenario_from_dict(doc))

    def test_link_model_needs_link(self):
        doc = dict(BASE, model="lqm")
        with pytest.raises(ValidationError, match="'link'"):
            simulate_model(scenario_from_dict(doc))

    def test_missing_queue_section(self):
        doc = dict(BASE)
        del doc["queue"]
        with pytest.raises(ValidationError, match="'queue'"):
            simulate_model(scenario_from_dict(doc))


class TestRunScenario:
    def test_csv_columns_and_rows(self, tmp_path):
        report = run_scenario(scenario_from_dict(dict(BASE)))
        path = report.trajectories["pqm2"].write_csv(tmp_path / "pqm2.csv")
        header = path.read_text().splitlines()[0]
        assert header == "t,lambda,F,G,f,g"
        assert len(path.read_text().splitlines()) == 201  # header + 200 steps

    def test_single_step_scenario_single_row(self, tmp_path):
        """horizon == dt with zero demand: one row carrying the initial content."""
        doc = dict(BASE, model="pqm1", horizon=0.01)
        doc["demand"] = {"type": "constant", "rate": 0}
        doc["queue"] = {"capacity": 200, "initial": 50}
        report = run_scenario(scenario_from_dict(doc))
        rows = report.trajectories["pqm1"].write_csv(tmp_path / "pqm1.csv").read_text().splitlines()
        assert len(rows) == 2
        assert rows[1].startswith("0.0,50.0,")

    def test_stats_recomputable_from_csv(self, tmp_path):
        report = run_scenario(scenario_from_dict(dict(BASE)))
        reloaded = Trajectory.from_csv(report.trajectories["pqm2"].write_csv(tmp_path / "pqm2.csv"))
        assert reloaded.stats() == report.stats["pqm2"]

    def test_identical_runs_are_byte_identical(self, tmp_path):
        a, b = (
            run_scenario(scenario_from_dict(dict(BASE))).trajectories["pqm2"].write_csv(tmp_path / name / "pqm2.csv")
            for name in "ab"
        )
        assert a.read_bytes() == b.read_bytes()

    def test_compare_single_variant_zero_distance(self):
        report = run_scenario(scenario_from_dict(dict(BASE)), models=["pqm2"])
        assert max(report.distances.values(), default=0.0) == 0.0

    def test_compare_reports_pairwise_distances(self):
        report = run_scenario(scenario_from_dict(dict(BASE)), models=["pqm1", "pqm2", "pqm3"])
        assert set(report.distances) == {("pqm1", "pqm2"), ("pqm1", "pqm3"), ("pqm2", "pqm3")}
        assert max(report.distances.values()) > 0

    def test_convergence_table_monotone(self):
        rows = convergence_table(scenario_from_dict(dict(BASE)), ["pqm1", "pqm2"], [0.01, 0.001])
        assert rows[1]["max_distance"] < rows[0]["max_distance"]

    def test_tandem_run_reports_conservation(self):
        doc = dict(BASE, model="tandem", dt=0.001, queues=[
            {"capacity": None, "initial": 0, "model": "pqm1"},
            {"capacity": 200, "initial": 0, "model": "pqm1"},
        ])
        report = run_scenario(scenario_from_dict(doc))
        assert report.metadata["max_conservation_residual"] <= 1e-9
        assert report.metadata["mixed_variant_tandem"] is False
        assert set(report.trajectories) == {"queue1", "queue2"}
        assert [t.label for t in simulate_model(scenario_from_dict(doc), "tandem")] == ["queue1", "queue2"]

    def test_vickrey_ignores_capacity(self):
        doc = dict(BASE, model="vickrey", dt=0.001)
        (traj,) = simulate_model(scenario_from_dict(doc))
        assert max(traj.queue) > 200  # unbounded storage exceeds the finite cap


class TestCli:
    def test_simulate_success(self, tmp_path, capsys):
        scenario = make(tmp_path / "s.json", BASE)
        assert main(["simulate", str(scenario), "--out-dir", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "max lambda = 188" in out
        assert (tmp_path / "out" / "pqm2.csv").exists()

    def test_validation_failure_exit_code(self, tmp_path, capsys):
        scenario = make(tmp_path / "s.json", dict(BASE, model="pqm3", dt=0.2))
        assert main(["simulate", str(scenario)]) == 2
        assert "0.1667" in capsys.readouterr().err

    def test_parse_failure_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["simulate", str(bad)]) == 2
        assert "bad.json" in capsys.readouterr().err

    def test_unsafe_flag_allows_violations(self, tmp_path, capsys):
        scenario = make(tmp_path / "s.json", dict(BASE, model="pqm3", dt=0.2, horizon=1.0))
        out_dir = tmp_path / "out"
        assert main(["simulate", str(scenario), "--unsafe", "--out-dir", str(out_dir)]) == 0
        reloaded = Trajectory.from_csv(out_dir / "pqm3.csv")
        assert min(reloaded.queue) < 0

    def test_relaxed_step_past_epsilon_needs_unsafe(self, tmp_path, capsys):
        """dt = 0.2 > eps = 0.1 exits 2; --unsafe runs it unclamped, past capacity 200: 0, 160, 240, 160, ..."""
        doc = dict(BASE, model="eps-pqm1", demand={"type": "constant", "rate": 2000}, epsilon=0.1, dt=0.2)
        scenario = make(tmp_path / "s.json", doc)
        assert main(["simulate", str(scenario)]) == 2
        assert "relaxed models require dt <= epsilon = 0.1 hr (got dt = 0.2)" in capsys.readouterr().err
        assert main(["simulate", str(scenario), "--unsafe", "--out-dir", str(tmp_path / "out")]) == 0
        assert max(Trajectory.from_csv(tmp_path / "out" / "eps-pqm1.csv").queue) == 240.0

    def test_compare_command(self, tmp_path, capsys):
        scenario = make(tmp_path / "s.json", BASE)
        code = main(["compare", str(scenario), "--models", "pqm1,pqm2,pqm3,pqm4",
                     "--out-dir", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "sup |lambda_pqm1 - lambda_pqm2|" in out
        assert (tmp_path / "out" / "comparison.csv").exists()

    def test_convergence_command(self, tmp_path, capsys):
        scenario = make(tmp_path / "s.json", BASE)
        code = main(["convergence", str(scenario), "--models", "pqm1,pqm2", "--dt-list", "0.01,0.001"])
        assert code == 0
        out = capsys.readouterr().out
        assert "max pairwise sup distance" in out
        assert "0.001" in out

    def test_stationary_command(self, capsys):
        assert main(["stationary", "--delta", "2000", "--sigma", "1200", "--capacity", "200"]) == 0
        assert "lambda=200" in capsys.readouterr().out
        assert main(["stationary", "--delta", "1200", "--sigma", "1200", "--capacity", "200"]) == 0
        assert "lambda in [0, 200]" in capsys.readouterr().out
        assert main(["stationary", "--delta", "2000", "--sigma", "1200", "--capacity", "200",
                     "--eps", "0.001", "--model", "eps-pqm3"]) == 0
        assert "lambda=198.8" in capsys.readouterr().out

    def test_stationary_eps_needs_model(self, capsys):
        assert main(["stationary", "--delta", "2000", "--sigma", "1200", "--capacity", "200",
                     "--eps", "0.001"]) == 2

    def test_vickrey_command(self, tmp_path, capsys):
        scenario = make(tmp_path / "s.json", dict(BASE, dt=0.001))
        assert main(["vickrey", str(scenario), "--out-dir", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "vickrey_closed_form.csv").exists()

    def test_tandem_command(self, tmp_path, capsys):
        doc = dict(BASE, model="tandem", dt=0.001, queues=[
            {"capacity": None, "initial": 0, "model": "pqm1"},
            {"capacity": 200, "initial": 0, "model": "pqm1"},
        ])
        scenario = make(tmp_path / "s.json", doc)
        assert main(["tandem", str(scenario), "--out-dir", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "max_conservation_residual" in out
        assert (tmp_path / "out" / "queue2.csv").exists()

    def test_bundled_scenarios_parse(self):
        for name in (
            "scenarios/sine_floor_single_queue.json",
            "scenarios/sine_floor_relaxed.json",
            "scenarios/tandem_spillback.json",
            "scenarios/congested_link.json",
        ):
            load_scenario(name)


LINK = {"length": 1, "lanes": 1, "free_flow_speed": 60, "wave_speed": 20, "jam_density": 150}
QUEUES = [{"capacity": None, "initial": 0}, {"capacity": 200, "initial": 0}]


@pytest.mark.parametrize(
    "doc, field",
    [
        (dict(BASE, horizon=math.inf), "horizon"),
        (dict(BASE, dt=math.nan), "dt"),
        (dict(BASE, queue={"capacity": math.nan, "initial": 0}), "queue.capacity"),
        (dict(BASE, queue={"capacity": 200, "initial": math.inf}), "queue.initial"),
        (dict(BASE, model="ltm", link=dict(LINK, length=math.nan)), "link.length"),
        (dict(BASE, model="tandem", queues=[QUEUES[0], dict(QUEUES[1], capacity=math.inf)]), "queues[1].capacity"),
        (dict(BASE, demand={"type": "constant", "rate": math.nan}), "demand.rate"),
        (dict(BASE, supply={"type": "piecewise_constant", "breakpoints": [0, 1], "rates": [1200, math.inf]}),
         "supply.rates[1]"),
        (dict(BASE, demand={"type": "sine_floor", "amplitude": math.inf, "floor": 1000}), "demand.amplitude"),
        (dict(BASE, demand={"type": "constant", "rate": 10**400}), "demand.rate"),  # an int no float holds
    ],
)
def test_non_finite_numbers_rejected_with_field_named(tmp_path, capsys, doc, field):
    """JSON NaN/Infinity and ints past the floats exit 2 at parse time, never as a run or an internal error."""
    scenario = make(tmp_path / "s.json", doc)
    assert main(["simulate", str(scenario)]) == 2
    assert f"field '{field}' must be a finite number" in capsys.readouterr().err


# Every section and field a scenario can hold, in one valid document, and values of the wrong type for each
# kind of field: true, "1", null, [1] and {}, with a value of another type in place of one the kind
# admits ([1] is a list of numbers, "1" a str, true a bool; a null capacity means unbounded storage).
FULL = dict(
    BASE,
    supply={"type": "piecewise_constant", "breakpoints": [0, 1], "rates": [1200, 1000]},
    epsilon=0.02,
    link=dict(LINK, initial=0),
    queues=QUEUES,
)
NUMBER = (True, "1", None, [1], {})
KINDS = {
    "number": NUMBER,
    "capacity": (True, "1", [1], {}),
    "list": (True, "1", None, 1, {}),
    "str": (True, 1, None, [1], {}),
    "bool": ("1", 1, None, [1], {}),
    "section": (True, "1", None, [1], 1),
}
FIELDS = {
    "number": ("dt", "horizon", "epsilon", "queue.initial", "queues[1].initial",
               *(f"link.{name}" for name in (*LINK, "initial")),
               "demand.amplitude", "demand.floor", "supply.breakpoints[1]", "supply.rates[0]"),
    "capacity": ("queue.capacity", "queues[1].capacity"),
    "list": ("supply.breakpoints", "supply.rates", "queues"),
    "str": ("model", "formulation", "queues[0].model", "demand.type"),
    "bool": ("unsafe",),
    "section": ("demand", "supply", "queue", "link", "queues[1]"),
}


def _with(doc, path, value):
    """A deep copy of ``doc`` with ``value`` at ``path``, such as ``queues[1].capacity``."""
    doc = json.loads(json.dumps(doc))
    *parents, last = [int(key) if key.isdigit() else key for key in path.replace("[", ".").replace("]", "").split(".")]
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    return doc


def test_the_full_document_runs(tmp_path):
    """The document the ill-typed cases start from is valid, so each case fails on its one field."""
    assert main(["simulate", str(make(tmp_path / "s.json", FULL))]) == 0
    assert main(["simulate", str(make(tmp_path / "s.json", dict(FULL, demand={"type": "constant", "rate": 1})))]) == 0


@pytest.mark.parametrize(
    "field, value",
    [(field, value) for kind, fields in FIELDS.items() for field in fields for value in KINDS[kind]]
    + [("demand.rate", value) for value in NUMBER],
    ids=lambda item: item if isinstance(item, str) else json.dumps(item),
)
def test_ill_typed_fields_rejected_with_path_named(tmp_path, capsys, field, value):
    """Each field read as a number, list, str, bool or section exits 2 naming its full path, never exit 1 or a run."""
    doc = dict(FULL, demand={"type": "constant", "rate": 1000}) if field == "demand.rate" else FULL
    scenario = make(tmp_path / "s.json", _with(doc, field, value))
    assert main(["simulate", str(scenario)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"{scenario}: field '{field}' must be a" in captured.err


@pytest.mark.parametrize("model", ["ltm", "lqm"])
@pytest.mark.parametrize("initial", [-1.0, 150.5, 1e6])
def test_link_initial_outside_the_storage_rejected(tmp_path, capsys, model, initial):
    """Storage is 150 veh: the content is rejected at parse, under unsafe too, and by ``LinkParams`` in Python."""
    doc = dict(BASE, model=model, dt=0.001, link=dict(LINK, initial=initial))
    scenario = make(tmp_path / "s.json", doc)
    message = f"initial must lie in [0, 150] (got {initial:g})"
    assert main(["simulate", str(scenario), "--unsafe"]) == 2
    assert f"{scenario}: link: {message}" in capsys.readouterr().err
    with pytest.raises(ValueError, match=re.escape(message)):
        LinkParams(**LINK, initial=initial)
    built = scenario_from_dict(dict(doc, link=LINK), source="s.json")
    validate_model(built._replace(link=LinkParams(**LINK, initial=150.0)), model)  # a full link is admissible
    assert built.link.initial == 0.0  # a missing content is an empty link


def test_vickrey_names_the_file_and_field_of_a_nonzero_initial_content(tmp_path, capsys):
    """The closed form needs an empty queue: exit 2 naming the file and 'queue.initial'; the run path starts loaded."""
    scenario = make(tmp_path / "s.json", dict(BASE, queue={"capacity": 200, "initial": 5}))
    assert main(["vickrey", str(scenario)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {scenario}: the closed form needs field 'queue.initial' = 0 (got 5)\n"
    assert main(["simulate", str(scenario), "--models", "vickrey"]) == 0


@pytest.mark.parametrize(
    "field, text, problem",
    [
        ("demand", "[" * 980 + "]" * 980, "field 'demand' must be a dict (got [[[[[["),
        ("queue.capacity", json.dumps([0] * 5000), "field 'queue.capacity' must be a finite number (got [0, 0, "),
        ("model", json.dumps("m" * 10**5), "unknown model 'mmmm"),
    ],
    ids=["deep-demand", "long-capacity", "long-model"],
)
def test_long_bad_values_echo_briefly(tmp_path, field, text, problem):
    """A bad value is echoed shortened: exit 2 naming the field, stderr under 300 bytes whatever the value's size.

    A fresh CLI process, so the 980-deep array parses within the default recursion limit as it does for a user.
    """
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(_with(BASE, field, "@")).replace('"@"', text))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "pqsim.cli", "simulate", str(scenario)], capture_output=True, env=env, timeout=120
    )
    assert done.returncode == 2 and done.stdout == b""
    assert done.stderr.startswith(f"error: {scenario}: {problem}".encode()) and len(done.stderr) < 300


class TestTandemThroughModels:
    TANDEM = ["scenarios/tandem_spillback.json", "--dt", "0.001"]

    def test_compare_measures_each_tandem_queue_against_vickrey(self, capsys):
        assert main(["compare", *self.TANDEM, "--models", "vickrey,tandem"]) == 0
        lines = [line.split(" = ")[0] for line in capsys.readouterr().out.splitlines() if line.startswith("sup |")]
        assert lines == [
            "sup |lambda_vickrey - lambda_queue1|",
            "sup |lambda_vickrey - lambda_queue2|",
            "sup |lambda_queue1 - lambda_queue2|",
        ]

    def test_simulate_models_tandem_matches_the_tandem_subcommand(self, tmp_path, capsys):
        outputs = []
        for name, argv in (("a", ["tandem", *self.TANDEM]), ("b", ["simulate", *self.TANDEM, "--models", "tandem"])):
            assert main([*argv, "--out-dir", str(tmp_path / name)]) == 0
            outputs.append(capsys.readouterr().out.replace(str(tmp_path / name), "OUT"))
        assert outputs[0] == outputs[1] and "max_conservation_residual" in outputs[0]
        for csv in ("queue1.csv", "queue2.csv"):
            assert (tmp_path / "a" / csv).read_bytes() == (tmp_path / "b" / csv).read_bytes()


def test_public_names_are_pinned():
    assert sorted(pqsim.__all__) == sorted([
        "Constant", "Formulation", "LinkParams", "LqmSimulation", "LtmSimulation", "PiecewiseConstant",
        "PqModel", "PqsimError", "Profile", "QueueSpec", "RunReport", "Scenario", "ScenarioError",
        "SineFloor", "StationaryResult", "TandemQueue", "TandemSpec", "Trajectory", "TrajectoryStats",
        "ValidationError", "VickreySolution", "convergence_table", "load_scenario", "profile_from_dict",
        "run_scenario", "scenario_from_dict", "simulate_model", "sine_floor", "stationary_eps",
        "stationary_exact", "step_tandem", "sup_distance", "vickrey_closed_form", "well_definedness_bound",
    ])


def test_each_public_name_is_declared_once_by_its_own_module():
    """A name of ``pqsim.__all__`` is in exactly one module's ``__all__``, defined there; ``import *`` binds just those."""
    modules = [importlib.import_module(f"pqsim.{info.name}") for info in pkgutil.iter_modules(pqsim.__path__)]
    for name in pqsim.__all__:
        owners = [module for module in modules if name in getattr(module, "__all__", ())]
        assert len(owners) == 1, (name, owners)
        obj = getattr(owners[0], name)
        assert getattr(pqsim, name) is obj and obj.__module__ == owners[0].__name__, name
    assert sorted(name for module in modules for name in getattr(module, "__all__", ())) == sorted(pqsim.__all__)
    namespace = {}
    exec("from pqsim import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(pqsim.__all__)


CONSTANT = dict(BASE, demand={"type": "constant", "rate": 1000}, horizon=1.0)
GRID_FIELDS = ("'dt'", "'horizon'", "--dt", "--horizon")


def test_step_count_capped_before_any_allocation(tmp_path, capsys):
    """dt = 1e-12 over 1 hr asks for 1e12 steps: exit 2 naming both fields and flags, under --unsafe too."""
    scenario = make(tmp_path / "s.json", CONSTANT)
    assert main(["simulate", str(scenario), "--dt", "1e-12", "--unsafe"]) == 2
    err = capsys.readouterr().err
    assert f"exceeds {MAX_STEPS} steps" in err and all(name in err for name in GRID_FIELDS)
    at_cap = scenario_from_dict(dict(CONSTANT, dt=1e-6, horizon=MAX_STEPS * 1e-6))
    with pytest.raises(ValidationError, match="exceeds"):
        at_cap._replace(horizon=(MAX_STEPS + 1) * 1e-6)


@pytest.mark.parametrize("command", ["simulate", "vickrey"])
def test_horizon_must_be_a_whole_number_of_steps(tmp_path, capsys, command):
    """dt = 0.3 over 1 hr would stop after 3 steps at 0.9 hr."""
    scenario = make(tmp_path / "s.json", CONSTANT)
    assert main([command, str(scenario), "--dt", "0.3", "--unsafe"]) == 2
    err = capsys.readouterr().err
    assert "horizon 1 hr is not a whole number of steps dt = 0.3 hr" in err and all(name in err for name in GRID_FIELDS)


@pytest.mark.parametrize("model", ["foo", "ltm"])
@pytest.mark.parametrize(
    "extra, valid", [([], "pqm1, pqm2, pqm3, pqm4"), (["--eps", "0.1"], "eps-pqm1, eps-pqm2, eps-pqm3, eps-pqm4")]
)
def test_stationary_model_names_the_flag_and_the_choices(capsys, model, extra, valid):
    argv = ["stationary", "--delta", "1", "--sigma", "1", "--capacity", "1", *extra, "--model", model]
    assert main(argv) == 2
    assert f"--model must be one of {valid} (got {model!r})" in capsys.readouterr().err


RELAXED = "scenarios/sine_floor_relaxed.json"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["simulate", RELAXED, "--horizon", "inf"], "--horizon"),
        (["simulate", RELAXED, "--horizon", "nan"], "--horizon"),
        (["simulate", RELAXED, "--horizon", "-1", "--unsafe"], "--horizon"),
        (["simulate", RELAXED, "--dt", "nan"], "--dt"),
        (["simulate", RELAXED, "--dt", "inf", "--unsafe"], "--dt"),
        (["simulate", RELAXED, "--eps", "nan"], "--eps"),
        (["simulate", RELAXED, "--eps", "inf"], "--eps"),
        (["simulate", RELAXED, "--eps", "nan", "--unsafe"], "--eps"),
        (["simulate", RELAXED, "--eps", "0", "--unsafe"], "--eps"),
        (["vickrey", "scenarios/sine_floor_single_queue.json", "--horizon", "inf"], "--horizon"),
        (["tandem", "scenarios/tandem_spillback.json", "--dt", "nan"], "--dt"),
        (["convergence", "scenarios/congested_link.json", "--models", "ltm,lqm", "--dt-list", "0.01,nan"],
         "--dt-list"),
    ],
)
def test_bad_grid_overrides_rejected_with_flag_named(capsys, argv, flag):
    """A non-finite or non-positive dt, eps or horizon exits 2 naming its flag, under --unsafe too."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "must be positive and finite" in err and flag in err


class TestUnsafeLinks:
    def test_link_step_bound_without_unsafe(self, capsys):
        assert main(["simulate", "scenarios/congested_link.json", "--dt", "0.05"]) == 2
        assert "LQM requires dt <= min(T1, T2)" in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["lqm", "ltm"])
    def test_unsafe_runs_link_models_past_the_step_bound(self, tmp_path, capsys, model):
        argv = ["simulate", "scenarios/congested_link.json", "--dt", "0.05", "--unsafe", "--models", model]
        assert main([*argv, "--out-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out.startswith(f"{model}: max lambda")
        if model == "lqm":  # the explicit step overshoots: the run shows it instead of stopping
            assert min(Trajectory.from_csv(tmp_path / "lqm.csv").queue) < 0


class TestCachedParser:
    """``main`` reuses one parser per process; no call may see another's arguments."""

    def test_one_parser_per_process(self):
        assert cli._parser() is cli._parser()

    def test_flags_and_subcommand_do_not_carry_over(self, tmp_path, capsys):
        scenario = str(make(tmp_path / "s.json", dict(BASE, model="pqm3", dt=0.2, horizon=1.0)))
        assert main(["simulate", scenario, "--unsafe", "--models", "pqm3,pqm4", "--dt", "0.25"]) == 0
        assert "pqm4: max lambda" in capsys.readouterr().out
        # Without --unsafe the scenario's own dt = 0.2 breaks the PQM3 bound again.
        assert main(["simulate", scenario]) == 2
        err = capsys.readouterr().err
        assert "PQM3-D requires dt <= capacity/sigma_max" in err and "dt = 0.2)" in err
        # A stale set_defaults(func=...) would run 'simulate' here.
        assert main(["vickrey", scenario]) == 0
        assert capsys.readouterr().out.startswith("vickrey closed form:")
        fresh = cli.build_parser().parse_args(["vickrey", scenario])
        assert vars(cli._parser().parse_args(["vickrey", scenario])) == vars(fresh)
        assert fresh.func is cli._cmd_vickrey and not hasattr(fresh, "models")


STATIONARY = {"--delta": "2000", "--sigma": "1200", "--capacity": "200"}


@pytest.mark.parametrize(
    "flag, value, kind, model",
    [
        ("--delta", "nan", "nonnegative", None),
        ("--delta", "-1", "nonnegative", None),
        ("--sigma", "inf", "nonnegative", "pqm2"),
        ("--sigma", "-5", "nonnegative", None),
        ("--capacity", "inf", "positive", "pqm1"),
        ("--capacity", "nan", "positive", None),
        ("--capacity", "0", "positive", None),
        ("--eps", "nan", "positive", "eps-pqm1"),
        ("--eps", "inf", "positive", "eps-pqm2"),
        ("--eps", "0", "positive", "eps-pqm3"),
    ],
)
def test_bad_stationary_inputs_rejected_with_flag_named(capsys, flag, value, kind, model):
    """A non-finite, negative rate or non-positive capacity/eps exits 2 naming its flag."""
    args = {**STATIONARY, flag: value}
    argv = ["stationary", *[item for pair in args.items() for item in pair]]
    if model is not None:
        argv += ["--model", model]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{flag} must be {kind} and finite (got {float(value)!r})" in captured.err


LINK_SCENARIO = "scenarios/congested_link.json"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["convergence", LINK_SCENARIO, "--models", "ltm,lqm", "--dt-list", "abc"], "--dt-list"),
        (["convergence", LINK_SCENARIO, "--models", "ltm,lqm", "--dt-list", ","], "--dt-list"),
        (["convergence", LINK_SCENARIO, "--models", ",", "--dt-list", "0.001"], "--models"),
        (["compare", RELAXED, "--models", ","], "--models"),
        (["simulate", RELAXED, "--models", " , "], "--models"),
    ],
)
def test_empty_or_non_numeric_lists_rejected_with_flag_named(capsys, argv, flag):
    """An empty list never falls back to the scenario's model or prints an empty table."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and flag in captured.err


@pytest.mark.parametrize(
    "path, model", [(LINK_SCENARIO, "ltm"), (LINK_SCENARIO, "lqm"), ("scenarios/tandem_spillback.json", "tandem")]
)
def test_exact_arithmetic_rejected_for_models_that_run_in_floats(path, model):
    scenario = load_scenario(path)
    message = "exact arithmetic is supported for the exact point models only"
    with pytest.raises(ValidationError, match=message):
        simulate_model(scenario, model, exact=True)
    with pytest.raises(ValidationError, match=message):
        run_scenario(scenario, models=[model], exact=True)


@pytest.mark.parametrize(
    "model, problem",
    [("eps-pqm2", "queues[0]: unknown point-queue model 'eps-pqm2'; valid: pqm1, pqm2, pqm3, pqm4"),
     (5, "field 'queues[0].model' must be a str (got 5)")],
)
def test_tandem_members_must_be_exact_point_queues(tmp_path, capsys, model, problem):
    """A relaxed member would run as its exact model; a non-string one is rejected, not an internal error."""
    doc = dict(BASE, model="tandem", dt=0.001, queues=[dict(QUEUES[0], model=model), QUEUES[1]])
    path = make(tmp_path / "s.json", doc)
    assert main(["simulate", str(path)]) == 2
    assert f"{path}: {problem}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "model, eps, code, text",
    [
        ("eps-pqm1", "0.1", 0, "eps-PQM1 stationary: lambda=10 veh, flux=1000 vph"),
        ("eps-pqm2", "0.1", 0, "eps-PQM2 stationary: lambda=5 veh, flux=50 vph"),
        ("eps-pqm3", "0.008", 0, "eps-PQM3 stationary: lambda=2 veh, flux=1000 vph"),
        ("eps-pqm3", "0.012", 2, "eps <= capacity/sigma_max = 0.01 hr (got 0.012)"),
        ("eps-pqm4", "0.004", 0, "eps-PQM4 stationary: lambda=10 veh, flux=1000 vph"),
        ("eps-pqm4", "0.006", 2, "eps <= capacity/delta_max = 0.005 hr (got 0.006)"),
    ],
)
def test_stationary_eps_bound_is_each_models_own(capsys, model, eps, code, text):
    """capacity/max(delta, sigma) = 0.005 hr bounds no model: eps-PQM1/2 admit any eps, eps-PQM3/4 one rate each."""
    argv = ["stationary", "--delta", "2000", "--sigma", "1000", "--capacity", "10", "--model", model, "--eps", eps]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert text in (captured.out if code == 0 else captured.err)


def _csv_writer_bytes(path, header, rows) -> bytes:
    """The reference: what ``csv.writer`` writes, numbers given as their repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path.read_bytes()


@pytest.mark.parametrize("models", ["pqm1,eps-pqm1,vickrey", "pqm2"])
def test_comparison_and_convergence_csv_bytes(tmp_path, capsys, models):
    """Model labels as text, numbers as their repr, comma-separated, CR LF line ends.

    One model gives a comparison.csv of the header only, and no convergence: there is no pair to compare.
    """
    names = models.split(",")
    scenario = load_scenario(RELAXED).with_overrides(horizon=0.5)
    out = tmp_path / "out"
    common = [RELAXED, "--horizon", "0.5", "--models", models, "--out-dir", str(out)]
    assert main(["compare", *common]) == 0
    distances = run_scenario(scenario, models=names).distances
    assert len(distances) == len(names) * (len(names) - 1) // 2
    want = _csv_writer_bytes(
        tmp_path / "comparison.csv", ["model_a", "model_b", "sup_distance"],
        [[a, b, repr(d)] for (a, b), d in distances.items()],
    )
    assert (out / "comparison.csv").read_bytes() == want
    if len(names) == 1:
        assert main(["convergence", *common, "--dt-list", "0.001,0.0005"]) == 2
        assert "--models" in capsys.readouterr().err and not (out / "convergence.csv").exists()
        return
    assert main(["convergence", *common, "--dt-list", "0.001,0.0005"]) == 0
    rows = convergence_table(scenario, names, [0.001, 0.0005])
    want = _csv_writer_bytes(
        tmp_path / "convergence.csv", ["dt", "max_distance"],
        [[repr(row["dt"]), repr(row["max_distance"])] for row in rows],
    )
    assert (out / "convergence.csv").read_bytes() == want
    assert want.startswith(b"dt,max_distance\r\n0.001,")


@pytest.mark.parametrize(
    "queues, text",
    [
        ([("pqm3", 10, 10), ("pqm1", 1000, 0)], "queues[0] (PQM3-D) requires the largest service volume 1000.0 + dt*"),
        ([("pqm1", 1000, 500), ("pqm4", 10, 0)], "queues[1] (PQM4-D) requires the largest feed volume 1000.0 + dt*"),
        ([("pqm3", 10, 0), ("pqm2", 20, 0)], "queues[0] (PQM3-D) requires the largest service volume 20.0 <="),
        ([("pqm1", None, 0), ("pqm4", 10, 0)], "queues[1] (PQM4-D) requires the largest feed volume inf <="),
    ],
)
def test_tandem_member_bounded_by_its_neighbours(tmp_path, capsys, queues, text):
    """The first two ran to a content of -1 and 11 veh, exit 0, while every member was bounded by the end rates."""
    rates = {"type": "constant", "rate": 100}
    members = [{"model": m, "capacity": c, "initial": i} for m, c, i in queues]
    doc = dict(BASE, model="tandem", demand=rates, supply=rates, queues=members, dt=0.01, horizon=0.05)
    scenario = str(make(tmp_path / "s.json", doc))
    assert main(["tandem", scenario]) == 2
    assert text in capsys.readouterr().err
    assert main(["tandem", scenario, "--unsafe", "--out-dir", str(tmp_path / "out")]) == 0


def test_printed_bound_is_admissible_and_below_the_rejected_value(tmp_path, capsys):
    """capacity/rate rounds to the float 0.1, past the true bound; the message shows the largest admissible value."""
    stationary = ["stationary", "--delta", "0", "--sigma", "2000", "--capacity", "200", "--model", "eps-pqm3"]
    assert main([*stationary, "--eps", "0.1"]) == 2
    shown = capsys.readouterr().err.split("capacity/sigma_max = ")[1].split(" hr")[0]
    assert shown == "0.09999999999999999" and float(shown) < 0.1
    assert main([*stationary, "--eps", shown]) == 0
    capsys.readouterr()
    rates = {"demand": {"type": "constant", "rate": 0}, "supply": {"type": "constant", "rate": 2000}}
    scenario = str(make(tmp_path / "s.json", dict(BASE, **rates, model="pqm3", dt=0.1, horizon=1.0)))
    assert main(["simulate", scenario]) == 2
    shown = capsys.readouterr().err.split("capacity/sigma_max = ")[1].split(" hr")[0]
    assert float(shown) < 0.1
    assert main(["simulate", scenario, "--dt", shown, "--horizon", repr(5 * float(shown))]) == 0


TANDEM_DOC = dict(BASE, model="tandem", dt=0.001, queues=QUEUES)
# Per command: its scenario, its arguments after the path, and the files it writes into --out-dir.
WRITERS = {
    "simulate": (BASE, [], {"pqm2.csv"}),
    "tandem": (TANDEM_DOC, [], {"queue1.csv", "queue2.csv"}),
    "compare": (BASE, ["--models", "pqm1,pqm2"], {"pqm1.csv", "pqm2.csv", "comparison.csv"}),
    "convergence": (BASE, ["--models", "pqm1,pqm2", "--dt-list", "0.01,0.005"], {"convergence.csv"}),
    "vickrey": (BASE, [], {"vickrey_closed_form.csv"}),
}


def _wrote(out: str) -> dict:
    """The ``wrote <label>: <path>`` lines of a command's stdout, as {label: path}."""
    return dict(line[len("wrote "):].split(": ", 1) for line in out.splitlines() if line.startswith("wrote "))


@pytest.mark.parametrize("command", WRITERS)
def test_out_dir_holds_exactly_the_announced_files(tmp_path, capsys, command):
    """Each file the command writes is announced as ``wrote <label>: <out-dir>/<label>.csv``, and no other."""
    doc, extra, files = WRITERS[command]
    out = tmp_path / "out"
    assert main([command, str(make(tmp_path / "s.json", doc)), *extra, "--out-dir", str(out)]) == 0
    wrote = _wrote(capsys.readouterr().out)
    assert wrote == {name.removesuffix(".csv"): str(out / name) for name in files}
    assert {path.name for path in out.iterdir()} == files


@pytest.mark.parametrize("command", WRITERS)
def test_output_key_is_ignored(tmp_path, capsys, monkeypatch, command):
    """An ``output`` key is an unread key: without --out-dir nothing is written, there or in the working directory."""
    doc, extra, _ = WRITERS[command]
    monkeypatch.chdir(tmp_path)
    scenario = make(tmp_path / "s.json", dict(doc, output=str(tmp_path / "D")))
    assert main([command, str(scenario), *extra]) == 0
    assert _wrote(capsys.readouterr().out) == {}
    assert [path.name for path in tmp_path.iterdir()] == ["s.json"]


def test_unknown_model_worded_alike_from_the_flag_and_the_field(tmp_path, capsys):
    """``--models foo`` and ``"model": "foo"`` both name the file and list the valid models."""
    path = make(tmp_path / "s.json", BASE)
    assert main(["simulate", str(path), "--models", "pqm1,foo"]) == 2
    from_flag = capsys.readouterr().err
    assert from_flag == f"error: {path}: unknown model 'foo'; valid: {', '.join(cli.MODELS)}\n"
    assert main(["simulate", str(make(tmp_path / "s.json", dict(BASE, model="foo")))]) == 2
    assert capsys.readouterr().err == from_flag


def test_json_value_error_names_the_file(tmp_path, capsys):
    """A 5001-digit integer is past Python's int-string limit, a ValueError json.loads raises: exit 2 naming the file."""
    doc = dict(BASE, demand={"type": "sine_floor", "amplitude": 0, "floor": 1000})
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc).replace('"amplitude": 0', '"amplitude": 1' + "0" * 5000))
    with pytest.raises(ScenarioError, match=re.escape(f"{path}: ")):
        load_scenario(path)
    assert main(["simulate", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


@pytest.mark.parametrize("command", WRITERS)
def test_unwritable_out_dir_exits_2_naming_the_flag(tmp_path, capsys, command):
    """An --out-dir below a regular file cannot be made: exit 2 naming --out-dir, not an internal error."""
    doc, extra, _ = WRITERS[command]
    blocker = tmp_path / "F"
    blocker.write_text("kept")
    out = blocker / "x"
    assert main([command, str(make(tmp_path / "s.json", doc)), *extra, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: --out-dir {str(out)!r}: cannot write ")
    assert blocker.read_text() == "kept"


def test_bytes_that_are_not_utf8_name_the_file(tmp_path, capsys):
    """A 0xff byte cannot be decoded: exit 2 naming the file, not the codec alone."""
    path = tmp_path / "latin.json"
    path.write_bytes(json.dumps(BASE).encode().replace(b'"pqm2"', b'"pqm\xff"'))
    with pytest.raises(ScenarioError, match=re.escape(f"{path}: 'utf-8' codec can't decode byte 0xff")):
        load_scenario(path)
    assert main(["simulate", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


def test_a_file_whose_own_grid_is_unsound_fails_at_load(tmp_path, capsys):
    """The grid is checked when the scenario is built, before any override: --dt cannot rescue the file's own dt."""
    path = make(tmp_path / "s.json", dict(CONSTANT, dt=0.3))
    with pytest.raises(ValidationError, match="horizon 1 hr is not a whole number of steps dt = 0.3 hr"):
        load_scenario(path)
    assert main(["simulate", str(path), "--dt", "0.25"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: horizon 1 hr") and all(name in err for name in GRID_FIELDS)


def test_too_deeply_nested_json_names_the_file(tmp_path, capsys):
    """100 000 nested arrays exhaust json.loads's recursion, a RecursionError: exit 2 naming the file."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    with pytest.raises(ScenarioError, match=re.escape(f"{path}: ")):
        load_scenario(path)
    assert main(["simulate", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: ")
