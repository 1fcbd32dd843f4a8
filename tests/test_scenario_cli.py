"""Tests for scenario parsing, validation, runners, CSV output and the CLI."""

import json
import math
from dataclasses import replace

import pytest

import pqsim
from pqsim import (
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
from pqsim.scenario import MAX_STEPS, check_grid, convergence_table

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
        assert load_scenario(path) == replace(scenario_from_dict(dict(BASE)), source=str(path))

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
        report = run_scenario(scenario_from_dict(dict(BASE)), out_dir=tmp_path)
        path = report.csv_paths["pqm2"]
        header = path.read_text().splitlines()[0]
        assert header == "t,lambda,F,G,f,g"
        assert len(path.read_text().splitlines()) == 201  # header + 200 steps

    def test_single_step_scenario_single_row(self, tmp_path):
        """horizon == dt with zero demand: one row carrying the initial content."""
        doc = dict(BASE, model="pqm1", horizon=0.01)
        doc["demand"] = {"type": "constant", "rate": 0}
        doc["queue"] = {"capacity": 200, "initial": 50}
        report = run_scenario(scenario_from_dict(doc), out_dir=tmp_path)
        rows = report.csv_paths["pqm1"].read_text().splitlines()
        assert len(rows) == 2
        assert rows[1].startswith("0.0,50.0,")

    def test_stats_recomputable_from_csv(self, tmp_path):
        report = run_scenario(scenario_from_dict(dict(BASE)), out_dir=tmp_path)
        reloaded = Trajectory.from_csv(report.csv_paths["pqm2"])
        assert reloaded.stats() == report.stats["pqm2"]

    def test_identical_runs_are_byte_identical(self, tmp_path):
        a = run_scenario(scenario_from_dict(dict(BASE)), out_dir=tmp_path / "a")
        b = run_scenario(scenario_from_dict(dict(BASE)), out_dir=tmp_path / "b")
        assert a.csv_paths["pqm2"].read_bytes() == b.csv_paths["pqm2"].read_bytes()

    def test_compare_single_variant_zero_distance(self):
        report = run_scenario(scenario_from_dict(dict(BASE)), models=["pqm2"])
        assert report.max_distance == 0.0

    def test_compare_reports_pairwise_distances(self):
        report = run_scenario(scenario_from_dict(dict(BASE)), models=["pqm1", "pqm2", "pqm3"])
        assert set(report.distances) == {("pqm1", "pqm2"), ("pqm1", "pqm3"), ("pqm2", "pqm3")}
        assert report.max_distance > 0

    def test_convergence_table_monotone(self):
        rows = convergence_table(scenario_from_dict(dict(BASE)), ["pqm1", "pqm2"], [0.01, 0.001])
        assert rows[1]["max_distance"] < rows[0]["max_distance"]

    def test_tandem_run_reports_conservation(self, tmp_path):
        doc = dict(BASE, model="tandem", dt=0.001, queues=[
            {"capacity": None, "initial": 0, "model": "pqm1"},
            {"capacity": 200, "initial": 0, "model": "pqm1"},
        ])
        report = run_scenario(scenario_from_dict(doc), out_dir=tmp_path)
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
    ],
)
def test_non_finite_numbers_rejected_with_field_named(tmp_path, capsys, doc, field):
    """JSON NaN/Infinity fail at parse time with exit 2, never as a silent run or an internal error."""
    scenario = make(tmp_path / "s.json", doc)
    assert main(["simulate", str(scenario)]) == 2
    assert f"field '{field}' must be a finite number" in capsys.readouterr().err


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
        "Constant", "EpsilonConfig", "Formulation", "LinkParams", "LqmSimulation", "LtmSimulation",
        "PiecewiseConstant", "PqModel", "PqState", "PqVariant", "PqsimError", "Profile", "QueueSpec",
        "RunReport", "Scenario", "ScenarioError", "SineFloor", "StationaryResult", "TandemQueue",
        "TandemSpec", "TandemState", "Trajectory", "TrajectoryStats", "ValidationError", "VickreySolution",
        "convergence_table", "load_scenario", "profile_from_dict", "run_scenario", "scenario_from_dict",
        "simulate_model", "sine_floor", "stationary_eps", "stationary_exact", "step_eps", "step_pq",
        "step_tandem", "sup_distance", "vickrey_closed_form", "well_definedness_bound",
    ])


CONSTANT = dict(BASE, demand={"type": "constant", "rate": 1000}, horizon=1.0)
GRID_FIELDS = ("'dt'", "'horizon'", "--dt", "--horizon")


def test_step_count_capped_before_any_allocation(tmp_path, capsys):
    """dt = 1e-12 over 1 hr asks for 1e12 steps: exit 2 naming both fields and flags, under --unsafe too."""
    scenario = make(tmp_path / "s.json", CONSTANT)
    assert main(["simulate", str(scenario), "--dt", "1e-12", "--unsafe"]) == 2
    err = capsys.readouterr().err
    assert f"exceeds {MAX_STEPS} steps" in err and all(name in err for name in GRID_FIELDS)
    at_cap = scenario_from_dict(dict(CONSTANT, dt=1e-6, horizon=MAX_STEPS * 1e-6))
    check_grid(at_cap)
    with pytest.raises(ValidationError, match="exceeds"):
        check_grid(at_cap.with_overrides(horizon=(MAX_STEPS + 1) * 1e-6))


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
