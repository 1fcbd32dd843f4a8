"""Tests for point queues in series: coupling, spillback, conservation, admissibility."""

import math
import random
from fractions import Fraction
from operator import add, sub

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pqsim import (
    Constant,
    Formulation,
    PqModel,
    QueueSpec,
    Scenario,
    TandemQueue,
    TandemSpec,
    ValidationError,
    scenario_from_dict,
    simulate_model,
    sine_floor,
    step_tandem,
)
from pqsim.scenario import validate_model
from point_runs import per_step, run_steps

RUSH = sine_floor(2000, 1000)
SERVICE = Constant(1200)
RUN = {
    "demand": {"type": "sine_floor", "amplitude": 2000, "floor": 1000},
    "supply": {"type": "constant", "rate": 1200},
    "dt": 0.01,
    "horizon": 2.0,
}


def spillback_spec(cap2=200.0):
    return TandemSpec(
        (
            TandemQueue(QueueSpec.unbounded(), PqModel.PQM1),
            TandemQueue(QueueSpec(capacity=cap2), PqModel.PQM1),
        )
    )


def advance(spec, arrivals, departures, delta, sigma, dt):
    """One step as the scenario loop takes it: (F', G', fluxes)."""
    fluxes = step_tandem(spec, arrivals, departures, delta * dt, sigma * dt)
    return list(map(add, arrivals, fluxes)), list(map(add, departures, fluxes[1:])), fluxes


def run_tandem(spec, dt, horizon, demand=RUSH, supply=SERVICE):
    arrivals = [q.spec.initial for q in spec.queues]
    departures = [0.0] * len(arrivals)
    n = round(horizon / dt)
    history = []
    for i in range(n):
        t = i * dt
        history.append((t, list(map(sub, arrivals, departures)), arrivals[0], departures[-1]))
        arrivals, departures, _ = advance(spec, arrivals, departures, demand.rate_at(t), supply.rate_at(t), dt)
    return history


class TestStructure:
    def test_needs_at_least_one_queue(self):
        with pytest.raises(ValueError):
            TandemSpec(())

    def test_mixed_models_flagged(self):
        spec = TandemSpec(
            (TandemQueue(QueueSpec(100.0), PqModel.PQM1), TandemQueue(QueueSpec(100.0), PqModel.PQM2))
        )
        assert spec.mixed_models
        assert not spillback_spec().mixed_models

    def test_zero_demand_changes_nothing(self):
        arrivals, departures, fluxes = advance(spillback_spec(), [0.0, 0.0], [0.0, 0.0], 0.0, 1200.0, 0.01)
        assert list(map(sub, arrivals, departures)) == [0.0, 0.0]
        assert fluxes == [0.0, 0.0, 0.0]


class TestSingleQueueReduction:
    def test_matches_point_stepper_bitwise(self):
        """A one-queue tandem is the cumulative-flow point stepper, bit for bit."""
        rng = random.Random(61)
        for model in PqModel:
            spec = TandemSpec((TandemQueue(QueueSpec(capacity=200.0, initial=30.0), model),))
            arrivals, departures = [30.0], [0.0]
            dt = 0.01
            rates = [(rng.uniform(0, 3000), rng.uniform(0, 3000)) for _ in range(200)]
            reference = run_steps(
                model.value, *per_step(rates, dt), dt, 200, 200.0, 30.0, formulation=Formulation.CUMULATIVE
            )
            for k, (delta, sigma) in enumerate(rates, 1):
                arrivals, departures, _ = advance(spec, arrivals, departures, delta, sigma, dt)
                assert arrivals[0] == reference.arrivals[k]
                assert departures[0] == reference.departures[k]
                assert arrivals[0] - departures[0] == reference.queue[k]

    @pytest.mark.parametrize("initial", [0.0, 30.0])
    @pytest.mark.parametrize("capacity", [200.0, None])
    @pytest.mark.parametrize("model", [m.value for m in PqModel])
    def test_run_matches_the_point_run(self, model, capacity, initial):
        """Through ``simulate_model``, a one-queue tandem records what ``pqmK`` in formulation B records."""
        base = dict(RUN, model=model, formulation="B", queue={"capacity": capacity, "initial": initial})
        (point,) = simulate_model(scenario_from_dict(base))
        tandem_doc = dict(RUN, model="tandem", queues=[{"capacity": capacity, "initial": initial, "model": model}])
        (queue1,) = simulate_model(scenario_from_dict(tandem_doc))
        for column in ("times", "queue", "arrivals", "departures", "inflow_rate", "outflow_rate"):
            assert list(map(repr, getattr(queue1, column))) == list(map(repr, getattr(point, column))), column


class TestConservation:
    def test_contents_match_cumulative_fluxes(self):
        """Sum of contents == origin inflow - destination outflow at every step."""
        history = run_tandem(spillback_spec(), dt=0.001, horizon=2.0)
        for t, queues, cum_in, cum_out in history:
            assert abs(sum(queues) - (cum_in - cum_out)) <= 1e-9

    def test_three_queue_chain_conserves(self):
        spec = TandemSpec(
            (
                TandemQueue(QueueSpec.unbounded(), PqModel.PQM1),
                TandemQueue(QueueSpec(capacity=80.0, initial=10.0), PqModel.PQM1),
                TandemQueue(QueueSpec(capacity=150.0), PqModel.PQM1),
            )
        )
        history = run_tandem(spec, dt=0.001, horizon=1.0)
        initial_total = 10.0
        first_initial = spec.queues[0].spec.initial
        for t, queues, cum_in, cum_out in history:
            assert abs(sum(queues) - (initial_total + (cum_in - first_initial) - cum_out)) <= 1e-9


class TestSpillback:
    def test_downstream_saturation_backs_up_upstream(self):
        """Queue 2 fills around 0.56 hr; only then does queue 1 grow."""
        history = run_tandem(spillback_spec(), dt=0.001, horizon=2.0)
        t_sat = next(t for t, q, *_ in history if q[1] >= 200.0 - 1e-6)
        assert t_sat == pytest.approx(0.557, abs=0.005)
        first_upstream = next(t for t, q, *_ in history if q[0] > 1e-9)
        assert first_upstream >= t_sat - 1e-9

    def test_upstream_clears_and_downstream_persists(self):
        history = run_tandem(spillback_spec(), dt=0.001, horizon=2.0)
        was_positive = False
        cleared_at = None
        for t, q, *_ in history:
            if q[0] > 1e-6:
                was_positive = True
            elif was_positive and cleared_at is None:
                cleared_at = t
        assert was_positive and cleared_at is not None and cleared_at < 1.4
        assert history[-1][1][1] > 0  # queue 2 still nonempty at the horizon

    def test_blocking_is_monotone_in_downstream_capacity(self):
        """Less downstream storage never shrinks the upstream queue."""
        runs = {}
        for cap2 in (100.0, 150.0, 200.0):
            history = run_tandem(spillback_spec(cap2), dt=0.002, horizon=2.0)
            runs[cap2] = [q[0] for _, q, *_ in history]
        for tight, loose in ((100.0, 150.0), (150.0, 200.0)):
            assert all(a >= b - 1e-9 for a, b in zip(runs[tight], runs[loose]))


def _admitted(scenario, name) -> bool:
    try:
        validate_model(scenario, name)
    except ValidationError:
        return False
    return True


@st.composite
def admissible_steps(draw):
    """A 1-4 queue tandem the validation admits, a state in [0, C] and one step's rates up to their maxima."""
    members, contents = [], []
    for _ in range(draw(st.integers(1, 4))):
        capacity = draw(st.one_of(st.sampled_from((None, 10.0, 200.0, 1000.0)), st.floats(1.0, 400.0)))
        members.append(TandemQueue(QueueSpec(capacity), draw(st.sampled_from(PqModel))))
        top = 400.0 if capacity is None else capacity
        contents.append(draw(st.one_of(st.sampled_from((0.0, top)), st.floats(0.0, top))))
    delta_max, sigma_max = draw(st.floats(0.0, 3000.0)), draw(st.floats(0.0, 3000.0))
    dt = draw(st.one_of(st.sampled_from((0.001, 0.01, 0.1)), st.floats(1e-4, 0.2)))
    scenario = Scenario("tandem", Constant(delta_max), Constant(sigma_max), dt, dt, tandem=TandemSpec(members))
    assume(_admitted(scenario, "tandem"))
    share = st.one_of(st.just(1.0), st.floats(0.0, 1.0))
    return members, contents, draw(share) * delta_max, draw(share) * sigma_max, dt


class TestAdmissibility:
    """Each member is bounded by its own largest feed and service volumes, which its neighbours set."""

    @settings(max_examples=300, deadline=None)
    @given(case=admissible_steps())
    def test_one_step_stays_within_capacity(self, case):
        """Within the bound, one step maps every content into [0, C], in ``Fraction`` arithmetic."""
        members, contents, delta, sigma, dt = case
        exact = TandemSpec(
            TandemQueue(QueueSpec(None if q.spec.capacity is None else Fraction(q.spec.capacity)), q.model)
            for q in members
        )
        lams = list(map(Fraction, contents))
        feed, service = Fraction(delta) * Fraction(dt), Fraction(sigma) * Fraction(dt)
        fluxes = step_tandem(exact, lams, [0] * len(lams), feed, service)
        for q, lam, inflow, outflow in zip(exact.queues, lams, fluxes, fluxes[1:]):
            after = lam + inflow - outflow
            assert after >= 0 and (q.spec.capacity is None or after <= q.spec.capacity)

    @pytest.mark.parametrize("model", [m.value for m in PqModel])
    @pytest.mark.parametrize("capacity", [200.0, None])
    @pytest.mark.parametrize("dt", [0.05, math.nextafter(0.1, 0), 0.1, 0.2])
    def test_one_member_is_bounded_like_its_model(self, model, capacity, dt):
        """capacity/rate = 0.1 hr; the float 0.1 lies past it, the float below it within."""
        rates = {"demand": {"type": "constant", "rate": 2000}, "supply": {"type": "constant", "rate": 2000}}
        base = dict(rates, dt=dt, horizon=5 * dt)
        point = scenario_from_dict(dict(base, model=model, queue={"capacity": capacity}))
        tandem = scenario_from_dict(dict(base, model="tandem", queues=[{"capacity": capacity, "model": model}]))
        assert _admitted(tandem, "tandem") == _admitted(point, model)
