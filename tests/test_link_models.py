"""Tests for the two link-based models and their zero-length limits."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqsim import (
    Constant,
    LinkParams,
    LqmSimulation,
    LtmSimulation,
    Scenario,
    scenario_from_dict,
    sine_floor,
)
from pqsim.scenario import simulate_model, validate_model
from link_runs import next_step_volumes, replay_link
from point_runs import per_step, run_steps

STANDARD = LinkParams(length=1, lanes=1, free_flow_speed=60, wave_speed=20, jam_density=150)
# storage = 150 veh, T1 = 1/60, T2 = 1/20, capacity = 2250 vph


class TestLqmDemandSupply:
    """Hand-worked rates d, s of the module docstring, through one step at unlimited delta and sigma."""

    def test_empty_link(self):
        """rho = 0: d = 0, s = min(150 * 20, 2250) = capacity."""
        assert LqmSimulation(STANDARD, dt=0.01).step(math.inf, math.inf) == (STANDARD.capacity * 0.01, 0.0)

    def test_full_link(self):
        """rho = storage: d = min(150 * 60, 2250) = capacity, s = 0."""
        sim = LqmSimulation(STANDARD._replace(initial=STANDARD.storage), dt=0.01)
        assert sim.step(math.inf, math.inf) == (0.0, STANDARD.capacity * 0.01)

    def test_half_full(self):
        """rho = 75: d = min(75*60, 2250) = 2250, s = min(75*20, 2250) = 1500."""
        sim = LqmSimulation(STANDARD._replace(initial=75.0), dt=0.01)
        assert sim.step(math.inf, math.inf) == (1500.0 * 0.01, 2250.0 * 0.01)

    def test_domain_error(self):
        for content in (-1.0, 151.0):
            with pytest.raises(ValueError, match=r"initial must lie in \[0, 150\]"):
                STANDARD._replace(initial=content)


class TestLqmStep:
    def test_hand_update(self):
        """rho=75, delta=1000, sigma=1200: in = min(1000,1500)*dt, out = min(2250,1200)*dt."""
        sim = LqmSimulation(STANDARD._replace(initial=75.0), dt=0.01)
        fin, fout = sim.step(1000, 1200)
        assert fin == pytest.approx(10.0)
        assert fout == pytest.approx(12.0)
        assert sim.arrivals - sim.departures == pytest.approx(73.0)

    def test_conservation(self):
        rng = random.Random(3)
        sim = LqmSimulation(STANDARD._replace(initial=20.0), dt=0.01)
        total_in, total_out = 0.0, 0.0
        for _ in range(200):
            fin, fout = sim.step(rng.uniform(0, 4000), rng.uniform(0, 4000))
            total_in += fin
            total_out += fout
        assert sim.arrivals - sim.departures == pytest.approx(20.0 + total_in - total_out, abs=1e-9)

    def test_boundedness_under_stable_step(self):
        rng = random.Random(5)
        sim = LqmSimulation(STANDARD, dt=1 / 60)  # = min(T1, T2)
        for _ in range(400):
            sim.step(rng.uniform(0, 5000), rng.uniform(0, 5000))
            assert -1e-9 <= sim.arrivals - sim.departures <= STANDARD.storage + 1e-9

    def test_flux_increments_are_lipschitz(self):
        """Each flux volume is at most (max(delta_max, capacity) + capacity) * dt."""
        rng = random.Random(7)
        sim = LqmSimulation(STANDARD, dt=0.01)
        delta_max = 5000.0
        limit = (max(delta_max, STANDARD.capacity) + STANDARD.capacity) * 0.01
        for _ in range(300):
            fin, fout = sim.step(rng.uniform(0, delta_max), rng.uniform(0, delta_max))
            assert abs(fin - fout) <= limit

    def test_step_bound_enforced(self):
        """Scenario validation owns the bound; the constructors check only dt > 0."""
        doc = {
            "model": "lqm",
            "demand": {"type": "constant", "rate": 1000},
            "supply": {"type": "constant", "rate": 1000},
            "link": STANDARD._asdict(),
            "dt": 0.02,  # T1 = 1/60
            "horizon": 1.0,
        }
        with pytest.raises(ValueError, match="min\\(T1, T2\\)"):
            validate_model(scenario_from_dict(doc), "lqm")

    def test_constructors_check_only_positive_dt(self):
        for sim_cls in (LqmSimulation, LtmSimulation):
            sim_cls(STANDARD, dt=0.02).step(1000, 1000)
            with pytest.raises(ValueError, match="dt must be positive"):
                sim_cls(STANDARD, dt=0.0)


class TestLtmBoundary:
    """Demand and supply volumes read off a copy stepped at unlimited delta and sigma."""

    def test_empty_link_has_no_demand(self):
        sim = LtmSimulation(STANDARD, dt=0.01)
        _, demand, _ = next_step_volumes(sim)
        assert demand == 0.0

    def test_empty_link_supply_is_capacity_limited(self):
        """Vacancy wave offers storage/T2 but the capacity storage/T3 binds."""
        sim = LtmSimulation(STANDARD, dt=0.01)
        _, _, supply = next_step_volumes(sim)
        assert supply == pytest.approx(STANDARD.capacity * 0.01)

    def test_full_link_has_no_supply(self):
        sim = LtmSimulation(STANDARD._replace(initial=STANDARD.storage), dt=0.01)
        _, _, supply = next_step_volumes(sim)
        assert supply == pytest.approx(0.0)

    def test_three_step_hand_trace(self):
        """Empty link, constant feed 600 vph below capacity, service 1200 vph.

        Nothing can leave before the free-flow time T1 = 1/60 hr; the inflow
        600*dt = 6 veh enters unthrottled; at t = 0.01 the delayed arrivals
        interpolate to 2 veh, which is the whole demand.
        """
        sim = LtmSimulation(STANDARD, dt=0.01)
        fin, fout = sim.step(600, 1200)
        assert (fin, fout) == (6.0, 0.0)
        # t = 0.01: delayed window [0.01 - T1, 0.02 - T1] straddles 0; the
        # seeded history is 0 and F(0.01) = 6 interpolates to 6 * (1/3) = 2.
        _, demand, supply = next_step_volumes(sim)
        assert demand == pytest.approx(2.0)
        assert supply == pytest.approx(STANDARD.capacity * 0.01)
        fin, fout = sim.step(600, 1200)
        assert fin == pytest.approx(6.0)
        assert fout == pytest.approx(2.0)
        # t = 0.02: window [0.02 - T1, 0.03 - T1] = [1/300, 4/300]:
        # interp(F)(4/300) = 6 + (1/3)*6 = 8, interp(F)(1/300) = 2, queue =
        # F(1/300) - G(0.02) = 2 - 2 = 0, so demand = 8 - 2 + 0 = 6.
        _, demand, _ = next_step_volumes(sim)
        assert demand == pytest.approx(6.0)
        fin, fout = sim.step(600, 1200)
        assert fout == pytest.approx(6.0)
        assert sim.arrivals - sim.departures == pytest.approx(18.0 - 8.0)

    def test_content_invariants(self):
        """G <= F <= G + storage along a saturated run."""
        sim = LtmSimulation(STANDARD._replace(initial=75.0), dt=0.005)
        for i in range(600):
            sim.step(4000 if i < 300 else 0, 500)
            assert sim.departures <= sim.arrivals + 1e-9
            assert sim.arrivals - sim.departures <= STANDARD.storage + 1e-9
            queue, _, supply = next_step_volumes(sim)
            assert queue >= 0 and supply >= 0

    def test_initial_content_seeds_demand(self):
        """A preloaded link releases its initial content at rate content/T1."""
        sim = LtmSimulation(STANDARD._replace(initial=60.0), dt=0.01)
        _, demand, _ = next_step_volumes(sim)
        # 60 veh / T1 = 3600 vph exceeds capacity 2250, so capacity binds.
        assert demand == pytest.approx(STANDARD.capacity * 0.01)
        sim2 = LtmSimulation(STANDARD._replace(initial=30.0), dt=0.01)
        _, demand2, _ = next_step_volumes(sim2)
        assert demand2 == pytest.approx(30.0 / STANDARD.free_flow_time * 0.01)  # 1800 vph


class TestZeroLengthLimit:
    """Shrinking the link at fixed storage recovers the point-queue models."""

    def test_link_models_converge_to_point_queues(self):
        storage = 200.0
        demand = sine_floor(2000, 1000)
        supply = Constant(1200)
        dt = 0.0001
        horizon = 1.2
        n = round(horizon / dt)
        rates = [(demand.rate_at(i * dt), supply.rate_at(i * dt)) for i in range(n)]

        def run_point(model):
            """The state after each step: the link runs below record after each step too."""
            return run_steps(model, demand, supply, dt, n, storage).queue[1:]

        def run_link(cls, params):
            """The queue after each step: the one the next step starts from, and a probe's after the last.

            That is F - G for the LQM and F(t - T1) - G(t) for the LTM.
            """
            sim = cls(params, dt)
            out = []
            for delta, sigma in rates:
                sim.step(delta, sigma)
                out.append(sim.step_queue)
            return out[1:] + [next_step_volumes(sim)[0]]

        pqm1 = run_point("pqm1")
        pqm2 = run_point("pqm2")
        gaps_ltm, gaps_lqm = [], []
        for length in (1.0, 0.1, 0.01):
            lanes = storage / (length * 150.0)
            params = LinkParams(length, lanes, 60, 20, 150)
            assert dt <= min(params.free_flow_time, params.wave_time)
            ltm = run_link(LtmSimulation, params)
            lqm = run_link(LqmSimulation, params)
            gaps_ltm.append(max(abs(a - b) for a, b in zip(ltm, pqm1)))
            gaps_lqm.append(max(abs(a - b) for a, b in zip(lqm, pqm2)))
        assert gaps_ltm[0] > gaps_ltm[1] > gaps_ltm[2]
        assert gaps_lqm[0] > gaps_lqm[1] > gaps_lqm[2]


LINK_RATE = st.sampled_from((0.0, 2250.0)) | st.floats(0.0, 5000.0)


@st.composite
def link_scenarios(draw):
    """A random ltm or lqm run: often preloaded, and unsafe with dt past T1 (or T2) half the time."""
    model = draw(st.sampled_from(("ltm", "lqm")))
    params = LinkParams(
        length=draw(st.floats(0.05, 2.0)),
        lanes=draw(st.integers(1, 3)),
        free_flow_speed=draw(st.floats(30.0, 120.0)),
        wave_speed=draw(st.floats(10.0, 40.0)),
        jam_density=draw(st.floats(100.0, 200.0)),
    )
    initial = draw(st.sampled_from((0.0, params.storage)) | st.floats(0.0, params.storage))
    params = params._replace(initial=initial)
    unsafe = draw(st.booleans())
    if unsafe:  # past the step bound: the one-step-later reads look past the present
        dt = draw(st.floats(1.01, 4.0)) * draw(st.sampled_from((params.free_flow_time, params.wave_time)))
    else:
        dt = draw(st.floats(0.05, 1.0)) * min(params.free_flow_time, params.wave_time)
    rates = draw(st.lists(st.tuples(LINK_RATE, LINK_RATE), min_size=1, max_size=60))
    demand, supply = per_step(rates, dt)
    horizon = len(rates) * dt
    return Scenario(model, demand, supply, dt, horizon, link=params, unsafe=unsafe)


@settings(max_examples=150, deadline=None)
@given(scenario=link_scenarios())
def test_a_run_equals_its_one_step_replay(scenario):
    """The whole-grid kernel run, by repr, against the wrappers stepped one pair at a time."""
    (traj,) = simulate_model(scenario)
    assert repr(traj) == repr(replay_link(scenario))
