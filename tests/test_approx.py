"""Tests for the relaxed (eps) point-queue models."""

import math
import random
from fractions import Fraction

import pytest

from pqsim import (
    Constant,
    PqModel,
    QueueSpec,
    Scenario,
    ValidationError,
    simulate_model,
    well_definedness_bound,
)
from pqsim import point_queue
from pqsim.approx import _step_with_volumes
from point_runs import per_step, run_steps

ALL_MODELS = list(PqModel)


def run_eps(model, demand, supply, eps, dt, steps, capacity, initial=0.0, clamp=True):
    """eps-``model`` through ``simulate_model``; the queue from the start to after the last step.

    ``clamp=False`` runs unsafe, which skips the dt <= eps and eps bounds.
    """
    traj = run_steps(f"eps-{model.value}", demand, supply, dt, steps, capacity, initial, epsilon=eps, unsafe=not clamp)
    return traj.queue


class TestDemandSupplyRates:
    """Hand-worked relaxed rates, as volumes through ``_step_with_volumes`` at dt/eps = 0.5."""

    def test_empty_queue_full_relaxation_headroom(self):
        """eps-PQM1 at 0: demand 1 + 0, supply 1.5 + 200 * 0.5, so inflow 1 and outflow min(1.5, 1)."""
        assert _step_with_volumes(0.5, PqModel.PQM1, 0.0, 1.0, 1.5, 200.0, True) == (0.0, 1.0, 1.0)

    def test_full_queue_supply_vanishes(self):
        """eps-PQM2 at capacity: supply (200 - 200) * 0.5 = 0, demand 200 * 0.5 = 100."""
        assert _step_with_volumes(0.5, PqModel.PQM2, 200.0, 1.0, 1.5, 200.0, True) == (198.5, 0.0, 1.5)

    def test_empty_queue_demand_vanishes(self):
        """eps-PQM2 at 0: demand 0 * 0.5 = 0, supply 200 * 0.5 = 100."""
        assert _step_with_volumes(0.5, PqModel.PQM2, 0.0, 1.0, 1.5, 200.0, True) == (1.0, 1.0, 0.0)

    def test_unbounded_supply(self):
        """eps-PQM4 without capacity: the whole feed enters; outflow min(1.5, 5 * 0.5)."""
        assert _step_with_volumes(0.5, PqModel.PQM4, 5.0, 1.0, 1.5, None, True) == (4.5, 1.0, 1.5)


class TestEpsilonConfig:
    """A relaxed scenario's epsilon and dt, as ``simulate_model`` checks them before it steps."""

    @staticmethod
    def run(eps, dt, unsafe=False):
        scenario = Scenario(
            "eps-pqm1", Constant(2000.0), Constant(1200.0), dt, 10 * dt, QueueSpec(200.0), epsilon=eps, unsafe=unsafe
        )
        return simulate_model(scenario)

    def test_step_must_not_exceed_relaxation_time(self):
        with pytest.raises(ValidationError, match=r"relaxed models require dt <= epsilon = 0.001 hr \(got dt = 0.002\)"):
            self.run(0.001, 0.002)
        (traj,) = self.run(0.001, 0.002, unsafe=True)  # demonstration path
        assert len(traj) == 10

    def test_positive_fields(self):
        """Structural, so ``unsafe`` does not skip them."""
        for unsafe in (False, True):
            with pytest.raises(ValidationError, match="epsilon must be positive and finite"):
                self.run(0.0, 0.001, unsafe)
            with pytest.raises(ValidationError, match="dt must be positive and finite"):
                self.run(0.001, 0.0, unsafe)


def relaxed_step(model, lam, delta, sigma, eps, dt, capacity):
    """The queue after one relaxed step from ``lam``: the relaxed junction rule's first value."""
    return _step_with_volumes(dt / eps, model, lam, delta * dt, sigma * dt, capacity, True)[0]


class TestStepExamples:
    def test_zero_drift_stays_empty(self):
        assert relaxed_step(PqModel.PQM1, 0.0, 0, 1200, 0.001, 0.0001, 200.0) == 0.0

    def test_ceiling_fixed_point(self):
        """Constant oversaturation pins eps-PQM3 at capacity - eps*sigma = 198.8."""
        series = run_eps(PqModel.PQM3, Constant(2000.0), Constant(1200.0), 0.001, 0.0001, 4000, 200.0)
        assert series[-1] == pytest.approx(198.8, abs=1e-9)

    def test_floor_fixed_point(self):
        """Constant undersaturation pins eps-PQM2 at eps*delta = 1."""
        series = run_eps(PqModel.PQM2, Constant(1000.0), Constant(1200.0), 0.001, 0.0001, 4000, 200.0, initial=50.0)
        assert series[-1] == pytest.approx(1.0, abs=1e-9)


def unbounded_step(model, lam, delta, sigma, eps, dt):
    """One relaxed step with unbounded storage (the alpha and eps models)."""
    return relaxed_step(model, lam, delta, sigma, eps, dt, None)


class TestUnboundedSpecialCases:
    def test_alpha_model_hand_values(self):
        """Drift regime and relaxation regime of max(delta - sigma, -lam/eps)."""
        assert unbounded_step(PqModel.PQM1, 13.0, 0, 1200, 0.001, 0.0001) == pytest.approx(12.88)
        assert unbounded_step(PqModel.PQM1, 0.05, 0, 1200, 0.001, 0.0001) == pytest.approx(0.045)
        assert unbounded_step(PqModel.PQM1, 0.0, 2000, 1200, 0.001, 0.0001) == pytest.approx(0.08)

    def test_eps_model_hand_values(self):
        assert unbounded_step(PqModel.PQM2, 2.0, 1000, 1200, 0.001, 0.0001) == pytest.approx(1.98)
        assert unbounded_step(PqModel.PQM2, 0.0, 1000, 1200, 0.001, 0.0001) == pytest.approx(0.1)

    def test_eps_model_fixed_point_is_eps_delta(self):
        lam = run_eps(PqModel.PQM2, Constant(1000), Constant(1200), 0.001, 0.0001, 3000, None)[-1]
        assert lam == pytest.approx(1.0, abs=1e-9)

    def test_alpha_equals_unbounded_pqm1_pqm3_exactly(self):
        """eps-PQM1/3 with unbounded storage: lam + dt * max(delta - sigma, -lam/eps)."""
        rng = random.Random(17)
        eps = Fraction(1, 1000)
        for _ in range(100):
            lam = Fraction(rng.uniform(0, 30))
            delta, sigma = Fraction(rng.uniform(0, 3000)), Fraction(rng.uniform(0, 3000))
            dt = eps * Fraction(rng.uniform(0.05, 0.95))
            expected = lam + dt * max(delta - sigma, -lam / eps)
            for model in (PqModel.PQM1, PqModel.PQM3):
                assert unbounded_step(model, lam, delta, sigma, eps, dt) == expected

    def test_eps_model_equals_unbounded_pqm2_pqm4_exactly(self):
        """eps-PQM2/4 with unbounded storage: lam + dt * (delta - min(sigma, lam/eps))."""
        rng = random.Random(19)
        eps = Fraction(1, 1000)
        for _ in range(100):
            lam = Fraction(rng.uniform(0, 30))
            delta, sigma = Fraction(rng.uniform(0, 3000)), Fraction(rng.uniform(0, 3000))
            dt = eps * Fraction(rng.uniform(0.05, 0.95))
            expected = lam + dt * (delta - min(sigma, lam / eps))
            for model in (PqModel.PQM2, PqModel.PQM4):
                assert unbounded_step(model, lam, delta, sigma, eps, dt) == expected


class TestCollapseAtDtEqualsEps:
    def test_step_matches_exact_model_bitwise(self):
        """With dt = eps the relaxed volumes equal the exact ones, step for step."""
        rng = random.Random(29)
        dt = 0.01
        for model in ALL_MODELS:
            for _ in range(100):
                cap = rng.uniform(50, 400)
                lam = rng.uniform(0, cap)
                feed, service = rng.uniform(0, 3000) * dt, rng.uniform(0, 3000) * dt
                relaxed = _step_with_volumes(dt / dt, model, lam, feed, service, cap, True)
                exact = point_queue._step_with_volumes(model, lam, feed, service, cap, True)
                assert relaxed == exact  # the next queue, the inflow and the outflow


class TestConvergenceInEps:
    def test_distance_to_exact_model_shrinks_with_eps(self, rush_demand, service_1200):
        dt = 0.0001
        n = round(1.0 / dt)
        for model in ALL_MODELS:
            exact = run_steps(model.value, rush_demand, service_1200, dt, n, 200.0).queue[1:]
            gaps = []
            for eps in (0.01, 0.001):
                series = run_eps(model, rush_demand, service_1200, eps, dt, n, 200.0)[1:]
                gaps.append(max(abs(a - b) for a, b in zip(series, exact)))
            assert gaps[1] < gaps[0]


class TestWellDefinedness:
    def test_bounds_mirror_exact_models(self):
        """The eps bound is the exact models' dt bound."""
        assert well_definedness_bound(PqModel.PQM1, 2000, 1200, 200.0) == math.inf
        assert well_definedness_bound(PqModel.PQM2, 2000, 1200, 200.0) == math.inf
        assert well_definedness_bound(PqModel.PQM3, 2000, 1200, 200.0) == pytest.approx(1 / 6)
        assert well_definedness_bound(PqModel.PQM4, 2000, 1200, 200.0) == pytest.approx(0.1)
        assert well_definedness_bound(PqModel.PQM3, 2000, 1200, None) == math.inf

    def test_admissible_eps_keeps_range(self):
        rng = random.Random(37)
        for model in ALL_MODELS:
            for _ in range(80):
                cap = rng.uniform(20, 400)
                eps = rng.uniform(1e-4, well_definedness_bound(model, 3000, 3000, cap))
                eps = min(eps, 0.1)
                dt = eps * rng.uniform(0.1, 1.0)
                rates = [(rng.uniform(0, 3000), rng.uniform(0, 3000)) for _ in range(25)]
                series = run_eps(model, *per_step(rates, dt), eps, dt, 25, cap, rng.uniform(0, cap), clamp=False)
                assert min(series) >= -1e-9
                assert max(series) <= cap + 1e-9

    def test_eps_pqm3_violation_goes_negative(self):
        """eps beyond capacity/sigma pulls the relaxed fixed point below zero."""
        cap, sigma = 200.0, 3000.0
        eps = 0.1  # bound is 200/3000
        series = run_eps(PqModel.PQM3, Constant(5000.0), Constant(sigma), eps, eps, 50, cap, initial=150.0, clamp=False)
        assert min(series) < 0

    def test_eps_pqm4_violation_overfills(self):
        cap, delta = 200.0, 5000.0
        eps = 0.1  # bound is 200/5000
        series = run_eps(PqModel.PQM4, Constant(delta), Constant(100.0), eps, eps, 50, cap, initial=0.0, clamp=False)
        assert max(series) > cap

    def test_step_beyond_eps_breaks_range(self):
        """dt > eps can drain more than the queue holds; dt <= eps is necessary."""
        series = run_eps(PqModel.PQM2, Constant(0.0), Constant(200.0), 0.1, 0.2, 3, 200.0, initial=10.0, clamp=False)
        assert min(series) < 0


class TestSmoothness:
    def test_second_differences_bounded_and_below_exact_kink(self, rush_demand, service_1200):
        """Relaxation caps curvature: second differences stay within
        (delta_max + sigma_max + capacity/eps) * dt and never reach the exact
        models' kink size at the capacity switch."""
        dt, eps, cap = 0.0001, 0.001, 200.0
        n = round(2.0 / dt)
        relaxed = run_eps(PqModel.PQM2, rush_demand, service_1200, eps, dt, n, cap)
        exact = run_steps("pqm2", rush_demand, service_1200, dt, n, cap).queue

        def second_diff(series):
            return max(
                abs(series[i + 2] - 2 * series[i + 1] + series[i]) for i in range(len(series) - 2)
            )

        bound = (rush_demand.max_rate + service_1200.max_rate + cap / eps) * dt
        assert second_diff(relaxed) <= bound
        assert second_diff(relaxed) < second_diff(exact)
