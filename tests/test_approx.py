"""Tests for the relaxed (eps) point-queue models."""

import math
import random
from fractions import Fraction

import pytest

from pqsim import (
    Constant,
    EpsilonConfig,
    Formulation,
    PqModel,
    PqState,
    PqVariant,
    step_eps,
    step_pq,
    well_definedness_bound,
)
from pqsim.approx import _eps_advance

ALL_MODELS = list(PqModel)


def run_eps(model, rates, cfg, capacity, initial=0.0, clamp=True):
    variant = PqVariant(model)
    state = PqState.initial(initial)
    series = [state.queue]
    for delta, sigma in rates:
        state = step_eps(variant, state, delta, sigma, cfg, capacity, clamp=clamp)
        series.append(state.queue)
    return series


class TestDemandSupplyRates:
    """Hand-worked relaxed rates, as volumes through ``_eps_advance`` at dt/eps = 0.5."""

    def test_empty_queue_full_relaxation_headroom(self):
        """eps-PQM1 at 0: demand 1 + 0, supply 1.5 + 200 * 0.5, so inflow 1 and outflow min(1.5, 1)."""
        assert _eps_advance(PqModel.PQM1, 0.0, 1.0, 1.5, 200.0, 0.5, True) == (0.0, 1.0, 1.0)

    def test_full_queue_supply_vanishes(self):
        """eps-PQM2 at capacity: supply (200 - 200) * 0.5 = 0, demand 200 * 0.5 = 100."""
        assert _eps_advance(PqModel.PQM2, 200.0, 1.0, 1.5, 200.0, 0.5, True) == (198.5, 0.0, 1.5)

    def test_empty_queue_demand_vanishes(self):
        """eps-PQM2 at 0: demand 0 * 0.5 = 0, supply 200 * 0.5 = 100."""
        assert _eps_advance(PqModel.PQM2, 0.0, 1.0, 1.5, 200.0, 0.5, True) == (1.0, 1.0, 0.0)

    def test_unbounded_supply(self):
        """eps-PQM4 without capacity: the whole feed enters; outflow min(1.5, 5 * 0.5)."""
        assert _eps_advance(PqModel.PQM4, 5.0, 1.0, 1.5, None, 0.5, True) == (4.5, 1.0, 1.5)


class TestEpsilonConfig:
    def test_step_must_not_exceed_relaxation_time(self):
        with pytest.raises(ValueError):
            EpsilonConfig(epsilon=0.001, dt=0.002)
        EpsilonConfig(epsilon=0.001, dt=0.002, unsafe=True)  # demonstration path

    def test_positive_fields(self):
        with pytest.raises(ValueError):
            EpsilonConfig(epsilon=0.0, dt=0.001)
        with pytest.raises(ValueError):
            EpsilonConfig(epsilon=0.001, dt=0.0)


class TestStepExamples:
    def test_zero_drift_stays_empty(self):
        cfg = EpsilonConfig(0.001, 0.0001)
        state = step_eps(PqVariant(PqModel.PQM1), PqState.initial(0.0), 0, 1200, cfg, 200.0)
        assert state.queue == 0.0

    def test_ceiling_fixed_point(self):
        """Constant oversaturation pins eps-PQM3 at capacity - eps*sigma = 198.8."""
        cfg = EpsilonConfig(0.001, 0.0001)
        series = run_eps(PqModel.PQM3, [(2000.0, 1200.0)] * 4000, cfg, 200.0)
        assert series[-1] == pytest.approx(198.8, abs=1e-9)

    def test_floor_fixed_point(self):
        """Constant undersaturation pins eps-PQM2 at eps*delta = 1."""
        cfg = EpsilonConfig(0.001, 0.0001)
        series = run_eps(PqModel.PQM2, [(1000.0, 1200.0)] * 4000, cfg, 200.0, initial=50.0)
        assert series[-1] == pytest.approx(1.0, abs=1e-9)


def unbounded_step(model, lam, delta, sigma, eps, dt):
    """One relaxed step with unbounded storage (the alpha and eps models)."""
    return step_eps(PqVariant(model), PqState.initial(lam), delta, sigma, EpsilonConfig(eps, dt), None).queue


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
        lam = 0.0
        for _ in range(3000):
            lam = unbounded_step(PqModel.PQM2, lam, 1000, 1200, 0.001, 0.0001)
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
        cfg = EpsilonConfig(epsilon=dt, dt=dt)
        for model in ALL_MODELS:
            for _ in range(100):
                cap = rng.uniform(50, 400)
                lam = rng.uniform(0, cap)
                delta, sigma = rng.uniform(0, 3000), rng.uniform(0, 3000)
                relaxed = step_eps(PqVariant(model), PqState.initial(lam), delta, sigma, cfg, cap)
                exact = step_pq(PqVariant(model), PqState.initial(lam), delta, sigma, dt, cap)
                assert relaxed.queue == exact.queue
                assert relaxed.arrivals == exact.arrivals
                assert relaxed.departures == exact.departures


class TestConvergenceInEps:
    def test_distance_to_exact_model_shrinks_with_eps(self, rush_demand, service_1200):
        dt = 0.0001
        n = round(1.0 / dt)
        rates = [(rush_demand.rate_at(i * dt), service_1200.rate_at(i * dt)) for i in range(n)]
        for model in ALL_MODELS:
            exact = []
            state = PqState.initial(0.0)
            for delta, sigma in rates:
                state = step_pq(PqVariant(model), state, delta, sigma, dt, 200.0)
                exact.append(state.queue)
            gaps = []
            for eps in (0.01, 0.001):
                series = run_eps(model, rates, EpsilonConfig(eps, dt), 200.0)[1:]
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
                cfg = EpsilonConfig(eps, eps * rng.uniform(0.1, 1.0))
                rates = [(rng.uniform(0, 3000), rng.uniform(0, 3000)) for _ in range(25)]
                series = run_eps(model, rates, cfg, cap, rng.uniform(0, cap), clamp=False)
                assert min(series) >= -1e-9
                assert max(series) <= cap + 1e-9

    def test_eps_pqm3_violation_goes_negative(self):
        """eps beyond capacity/sigma pulls the relaxed fixed point below zero."""
        cap, sigma = 200.0, 3000.0
        eps = 0.1  # bound is 200/3000
        cfg = EpsilonConfig(eps, eps)
        series = run_eps(PqModel.PQM3, [(5000.0, sigma)] * 50, cfg, cap, initial=150.0, clamp=False)
        assert min(series) < 0

    def test_eps_pqm4_violation_overfills(self):
        cap, delta = 200.0, 5000.0
        eps = 0.1  # bound is 200/5000
        cfg = EpsilonConfig(eps, eps)
        series = run_eps(PqModel.PQM4, [(delta, 100.0)] * 50, cfg, cap, initial=0.0, clamp=False)
        assert max(series) > cap

    def test_step_beyond_eps_breaks_range(self):
        """dt > eps can drain more than the queue holds; dt <= eps is necessary."""
        cfg = EpsilonConfig(epsilon=0.1, dt=0.2, unsafe=True)
        series = run_eps(PqModel.PQM2, [(0.0, 200.0)] * 3, cfg, 200.0, initial=10.0, clamp=False)
        assert min(series) < 0


class TestSmoothness:
    def test_second_differences_bounded_and_below_exact_kink(self, rush_demand, service_1200):
        """Relaxation caps curvature: second differences stay within
        (delta_max + sigma_max + capacity/eps) * dt and never reach the exact
        models' kink size at the capacity switch."""
        dt, eps, cap = 0.0001, 0.001, 200.0
        n = round(2.0 / dt)
        rates = [(rush_demand.rate_at(i * dt), service_1200.rate_at(i * dt)) for i in range(n)]
        relaxed = run_eps(PqModel.PQM2, rates, EpsilonConfig(eps, dt), cap)
        exact = [0.0]
        state = PqState.initial(0.0)
        for delta, sigma in rates:
            state = step_pq(PqVariant(PqModel.PQM2), state, delta, sigma, dt, cap)
            exact.append(state.queue)

        def second_diff(series):
            return max(
                abs(series[i + 2] - 2 * series[i + 1] + series[i]) for i in range(len(series) - 2)
            )

        bound = (rush_demand.max_rate + service_1200.max_rate + cap / eps) * dt
        assert second_diff(relaxed) <= bound
        assert second_diff(relaxed) < second_diff(exact)
