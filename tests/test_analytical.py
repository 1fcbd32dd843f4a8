"""Tests for closed-form bottleneck solutions and stationary states."""

import math
import random
import re

import pytest

from pqsim import (
    Constant,
    PiecewiseConstant,
    PqModel,
    Scenario,
    ValidationError,
    simulate_model,
    sine_floor,
    stationary_eps,
    stationary_exact,
    vickrey_closed_form,
)
from point_runs import run_steps

ALL_MODELS = list(PqModel)


def brute_force_bottleneck(demand, supply, dt, n):
    """Independent oracle: the plain recursion lam <- max(0, lam + (d - s) dt)."""
    lam = 0.0
    series = [lam]
    for i in range(n):
        t = i * dt
        lam = max(0.0, lam + (demand.rate_at(t) - supply.rate_at(t)) * dt)
        series.append(lam)
    return series


def random_grid_profile(rng, dt, horizon, sigma):
    """Piecewise-constant demand with grid-aligned breakpoints and peak >= sigma."""
    n = round(horizon / dt)
    k = rng.randrange(2, 7)
    idx = sorted(rng.sample(range(1, n), k))
    bps = [0.0] + [i * dt for i in idx]
    rates = [rng.uniform(0, 2.2 * sigma) for _ in bps]
    rates[rng.randrange(len(rates))] = rng.uniform(sigma, 2.2 * sigma)
    return PiecewiseConstant(tuple(bps), tuple(rates))


class TestVickreyClosedForm:
    def test_undersaturated_constant_rates(self):
        """delta < sigma keeps the queue identically empty."""
        sol = vickrey_closed_form(Constant(1000), Constant(1200), 0.01, 2.0)
        assert max(sol.queue) == 0.0

    def test_oversaturated_constant_rates(self):
        """delta > sigma grows the queue linearly: lam(t) = (delta - sigma) t."""
        sol = vickrey_closed_form(Constant(2000), Constant(1200), 0.01, 2.0)
        for t, q in zip(sol.grid, sol.queue):
            assert q == pytest.approx(800 * t, abs=1e-9)

    def test_rush_hour_pulse_against_fine_recursion(self):
        """Closed form tracks the discrete recursion within (d_max + s_max) dt."""
        demand, supply = sine_floor(2000, 1000), Constant(1200)
        dt = 1e-5
        n = round(2.0 / dt)
        sol = vickrey_closed_form(demand, supply, dt, 2.0)
        oracle = brute_force_bottleneck(demand, supply, dt, n)
        gap = max(abs(a - b) for a, b in zip(sol.queue, oracle))
        assert gap <= (2000 + 1200) * dt

    def test_rush_hour_pulse_remains_queued_at_end(self):
        """With unbounded storage nothing is turned away, so the backlog is
        integral(delta) - served ~ 73 veh at t = 2, not zero."""
        sol = vickrey_closed_form(sine_floor(2000, 1000), Constant(1200), 1e-4, 2.0)
        assert sol.queue[-1] == pytest.approx(73.09, abs=0.05)
        assert sol.queue[-1] > 0

    def test_departures_nondecreasing_and_consistent(self):
        sol = vickrey_closed_form(sine_floor(2000, 1000), Constant(1200), 0.001, 2.0)
        assert all(b - a >= -1e-9 for a, b in zip(sol.departures, sol.departures[1:]))
        for f, g, q in zip(sol.arrivals, sol.departures, sol.queue):
            assert q == pytest.approx(f - g, abs=1e-9)
            assert q >= -1e-12

    @pytest.mark.parametrize(
        "dt, horizon", [(math.nan, 1.0), (math.inf, 1.0), (0.01, math.nan), (0.01, math.inf), (0.0, 1.0), (0.01, -1.0)]
    )
    def test_non_positive_or_non_finite_grid_rejected(self, dt, horizon):
        message = re.escape(f"dt and horizon must be positive and finite (got dt = {dt!r}, horizon = {horizon!r})")
        with pytest.raises(ValueError, match=message):
            vickrey_closed_form(Constant(1000), Constant(1200), dt, horizon)

    def test_min_plus_vs_simulation_random_profiles(self):
        """Random grid-aligned step demands: closed form == recursion to the step bound."""
        rng = random.Random(47)
        dt, horizon = 0.005, 1.5
        n = round(horizon / dt)
        for _ in range(20):
            sigma = rng.uniform(800, 2000)
            demand = random_grid_profile(rng, dt, horizon, sigma)
            sol = vickrey_closed_form(demand, Constant(sigma), dt, horizon)
            oracle = brute_force_bottleneck(demand, Constant(sigma), dt, n)
            gap = max(abs(a - b) for a, b in zip(sol.queue, oracle))
            assert gap <= (demand.max_rate + sigma) * dt

    def test_constant_supply_max_form_equals_min_form(self):
        """Running-max formulation agrees with the running-min one pointwise."""
        rng = random.Random(53)
        dt, horizon = 0.01, 1.5
        sigma = 1200.0
        demand = random_grid_profile(rng, dt, horizon, sigma)
        sol = vickrey_closed_form(demand, Constant(sigma), dt, horizon)
        arrivals = sol.arrivals
        for i, t in enumerate(sol.grid):
            literal_max = max(
                arrivals[i] - arrivals[j] - (t - sol.grid[j]) * sigma for j in range(i + 1)
            )
            assert sol.queue[i] == pytest.approx(max(literal_max, 0.0), abs=1e-9)


class TestQueueingTime:
    """The closed form's waiting series pi = lambda / sigma under a constant supply."""

    def test_no_queue_no_wait(self):
        sol = vickrey_closed_form(Constant(1000), Constant(1200), 0.01, 1.0)
        assert set(sol.queue) == set(sol.waiting) == {0.0}

    def test_direct_division(self):
        """Demand 2400 over supply 1200 for 0.1 hr queues 120 veh, a 0.1 hr wait."""
        sol = vickrey_closed_form(Constant(2400), Constant(1200), 0.01, 0.1)
        assert sol.queue[-1] == pytest.approx(120.0)
        assert sol.waiting[-1] == pytest.approx(0.1)

    def test_undefined_for_zero_service(self):
        assert vickrey_closed_form(Constant(1000), Constant(0), 0.01, 1.0).waiting is None

    def test_departure_matches_delayed_arrival(self):
        """F(t) = G(t + pi(t)) up to one step's service volume."""
        demand, supply = sine_floor(2000, 1000), Constant(1200)
        dt = 0.001
        sol = vickrey_closed_form(demand, supply, dt, 2.0)
        for i in range(0, len(sol.grid), 7):
            target = sol.grid[i] + sol.waiting[i]
            if target >= sol.grid[-1]:
                continue
            pos = target / dt
            j = int(pos)
            g_interp = sol.departures[j] + (pos - j) * (sol.departures[j + 1] - sol.departures[j])
            assert abs(g_interp - sol.arrivals[i]) <= supply.rate * dt

    def test_waiting_series_present_for_constant_supply(self):
        sol = vickrey_closed_form(sine_floor(2000, 1000), Constant(1200), 0.01, 2.0)
        assert sol.waiting is not None
        assert max(sol.waiting) == pytest.approx(max(sol.queue) / 1200)

    def test_complementarity_along_run(self):
        """At every grid point: negligible queue, or discharge pinned at sigma."""
        demand, supply = sine_floor(2000, 1000), Constant(1200)
        dt = 0.01
        sol = vickrey_closed_form(demand, supply, dt, 2.0)
        for i in range(len(sol.grid) - 1):
            g = (sol.departures[i + 1] - sol.departures[i]) / dt
            assert sol.queue[i] <= demand.max_rate * dt or abs(g - supply.rate) <= 1e-9


class TestStationaryExact:
    def test_oversaturated_queue_full(self):
        result = stationary_exact(2000, 1200, 200.0)
        assert result.is_point and result.queue == 200.0
        assert result.flux == 1200.0

    def test_undersaturated_queue_empty(self):
        result = stationary_exact(1000, 1200, 200.0)
        assert result.is_point and result.queue == 0.0
        assert result.flux == 1000.0

    def test_balanced_rates_any_state(self):
        result = stationary_exact(1200, 1200, 200.0)
        assert not result.is_point
        assert (result.queue_lo, result.queue_hi) == (0.0, 200.0)
        assert result.flux == 1200.0

    def test_values_are_variant_independent(self):
        for model in ALL_MODELS:
            r = stationary_exact(2000, 1200, 200.0, model)
            assert (r.queue_lo, r.queue_hi, r.flux) == (200.0, 200.0, 1200.0)

    def test_limit_of_discrete_flags(self):
        """PQM2/PQM3 full and PQM2/PQM4 empty states exist only as dt -> 0 limits."""
        full_flagged = {m for m in ALL_MODELS if stationary_exact(2000, 1200, 200.0, m).limit_of_discrete}
        assert full_flagged == {PqModel.PQM2, PqModel.PQM3}
        empty_flagged = {m for m in ALL_MODELS if stationary_exact(1000, 1200, 200.0, m).limit_of_discrete}
        assert empty_flagged == {PqModel.PQM2, PqModel.PQM4}
        assert not stationary_exact(2000, 0.0, 200.0, PqModel.PQM2).limit_of_discrete

    def test_requires_finite_capacity(self):
        with pytest.raises(ValueError):
            stationary_exact(2000, 1200, None)


class TestStationaryRelaxed:
    def test_oversaturated_levels(self):
        assert stationary_eps(PqModel.PQM1, 2000, 1200, 200.0, 0.001).queue == 200.0
        assert stationary_eps(PqModel.PQM4, 2000, 1200, 200.0, 0.001).queue == 200.0
        assert stationary_eps(PqModel.PQM2, 2000, 1200, 200.0, 0.001).queue == pytest.approx(198.8)
        assert stationary_eps(PqModel.PQM3, 2000, 1200, 200.0, 0.001).queue == pytest.approx(198.8)

    def test_undersaturated_levels(self):
        assert stationary_eps(PqModel.PQM1, 1000, 1200, 200.0, 0.001).queue == 0.0
        assert stationary_eps(PqModel.PQM3, 1000, 1200, 200.0, 0.001).queue == 0.0
        assert stationary_eps(PqModel.PQM2, 1000, 1200, 200.0, 0.001).queue == pytest.approx(1.0)
        assert stationary_eps(PqModel.PQM4, 1000, 1200, 200.0, 0.001).queue == pytest.approx(1.0)

    def test_balanced_intervals(self):
        eps, cap, rate = 0.001, 200.0, 1200.0
        expected = {
            PqModel.PQM1: (0.0, cap),
            PqModel.PQM2: (eps * rate, cap - eps * rate),
            PqModel.PQM3: (0.0, cap - eps * rate),
            PqModel.PQM4: (eps * rate, cap),
        }
        for model, (lo, hi) in expected.items():
            r = stationary_eps(model, rate, rate, cap, eps)
            assert (r.queue_lo, r.queue_hi) == pytest.approx((lo, hi))

    @pytest.mark.parametrize(
        "delta, sigma, eps",
        [(2000, 1200, 0.02), (1000, 1200, 0.02), (1200, 1200, 0.02), (1500, 1000, 0.12), (1000, 1500, 0.12),
         (1200, 1200, 0.1), (2000, 1200, 0.15), (1200, 2000, 0.15), (2500, 2500, 0.1)],
    )
    def test_matches_long_relaxed_runs(self, delta, sigma, eps):
        """A 3-hour relaxed run from empty and from full ends on the reported state and flux.

        From (1500, 1000, 0.12) on, eps * min(delta, sigma) > capacity/2, where
        eps-PQM2 settles at capacity/2 with flux capacity/(2 eps).  The last
        three have eps > capacity/max(delta, sigma): eps-PQM1 and eps-PQM2
        run as usual, and eps-PQM3 (eps-PQM4) whenever eps * sigma (eps *
        delta) <= capacity; the others are skipped.
        """
        cap, dt = 200.0, eps / 10
        limiting_rate = {PqModel.PQM3: sigma, PqModel.PQM4: delta}
        for model in ALL_MODELS:
            if eps * limiting_rate.get(model, 0) > cap:
                continue
            result = stationary_eps(model, delta, sigma, cap, eps)
            for start in (0.0, cap):
                run = run_steps(
                    f"eps-{model.value}", Constant(delta), Constant(sigma), dt, round(3.0 / dt), cap, start, epsilon=eps
                )
                assert result.queue_lo - 1e-6 <= run.queue[-1] <= result.queue_hi + 1e-6, (model, start)
                assert (run.departures[-1] - run.departures[-2]) / dt == pytest.approx(result.flux), (model, start)

    def test_relaxation_bound_enforced(self):
        """eps-PQM3 is bounded by capacity/sigma alone, eps-PQM4 by capacity/delta alone."""
        with pytest.raises(ValidationError, match=r"capacity/sigma_max = 0\.1667 hr \(got 0\.2\)"):
            stationary_eps(PqModel.PQM3, 1000, 1200, 200.0, 0.2)
        with pytest.raises(ValidationError, match=r"capacity/delta_max = 0\.1667 hr \(got 0\.2\)"):
            stationary_eps(PqModel.PQM4, 1200, 1000, 200.0, 0.2)
        # At eps * limiting rate = capacity exactly (0.25 is a double), whatever the other rate:
        # the relaxed full level capacity - eps*sigma is 0, the empty level eps*delta is capacity.
        assert stationary_eps(PqModel.PQM3, 5000, 800, 200.0, 0.25).queue == 0.0
        assert stationary_eps(PqModel.PQM4, 800, 5000, 200.0, 0.25).queue == 200.0

    @pytest.mark.parametrize("capacity, eps", [(200.0, math.inf), (200.0, math.nan), (math.inf, 0.1), (math.nan, 0.1)])
    def test_non_finite_eps_or_capacity_rejected(self, capacity, eps):
        """The exact bound test needs finite numbers; a NaN never yields a state."""
        for model in ALL_MODELS:
            with pytest.raises(ValueError, match="epsilon must be positive and finite|finite positive capacity"):
                stationary_eps(model, 2000, 1200, capacity, eps)

    @pytest.mark.parametrize(
        "delta, sigma, name",
        [(math.nan, 1200, "delta"), (math.inf, 1200, "delta"), (-1.0, 1200, "delta"),
         (2000, math.nan, "sigma"), (2000, math.inf, "sigma"), (2000, -1.0, "sigma")],
    )
    def test_non_finite_or_negative_rate_rejected(self, delta, sigma, name):
        """A NaN rate once gave flux = nan on [0, capacity]: both solvers name the bad rate instead."""
        bad = delta if name == "delta" else sigma
        message = f"{name} must be nonnegative and finite \\(got {bad!r}\\)"
        with pytest.raises(ValueError, match=message):
            stationary_exact(delta, sigma, 200.0)
        for model in ALL_MODELS:
            with pytest.raises(ValueError, match=message):
                stationary_eps(model, delta, sigma, 200.0, 0.01)

    def test_pqm1_and_pqm2_admit_any_eps(self):
        """Far past capacity/max(delta, sigma) = 0.1 hr, eps-PQM1 and eps-PQM2 still have stationary states."""
        for eps in (0.2, 10.0):
            assert stationary_eps(PqModel.PQM1, 2000, 1200, 200.0, eps).queue == 200.0
            assert stationary_eps(PqModel.PQM1, 1000, 1200, 200.0, eps).queue == 0.0
            r = stationary_eps(PqModel.PQM2, 2000, 1200, 200.0, eps)
            assert (r.queue, r.flux) == (100.0, 100.0 / eps)

    def test_linear_convergence_to_exact(self):
        """The eps-shifted levels approach the exact ones linearly in eps."""
        for model in ALL_MODELS:
            exact = stationary_exact(2000, 1200, 200.0, model).queue
            gaps = [abs(stationary_eps(model, 2000, 1200, 200.0, eps).queue - exact) for eps in (0.01, 0.001)]
            assert gaps[1] == pytest.approx(gaps[0] / 10, abs=1e-9)
            exact0 = stationary_exact(1000, 1200, 200.0, model).queue
            gaps0 = [abs(stationary_eps(model, 1000, 1200, 200.0, eps).queue - exact0) for eps in (0.01, 0.001)]
            assert gaps0[1] == pytest.approx(gaps0[0] / 10, abs=1e-9)


class TestClosedFormVsVickreyStepper:
    def test_rush_hour_matches_package_stepper(self):
        """The production stepper and the closed form agree to the step bound."""
        demand, supply = sine_floor(2000, 1000), Constant(1200)
        dt = 0.001
        n = round(2.0 / dt)
        sol = vickrey_closed_form(demand, supply, dt, 2.0)
        (run,) = simulate_model(Scenario("vickrey", demand, supply, dt, 2.0))
        assert len(run.queue) == n
        worst = max(abs(q - want) for q, want in zip(run.queue, sol.queue))
        assert worst <= (demand.max_rate + supply.rate) * dt
