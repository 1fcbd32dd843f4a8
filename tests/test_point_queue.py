"""Tests for the four discrete point-queue variants and their specials."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pqsim import (
    Constant,
    Formulation,
    PqModel,
    QueueSpec,
    Scenario,
    ValidationError,
    well_definedness_bound,
)
from pqsim.point_queue import _step_with_volumes
from pqsim.scenario import validate_model
from point_runs import per_step, run_steps

ALL_MODELS = list(PqModel)


def run_queue(model, rates, dt, capacity, initial=0.0, clamp=True):
    """One step per (delta, sigma) pair through ``simulate_model``; the queue from the start to after the last step.

    ``clamp=False`` runs unsafe, which skips the step bound: callers keep dt within it.
    """
    return run_steps(model.value, *per_step(rates, dt), dt, len(rates), capacity, initial, unsafe=not clamp).queue


def step_queue(model, lam, delta, sigma, dt, capacity, clamp=True):
    """The queue after one step from ``lam``: the junction rule's first value."""
    return _step_with_volumes(model, lam, delta * dt, sigma * dt, capacity, clamp)[0]


class TestDemandSupplyVolumes:
    """Hand-worked volumes of the module table, through ``_step_with_volumes``'s (lam', inflow, outflow)."""

    def test_empty_queue_with_service_headroom(self):
        """PQM1 at 0: demand 10, supply 12 + 200 = 212, so inflow 10 and outflow min(10, 12)."""
        assert _step_with_volumes(PqModel.PQM1, 0.0, 10.0, 12.0, 200.0, True) == (0.0, 10.0, 10.0)

    def test_full_queue_storage_only_supply(self):
        """PQM2 at capacity: demand is the whole content, supply is zero."""
        assert _step_with_volumes(PqModel.PQM2, 200.0, 20.0, 12.0, 200.0, True) == (188.0, 0.0, 12.0)

    def test_empty_queue_zero_feed(self):
        """PQM3 at 0 with no feed: demand 0, supply 200, nothing moves."""
        assert _step_with_volumes(PqModel.PQM3, 0.0, 0.0, 9.0, 200.0, True) == (0.0, 0.0, 0.0)

    def test_unbounded_supply_is_infinite(self):
        """No capacity: the whole feed enters; outflow min(10 + 5, 12)."""
        assert _step_with_volumes(PqModel.PQM1, 5.0, 10.0, 12.0, None, True) == (3.0, 10.0, 12.0)


class TestStep:
    def test_interior_update(self):
        """PQM1: 100 + min(20, 112) - min(120, 12) = 108."""
        assert step_queue(PqModel.PQM1, 100.0, 2000, 1200, 0.01, 200.0) == 108.0

    def test_nothing_in_nothing_stored(self):
        assert step_queue(PqModel.PQM2, 0.0, 0, 1200, 0.01, 200.0) == 0.0

    def test_storage_ceiling(self):
        """PQM3 near capacity: in = min(20, 10) = 10, out = min(210, 12) = 12."""
        assert step_queue(PqModel.PQM3, 190.0, 2000, 1200, 0.01, 200.0) == 188.0

    def test_cumulative_flows_track_volumes(self):
        traj = run_steps("pqm1", Constant(2000), Constant(1200), 0.01, 1, 200.0, 100.0)
        assert traj.arrivals[1] == pytest.approx(120.0)
        assert traj.departures[1] == pytest.approx(12.0)


class TestVickreyStep:
    """Vickrey is PQM1/PQM3 with unbounded storage (``capacity=None``)."""

    @staticmethod
    def vickrey(model, lam, delta, sigma, dt):
        return step_queue(model, lam, delta, sigma, dt, None)

    def test_undersaturated_stays_empty(self):
        assert self.vickrey(PqModel.PQM1, 0.0, 1000, 1200, 0.01) == 0.0

    def test_growth(self):
        """5 + (2000 - 1200) * 0.01 = 13."""
        assert self.vickrey(PqModel.PQM1, 5.0, 2000, 1200, 0.01) == 13.0

    def test_drain_to_floor(self):
        """max(0, 5 - 12) = 0."""
        assert self.vickrey(PqModel.PQM1, 5.0, 0, 1200, 0.01) == 0.0

    def test_matches_unbounded_pqm1_and_pqm3(self):
        """Both collapse to the recursion max(0, lam + (delta - sigma) * dt), exactly."""
        rng = random.Random(11)
        for _ in range(200):
            lam = Fraction(rng.uniform(0, 50))
            delta, sigma = Fraction(rng.uniform(0, 3000)), Fraction(rng.uniform(0, 3000))
            dt = Fraction(rng.uniform(1e-4, 0.1))
            expected = max(0, lam + (delta - sigma) * dt)
            for model in (PqModel.PQM1, PqModel.PQM3):
                assert self.vickrey(model, lam, delta, sigma, dt) == expected


class TestWellDefinednessBound:
    def test_service_limited_variant(self):
        """PQM3: capacity / sigma_max = 200/1200 = 1/6 hr."""
        assert well_definedness_bound(PqModel.PQM3, 2000, 1200, 200.0) == pytest.approx(1 / 6)

    def test_feed_limited_variant(self):
        assert well_definedness_bound(PqModel.PQM4, 2000, 1200, 200.0) == pytest.approx(0.1)

    def test_always_well_defined_variants(self):
        assert well_definedness_bound(PqModel.PQM1, 2000, 1200, 200.0) == math.inf
        assert well_definedness_bound(PqModel.PQM2, 2000, 1200, 200.0) == math.inf

    def test_unbounded_storage(self):
        for model in ALL_MODELS:
            assert well_definedness_bound(model, 2000, 1200, None) == math.inf

    def test_zero_rates(self):
        assert well_definedness_bound(PqModel.PQM3, 2000, 0, 200.0) == math.inf
        assert well_definedness_bound(PqModel.PQM4, 0, 1200, 200.0) == math.inf

    @settings(max_examples=200, deadline=None)
    @given(
        model=st.sampled_from([PqModel.PQM3, PqModel.PQM4]),
        delta=st.floats(1e-3, 1e5),
        sigma=st.floats(1e-3, 1e5),
        capacity=st.floats(1.0, 1e4),
        relaxed=st.booleans(),
    )
    @example(PqModel.PQM3, 1000.0, 217.4046967242549, 10.0, False)  # capacity/sigma rounds one ulp up
    def test_scenario_admits_the_bound_and_no_larger_step(self, model, delta, sigma, capacity, relaxed):
        """The bound is the largest dt (eps, for a relaxed model) that ``validate_model`` admits."""
        bound = well_definedness_bound(model, delta, sigma, capacity)
        name = f"eps-{model.value}" if relaxed else model.value
        scenario = Scenario(name, Constant(delta), Constant(sigma), bound, bound, QueueSpec(capacity), epsilon=bound)
        validate_model(scenario, name)
        past = math.nextafter(bound, math.inf)
        over = scenario._replace(epsilon=past) if relaxed else scenario._replace(dt=past, horizon=past)
        with pytest.raises(ValidationError, match=f"requires {'epsilon' if relaxed else 'dt'} <= capacity/"):
            validate_model(over, name)


def _random_rates(rng, n, high=3000.0):
    return [(rng.uniform(0, high), rng.uniform(0, high)) for _ in range(n)]


class TestBoundedness:
    """One safe step maps [0, capacity] into itself (module-level test; the
    acceptance suite runs the full randomized campaign)."""

    def test_random_trials_stay_in_range(self):
        rng = random.Random(101)
        for model in ALL_MODELS:
            for _ in range(250):
                cap = rng.uniform(10, 400)
                initial = rng.uniform(0, cap)
                bound = well_definedness_bound(model, 3000, 3000, cap)
                dt = rng.uniform(1e-4, min(bound, 0.25))
                series = run_queue(model, _random_rates(rng, 25), dt, cap, initial, clamp=False)
                assert min(series) >= -1e-9
                assert max(series) <= cap + 1e-9

    def test_clamped_path_is_strict(self):
        rng = random.Random(202)
        for model in ALL_MODELS:
            for _ in range(50):
                cap = rng.uniform(10, 400)
                bound = well_definedness_bound(model, 3000, 3000, cap)
                dt = rng.uniform(1e-4, min(bound, 0.25))
                series = run_queue(model, _random_rates(rng, 25), dt, cap, rng.uniform(0, cap))
                assert min(series) >= 0.0
                assert max(series) <= cap


class TestFormulationEquivalence:
    def test_queue_equals_cumulative_difference_exactly(self):
        """Under exact arithmetic, formulation A's queue equals B's F - G, recorded as floats."""
        rng = random.Random(5)
        for model in ALL_MODELS:
            initial = Fraction(rng.uniform(0, 150)).limit_denominator(1 << 40)
            rates = [(rng.uniform(0, 3000), rng.uniform(0, 3000)) for _ in range(60)]
            a, b = (
                run_steps(model.value, *per_step(rates, 0.01), 0.01, 60, 200.0, initial, exact=True, formulation=f)
                for f in Formulation
            )
            assert a.queue == b.queue
            assert a.arrivals == b.arrivals and a.departures == b.departures


class TestRunRecords:
    """A run's row k holds the state (lambda, F, G) after k steps, the first one the initial content."""

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("formulation", list(Formulation))
    def test_first_row_counts_the_initial_content_as_arrivals(self, formulation, exact):
        """PQM3 from 5 with feed 12 and service 6: F = 5 + 12, G = 6, lambda = 11, all recorded as floats."""
        traj = run_steps(
            "pqm3", Constant(1200.0), Constant(600.0), 0.01, 1, 200.0, 5.0, exact=exact, formulation=formulation
        )
        rows = list(zip(traj.queue, traj.arrivals, traj.departures))
        assert rows == [(5.0, 5.0, 0.0), (11.0, 17.0, 6.0)]
        assert all(type(value) is float for row in rows for value in row)
        assert traj.inflow_rate[0] == pytest.approx(1200.0) and traj.outflow_rate[0] == pytest.approx(600.0)

    def test_per_step_rates_hold_pair_k_on_step_k(self):
        """Step k of a run sees the k-th (delta, sigma) pair; the last pair holds after the list ends."""
        rng = random.Random(9)
        dt, rates = 0.01, _random_rates(rng, 7)
        demand, supply = per_step(rates, dt)
        assert list(zip(demand.rates_on_grid(9, dt), supply.rates_on_grid(9, dt))) == rates + rates[-1:] * 2
        traj = run_steps("pqm1", demand, supply, dt, 7, None)
        assert [(f, g) for f, g in zip(traj.inflow_rate, traj.outflow_rate)][:7] == [
            pytest.approx((d, min(s, d + lam / dt))) for (d, s), lam in zip(rates, traj.queue)
        ]


class TestMoranIdentity:
    def test_pqm3_matches_storage_release_recursion(self):
        """PQM3 step == min(feed + lam, cap) - min(feed + lam, service), exactly."""
        rng = random.Random(23)
        dt = Fraction(1, 100)
        for _ in range(300):
            cap = Fraction(rng.uniform(50, 400)).limit_denominator(1 << 40)
            lam = cap * Fraction(rng.randrange(0, 101), 100)
            delta = Fraction(rng.uniform(0, 3000))
            sigma = Fraction(rng.uniform(0, 3000))
            feed, service = delta * dt, sigma * dt
            expected = min(feed + lam, cap) - min(feed + lam, service)
            assert step_queue(PqModel.PQM3, lam, delta, sigma, dt, cap) == expected


class TestModelEquivalenceInTheLimit:
    def test_distance_shrinks_with_dt(self, rush_demand, service_1200):
        """Pairwise gaps scale with dt and stay below (delta_max + sigma_max) * dt."""
        rate_sum = rush_demand.max_rate + service_1200.max_rate
        max_gap = {}
        for dt in (0.01, 0.001):
            n = round(1.0 / dt)
            series = {m: run_steps(m.value, rush_demand, service_1200, dt, n, 200.0).queue for m in ALL_MODELS}
            gap = 0.0
            for i, m1 in enumerate(ALL_MODELS):
                for m2 in ALL_MODELS[i + 1 :]:
                    gap = max(gap, max(abs(x - y) for x, y in zip(series[m1], series[m2])))
            max_gap[dt] = gap
            assert gap <= rate_sum * dt
        assert max_gap[0.001] < max_gap[0.01]


class TestMonotoneResponse:
    def test_larger_feed_never_shrinks_queue(self):
        """Pointwise-larger demand profiles yield pointwise-larger queues.

        Checked with dt below capacity/(delta_max + sigma_max); at larger
        steps the one-step update is no longer monotone in the state.
        """
        rng = random.Random(31)
        cap = 200.0
        for model in ALL_MODELS:
            for _ in range(30):
                n = 40
                base = [rng.uniform(0, 2000) for _ in range(n)]
                bumped = [b + rng.uniform(0, 800) for b in base]
                sigma = [rng.uniform(0, 2000) for _ in range(n)]
                dt = rng.uniform(1e-4, cap / 5600.0)
                low = run_queue(model, list(zip(base, sigma)), dt, cap)
                high = run_queue(model, list(zip(bumped, sigma)), dt, cap)
                assert all(h >= l - 1e-9 for l, h in zip(low, high))


class TestUnsafeViolations:
    def test_pqm3_with_oversized_step_goes_negative(self):
        """Past the bound, a full queue discharges more than it holds: cap - service < 0."""
        cap = 100.0
        dt = 0.2  # bound is 100/1200 = 1/12 hr
        lam = step_queue(PqModel.PQM3, cap, 2000, 1200, dt, cap, clamp=False)
        assert lam == cap - 1200 * dt  # -140
        assert lam < 0

    def test_pqm4_with_oversized_step_overfills(self):
        """Past the bound, the feed can be accepted wholesale: delta*dt > capacity."""
        cap = 100.0
        dt = 0.2  # bound is 100/2000 = 0.05 hr
        lam = step_queue(PqModel.PQM4, 0.0, 2000, 5000, dt, cap, clamp=False)
        assert lam == 2000 * dt  # 400
        assert lam > cap

    def test_clamp_masks_the_excursion(self):
        assert step_queue(PqModel.PQM3, 100.0, 2000, 1200, 0.2, 100.0, clamp=True) == 0.0
