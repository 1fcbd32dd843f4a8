"""Tests for link physics: triangular flow, derived times, queue specs."""

import math

import pytest

from pqsim import LinkParams, LqmSimulation, QueueSpec

STANDARD = LinkParams(length=1, lanes=1, free_flow_speed=60, wave_speed=20, jam_density=150)


def triangular_flow(params: LinkParams, density: float) -> float:
    """q(k) = min(V*k, (N*K - k)*W) [veh/hr], as the delay-free link passes it.

    At content rho = k*L, LQM's demand rate min(rho/T1, capacity) is min(V*k,
    capacity) and its supply rate min((storage - rho)/T2, capacity) is
    min((N*K - k)*W, capacity).  The capacity is q's maximum, so with
    unlimited feed and service one step carries min(inflow, outflow) = q(k) * dt.
    """
    dt = 0.01
    sim = LqmSimulation(params._replace(initial=density * params.length), dt)
    inflow, outflow = sim.step(math.inf, math.inf)
    return min(inflow, outflow) / dt


class TestTriangularFlow:
    def test_empty_road(self):
        assert triangular_flow(STANDARD, 0.0) == 0.0

    def test_jammed_road(self):
        assert triangular_flow(STANDARD, 150.0) == 0.0

    def test_crossover_density(self):
        """min(60*37.5, (150-37.5)*20) = min(2250, 2250)."""
        assert triangular_flow(STANDARD, 37.5) == pytest.approx(2250.0, rel=1e-15)

    def test_capacity_bound_and_critical_density(self):
        """q(k) <= N*U*K everywhere, with equality only at k = N*K*W/(V+W)."""
        cap = STANDARD.capacity
        k_crit = 150.0 * 20 / (60 + 20)
        assert triangular_flow(STANDARD, k_crit) == pytest.approx(cap, rel=1e-12)
        for k in [x * 1.5 for x in range(101)]:
            q = triangular_flow(STANDARD, k)
            assert q <= cap + 1e-9
            if abs(k - k_crit) > 1e-9:
                assert q < cap

    def test_out_of_range_density(self):
        with pytest.raises(ValueError):
            triangular_flow(STANDARD, -1.0)
        with pytest.raises(ValueError):
            triangular_flow(STANDARD, 151.0)


class TestDerivedTimes:
    def test_standard_link(self):
        """L=1, V=60, W=20: T1=1/60, T2=1/20, T3=1/15 (U=15)."""
        t1, t2, t3 = STANDARD.free_flow_time, STANDARD.wave_time, STANDARD.traverse_time
        assert t1 == pytest.approx(1 / 60, rel=1e-15)
        assert t2 == pytest.approx(1 / 20, rel=1e-15)
        assert t3 == pytest.approx(1 / 15, rel=1e-15)

    def test_symmetric_speeds(self):
        p = LinkParams(1, 1, 30, 30, 150)
        t1, t2, t3 = p.free_flow_time, p.wave_time, p.traverse_time
        assert t1 == t2 == pytest.approx(1 / 30)
        assert t3 == pytest.approx(1 / 15)

    def test_sum_identity_exact(self):
        """T3 - (T1 + T2) == 0 exactly (1/U = 1/V + 1/W by construction)."""
        for p in (STANDARD, LinkParams(0.37, 2.5, 55.0, 17.3, 211.0)):
            t1, t2, t3 = p.free_flow_time, p.wave_time, p.traverse_time
            assert t3 - (t1 + t2) == 0.0

    def test_time_ordering(self):
        """T1 < T2 iff V > W; T3 exceeds both always."""
        t1, t2, t3 = STANDARD.free_flow_time, STANDARD.wave_time, STANDARD.traverse_time
        assert t1 < t2 < t3
        slow_wave = LinkParams(1, 1, 20, 60, 150)
        u1, u2, u3 = slow_wave.free_flow_time, slow_wave.wave_time, slow_wave.traverse_time
        assert u2 < u1 < u3

    def test_total_capacity_identity(self):
        """storage / T3 == N*U*K to 1e-12 relative."""
        for p in (STANDARD, LinkParams(0.37, 2.5, 55.0, 17.3, 211.0)):
            u = p.free_flow_speed * p.wave_speed / (p.free_flow_speed + p.wave_speed)
            assert p.capacity == pytest.approx(p.lanes * u * p.jam_density, rel=1e-12)

    def test_positive_parameters_required(self):
        with pytest.raises(ValueError):
            LinkParams(0, 1, 60, 20, 150)
        with pytest.raises(ValueError):
            LinkParams(1, 1, 60, -20, 150)


class TestQueueSpec:
    def test_bounded(self):
        q = QueueSpec(capacity=200, initial=50)
        assert (q.capacity, q.initial) == (200, 50)

    def test_unbounded_variant(self):
        q = QueueSpec.unbounded(initial=5)
        assert q.capacity is None and q.initial == 5

    def test_initial_within_capacity(self):
        with pytest.raises(ValueError):
            QueueSpec(capacity=200, initial=201)
        with pytest.raises(ValueError):
            QueueSpec(capacity=200, initial=-1)
        with pytest.raises(ValueError):
            QueueSpec(capacity=0)
