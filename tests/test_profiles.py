"""Tests for rate profiles: evaluation, exact integrals, invariants."""

import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import brentq

from pqsim import Constant, PiecewiseConstant, SineFloor, profile_from_dict, sine_floor


def midpoint_quadrature(profile, t, n):
    """Independent integral oracle: midpoint rule with n panels."""
    h = t / n
    mids = (np.arange(n) + 0.5) * h
    return float(sum(profile.rate_at(float(m)) for m in mids) * h)


class TestConstant:
    def test_evaluation(self):
        assert Constant(1200).rate_at(0.5) == 1200

    def test_integral(self):
        """S(t) = rate * t."""
        assert Constant(1200).cumulative(2.0) == 2400.0

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            Constant(-5)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            Constant(10).rate_at(-0.1)
        with pytest.raises(ValueError):
            Constant(10).cumulative(-0.1)


class TestPiecewiseConstant:
    def test_breakpoint_uses_right_hand_value(self):
        """Intervals are left-closed: the rate at a breakpoint starts the new interval."""
        p = PiecewiseConstant((0.0, 1.0), (1000.0, 2000.0))
        assert p.rate_at(1.0) == 2000.0
        assert p.rate_at(0.999) == 1000.0

    def test_integral(self):
        """1000 over [0,1) plus 2000 over [1,1.5) = 2000 veh."""
        p = PiecewiseConstant((0.0, 1.0), (1000.0, 2000.0))
        assert p.cumulative(1.5) == 2000.0

    def test_last_rate_extends(self):
        p = PiecewiseConstant((0.0, 1.0), (1000.0, 2000.0))
        assert p.rate_at(100.0) == 2000.0

    def test_max_rate(self):
        assert PiecewiseConstant((0.0, 1.0, 2.0), (5.0, 9.0, 1.0)).max_rate == 9.0

    @pytest.mark.parametrize(
        "breakpoints,rates",
        [
            ((0.5, 1.0), (1.0, 2.0)),  # must start at 0
            ((0.0, 1.0, 1.0), (1.0, 2.0, 3.0)),  # strictly increasing
            ((0.0,), (1.0, 2.0)),  # length mismatch
            ((0.0, 1.0), (1.0, -2.0)),  # negative rate
        ],
    )
    def test_invalid_construction(self, breakpoints, rates):
        with pytest.raises(ValueError):
            PiecewiseConstant(breakpoints, rates)


class TestPythonBuiltInputs:
    """A str, bool or None where a number belongs is a ValueError naming the field, not a TypeError or a coercion."""

    @pytest.mark.parametrize("bad", ["5", True, None])
    @pytest.mark.parametrize(
        "build,field",
        [
            (lambda x: Constant(x), "rate"),
            (lambda x: PiecewiseConstant([0, 1], [5, x]), "rates[1]"),
            (lambda x: PiecewiseConstant([x, 1], [5, 6]), "breakpoints[0]"),
            (lambda x: PiecewiseConstant(x, [5]), "breakpoints"),
            (lambda x: SineFloor(2000, x), "floor"),
            (lambda x: sine_floor(x, 1000), "amplitude"),
        ],
    )
    def test_rejected_with_the_field_named(self, build, field, bad):
        with pytest.raises(ValueError, match=re.escape(f"{field} must be ")):
            build(bad)

    def test_numbers_build_as_before(self):
        assert type(Constant(5).rate) is int
        assert Constant(Fraction(1, 2)).rate == Fraction(1, 2)
        assert PiecewiseConstant(range(2), np.array([5, 6])) == PiecewiseConstant((0.0, 1.0), (5.0, 6.0))
        assert PiecewiseConstant([0, Fraction(1, 2)], [5, 6.5]).breakpoints == (0.0, 0.5)
        assert sine_floor(2000, 1000) == SineFloor(2000, 1000)


class TestSineFloor:
    def test_peak_value(self):
        """sin(pi/2) = 1, so the rate at t = 0.5 is the amplitude."""
        assert SineFloor(2000, 1000).rate_at(0.5) == 2000.0

    def test_floor_binds_in_trough(self):
        """sin(1.5 pi) = -1, so the floor applies."""
        assert SineFloor(2000, 1000).rate_at(1.5) == 1000.0

    def test_crossing_time_against_root_finder(self):
        """First solution of A sin(pi t) = B, found independently by brentq."""
        p = SineFloor(2000, 1000)
        root = brentq(lambda t: 2000 * math.sin(math.pi * t) - 1000, 0.01, 0.5, xtol=1e-14)
        assert p.crossing_time == pytest.approx(root, abs=1e-12)
        assert p.crossing_time == pytest.approx(math.asin(0.5) / math.pi, abs=0)

    def test_integral_against_fine_quadrature(self):
        """Closed-form integral matches a 10^6-panel midpoint rule to 1e-6 veh."""
        p = SineFloor(2000, 1000)
        n = 1_000_000
        h = 2.0 / n
        mids = (np.arange(n) + 0.5) * h
        oracle = float(np.sum(np.maximum(2000 * np.sin(np.pi * mids), 1000.0)) * h)
        assert p.cumulative(2.0) == pytest.approx(oracle, abs=1e-6)

    def test_integral_closed_form_constant(self):
        """Independent derivation: S(2) = B(1 + 2 tc) + 2 A cos(pi tc)/pi with tc = 1/6."""
        expected = 4000.0 / 3.0 + 2000.0 * math.sqrt(3.0) / math.pi
        assert SineFloor(2000, 1000).cumulative(2.0) == pytest.approx(expected, abs=1e-9)

    def test_multi_period_integral(self):
        p = SineFloor(2000, 1000)
        assert p.cumulative(6.0) == pytest.approx(3 * p.cumulative(2.0), rel=1e-12)

    def test_degenerate_normalizes_to_constant(self):
        assert sine_floor(1000, 1500) == Constant(1500)
        assert isinstance(sine_floor(2000, 1000), SineFloor)

    def test_direct_degenerate_construction_rejected(self):
        with pytest.raises(ValueError):
            SineFloor(1000, 1500)

    def test_zero_floor(self):
        p = SineFloor(100, 0)
        assert p.rate_at(1.5) == 0.0
        # One period integrates the positive half-wave only: 2A/pi.
        assert p.cumulative(2.0) == pytest.approx(200 / math.pi, rel=1e-12)


def _random_profile(rng):
    kind = rng.randrange(3)
    if kind == 0:
        return Constant(rng.uniform(0, 3000))
    if kind == 1:
        k = rng.randrange(1, 6)
        bps = [0.0] + sorted(rng.uniform(0.05, 2.0) for _ in range(k))
        return PiecewiseConstant(tuple(bps), tuple(rng.uniform(0, 3000) for _ in range(k + 1)))
    return sine_floor(rng.uniform(500, 3000), rng.uniform(0, 400))


class TestProfileInvariants:
    def test_integral_is_nondecreasing(self):
        rng = random.Random(42)
        for _ in range(50):
            p = _random_profile(rng)
            t1 = rng.uniform(0, 3)
            t2 = t1 + rng.uniform(0, 3)
            assert p.cumulative(t2) - p.cumulative(t1) >= 0

    def test_integral_is_rate_lipschitz(self):
        """S(t2) - S(t1) <= max_rate * (t2 - t1)."""
        rng = random.Random(7)
        for _ in range(50):
            p = _random_profile(rng)
            t1 = rng.uniform(0, 3)
            t2 = t1 + rng.uniform(0, 3)
            assert p.cumulative(t2) - p.cumulative(t1) <= p.max_rate * (t2 - t1) + 1e-9

    def test_quadrature_converges_to_integral(self):
        """|integrate - quadrature(n)| shrinks as n grows, over random times."""
        rng = random.Random(3)
        profiles = [_random_profile(rng) for _ in range(4)]
        times = [rng.uniform(0.1, 4.0) for _ in range(25)]
        for p in profiles:
            errors = []
            for n in (100, 1000, 10000):
                errors.append(max(abs(p.cumulative(t) - midpoint_quadrature(p, t, n)) for t in times))
            # Piecewise-exact profiles bottom out at float noise immediately.
            assert errors[2] < errors[0] or errors[0] < 1e-8
            assert errors[2] < 1e-2


class TestSerialization:
    def test_round_trip(self):
        """A profile's fields under its type tag parse back to an equal profile."""
        tags = {Constant: "constant", PiecewiseConstant: "piecewise_constant", SineFloor: "sine_floor"}
        for p in (Constant(1200), PiecewiseConstant((0.0, 1.0), (1.0, 2.0)), SineFloor(2000, 1000)):
            assert profile_from_dict({"type": tags[type(p)], **p._asdict()}) == p

    def test_tagged_record_form(self):
        p = profile_from_dict({"type": "sine_floor", "amplitude": 2000, "floor": 1000})
        assert p == SineFloor(2000.0, 1000.0)

    def test_unknown_type(self):
        with pytest.raises(ValueError, match="unknown profile type"):
            profile_from_dict({"type": "ramp"})

    def test_missing_field_named(self):
        with pytest.raises(ValueError, match="amplitude"):
            profile_from_dict({"type": "sine_floor", "floor": 1000})
