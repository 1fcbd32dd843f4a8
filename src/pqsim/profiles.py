"""Time-varying rate profiles for origin demand and destination supply.

A profile maps clock time t [hr] to a nonnegative rate [veh/hr] and knows
its own exact cumulative integral [veh].  Profiles are closed-form objects
rather than sampled arrays so that step-size refinement studies can
evaluate them on arbitrarily fine grids without re-sampling the input.

Three shapes cover the bundled scenarios:

* ``Constant``: fixed rate.
* ``PiecewiseConstant``: left-closed step function.  The value at a
  breakpoint is the rate of the interval that starts there, which matches
  forward-Euler stepping (rates are sampled at interval starts).
* ``SineFloor``: ``max(amplitude * sin(pi * t), floor)`` -- a single-period
  rush-hour pulse (period 2 hr) that never drops below a base rate.  Its
  integral is evaluated piecewise with analytically computed crossing
  times, so it is exact, not quadrature-based.

Every profile samples itself on a uniform step grid with
``rates_on_grid(n, dt)``, which returns exactly
``[rate_at(i * dt) for i in range(n)]``: the step loops sample each run's
rates once through it instead of calling ``rate_at`` twice per step.

All profiles are immutable and safe to share between concurrent runs.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import namedtuple
from functools import cached_property
from itertools import accumulate

from .errors import checked_make

__all__ = [
    "Profile",
    "Constant",
    "PiecewiseConstant",
    "SineFloor",
    "sine_floor",
]


def _check_time(t: float) -> None:
    if t < 0:
        raise ValueError(f"rate profiles are defined for t >= 0 only (got t = {t})")


def _check_step(dt: float) -> None:
    if not 0 < dt < math.inf:
        raise ValueError(f"grid step must be positive and finite (got dt = {dt})")


def _number(name: str, value, what: str = "a number"):
    """``value``, unless it is a str, bool or None: a Python caller's slip, which no comparison or ``float`` catches."""
    if value is None or isinstance(value, (str, bool)):
        raise ValueError(f"{name} must be {what} (got {value!r})")
    return value


def _floats(name: str, values) -> tuple[float, ...]:
    """``values`` as a tuple of floats; each entry checked by ``_number``, named ``name[i]``."""
    values = _number(name, values, "a list of numbers")
    return tuple(float(_number(f"{name}[{i}]", x)) for i, x in enumerate(values))


class Profile:
    """Interface shared by all rate profiles."""

    __slots__ = ()

    def rate_at(self, t: float) -> float:
        """Instantaneous rate [veh/hr] at time t [hr]."""
        raise NotImplementedError

    def rates_on_grid(self, n: int, dt: float) -> list[float]:
        """Exactly ``[rate_at(i * dt) for i in range(n)]``: the rates at the starts of n steps.

        ``dt`` must be positive and finite.
        """
        raise NotImplementedError

    def cumulative(self, t: float) -> float:
        """Exact integral of the rate over [0, t] [veh]."""
        raise NotImplementedError

    @property
    def max_rate(self) -> float:
        """Supremum of the rate over t >= 0 [veh/hr]."""
        raise NotImplementedError


class Constant(namedtuple("Constant", "rate"), Profile):
    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, rate):
        if not _number("rate", rate) >= 0:  # NaN fails too
            raise ValueError(f"rate must be nonnegative (got {rate})")
        return super().__new__(cls, rate)

    def rate_at(self, t: float) -> float:
        _check_time(t)
        return self.rate

    def rates_on_grid(self, n: int, dt: float) -> list[float]:
        _check_step(dt)
        return [self.rate] * n

    def cumulative(self, t: float) -> float:
        _check_time(t)
        return self.rate * t

    @property
    def max_rate(self) -> float:
        return self.rate


class PiecewiseConstant(namedtuple("PiecewiseConstant", "breakpoints rates"), Profile):
    """Step function: ``rates[i]`` applies on ``[breakpoints[i], breakpoints[i+1])``.

    ``breakpoints`` must start at 0 and be strictly increasing; the last
    rate extends to infinity.  Both are stored as tuples of floats; a str,
    bool or None entry is a ``ValueError`` naming it, not a coerced value.
    """

    _make = classmethod(checked_make)

    def __new__(cls, breakpoints, rates):
        bp, r = _floats("breakpoints", breakpoints), _floats("rates", rates)
        if len(bp) != len(r) or not bp:
            raise ValueError("breakpoints and rates must have equal, nonzero length")
        if bp[0] != 0.0:
            raise ValueError(f"first breakpoint must be 0 (got {bp[0]})")
        if any(not b2 > b1 for b1, b2 in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if any(not x >= 0 for x in r):
            raise ValueError("rates must be nonnegative")
        return super().__new__(cls, bp, r)

    @cached_property
    def _cum(self) -> tuple[float, ...]:
        """The integral up to each breakpoint."""
        bp, rates = self
        return tuple(accumulate((r * (b1 - b0) for r, b0, b1 in zip(rates, bp, bp[1:])), initial=0.0))

    def rate_at(self, t: float) -> float:
        _check_time(t)
        return self.rates[bisect_right(self.breakpoints, t) - 1]

    def rates_on_grid(self, n: int, dt: float) -> list[float]:
        _check_step(dt)
        # Rate k covers the grid from the first i with i*dt >= breakpoints[k], found from ceil(b/dt) and
        # the products as computed, so the split is rate_at's bisect exactly.
        starts = []
        for b in self.breakpoints[1:]:
            q = b / dt  # may overflow: the start is at most n
            i = n if q >= n else math.ceil(q)
            while i > 0 and (i - 1) * dt >= b:
                i -= 1
            while i < n and i * dt < b:
                i += 1
            starts.append(i)
        out: list[float] = []
        for rate, lo, hi in zip(self.rates, [0, *starts], [*starts, n]):
            out += [rate] * (hi - lo)
        return out

    def cumulative(self, t: float) -> float:
        _check_time(t)
        i = bisect_right(self.breakpoints, t) - 1
        return self._cum[i] + self.rates[i] * (t - self.breakpoints[i])

    @property
    def max_rate(self) -> float:
        return max(self.rates)


class SineFloor(namedtuple("SineFloor", "amplitude floor"), Profile):
    """``max(amplitude * sin(pi * t), floor)`` with amplitude > floor >= 0.

    Use :func:`sine_floor` when the inputs may degenerate (amplitude <=
    floor), in which case the profile is a plain :class:`Constant`.
    """

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, amplitude, floor):
        if not _number("amplitude", amplitude) > _number("floor", floor) >= 0:
            raise ValueError(
                "SineFloor requires amplitude > floor >= 0 "
                f"(got amplitude={amplitude}, floor={floor}); "
                "use sine_floor() to normalize the degenerate case"
            )
        return super().__new__(cls, amplitude, floor)

    @property
    def crossing_time(self) -> float:
        """First t > 0 where the sinusoid meets the floor [hr]."""
        return math.asin(self.floor / self.amplitude) / math.pi

    def rate_at(self, t: float) -> float:
        _check_time(t)
        return max(self.amplitude * math.sin(math.pi * t), self.floor)

    def rates_on_grid(self, n: int, dt: float) -> list[float]:
        _check_step(dt)
        amplitude, floor, pi, sin = self.amplitude, self.floor, math.pi, math.sin
        # max(x, floor) with the builtin's tie rule: x wins a tie.
        return [floor if floor > (x := amplitude * sin(pi * (i * dt))) else x for i in range(n)]

    def cumulative(self, t: float) -> float:
        _check_time(t)
        periods = math.floor(t / 2.0)
        u = t - 2.0 * periods
        amplitude, floor = self
        tc = self.crossing_time
        c0 = math.cos(math.pi * tc)
        period_volume = floor * (1.0 + 2.0 * tc) + 2.0 * amplitude * c0 / math.pi
        # Integral over [0, u] for u in [0, 2): floor on [0, tc] and
        # [1 - tc, 2], sinusoid in between.
        if u <= tc:
            part = floor * u
        elif u <= 1.0 - tc:
            part = floor * tc + amplitude * (c0 - math.cos(math.pi * u)) / math.pi
        else:
            part = floor * tc + 2.0 * amplitude * c0 / math.pi + floor * (u - (1.0 - tc))
        return periods * period_volume + part

    @property
    def max_rate(self) -> float:
        return self.amplitude


def sine_floor(amplitude: float, floor: float) -> Profile:
    """Build a sine-with-floor profile, normalizing the degenerate case.

    When the sinusoid never exceeds the floor the profile is exactly
    ``Constant(floor)`` and is returned as that variant, so the piecewise
    integral never has to handle an empty sinusoid segment.
    """
    if not _number("floor", floor) >= 0:
        raise ValueError(f"floor must be nonnegative (got {floor})")
    if _number("amplitude", amplitude) <= floor:
        return Constant(floor)
    return SineFloor(amplitude, floor)
