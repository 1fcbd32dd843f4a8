"""Closed-form solutions: Vickrey bottleneck and stationary states.

For an initially empty queue with unbounded storage fed by demand rate
delta(t) and served at supply rate sigma(t), the cumulative flows solve

    F(t) = integral of delta over [0, t]
    G(t) = min over tau in [0, t] of {F(tau) - S(tau)}  +  S(t)

with S the cumulative supply, and the queue length is

    lam(t) = F(t) - S(t) - min over tau in [0, t] of {F(tau) - S(tau)}.

With constant sigma this reduces to the running-max form
lam(t) = max over tau of {F(t) - F(tau) - (t - tau) * sigma}, the waiting
time of a vehicle entering at t is pi(t) = lam(t) / sigma (it satisfies
F(t) = G(t + pi(t))), and at every instant either the queue is empty or
the discharge rate equals sigma ((g - sigma) * pi = 0).

Running minima are evaluated on the output grid: the profiles' cumulative
integrals are exact at grid points, but the minimizer itself is located to
grid resolution, which is the same first-order accuracy as the discrete
recursions this module is checked against.

Stationary states under constant rates (delta, sigma): every exact variant
settles at capacity when delta > sigma, at zero when delta < sigma, and
anywhere in [0, capacity] when delta = sigma, always with flux
min(delta, sigma).  These are the continuous-time (dt -> 0) states.  For
PQM2/PQM3 (delta > sigma) and PQM2/PQM4 (delta < sigma) the continuous
dynamics admit no exact fixed point at a positive rate; the value reported
is the limit of the discrete fixed points (capacity - sigma*dt -> capacity,
delta*dt -> 0) and is flagged ``limit_of_discrete``.  The relaxed models
settle at eps-shifted values (capacity - eps*sigma, eps*delta) that
converge linearly in eps to the exact ones.  eps-PQM2 is the exception
once eps * min(delta, sigma) > capacity/2: both its rates are then
relaxation terms at the stationary state, which sits at capacity/2 with
flux capacity/(2*eps).

At a finite step dt the exact discrete models are the relaxed ones with
eps = dt, so they stop where ``stationary_eps(model, delta, sigma,
capacity, dt)`` says.  With balanced rates that is an interval, not all of
[0, capacity]: with r = delta*dt, PQM1 fixes [0, capacity], PQM2
[r, capacity - r], PQM3 [0, capacity - r] and PQM4 [r, capacity], and one
step moves a state outside the interval onto its nearer edge.  PQM2 with
r > capacity/2 is the exception: capacity/2 is its only fixed point, and
the exact step makes other states alternate around it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import accumulate
from operator import add, sub

from .errors import ValidationError
from .point_queue import PqModel, _violated_bound
from .profiles import Constant, Profile

__all__ = [
    "StationaryResult",
    "VickreySolution",
    "vickrey_closed_form",
    "stationary_exact",
    "stationary_eps",
]


class StationaryResult(namedtuple("StationaryResult", "queue_lo queue_hi flux limit_of_discrete", defaults=(False,))):
    """Stationary queue length (a point or an interval) and the through flux."""

    __slots__ = ()

    @property
    def is_point(self) -> bool:
        return self.queue_lo == self.queue_hi

    @property
    def queue(self) -> float:
        if not self.is_point:
            raise ValueError(f"stationary state is an interval [{self.queue_lo}, {self.queue_hi}]")
        return self.queue_lo

    def describe(self) -> str:
        if self.is_point:
            note = " (limit of discrete fixed points)" if self.limit_of_discrete else ""
            return f"lambda={self.queue_lo:g} veh, flux={self.flux:g} vph{note}"
        return f"lambda in [{self.queue_lo:g}, {self.queue_hi:g}] veh, flux={self.flux:g} vph"


class VickreySolution(namedtuple("VickreySolution", "dt grid arrivals departures queue waiting")):
    """Closed-form bottleneck solution sampled on a uniform grid.

    ``grid``, ``arrivals`` (F), ``departures`` (G) and ``queue`` (lam) are
    tuples; ``waiting`` (pi) is one only when the supply is constant, else None.
    """

    __slots__ = ()


def vickrey_closed_form(demand: Profile, supply: Profile, dt: float, horizon: float) -> VickreySolution:
    """Solve the unbounded-storage bottleneck from an empty queue on a uniform grid."""
    if not (0 < dt < math.inf and 0 < horizon < math.inf):
        raise ValueError(f"dt and horizon must be positive and finite (got dt = {dt!r}, horizon = {horizon!r})")
    n = round(horizon / dt)
    grid = [i * dt for i in range(n + 1)]
    arrivals = [demand.cumulative(t) for t in grid]
    served = [supply.cumulative(t) for t in grid]
    gaps = list(map(sub, arrivals, served))  # F - S
    # Its running minimum from F(0) - S(0) = 0, as min(running, gap): a tie keeps the running value.
    minima = list(accumulate(gaps, min, initial=0.0))[1:]
    queue = list(map(sub, gaps, minima))
    departures = map(add, minima, served)
    waiting = None
    if isinstance(supply, Constant) and supply.rate > 0:
        waiting = tuple(q / supply.rate for q in queue)
    return VickreySolution(dt, *map(tuple, (grid, arrivals, departures, queue)), waiting)


def stationary_exact(
    delta: float,
    sigma: float,
    capacity: float,
    model: PqModel | None = None,
) -> StationaryResult:
    """Stationary state of the exact models under constant rates: the eps = 0 case of ``stationary_eps``.

    The value is the continuous-time (dt -> 0) state and is the same for all
    four variants; pass ``model`` to learn whether it exists as a
    continuous fixed point or only as the limit of the discrete ones
    (``limit_of_discrete``).  Without one, no flag is set (PQM1 sets none).
    At balanced rates the result is the interval [0, capacity]; at a step dt
    the exact discrete models stop on the narrower interval that
    ``stationary_eps`` gives for eps = dt.

    ``limit_of_discrete`` is only ever set on the point results.  It is not
    settled whether it should also describe the endpoints of the balanced
    interval: for delta = sigma > 0, PQM2's 0 and capacity, PQM3's capacity
    and PQM4's 0 are not continuous fixed points either (they are the
    limits of the discrete interval's edges), yet the flag stays False there.
    """
    return _stationary(PqModel.PQM1 if model is None else model, delta, sigma, capacity, 0)


def stationary_eps(model: PqModel, delta: float, sigma: float, capacity: float, eps: float) -> StationaryResult:
    """Stationary state of a relaxed variant under constant rates.

    eps-PQM1 and eps-PQM2 admit any eps; eps-PQM3 needs eps * sigma <=
    capacity and eps-PQM4 eps * delta <= capacity, decided exactly, as the
    discrete models' dt bounds are.
    """
    if not 0 < eps < math.inf:
        raise ValueError(f"epsilon must be positive and finite (got {eps})")
    return _stationary(model, delta, sigma, capacity, eps)


def _stationary(model: PqModel, delta, sigma, capacity, eps) -> StationaryResult:
    """The stationary state of ``model`` relaxed by eps > 0, or of the exact model at eps = 0."""
    if capacity is None or not 0 < capacity < math.inf:
        raise ValueError("stationary analysis requires a finite positive capacity")
    for name, rate in (("delta", delta), ("sigma", sigma)):
        if not 0 <= rate < math.inf:
            raise ValueError(f"{name} must be nonnegative and finite (got {rate!r})")
    violated = _violated_bound(model, eps, (delta, ()), (sigma, ()), capacity, "eps") if eps else None
    if violated is not None:
        raise ValidationError(f"epsilon must satisfy {violated} (got {eps:g})")
    flux = min(delta, sigma)
    if model is PqModel.PQM2 and eps * flux > capacity / 2:
        # Relaxed inflow (capacity - lam)/eps meets relaxed outflow lam/eps
        # before either rate binds: the queue halves the storage.
        return StationaryResult(capacity / 2, capacity / 2, capacity / (2 * eps))
    # A variant whose demand lacks the feed settles eps*delta above empty, one
    # whose supply lacks the service eps*sigma below full; at eps = 0 those
    # levels are limits of the discrete fixed points (for a positive rate).
    exact = eps == 0
    lo = 0.0 if exact or model.demand_includes_feed else eps * delta
    hi = capacity if exact or model.supply_includes_service else capacity - eps * sigma
    if delta > sigma:
        return StationaryResult(hi, hi, flux, exact and not model.supply_includes_service and sigma > 0)
    if delta < sigma:
        return StationaryResult(lo, lo, flux, exact and not model.demand_includes_feed and delta > 0)
    return StationaryResult(lo, hi, flux)
