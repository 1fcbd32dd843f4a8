"""Discrete point-queue updates: the four model variants and their specials.

A point queue stores ``lam`` vehicles (0 <= lam <= capacity) at a facility
of zero physical extent.  Over one step of size dt it exchanges volumes
with an upstream feed (delta * dt offered) and a downstream service
(sigma * dt accepted):

    inflow  = min(feed_volume, supply_volume)
    outflow = min(demand_volume, service_volume)
    lam'    = lam + inflow - outflow

That junction rule, flux = min(demand, supply) on each side, is
:func:`_step_with_volumes`, the one function a point-queue run calls per
step.  The four variants differ in whether the feed enters the queue's
demand and whether the service enters its supply:

    variant   demand volume       supply volume
    PQM1      feed + lam          service + (capacity - lam)
    PQM2      lam                 capacity - lam
    PQM3      feed + lam          capacity - lam
    PQM4      lam                 service + (capacity - lam)

Unbounded capacity removes the supply limit entirely (inflow = feed); with
it PQM1/PQM3 collapse to the classical Vickrey bottleneck recursion
``lam' = max(0, lam + feed - service)`` (:func:`step_pq` with
``capacity=None``).  PQM3 with finite capacity is the
storage/release recursion used for dam processes:
``lam' = min(feed + lam, capacity) - min(feed + lam, service)``.

Step-size admissibility: PQM1 and PQM2 map [0, capacity] into itself for
any dt.  PQM3 needs dt <= capacity / max sigma and PQM4 needs
dt <= capacity / max delta; beyond those bounds a single step can leave
the physical range (see :func:`well_definedness_bound`).

Two formulations of the same update are provided: formulation A carries
the queue length forward; formulation B carries the cumulative inflow F
and outflow G and derives lam = F - G around the junction rule, not inside
it.  They apply identical volume expressions and coincide exactly in exact
arithmetic.  Every function here uses plain arithmetic and comparisons
only, so it can be run on ``fractions.Fraction`` states for bit-exact
checks.  The step kernels spell ``min(a, b)`` as ``b if b < a else a`` and
``max(a, b)`` as ``b if b > a else a``: the builtins' tie rules (the first
argument wins a tie), hence the same value and type, at a fraction of a
builtin call's cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

__all__ = [
    "PqModel",
    "Formulation",
    "PqVariant",
    "PqState",
    "step_pq",
    "well_definedness_bound",
]


class PqModel(Enum):
    PQM1 = "pqm1"
    PQM2 = "pqm2"
    PQM3 = "pqm3"
    PQM4 = "pqm4"

    def __init__(self, value: str) -> None:
        # Plain member attributes, not properties: the step kernels read them every step.
        self.demand_includes_feed = value in ("pqm1", "pqm3")  # demand = feed + lam, else lam
        self.supply_includes_service = value in ("pqm1", "pqm4")  # supply = service + room, else room

    @property
    def label(self) -> str:
        return self.name


class Formulation(Enum):
    QUEUE = "A"  # queue length is the state variable
    CUMULATIVE = "B"  # cumulative in/out flows are the state variables


@dataclass(frozen=True)
class PqVariant:
    model: PqModel
    formulation: Formulation = Formulation.QUEUE


class PqState(NamedTuple):
    """Point-queue state: queue length plus cumulative in/out flows.

    ``queue`` is authoritative under formulation A; under formulation B it
    is always ``arrivals - departures``.  Conventions: arrivals(0) equals
    the initial content, departures(0) = 0.  Immutable; a step returns a
    new state.
    """

    queue: float
    arrivals: float  # F, cumulative inflow [veh]
    departures: float  # G, cumulative outflow [veh]

    @classmethod
    def initial(cls, content) -> "PqState":
        return cls(content, content, content * 0)


def _step_with_volumes(model: PqModel, lam, feed, service, capacity, clamp: bool):
    """The junction rule for one step; returns (lam_next, inflow, outflow) as volumes.

    ``feed`` and ``service`` are the volumes offered from upstream and
    accepted downstream during the step (service None = unlimited).  The
    drained term resolves lam - outflow algebraically so that a queue
    hitting a floor or ceiling lands on the exact value (0, feed,
    capacity - service, ...) instead of accumulating round-off.  The demand
    and supply volumes are those of the module docstring's table; the supply
    is None when unlimited (``capacity`` None, or ``service`` None in
    PQM1/PQM4).  The scenario loop calls it once per step and keeps the
    state (and formulation B's lam = F - G) in its own locals.
    """
    with_feed = model.demand_includes_feed
    if capacity is None:
        svol = None
    else:
        svol = capacity - lam
        if model.supply_includes_service:
            svol = None if service is None else service + svol
    inflow = feed if svol is None else (svol if svol < feed else feed)
    dvol = feed + lam if with_feed else lam
    if service is None:
        outflow = dvol
        drained = -feed if with_feed else 0
    else:
        outflow = service if service < dvol else dvol
        drained = lam - service
        if with_feed:
            drained = drained if drained > -feed else -feed
        else:
            drained = drained if drained > 0 else 0
    lam_next = inflow + drained
    if clamp:
        # Absorbs last-ulp float excursions only: within the admissible
        # step bound the exact update never leaves [0, capacity].
        lam_next = 0 if 0 > lam_next else lam_next
        if capacity is not None and capacity < lam_next:
            lam_next = capacity
    return lam_next, inflow, outflow


_CUMULATIVE = Formulation.CUMULATIVE
_new_tuple = tuple.__new__  # builds a state tuple without NamedTuple.__new__'s Python frame


def _advance_state(variant: PqVariant, state: PqState, step, feed, service, capacity, clamp) -> PqState:
    """Apply the junction rule ``step`` to ``state``; formulation B rederives lam = F - G before and after."""
    lam, arrivals, departures = state
    cumulative = variant.formulation is _CUMULATIVE
    if cumulative:
        lam = arrivals - departures
    lam, inflow, outflow = step(variant.model, lam, feed, service, capacity, clamp)
    arrivals = arrivals + inflow
    departures = departures + outflow
    return _new_tuple(PqState, (arrivals - departures if cumulative else lam, arrivals, departures))


def step_pq(
    variant: PqVariant,
    state: PqState,
    delta,
    sigma,
    dt,
    capacity,
    clamp: bool = True,
) -> PqState:
    """Advance a point queue by one step of size dt.

    Formulation A updates the queue length; formulation B updates the
    cumulative flows and rederives the queue length as F - G.  ``clamp``
    keeps the queue inside [0, capacity] against floating-point dust; pass
    ``clamp=False`` to reproduce admissibility failures with out-of-bound
    step sizes.
    """
    return _advance_state(variant, state, _step_with_volumes, delta * dt, sigma * dt, capacity, clamp)


def well_definedness_bound(
    variant: PqVariant | PqModel,
    delta_max: float,
    sigma_max: float,
    capacity: float | None,
) -> float:
    """Largest dt for which one step maps [0, capacity] into itself.

    PQM1 and PQM2 admit any step size; PQM3 is limited by the service rate
    (capacity / sigma_max), PQM4 by the feed rate (capacity / delta_max).
    Unbounded storage admits any step size in all variants.
    """
    model = variant.model if isinstance(variant, PqVariant) else variant
    if delta_max < 0 or sigma_max < 0:
        raise ValueError("rate bounds must be nonnegative")
    if capacity is None:
        return math.inf
    if model is PqModel.PQM3:
        return math.inf if sigma_max == 0 else capacity / sigma_max
    if model is PqModel.PQM4:
        return math.inf if delta_max == 0 else capacity / delta_max
    return math.inf
