"""Point queues in series with demand/supply coupling (spillback).

Queues are chained with the same junction rule as a single queue: the flux
from queue i to queue i+1 is min(demand volume of i, supply volume of
i+1).  The role the origin feed plays for the first queue is played, for
every interior queue, by the demand volume of its upstream neighbour; the
role the destination service plays for the last queue is played, for
every interior queue, by the supply volume of its downstream neighbour.
For two queues with the first unbounded this gives

    d1 = delta*dt + lam1          s1 = unlimited
    d2 = d1 + lam2                s2 = sigma*dt + (cap2 - lam2)
    lam1' = lam1 + delta*dt - min(d1, s2)
    lam2' = lam2 + min(d1, s2) - min(d2, sigma*dt)

so a full downstream queue throttles its supply to the service rate and
the excess backs up into the upstream queue.

All demands and supplies are evaluated from the step-start state, then all
fluxes, then all updates (a Jacobi sweep).  The state carries per-queue
cumulative flows and derives queue lengths from them; since each
inter-queue flux is a single shared value credited to one queue's outflow
and the next queue's inflow, total conservation (sum of contents equals
cumulative origin inflow minus destination outflow) holds to round-off by
construction, without accumulating drift.
"""

from __future__ import annotations

from collections import namedtuple
from operator import add, sub

from .point_queue import PqModel, _new_tuple

__all__ = ["TandemQueue", "TandemSpec", "TandemState", "step_tandem"]


class TandemQueue(namedtuple("TandemQueue", "spec model", defaults=(PqModel.PQM1,))):
    """One queue of a tandem: its ``QueueSpec`` and its variant."""

    __slots__ = ()


class TandemSpec:
    """Ordered queues (a tuple of ``TandemQueue``) from origin to destination; immutable.

    Slots rather than a namedtuple: the step reads two derived tuples every
    step, and a tuple subclass's instance-dict reads cost about twice a slot's.
    """

    __slots__ = ("queues", "_with_feed", "_upstream_supply")

    def __init__(self, queues):
        queues = tuple(queues)
        if not queues:
            raise ValueError("a tandem needs at least one queue")
        # What the step reads per queue, taken once: demand flags origin to
        # destination, (capacity, supply flag) destination to origin.
        object.__setattr__(self, "queues", queues)
        object.__setattr__(self, "_with_feed", tuple(q.model.demand_includes_feed for q in queues))
        upstream = tuple((q.spec.capacity, q.model.supply_includes_service) for q in reversed(queues))
        object.__setattr__(self, "_upstream_supply", upstream)

    def __setattr__(self, name, value):
        raise AttributeError(f"TandemSpec is immutable (cannot assign {name!r})")

    def __repr__(self) -> str:
        return f"TandemSpec(queues={self.queues!r})"

    def __eq__(self, other):
        return self.queues == other.queues if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash((self.queues,))

    @property
    def mixed_models(self) -> bool:
        """True when queues use different update variants (experimental)."""
        return len({q.model for q in self.queues}) > 1


class TandemState(namedtuple("TandemState", "arrivals departures")):
    """Cumulative inflow/outflow lists per queue; queue lengths are derived."""

    __slots__ = ()

    @classmethod
    def initial(cls, spec: TandemSpec) -> "TandemState":
        contents = [q.spec.initial for q in spec.queues]
        return cls(list(contents), [c * 0 for c in contents])

    @property
    def queues(self) -> list[float]:
        return list(map(sub, self.arrivals, self.departures))


def step_tandem(spec: TandemSpec, state: TandemState, delta, sigma, dt) -> tuple[TandemState, list]:
    """Advance the whole tandem one step; returns (state', fluxes).

    ``fluxes`` has one volume per boundary: origin inflow, each
    inter-queue flux, destination outflow (length = number of queues + 1).
    The state is cumulative, so there is no queue length to clamp.
    """
    arrivals, departures = state
    lams = list(map(sub, arrivals, departures))
    # Demand volumes propagate origin-to-destination: each queue's feed is
    # its upstream neighbour's demand volume.
    demand = delta * dt
    demands = [demand]
    for lam, with_feed in zip(lams, spec._with_feed):
        demand = demand + lam if with_feed else lam
        demands.append(demand)
    # Supply volumes propagate destination-to-origin: each queue's service
    # is its downstream neighbour's supply volume (None = unlimited).
    supply = sigma * dt
    supplies = [supply]
    for lam, (capacity, with_service) in zip(reversed(lams), spec._upstream_supply):
        if capacity is None:
            supply = None
        elif with_service:
            supply = None if supply is None else supply + (capacity - lam)
        else:
            supply = capacity - lam
        supplies.append(supply)
    supplies.reverse()
    # Each boundary carries min(demand, supply), credited verbatim to the
    # outflow of one queue and the inflow of the next.
    fluxes = [d if s is None else (s if s < d else d) for d, s in zip(demands, supplies)]
    arrivals = list(map(add, arrivals, fluxes))
    departures = list(map(add, departures, fluxes[1:]))
    return _new_tuple(TandemState, (arrivals, departures)), fluxes
