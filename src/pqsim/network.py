"""Point queues in series with demand/supply coupling (spillback).

Queues are chained with the same junction rule as a single queue: the flux
from queue i to queue i+1 is min(demand volume of i, supply volume of
i+1).  The role the origin feed plays for the first queue is played, for
every interior queue, by the demand volume of its upstream neighbour; the
role the destination service plays for the last queue is played, for
every interior queue, by the supply volume of its downstream neighbour.
For two queues with the first unbounded this gives

    d1 = feed + lam1              s1 = unlimited
    d2 = d1 + lam2                s2 = service + (cap2 - lam2)
    lam1' = lam1 + feed - min(d1, s2)
    lam2' = lam2 + min(d1, s2) - min(d2, service)

so a full downstream queue throttles its supply to the service volume and
the excess backs up into the upstream queue.

As for a single point queue, the caller carries the state and the step
takes and returns volumes: :func:`step_tandem` reads each queue's
cumulative inflow F and outflow G and the origin feed and destination
service volumes (delta*dt and sigma*dt), and returns the volume crossing
every boundary.  All demands and supplies are evaluated from the
step-start state, then all fluxes (a Jacobi sweep).  Queue lengths are
derived as F - G; since each inter-queue flux is a single value credited
to one queue's outflow and the next queue's inflow, total conservation
(sum of contents equals cumulative origin inflow minus destination
outflow) holds to round-off by construction, without accumulating drift.
"""

from __future__ import annotations

from collections import namedtuple
from math import inf
from operator import sub

from .errors import checked_make
from .point_queue import PqModel

__all__ = ["TandemQueue", "TandemSpec", "step_tandem"]


class TandemQueue(namedtuple("TandemQueue", "spec model", defaults=(PqModel.PQM1,))):
    """One queue of a tandem: its ``QueueSpec`` and its variant."""

    __slots__ = ()


class TandemSpec(namedtuple("TandemSpec", "queues")):
    """Ordered queues (a tuple of ``TandemQueue``) from origin to destination."""

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, queues):
        queues = tuple(queues)
        if not queues:
            raise ValueError("a tandem needs at least one queue")
        return super().__new__(cls, queues)

    @property
    def mixed_models(self) -> bool:
        """True when queues use different update variants (experimental)."""
        return len({q.model for q in self.queues}) > 1


def step_tandem(spec: TandemSpec, arrivals, departures, feed, service) -> list:
    """The junction rule at every boundary for one step; returns the boundary volumes.

    ``arrivals`` and ``departures`` hold each queue's cumulative F and G at
    the step start.  The result has one volume per boundary: origin
    inflow, each inter-queue flux, destination outflow (number of queues
    + 1).  The caller adds it to F and its tail to G; the state is
    cumulative, so there is no queue length to clamp.
    """
    lams = list(map(sub, arrivals, departures))
    queues = spec.queues
    # Demand volumes propagate origin-to-destination: each queue's feed is
    # its upstream neighbour's demand volume.
    demands = [feed]
    for lam, (_, model) in zip(lams, queues):
        feed = feed + lam if model.demand_includes_feed else lam
        demands.append(feed)
    # Supply volumes propagate destination-to-origin: each queue's service
    # is its downstream neighbour's supply volume (inf = unlimited).
    supplies = [service]
    for lam, (queue, model) in zip(reversed(lams), reversed(queues)):
        capacity = queue.capacity
        if capacity is None:
            service = inf
        else:
            service = service + (capacity - lam) if model.supply_includes_service else capacity - lam
        supplies.append(service)
    supplies.reverse()
    # Each boundary carries min(demand, supply), credited verbatim to the
    # outflow of one queue and the inflow of the next.
    return [s if s < d else d for d, s in zip(demands, supplies)]
