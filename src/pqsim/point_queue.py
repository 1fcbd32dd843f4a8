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
``lam' = max(0, lam + feed - service)``: :func:`_step_with_volumes` with
``capacity=None``, which the scenario model ``vickrey`` runs.  PQM3 with
finite capacity is the storage/release recursion used for dam processes:
``lam' = min(feed + lam, capacity) - min(feed + lam, service)``.

Step-size admissibility: PQM1 and PQM2 map [0, capacity] into itself for
any dt.  PQM3 needs dt <= capacity / max sigma and PQM4 needs
dt <= capacity / max delta; beyond those bounds a single step can leave
the physical range (see :func:`well_definedness_bound`).

A run carries the update in one of two formulations, both in
``scenario._run_point``: formulation A carries the queue length forward;
formulation B carries the cumulative inflow F and outflow G and derives
lam = F - G around the junction rule, not inside it.  They apply identical
volume expressions and coincide exactly in exact arithmetic.  Every
function here uses plain arithmetic and comparisons only, so it can be run
on ``fractions.Fraction`` states for bit-exact checks.  The step kernels spell ``min(a, b)`` as ``b if b < a else a`` and
``max(a, b)`` as ``b if b > a else a``: the builtins' tie rules (the first
argument wins a tie), hence the same value and type, at a fraction of a
builtin call's cost.
"""

from __future__ import annotations

import math
from enum import Enum

__all__ = [
    "PqModel",
    "Formulation",
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


def _step_with_volumes(model: PqModel, lam, feed, service, capacity, clamp: bool):
    """The junction rule for one step; returns (lam_next, inflow, outflow) as volumes.

    ``feed`` and ``service`` are the volumes offered from upstream and
    accepted downstream during the step.  The drained term resolves lam -
    outflow algebraically so that a queue hitting a floor or ceiling lands
    on the exact value (0, feed, capacity - service, ...) instead of
    accumulating round-off.  The demand and supply volumes are those of the
    module docstring's table; unbounded storage (``capacity`` None) takes
    in the whole feed.  The scenario loop calls it once per step and keeps
    the state (and formulation B's lam = F - G) in its own locals.
    """
    with_feed = model.demand_includes_feed
    if capacity is None:
        inflow = feed
    else:
        svol = capacity - lam
        if model.supply_includes_service:
            svol = service + svol
        inflow = svol if svol < feed else feed
    dvol = feed + lam if with_feed else lam
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


def _limiting_rate(model: PqModel, delta_max, sigma_max):
    """(name, rate) of the rate that bounds one step of ``model``; None when any step is admissible.

    A full PQM3 queue takes in nothing yet can discharge the whole service
    volume; an empty PQM4 queue discharges nothing yet can admit the whole
    feed volume.  PQM1 and PQM2 map [0, capacity] into itself at any step.
    :func:`_violated_bound` passes each side as a (rate, held) pair.
    """
    if model is PqModel.PQM3:
        return "sigma_max", sigma_max
    if model is PqModel.PQM4:
        return "delta_max", delta_max
    return None


def well_definedness_bound(model: PqModel, delta_max: float, sigma_max: float, capacity: float | None) -> float:
    """Largest dt for which one step maps [0, capacity] into itself.

    That is capacity over the model's limiting rate (:func:`_limiting_rate`),
    rounded down (:func:`_largest_step`), so the scenario checks admit it;
    infinite for PQM1, PQM2, unbounded storage or a zero limiting rate.
    """
    if delta_max < 0 or sigma_max < 0:
        raise ValueError("rate bounds must be nonnegative")
    limit = _limiting_rate(model, delta_max, sigma_max)
    if capacity is None or limit is None or limit[1] == 0:
        return math.inf
    return _largest_step(capacity, limit[1])


def _fits(value, rate, room) -> bool:
    """Whether value * rate <= room, decided exactly; ``room`` is an integer ratio (numerator, denominator)."""
    x, x_den = value.as_integer_ratio()
    r, r_den = rate.as_integer_ratio()
    return x * r * room[1] <= room[0] * x_den * r_den


def _largest_step(capacity, rate):
    """The largest value whose volume value * rate fits in ``capacity``: the quotient, rounded down.

    The float quotient is correctly rounded, so it lies at most one step
    past the largest; 0 for an infinite rate.
    """
    bound = capacity / rate
    if 0 < bound < math.inf and not _fits(bound, rate, capacity.as_integer_ratio()):
        bound = math.nextafter(bound, 0)
    return bound


def _violated_bound(model: PqModel, value, feed, service, capacity, var="dt"):
    """None when a step of size ``value`` (dt, or eps for a relaxed model) is admissible, else the broken requirement.

    ``feed`` and ``service`` are each a side's (largest rate, held): its
    volume is value * rate plus the held capacities, those of a tandem
    member's neighbours whose storage adds to it (inf when unbounded), none
    for a lone queue.  A step is admissible when the limiting side's volume
    (:func:`_limiting_rate`) is at most ``capacity``, decided exactly on
    integer ratios, as the float quotient capacity/rate can lie half an ulp
    past the true bound; an infinite rate admits no step.  A lone queue's
    requirement shows its largest admissible value, with ``:.4g`` unless
    that reads no lower than ``value``.
    """
    limit = _limiting_rate(model, feed, service)
    if capacity is None or limit is None:
        return None
    name, (rate, held) = limit
    if rate < math.inf and math.inf not in held:
        room, den = capacity.as_integer_ratio()  # capacity - sum(held) == room/den
        for h in held:
            h, h_den = h.as_integer_ratio()
            room, den = room * h_den - h * den, den * h_den
        if _fits(value, rate, (room, den)):
            return None
    if held:
        side = "service" if name == "sigma_max" else "feed"
        terms = " + ".join([*map(repr, held), f"{var}*{name}"] if rate else map(repr, held))
        return f"the largest {side} volume {terms} <= capacity = {capacity!r} veh"
    bound = _largest_step(capacity, rate)
    shown = f"{bound:.4g}"
    return f"{var} <= capacity/{name} = {shown if float(shown) < value else repr(bound)} hr"
