"""Relaxed point-queue models: smooth approximations with relaxation time eps.

The exact point-queue updates switch instantaneously when the queue hits
empty or full.  Replacing the switching terms with linear relaxations at
rate 1/eps yields differentiable dynamics.  Demand and supply rates
[veh/hr] become

    variant      demand rate              supply rate
    eps-PQM1     delta + lam/eps          sigma + (capacity - lam)/eps
    eps-PQM2     lam/eps                  (capacity - lam)/eps
    eps-PQM3     delta + lam/eps          (capacity - lam)/eps
    eps-PQM4     lam/eps                  sigma + (capacity - lam)/eps

and the forward-Euler step, :func:`_step_with_volumes` (the relaxed
junction rule a relaxed run calls once per step), is

    lam' = lam + min(delta*dt, s*dt) - min(d*dt, sigma*dt).

With dt = eps the step volumes coincide exactly with the exact discrete
models, so the relaxed family contains the exact one.  Admissibility:
eps-PQM1/2 preserve [0, capacity] for any eps; eps-PQM3 needs
eps <= capacity / max sigma and eps-PQM4 needs eps <= capacity / max
delta, the bound :func:`point_queue.well_definedness_bound` gives for dt;
the discrete schemes additionally need dt <= eps.

With unbounded storage, eps-PQM1/eps-PQM3 collapse to the relaxed
bottleneck ("alpha model", alpha = 1/eps)

    lam' = lam + dt * max(delta - sigma, -lam/eps)

and eps-PQM2/eps-PQM4 collapse to the relaxed service model ("eps model")

    lam' = lam + dt * (delta - min(sigma, lam/eps)).

Both are :func:`_step_with_volumes` with ``capacity=None``.
"""

from __future__ import annotations

from .point_queue import PqModel
from .point_queue import _step_with_volumes as _exact_step

__all__: list[str] = []


def _step_with_volumes(ratio, model: PqModel, lam, feed, service, capacity, clamp: bool):
    """The relaxed junction rule for one step; returns (lam_next, inflow, outflow) as volumes.

    ``ratio`` is dt/eps (exactly 1 collapses to the exact model) and comes
    first so that a run binds it once with ``functools.partial``; the rest
    are the arguments of :func:`point_queue._step_with_volumes`.
    ``min``/``max`` are spelled as conditional expressions with the builtins'
    tie rules, as there.
    """
    if ratio == 1:
        # dt = eps reproduces the exact discrete model, volumes and all.
        return _exact_step(model, lam, feed, service, capacity, clamp)
    relax_out = lam * ratio
    dvol = feed + relax_out if model.demand_includes_feed else relax_out
    if capacity is None:
        inflow = feed
    else:
        relax_in = (capacity - lam) * ratio
        svol = service + relax_in if model.supply_includes_service else relax_in
        inflow = svol if svol < feed else feed
    outflow = service if service < dvol else dvol
    lam_next = lam + (inflow - outflow)
    if clamp:
        lam_next = 0 if 0 > lam_next else lam_next
        if capacity is not None and capacity < lam_next:
            lam_next = capacity
    return lam_next, inflow, outflow
