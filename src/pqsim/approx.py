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

and the forward-Euler step is

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

Both are :func:`step_eps` with ``capacity=None``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .point_queue import _CUMULATIVE, PqModel, PqState, PqVariant, _new_tuple
from .point_queue import _advance as point_queue_advance

__all__ = [
    "EpsilonConfig",
    "step_eps",
]


@dataclass(frozen=True)
class EpsilonConfig:
    """Relaxation time and step size for the relaxed models.

    Requires eps > 0 and dt <= eps; capacity-dependent admissibility is
    checked at scenario validation where the rate bounds are known.
    ``unsafe=True`` skips the dt <= eps check so inadmissible steps can be
    demonstrated deliberately.
    """

    epsilon: float
    dt: float
    unsafe: bool = False

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive (got {self.epsilon})")
        if self.dt <= 0:
            raise ValueError(f"dt must be positive (got {self.dt})")
        if self.dt > self.epsilon and not self.unsafe:
            raise ValueError(
                f"relaxed discrete models require dt <= epsilon (got dt={self.dt}, epsilon={self.epsilon})"
            )


def _eps_advance(model: PqModel, lam, feed, service, capacity, ratio, clamp: bool):
    """One relaxed update; ``ratio`` is dt/eps (exactly 1 collapses to the exact model).

    ``min``/``max`` are spelled as conditional expressions with the builtins'
    tie rules, as in :func:`point_queue._advance`.
    """
    if ratio == 1:
        # dt = eps reproduces the exact discrete model, volumes and all.
        return point_queue_advance(model, lam, feed, service, capacity, clamp)
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


def _step_with_volumes(variant, state, delta, sigma, cfg, capacity, clamp):
    lam, arrivals, departures = state
    cumulative = variant.formulation is _CUMULATIVE
    if cumulative:
        lam = arrivals - departures
    dt = cfg.dt
    lam_next, inflow, outflow = _eps_advance(
        variant.model, lam, delta * dt, sigma * dt, capacity, dt / cfg.epsilon, clamp
    )
    arrivals = arrivals + inflow
    departures = departures + outflow
    if cumulative:
        lam_next = arrivals - departures
    return _new_tuple(PqState, (lam_next, arrivals, departures)), inflow, outflow


def step_eps(
    variant: PqVariant,
    state: PqState,
    delta,
    sigma,
    cfg: EpsilonConfig,
    capacity,
    clamp: bool = True,
) -> PqState:
    """Advance a relaxed point queue by one step of size cfg.dt."""
    return _step_with_volumes(variant, state, delta, sigma, cfg, capacity, clamp)[0]

