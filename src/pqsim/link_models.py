"""Discrete-time simulators for the two link-based queueing models.

Both models track cumulative flows F (vehicles entered) and G (vehicles
exited) with F(0) = ``params.initial``, the content ``LinkParams`` checks
in [0, storage], G(0) = 0, and compute boundary fluxes
from demand/supply through the junction rule

    inflow  = min(delta, s),   outflow = min(d, sigma).

LQM (link queue model, delay-free): with rho = F - G vehicles on the link,

    d = min(rho / T1, capacity),   s = min((storage - rho) / T2, capacity)

and a forward-Euler step rho' = rho + dt * (min(delta, s) - min(d, sigma)).
Its right-hand side is continuous, so trajectories are smooth; stability
of the explicit step requires dt <= min(T1, T2).

LTM (link transmission model, delay-based): the queue at the downstream
end and the vacancy at the upstream end are

    queue(t)   = F(t - T1) - G(t)
    vacancy(t) = G(t - T2) + storage - F(t)

and the step volumes are

    demand = min(flux_in(t - T1) * dt + queue,   capacity * dt)
    supply = min(flux_out(t - T2) * dt + vacancy, capacity * dt).

Delayed values are interpolated linearly in the cumulative-flow histories,
so T1 and T2 need not be grid multiples.  For t <= 0 the histories are
seeded from the uniform initial density: the virtual inflow ramps so that
F(s) = content * (1 + s/T1) on [-T1, 0], and symmetrically for G, which
reproduces the constant-rate start-up regime of both boundaries.  Within
dt <= min(T1, T2), which scenario validation enforces, reads never look
past the current time; under ``unsafe`` a read past the present returns
the latest recorded value.

Each model's arithmetic is one kernel, ``_lqm_advance``/``_ltm_advance``
(params, dt, arrivals, departures, rates), that runs any number of steps
with F, G in locals and appends them after each step to the caller's lists:
the histories, and a run's F and G columns less the final entry.  The
``*Simulation`` classes call it one step at a time.
Within one call the LTM reuses a step's later reads as the next step's
earlier reads when the arguments are ``==`` and the read was not past the
present (dt = T1, or unsafe); it picks values, not operands: no result moves.
"""

from __future__ import annotations

from .links import LinkParams

__all__ = ["LqmSimulation", "LtmSimulation"]


def _lqm_advance(params: LinkParams, dt: float, arrivals: list, departures: list, rates) -> tuple[list, list, list]:
    """Step the LQM per (delta, sigma) of ``rates``; (contents F - G at the step starts, inflow, outflow volumes).

    d and s are unchecked: within dt <= min(T1, T2) rho stays in [0, storage]; an unsafe run shows where it goes.
    """
    t1, t2, storage, cap = params.free_flow_time, params.wave_time, params.storage, params.capacity
    f, g = arrivals[-1], departures[-1]
    queues, inflows, outflows = [], [], []
    for delta, sigma in rates:
        rho = f - g
        d = rho / t1
        d = cap if cap < d else d
        s = (storage - rho) / t2
        s = cap if cap < s else s
        inflow = (s if s < delta else delta) * dt
        outflow = (sigma if sigma < d else d) * dt
        f += inflow
        g += outflow
        arrivals.append(f)
        departures.append(g)
        queues.append(rho)
        inflows.append(inflow)
        outflows.append(outflow)
    return queues, inflows, outflows


def _ltm_advance(params: LinkParams, dt: float, arrivals: list, departures: list, rates) -> tuple[list, list, list]:
    """Step the LTM per (delta, sigma) of ``rates``; (queues F(t - T1) - G(t) at the step starts, inflow, outflow).

    F and G at t - T1 (t - T2) and one step later come from the histories
    from t = 0 for s > 0 and the seed for s <= 0.  The read at t + dt - T1
    serves as the next step's read at t' - T1 if the two arguments are ``==``
    (``a_at``; G alike), unless it fell past the present (``j >= last``).
    """
    t1, t2, storage, initial = params.free_flow_time, params.wave_time, params.storage, params.initial
    seed_outflow = (storage - initial) / t2  # the slope of G's virtual seed
    cap_volume = params.capacity * dt
    f, g = arrivals[-1], departures[-1]
    last = len(arrivals) - 1  # index of F(t) and G(t) in the histories
    queues, inflows, outflows = [], [], []
    a_at = d_at = float("nan")  # the arguments of the carried reads a_hi, d_hi; NaN equals none
    for delta, sigma in rates:
        t = last * dt
        a_lo = t - t1
        # F's seed: the inflow ramp ending at F(0) = initial content.
        if a_lo == a_at:
            a_lo = a_hi
        elif a_lo <= 0:
            seed = initial * (1.0 + a_lo / t1)
            a_lo = seed if seed > 0.0 else 0.0
        else:
            pos = a_lo / dt
            j = int(pos)
            a_lo = f if j >= last else arrivals[j] + (pos - j) * (arrivals[j + 1] - arrivals[j])
        a_at = t + dt - t1
        if a_at <= 0:
            seed = initial * (1.0 + a_at / t1)
            a_hi = seed if seed > 0.0 else 0.0
        else:
            pos = a_at / dt
            j = int(pos)
            if j >= last:
                a_hi, a_at = f, float("nan")
            else:
                a_hi = arrivals[j] + (pos - j) * (arrivals[j + 1] - arrivals[j])
        d_lo = t - t2
        # G's seed: negative values encode the pre-simulation ramp.
        if d_lo == d_at:
            d_lo = d_hi
        elif d_lo <= 0:
            d_lo = seed_outflow * d_lo
        else:
            pos = d_lo / dt
            j = int(pos)
            d_lo = g if j >= last else departures[j] + (pos - j) * (departures[j + 1] - departures[j])
        d_at = t + dt - t2
        if d_at <= 0:
            d_hi = seed_outflow * d_at
        else:
            pos = d_at / dt
            j = int(pos)
            if j >= last:
                d_hi, d_at = g, float("nan")
            else:
                d_hi = departures[j] + (pos - j) * (departures[j + 1] - departures[j])
        queue = a_lo - g
        queue = queue if queue > 0.0 else 0.0
        vacancy = d_lo + storage - f
        vacancy = vacancy if vacancy > 0.0 else 0.0
        demand = (a_hi - a_lo) + queue
        demand = cap_volume if cap_volume < demand else demand
        supply = (d_hi - d_lo) + vacancy
        supply = cap_volume if cap_volume < supply else supply
        inflow = delta * dt
        inflow = supply if supply < inflow else inflow
        outflow = sigma * dt
        outflow = outflow if outflow < demand else demand
        f += inflow
        g += outflow
        arrivals.append(f)
        departures.append(g)
        last += 1
        queues.append(queue)
        inflows.append(inflow)
        outflows.append(outflow)
    return queues, inflows, outflows


class _LinkSimulation:
    """A link run stepped one pair at a time; ``step_queue`` is the queue the latest step started from."""

    def __init__(self, params: LinkParams, dt: float):
        if not dt > 0:  # the dt <= min(T1, T2) bound is the scenario's to enforce
            raise ValueError(f"dt must be positive (got {dt})")
        self.params, self.dt = params, dt
        self._arrivals, self._departures, self.step_queue = [params.initial], [0.0], None  # F, G from t = 0

    arrivals = property(lambda self: self._arrivals[-1], doc="F(t), the last entry of the history.")
    departures = property(lambda self: self._departures[-1], doc="G(t), the last entry of the history.")


class LqmSimulation(_LinkSimulation):
    """Delay-free link simulation; ``step_queue`` is the content F - G."""

    def step(self, delta: float, sigma: float) -> tuple[float, float]:
        """Advance one step; returns (inflow, outflow) volumes [veh]."""
        args = (self.params, self.dt, self._arrivals, self._departures, ((delta, sigma),))
        (self.step_queue,), (inflow,), (outflow,) = _lqm_advance(*args)
        return inflow, outflow


class LtmSimulation(_LinkSimulation):
    """Delay-based link simulation; ``step_queue`` is the downstream queue F(t - T1) - G(t)."""

    def step(self, delta: float, sigma: float) -> tuple[float, float]:
        """Advance one step; returns (inflow, outflow) volumes [veh]."""
        args = (self.params, self.dt, self._arrivals, self._departures, ((delta, sigma),))
        (self.step_queue,), (inflow,), (outflow,) = _ltm_advance(*args)
        return inflow, outflow
