"""Discrete-time simulators for the two link-based queueing models.

Both models track cumulative flows F (vehicles entered) and G (vehicles
exited) with F(0) = initial content, G(0) = 0, and compute boundary fluxes
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

Delayed values are read from the stored cumulative-flow histories by
linear interpolation, so T1 and T2 need not be grid multiples.  Histories
are seeded analytically for t <= 0 from the uniform initial density: the
virtual pre-simulation inflow ramps linearly so that F(s) = content *
(1 + s/T1) on [-T1, 0], and symmetrically for G, which reproduces the
constant-rate start-up regime of both boundaries.  Within the step bound
dt <= min(T1, T2), which scenario validation enforces, reads never look
past the current time; under ``unsafe`` a read past the present returns
the latest recorded value.
"""

from __future__ import annotations

from .links import LinkParams

__all__ = ["LqmSimulation", "LtmSimulation"]


def _check_start(params: LinkParams, initial_vehicles: float, dt: float) -> None:
    """The structural checks only; the dt <= min(T1, T2) bound is the scenario's to enforce."""
    if not 0 <= initial_vehicles <= params.storage:
        raise ValueError(f"initial content must lie in [0, {params.storage}] (got {initial_vehicles})")
    if dt <= 0:
        raise ValueError(f"dt must be positive (got {dt})")


class LqmSimulation:
    """Delay-free link simulation; owns its state for the whole run.

    ``step_queue`` is the content F - G the latest step started from.
    """

    def __init__(self, params: LinkParams, initial_vehicles: float, dt: float):
        _check_start(params, initial_vehicles, dt)
        self.params = params
        self.dt = dt
        self.arrivals = initial_vehicles  # F
        self.departures = 0.0  # G
        self.step_queue = None
        # What the step reads of params, taken once.
        self._rate_terms = (params.free_flow_time, params.wave_time, params.storage, params.capacity)

    def step(self, delta: float, sigma: float) -> tuple[float, float]:
        """Advance one step; returns (inflow, outflow) volumes [veh].

        The rates d and s are the module docstring's, unchecked: within
        dt <= min(T1, T2) the step keeps rho in [0, storage], and an unsafe
        run past that bound shows where rho goes instead of stopping.
        """
        t1, t2, storage, cap = self._rate_terms
        rho = self.arrivals - self.departures
        d = rho / t1
        d = cap if cap < d else d
        s = (storage - rho) / t2
        s = cap if cap < s else s
        inflow = (s if s < delta else delta) * self.dt
        outflow = (sigma if sigma < d else d) * self.dt
        self.arrivals += inflow
        self.departures += outflow
        self.step_queue = rho
        return inflow, outflow


class LtmSimulation:
    """Delay-based link simulation with interpolated cumulative histories.

    ``arrivals`` and ``departures`` are F(t) and G(t), the last entries of
    the histories; ``step_queue`` is the downstream queue F(t - T1) - G(t)
    the latest step started from.
    """

    def __init__(self, params: LinkParams, initial_vehicles: float, dt: float):
        _check_start(params, initial_vehicles, dt)
        self.params = params
        self.dt = dt
        self.initial_vehicles = initial_vehicles
        self.arrivals = initial_vehicles
        self.departures = 0.0
        self.step_queue = None
        self._arrivals = [initial_vehicles]  # F on the grid from t = 0
        self._departures = [0.0]  # G on the grid from t = 0
        # What the step reads of params, taken once: the two delays, the
        # storage, and the slope of G's virtual seed.
        self._delays = (params.free_flow_time, params.wave_time)
        self._storage = params.storage
        self._seed_outflow = (params.storage - initial_vehicles) / params.wave_time
        self._cap_volume = params.capacity * dt

    def _volumes(self) -> tuple[float, float, float]:
        """(queue, demand, supply) [veh] for the next step.

        Four delayed reads: F and G at t - T1 (t - T2) and one step later,
        interpolated linearly in the histories for s > 0 and taken from the
        virtual seed for s <= 0.  F(t - T1) and G(t - T2) are read once each
        and shared by the queue, the vacancy and the volumes.
        """
        dt = self.dt
        last = len(self._arrivals) - 1  # index of F(t) and G(t) in the histories
        t = last * dt
        t1, t2 = self._delays
        series = self._arrivals
        a_lo = t - t1
        a_hi = t + dt - t1
        # F's seed: the inflow ramp ending at F(0) = initial content.
        if a_lo <= 0:
            seed = self.initial_vehicles * (1.0 + a_lo / t1)
            a_lo = seed if seed > 0.0 else 0.0
        else:
            pos = a_lo / dt
            j = int(pos)
            a_lo = series[-1] if j >= last else series[j] + (pos - j) * (series[j + 1] - series[j])
        if a_hi <= 0:
            seed = self.initial_vehicles * (1.0 + a_hi / t1)
            a_hi = seed if seed > 0.0 else 0.0
        else:
            pos = a_hi / dt
            j = int(pos)
            a_hi = series[-1] if j >= last else series[j] + (pos - j) * (series[j + 1] - series[j])
        series = self._departures
        d_lo = t - t2
        d_hi = t + dt - t2
        # G's seed: negative values encode the pre-simulation ramp.
        if d_lo <= 0:
            d_lo = self._seed_outflow * d_lo
        else:
            pos = d_lo / dt
            j = int(pos)
            d_lo = series[-1] if j >= last else series[j] + (pos - j) * (series[j + 1] - series[j])
        if d_hi <= 0:
            d_hi = self._seed_outflow * d_hi
        else:
            pos = d_hi / dt
            j = int(pos)
            d_hi = series[-1] if j >= last else series[j] + (pos - j) * (series[j + 1] - series[j])
        queue = a_lo - self.departures
        queue = queue if queue > 0.0 else 0.0
        vacancy = d_lo + self._storage - self.arrivals
        vacancy = vacancy if vacancy > 0.0 else 0.0
        cap_volume = self._cap_volume
        demand = (a_hi - a_lo) + queue
        demand = cap_volume if cap_volume < demand else demand
        supply = (d_hi - d_lo) + vacancy
        supply = cap_volume if cap_volume < supply else supply
        return queue, demand, supply

    def step(self, delta: float, sigma: float) -> tuple[float, float]:
        """Advance one step; returns (inflow, outflow) volumes [veh]."""
        queue, demand, supply = self._volumes()
        dt = self.dt
        inflow = delta * dt
        inflow = supply if supply < inflow else inflow
        outflow = sigma * dt
        outflow = outflow if outflow < demand else demand
        self.arrivals += inflow
        self.departures += outflow
        self._arrivals.append(self.arrivals)
        self._departures.append(self.departures)
        self.step_queue = queue
        return inflow, outflow
