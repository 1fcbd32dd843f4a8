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

__all__ = ["LqmSimulation", "LtmSimulation", "lqm_demand_supply"]


def lqm_demand_supply(rho: float, params: LinkParams) -> tuple[float, float]:
    """Delay-free link demand and supply rates (d, s) [veh/hr]."""
    if not 0 <= rho <= params.storage:
        raise ValueError(f"link content must lie in [0, {params.storage}] (got {rho})")
    return _lqm_rates(rho, params)


def _lqm_rates(rho: float, params: LinkParams) -> tuple[float, float]:
    # Unchecked: within dt <= min(T1, T2) the step keeps rho in [0, storage];
    # an unsafe run past that bound shows where rho goes instead of stopping.
    cap = params.capacity
    return min(rho / params.free_flow_time, cap), min((params.storage - rho) / params.wave_time, cap)


def _check_step(dt: float) -> None:
    """The structural check only; the dt <= min(T1, T2) bound is the scenario's to enforce."""
    if dt <= 0:
        raise ValueError(f"dt must be positive (got {dt})")


class LqmSimulation:
    """Delay-free link simulation; owns its state for the whole run."""

    def __init__(self, params: LinkParams, initial_vehicles: float, dt: float):
        if not 0 <= initial_vehicles <= params.storage:
            raise ValueError(
                f"initial content must lie in [0, {params.storage}] (got {initial_vehicles})"
            )
        _check_step(dt)
        self.params = params
        self.dt = dt
        self.arrivals = initial_vehicles  # F
        self.departures = 0.0  # G
        self._steps = 0

    @property
    def clock(self) -> float:
        return self._steps * self.dt

    @property
    def vehicles(self) -> float:
        """Current content rho = F - G [veh]."""
        return self.arrivals - self.departures

    def step(self, delta: float, sigma: float) -> tuple[float, float]:
        """Advance one step; returns (inflow, outflow) volumes [veh]."""
        d, s = _lqm_rates(self.arrivals - self.departures, self.params)
        inflow = min(delta, s) * self.dt
        outflow = min(d, sigma) * self.dt
        self.arrivals += inflow
        self.departures += outflow
        self._steps += 1
        return inflow, outflow


class LtmSimulation:
    """Delay-based link simulation with interpolated cumulative histories."""

    def __init__(self, params: LinkParams, initial_vehicles: float, dt: float):
        if not 0 <= initial_vehicles <= params.storage:
            raise ValueError(
                f"initial content must lie in [0, {params.storage}] (got {initial_vehicles})"
            )
        _check_step(dt)
        self.params = params
        self.dt = dt
        self.initial_vehicles = initial_vehicles
        self._arrivals = [initial_vehicles]  # F on the grid from t = 0
        self._departures = [0.0]  # G on the grid from t = 0
        self._steps = 0

    @property
    def clock(self) -> float:
        return self._steps * self.dt

    @property
    def arrivals(self) -> float:
        return self._arrivals[-1]

    @property
    def departures(self) -> float:
        return self._departures[-1]

    @property
    def vehicles(self) -> float:
        return self.arrivals - self.departures

    def _interp(self, series: list[float], s: float) -> float:
        pos = s / self.dt
        j = int(pos)
        if j >= len(series) - 1:
            return series[-1]
        frac = pos - j
        return series[j] + frac * (series[j + 1] - series[j])

    def _arrivals_at(self, s: float) -> float:
        if s <= 0:
            # Virtual seed: inflow ramp ending at F(0) = initial content.
            return max(0.0, self.initial_vehicles * (1.0 + s / self.params.free_flow_time))
        return self._interp(self._arrivals, s)

    def _departures_at(self, s: float) -> float:
        if s <= 0:
            # Virtual seed: negative values encode the pre-simulation ramp.
            return (self.params.storage - self.initial_vehicles) / self.params.wave_time * s
        return self._interp(self._departures, s)

    @property
    def queue_size(self) -> float:
        """Downstream queue F(t - T1) - G(t) [veh]."""
        t = self.clock
        return max(0.0, self._arrivals_at(t - self.params.free_flow_time) - self.departures)

    @property
    def vacancy(self) -> float:
        """Upstream vacancy G(t - T2) + storage - F(t) [veh]."""
        t = self.clock
        return max(0.0, self._departures_at(t - self.params.wave_time) + self.params.storage - self.arrivals)

    def demand_supply_volumes(self) -> tuple[float, float]:
        """Demand and supply volumes (d*dt, s*dt) [veh] for the next step."""
        t = self.clock
        dt = self.dt
        params = self.params
        t1 = params.free_flow_time
        t2 = params.wave_time
        cap_volume = params.capacity * dt
        # F(t - T1) and G(t - T2) are read once each and shared with the
        # queue_size and vacancy formulas.
        arrivals_lo = self._arrivals_at(t - t1)
        departures_lo = self._departures_at(t - t2)
        queue = max(0.0, arrivals_lo - self._departures[-1])
        vacancy = max(0.0, departures_lo + params.storage - self._arrivals[-1])
        demand = min((self._arrivals_at(t + dt - t1) - arrivals_lo) + queue, cap_volume)
        supply = min((self._departures_at(t + dt - t2) - departures_lo) + vacancy, cap_volume)
        return demand, supply

    def step(self, delta: float, sigma: float) -> tuple[float, float]:
        """Advance one step; returns (inflow, outflow) volumes [veh]."""
        demand, supply = self.demand_supply_volumes()
        inflow = min(delta * self.dt, supply)
        outflow = min(demand, sigma * self.dt)
        self._arrivals.append(self._arrivals[-1] + inflow)
        self._departures.append(self._departures[-1] + outflow)
        self._steps += 1
        return inflow, outflow
