"""Link-model helpers for tests: the next step's volumes, and a run replayed one step at a time."""

import copy
import math

from pqsim import LqmSimulation, LtmSimulation, Trajectory


def next_step_volumes(sim) -> tuple[float, float, float]:
    """(queue, demand, supply) [veh] of the next step, from a copy of ``sim`` stepped at unlimited delta and sigma.

    Either model then takes its whole supply in and lets its whole demand
    out, and ``step_queue`` is the queue the step started from.
    """
    probe = copy.deepcopy(sim)
    supply, demand = probe.step(math.inf, math.inf)
    return probe.step_queue, demand, supply


def replay_link(scenario) -> Trajectory:
    """A link scenario's trajectory from one ``step`` per (delta, sigma) pair, recorded row by row.

    Row k holds F and G before step k and the queue, inflow and outflow
    rates the step reports; the rates are ``rate_at`` at each step start.
    """
    sim_cls = LtmSimulation if scenario.model == "ltm" else LqmSimulation
    dt = scenario.dt
    sim = sim_cls(scenario.link, dt)
    columns = ([], [], [], [], [])  # lambda, F, G, f, g
    for i in range(round(scenario.horizon / dt)):
        t = i * dt
        arrivals, departures = sim.arrivals, sim.departures
        in_vol, out_vol = sim.step(scenario.demand.rate_at(t), scenario.supply.rate_at(t))
        for column, value in zip(columns, (sim.step_queue, arrivals, departures, in_vol / dt, out_vol / dt)):
            column.append(value)
    return Trajectory(scenario.model, dt, *columns)
