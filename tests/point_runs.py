"""Point-queue runs for tests, through ``simulate_model`` on a built ``Scenario``.

The tests that step a model many times go through the run path the CLI
uses.  ``run_steps`` reads its trajectory as the state after each step,
and ``per_step`` turns a list of (delta, sigma) pairs into the two rate
profiles that hold pair k on step k.
"""

from pqsim import PiecewiseConstant, QueueSpec, Scenario, Trajectory, simulate_model


def per_step(rates, dt) -> tuple[PiecewiseConstant, PiecewiseConstant]:
    """(demand, supply) profiles holding the k-th (delta, sigma) pair of ``rates`` on step k, the last one after."""
    starts = [k * dt for k in range(len(rates))]
    deltas, sigmas = zip(*rates)
    return PiecewiseConstant(starts, deltas), PiecewiseConstant(starts, sigmas)


def run_steps(model: str, demand, supply, dt, steps: int, capacity, initial=0.0, exact=False, **fields) -> Trajectory:
    """``steps`` steps of ``model`` from ``initial``; row k of the trajectory holds the state after k steps.

    A row records the state its step starts from, so the grid takes one
    step more and leaves that step's end state unrecorded.  ``fields`` are
    further ``Scenario`` fields: ``epsilon``, ``formulation``, ``unsafe``
    (which also turns the clamp off).
    """
    scenario = Scenario(
        model=model,
        demand=demand,
        supply=supply,
        dt=dt,
        horizon=(steps + 1) * dt,
        queue=QueueSpec(capacity, initial),
        **fields,
    )
    (traj,) = simulate_model(scenario, exact=exact)
    return traj
