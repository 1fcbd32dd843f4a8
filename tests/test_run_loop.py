"""The point-queue run loop against a step-by-step replay, and the paper's invariants as properties.

``scenario._run_point`` keeps (lam, F, G) in locals and calls the junction
rule once per step.  The oracle here rebuilds every recorded cell with one
``step_pq``/``step_eps`` call per step and compares by ``repr`` and type.
The properties run on random scenarios within each model's dt and eps
bounds: formulations A and B coincide under ``Fraction`` arithmetic, and
with the clamp off the queue stays in [0, capacity].
"""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pqsim import (
    EpsilonConfig,
    Formulation,
    PiecewiseConstant,
    PqModel,
    PqState,
    PqVariant,
    QueueSpec,
    Scenario,
    simulate_model,
    step_eps,
    step_pq,
    well_definedness_bound,
)
from pqsim import approx, point_queue
from pqsim.scenario import MODELS, validate_model

EXACT_ROWS = [m.value for m in PqModel]
RELAXED_ROWS = [f"eps-{m.value}" for m in PqModel]
POINT_ROWS = [*EXACT_ROWS, *RELAXED_ROWS, "vickrey"]
RATES = st.lists(st.floats(0.0, 4000.0), min_size=1, max_size=3)


def _model(name: str) -> PqModel:
    return PqModel.PQM1 if name == "vickrey" else PqModel(name.removeprefix("eps-"))


def _piecewise(rates, cuts, horizon) -> PiecewiseConstant:
    breakpoints = [0.0, *sorted({c * horizon for c in cuts} - {0.0})][: len(rates)]
    return PiecewiseConstant(tuple(breakpoints), tuple(rates[: len(breakpoints)]))


@st.composite
def point_scenarios(draw, name: str, unsafe: bool | None = None) -> Scenario:
    """A scenario for one point row; unless ``unsafe``, dt (or eps) lies within the row's bound."""
    if unsafe is None:
        unsafe = draw(st.booleans())
    demand, supply = draw(RATES), draw(RATES)
    capacity = draw(st.floats(1.0, 400.0))
    limit = 0.05
    if not unsafe:
        cap = None if name == "vickrey" else capacity
        limit = min(limit, well_definedness_bound(_model(name), max(demand), max(supply), cap))
    step = draw(st.floats(0.002, 1.0)) * limit  # dt, or eps for a relaxed row
    epsilon = None
    if name.startswith("eps-"):
        epsilon, step = step, step * draw(st.one_of(st.sampled_from((1.0, 0.5)), st.floats(0.05, 1.0)))
    horizon = draw(st.integers(1, 30)) * step
    cuts = st.lists(st.floats(0.0, 1.0, exclude_min=True), max_size=2)
    return Scenario(
        model=name,
        demand=_piecewise(demand, draw(cuts), horizon),
        supply=_piecewise(supply, draw(cuts), horizon),
        dt=step,
        horizon=horizon,
        queue=QueueSpec(capacity, draw(st.one_of(st.sampled_from((0.0, -0.0, capacity)), st.floats(0.0, capacity)))),
        epsilon=epsilon,
        formulation=draw(st.sampled_from(Formulation)),
        unsafe=unsafe,
    )


def _exactly_admissible(scenario: Scenario, name: str) -> bool:
    """The PQM3/PQM4 bound as a rational inequality, as the paper states it.

    ``validate_model`` compares dt with capacity/sigma_max rounded to a
    float, which can admit a step half an ulp past the exact bound.
    """
    model = _model(name)
    rate = {PqModel.PQM3: scenario.supply.max_rate, PqModel.PQM4: scenario.demand.max_rate}.get(model)
    if rate is None:
        return True
    step = scenario.epsilon if name.startswith("eps-") else scenario.dt
    return Fraction(step) * Fraction(rate) <= Fraction(scenario.queue.capacity)


def _replay(scenario: Scenario, name: str, exact: bool):
    """Every state from start to end and each step's (inflow, outflow) volumes.

    One ``step_pq``/``step_eps`` call per step.  The volumes are read off
    the junction rule through a recording wrapper on its module attribute,
    the name ``step_pq`` and ``step_eps`` call it by.
    """
    relaxed = name.startswith("eps-")
    module = approx if relaxed else point_queue
    conv = Fraction if exact else float
    capacity = None if name == "vickrey" else conv(scenario.queue.capacity)
    clamp = not scenario.unsafe
    dt = scenario.dt
    n = round(scenario.horizon / dt)
    variant = PqVariant(_model(name), scenario.formulation)
    cfg = EpsilonConfig(conv(scenario.epsilon), conv(dt), unsafe=True) if relaxed else None
    states, volumes = [PqState.initial(conv(scenario.queue.initial))], []
    kernel = module._step_with_volumes

    def recording(*args):
        result = kernel(*args)
        volumes.append(result[1:])
        return result

    module._step_with_volumes = recording
    try:
        for delta, sigma in zip(scenario.demand.rates_on_grid(n, dt), scenario.supply.rates_on_grid(n, dt)):
            delta, sigma = conv(delta), conv(sigma)
            if relaxed:
                states.append(step_eps(variant, states[-1], delta, sigma, cfg, capacity, clamp))
            else:
                states.append(step_pq(variant, states[-1], delta, sigma, conv(dt), capacity, clamp))
    finally:
        module._step_with_volumes = kernel
    return states, volumes


def _cells(columns) -> list[list[tuple[str, type]]]:
    return [[(repr(x), type(x)) for x in column] for column in columns]


def _recorded(traj) -> list[list[tuple[str, type]]]:
    return _cells([traj.times, traj.queue, traj.arrivals, traj.departures, traj.inflow_rate, traj.outflow_rate])


def test_point_rows_are_every_point_queue_model():
    assert sorted(POINT_ROWS) == sorted(name for name in MODELS if name not in ("ltm", "lqm", "tandem"))


@pytest.mark.parametrize("name", POINT_ROWS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_recorded_cells_equal_a_step_by_step_replay(name, data):
    """Formulations A and B, clamp on and off, float and (for the exact rows) Fraction."""
    scenario = data.draw(point_scenarios(name))
    exact = name not in RELAXED_ROWS and data.draw(st.booleans())
    states, volumes = _replay(scenario, name, exact)
    states = states[:-1]  # a row records the state a step starts from
    dt = scenario.dt
    record = float if exact else (lambda x: x)
    want = _cells([
        [i * dt for i in range(len(states))],
        [float(s.queue) for s in states],
        [record(s.arrivals) for s in states],
        [record(s.departures) for s in states],
        [inflow / dt for inflow, _ in volumes],
        [outflow / dt for _, outflow in volumes],
    ])
    (traj,) = simulate_model(scenario, name, exact=exact)
    assert _recorded(traj) == want


@pytest.mark.parametrize("name", EXACT_ROWS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_formulations_a_and_b_coincide_under_fractions(name, data):
    scenario = data.draw(point_scenarios(name, unsafe=False))
    assume(_exactly_admissible(scenario, name))
    a, b = (simulate_model(replace(scenario, formulation=f), name, exact=True)[0] for f in Formulation)
    assert _recorded(a) == _recorded(b)


@pytest.mark.parametrize("name", POINT_ROWS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_queue_stays_within_capacity_inside_the_bounds(name, data):
    """Exact arithmetic with the clamp off: the bounds alone keep 0 <= lam <= capacity."""
    scenario = data.draw(point_scenarios(name, unsafe=False))
    assume(_exactly_admissible(scenario, name))
    validate_model(scenario, name)
    states, _ = _replay(replace(scenario, unsafe=True), name, exact=True)
    capacity = None if name == "vickrey" else Fraction(scenario.queue.capacity)
    for state in states:
        assert 0 <= state.queue and (capacity is None or state.queue <= capacity)

