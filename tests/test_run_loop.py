"""The point-queue run loop against a step-by-step replay, and the paper's invariants as properties.

``scenario._run_point`` keeps (lam, F, G) in locals and calls the junction
rule once per step.  The oracle here, ``_replay``, rebuilds every recorded
cell from the min/max reference kernels of ``reference`` with its own
(lam, F, G) bookkeeping, calls no ``pqsim`` step function, and is compared
by ``repr`` and type.  The properties run on random scenarios within each
model's dt and eps bounds: formulations A and B coincide under
``Fraction`` arithmetic, with the clamp off the queue stays in
[0, capacity], and lambda = F - G holds (exactly in B and under
``Fraction``, to a round-off bound in A).  One step of every junction
rule is monotone in the feed within those bounds.
"""

from fractions import Fraction
from functools import partial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pqsim import (
    Formulation,
    PiecewiseConstant,
    PqModel,
    QueueSpec,
    Scenario,
    simulate_model,
    well_definedness_bound,
)
from pqsim import approx, point_queue
from pqsim.scenario import MODELS, validate_model
from reference import _ref_advance, _ref_eps_advance

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
    scenario = Scenario(
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
    assume(unsafe or _exactly_admissible(scenario, name))
    return scenario


def _exactly_admissible(scenario: Scenario, name: str) -> bool:
    """The PQM3/PQM4 bound as a rational inequality, as the paper states it.

    ``point_scenarios`` draws up to the bound rounded to a float, which can
    lie half an ulp past this one; ``validate_model`` rejects such a step.
    """
    model = _model(name)
    rate = {PqModel.PQM3: scenario.supply.max_rate, PqModel.PQM4: scenario.demand.max_rate}.get(model)
    if rate is None:
        return True
    step = scenario.epsilon if name.startswith("eps-") else scenario.dt
    return Fraction(step) * Fraction(rate) <= Fraction(scenario.queue.capacity)


def _replay(scenario: Scenario, name: str, exact: bool):
    """Every state (lam, F, G) from start to end and each step's (inflow, outflow) volumes.

    One reference-kernel call per step.  Formulation B re-derives
    lam = F - G before and after each step, as the paper's cumulative form
    states it; formulation A carries lam.
    """
    conv = Fraction if exact else float
    model = _model(name)
    capacity = None if name == "vickrey" else conv(scenario.queue.capacity)
    clamp = not scenario.unsafe
    cumulative = scenario.formulation is Formulation.CUMULATIVE
    relaxed = name.startswith("eps-")
    dt = conv(scenario.dt)
    ratio = dt / conv(scenario.epsilon) if relaxed else None
    n = round(scenario.horizon / scenario.dt)
    rates = zip(scenario.demand.rates_on_grid(n, scenario.dt), scenario.supply.rates_on_grid(n, scenario.dt))
    lam = arrivals = conv(scenario.queue.initial)
    departures = lam * 0
    states, volumes = [(lam, arrivals, departures)], []
    for delta, sigma in rates:
        feed, service = conv(delta) * dt, conv(sigma) * dt
        if cumulative:
            lam = arrivals - departures
        if relaxed:
            lam, inflow, outflow = _ref_eps_advance(model, lam, feed, service, capacity, ratio, clamp)
        else:
            lam, inflow, outflow = _ref_advance(model, lam, feed, service, capacity, clamp)
        arrivals, departures = arrivals + inflow, departures + outflow
        if cumulative:
            lam = arrivals - departures
        states.append((lam, arrivals, departures))
        volumes.append((inflow, outflow))
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
        [float(lam) for lam, _, _ in states],
        [record(f) for _, f, _ in states],
        [record(g) for _, _, g in states],
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
    a, b = (simulate_model(scenario._replace(formulation=f), name, exact=True)[0] for f in Formulation)
    assert _recorded(a) == _recorded(b)


@pytest.mark.parametrize("name", POINT_ROWS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_queue_stays_within_capacity_inside_the_bounds(name, data):
    """Exact arithmetic with the clamp off: the bounds alone keep 0 <= lam <= capacity."""
    scenario = data.draw(point_scenarios(name, unsafe=False))
    validate_model(scenario, name)
    states, _ = _replay(scenario._replace(unsafe=True), name, exact=True)
    capacity = None if name == "vickrey" else Fraction(scenario.queue.capacity)
    for lam, _, _ in states:
        assert 0 <= lam and (capacity is None or lam <= capacity)


# Unit round-off of doubles: a rounded +, - or * is off by at most U times the size of its result.
U = 2.0**-53


@pytest.mark.parametrize("name", POINT_ROWS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_conservation_in_floats(name, data):
    """Formulation B records lambda == F - G on every row; in A the gap grows at most linearly in the steps.

    The bound for A.  Let d_k = F_k - G_k - lambda_k (d_0 = 0) and M the sum of
    the run's largest |F|, |G| and |lambda|, the capacity and the largest step
    volume, which bounds every number a step computes.  A step adds its inflow
    to F and its outflow to G (one rounding each) and sets lambda to lambda +
    inflow - outflow up to: the exact rule's roundings of feed + lambda, of
    lambda - service (which can also pick the other branch of a max near a
    tie, hence counted twice) and of the final sum, or the relaxed rule's
    roundings of inflow - outflow and of the sum; and the clamp, which moves
    lambda toward [0, C], where lambda + inflow - outflow lies to within two
    roundings.  So |d_k+1 - d_k| <= 8*U*M and |d_k| <= 8*k*U*M.
    """
    scenario = data.draw(point_scenarios(name))
    (traj,) = simulate_model(scenario, name)
    rows = list(zip(traj.queue, traj.arrivals, traj.departures))
    if scenario.formulation is Formulation.CUMULATIVE:
        assert all(lam == f - g for lam, f, g in rows)
        return
    volume = max(scenario.demand.max_rate, scenario.supply.max_rate) * scenario.dt
    size = max(map(abs, traj.arrivals)) + max(map(abs, traj.departures)) + max(map(abs, traj.queue))
    size += volume + (0.0 if name == "vickrey" else scenario.queue.capacity)
    for k, (lam, f, g) in enumerate(rows):
        assert abs(Fraction(f) - Fraction(g) - Fraction(lam)) <= 8 * k * Fraction(U) * Fraction(size)


@pytest.mark.parametrize("name", POINT_ROWS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_conservation_is_exact_under_fractions(name, data):
    """lambda = F - G on every state of A and B: with the clamp off anywhere, with it on inside the bounds."""
    scenario = data.draw(point_scenarios(name))
    states, _ = _replay(scenario, name, exact=True)
    assert all(lam == f - g for lam, f, g in states)


def _share(data, whole: Fraction) -> Fraction:
    """A draw from [0, whole] in steps of whole/64, both ends included."""
    return whole * Fraction(data.draw(st.integers(0, 64)), 64)


@pytest.mark.parametrize("relaxed", [False, True], ids=["exact", "relaxed"])
@pytest.mark.parametrize("model", list(PqModel), ids=lambda m: m.value)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_one_step_is_monotone_in_the_feed(model, relaxed, data):
    """Within the bounds, more feed never lowers the next queue, the inflow or the outflow of one step.

    Proof.  inflow = min(feed, S) and outflow = min(D, service), where the
    supply S does not depend on the feed and the demand D = feed + lam*r
    (PQM1, PQM3) or lam*r (PQM2, PQM4), r = dt/eps (1 in the exact rule):
    both are nondecreasing.  lam' = lam + inflow - outflow can fall only
    where the inflow is capped (feed > S) while the outflow still grows
    (D < service), which needs D in the demand.  In PQM1 S = service +
    (C - lam)*r, so feed > S gives D > service.  In PQM3 S = (C - lam)*r,
    so feed > S gives D > C*r, which is >= service exactly when the bound
    (sigma*dt <= C, or eps*sigma <= C) holds.  Fraction arithmetic, clamp off.
    """
    cap = Fraction(data.draw(st.integers(1, 400)))
    ratio = Fraction(data.draw(st.integers(1, 64)), 64) if relaxed else 1
    room = cap * ratio  # the largest service (PQM3) or feed (PQM4) volume inside the bound
    service = _share(data, room if model is PqModel.PQM3 else 2 * cap)
    feeds = [_share(data, room if model is PqModel.PQM4 else 2 * cap) for _ in range(2)]
    lam = _share(data, cap)
    step = partial(approx._step_with_volumes, ratio) if relaxed else point_queue._step_with_volumes
    low, high = (step(model, lam, feed, service, cap, False) for feed in sorted(feeds))
    assert all(a <= b for a, b in zip(low, high)), (low, high)


def test_pqm3_is_not_monotone_in_the_feed_past_its_bound():
    """Past the bound, a larger feed lowers PQM3's next queue: the demand grows the outflow but the inflow is capped."""
    cap, lam = Fraction(10), Fraction(4)
    # Exact rule, service volume 12 > capacity.
    exact = [point_queue._step_with_volumes(PqModel.PQM3, lam, Fraction(feed), Fraction(12), cap, False)[0]
             for feed in (6, 8)]
    assert exact == [0, -2]
    # Relaxed rule, dt/eps = 1/2 and service volume 8 (eps * sigma = 16 > capacity): both states stay in [0, C].
    relaxed = [approx._step_with_volumes(Fraction(1, 2), PqModel.PQM3, lam, Fraction(feed), Fraction(8), cap, False)[0]
               for feed in (3, 5)]
    assert relaxed == [2, 0]
