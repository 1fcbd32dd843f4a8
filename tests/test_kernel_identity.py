"""Bit-for-bit pins of the hot kernels against their plain reference forms.

The step, state and output code is written for interpreter speed; these
tests check, with exact equality, that it computes what the readable
formulas compute.  The references, here and in ``reference``, are the
kernels as written with the ``min``/``max`` builtins; the kernels spell
them as conditional expressions, which must keep the builtins' tie rules,
so the comparisons are on ``repr`` and type, where 0.0 and -0.0, or 0 and
0.0, differ.
"""

import csv
import math
import re
from bisect import bisect_right
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqsim import (
    Constant,
    LinkParams,
    LqmSimulation,
    LtmSimulation,
    PiecewiseConstant,
    PqModel,
    QueueSpec,
    SineFloor,
    TandemQueue,
    TandemSpec,
    Trajectory,
    step_tandem,
)
from pqsim.approx import _step_with_volumes as eps_step
from pqsim.link_models import _ltm_advance
from pqsim.point_queue import _step_with_volumes as exact_step
from link_runs import next_step_volumes
from reference import _ref_advance, _ref_demand_volume, _ref_eps_advance, _ref_ltm_advance, _ref_supply_volume

STANDARD = LinkParams(length=1, lanes=1, free_flow_speed=60, wave_speed=20, jam_density=150)
# T1 = 1/60 hr, T2 = 1/20 hr, storage = 150 veh, capacity = 2250 vph

EDGE_FLOATS = [1e-05, 0.1 + 0.2, -0.0, 1e16, 5e-324, float(2**53)]


def _repr_writer(traj: Trajectory, path) -> None:
    """The per-cell ``repr`` writer the CSV format is defined by."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "lambda", "F", "G", "f", "g"])
        times = [i * traj.dt for i in range(len(traj))]
        for row in zip(times, traj.queue, traj.arrivals, traj.departures, traj.inflow_rate, traj.outflow_rate):
            writer.writerow([repr(x) for x in row])


def test_write_csv_bytes_match_the_repr_writer(tmp_path):
    n = len(EDGE_FLOATS)
    columns = [EDGE_FLOATS[k:] + EDGE_FLOATS[:k] for k in range(5)]  # every value in every stored column
    traj = Trajectory("edge", 0.1, *columns)
    assert n == len(traj)
    _repr_writer(traj, tmp_path / "reference.csv")
    written = traj.write_csv(tmp_path / "edge.csv")
    assert written.read_bytes() == (tmp_path / "reference.csv").read_bytes()
    back = Trajectory.from_csv(written)
    for name in ("times", "queue", "arrivals", "departures", "inflow_rate", "outflow_rate"):
        assert list(map(repr, getattr(back, name))) == list(map(repr, getattr(traj, name)))


@pytest.mark.parametrize("dt", [0.1, 8e-4])
def test_csv_round_trip_is_byte_identical(tmp_path, dt):
    """``from_csv`` recovers dt from the ``t`` column, so writing what it read gives the same bytes."""
    n = 1500
    columns = [[EDGE_FLOATS[(i + k) % len(EDGE_FLOATS)] for i in range(n)] for k in range(5)]
    first = Trajectory("edge", dt, *columns).write_csv(tmp_path / "first.csv")
    back = Trajectory.from_csv(first)
    assert back.dt == dt and back.times == [i * dt for i in range(n)]
    assert back.write_csv(tmp_path / "second.csv").read_bytes() == first.read_bytes()


def test_csv_whose_t_is_not_i_times_dt_is_rejected_naming_the_file(tmp_path):
    """A ``t`` column rounded to decimals is not ``i * dt``: 3 * 0.1 is 0.30000000000000004, not 0.3.

    A header other than ``t,lambda,F,G,f,g`` names the file too.
    """
    path = tmp_path / "rounded.csv"
    rows = "".join(f"{t},0.0,0.0,0.0,0.0,0.0\r\n" for t in ("0.0", "0.1", "0.2", "0.3"))
    path.write_text("t,lambda,F,G,f,g\r\n" + rows, newline="")
    message = re.escape(f"{path}: t[3] = 0.3 is not 3 * dt = 0.30000000000000004")
    with pytest.raises(ValueError, match=f"^{message}$"):
        Trajectory.from_csv(path)
    path.write_text("time,lambda,F,G,f,g\r\n" + rows, newline="")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: unexpected CSV header"):
        Trajectory.from_csv(path)


@pytest.mark.parametrize(
    "rows, bad_row",
    [
        ("0.0,1.0,2.0,3.0,4.0,5.0,99\r\n", 0),
        ("0.0,1.0,2.0,3.0,4.0,5.0\r\n0.1,1.0,2.0\r\n", 1),
        ("0.0,x,2.0,3.0,4.0,5.0\r\n", 0),
    ],
    ids=["extra_cell", "short_row", "not_a_number"],
)
def test_csv_row_that_is_not_six_numbers_is_rejected_naming_the_file_and_row(tmp_path, rows, bad_row):
    """A seventh cell, a short row and a cell that is not a number each raise, naming the file and the row."""
    path = tmp_path / "bad.csv"
    path.write_text("t,lambda,F,G,f,g\r\n" + rows, newline="")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: row {bad_row} is not 6 numbers')}"):
        Trajectory.from_csv(path)


def test_csv_with_fewer_than_two_rows_is_rejected_naming_the_file(tmp_path):
    """dt is the second row's t: a one-row file and a header-only file each raise instead of reading dt as 0."""
    one_row = Trajectory("one", 0.1, *([1.0] for _ in range(5))).write_csv(tmp_path / "one.csv")
    header_only = Trajectory("none", 0.1, [], [], [], [], []).write_csv(tmp_path / "none.csv")
    for path, rows in ((one_row, 1), (header_only, 0)):
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: fewer than two rows (got {rows})')}"):
            Trajectory.from_csv(path)


def test_csv_bytes_that_are_not_utf8_name_the_file(tmp_path):
    path = tmp_path / "latin.csv"
    path.write_bytes(b"t,lambda,F,G,f,g\r\n0.0,\xff,0.0,0.0,0.0,0.0\r\n")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: ')}'utf-8' codec can't decode byte 0xff"):
        Trajectory.from_csv(path)


def _ref_interp(sim: LtmSimulation, series: list[float], s: float) -> float:
    pos = s / sim.dt
    j = int(pos)
    if j >= len(series) - 1:
        return series[-1]
    frac = pos - j
    return series[j] + frac * (series[j + 1] - series[j])


def _ref_arrivals_at(sim: LtmSimulation, s: float) -> float:
    """F(s): the inflow ramp seed for s <= 0, else the interpolated history."""
    if s <= 0:
        return max(0.0, sim.params.initial * (1.0 + s / sim.params.free_flow_time))
    return _ref_interp(sim, sim._arrivals, s)


def _ref_departures_at(sim: LtmSimulation, s: float) -> float:
    """G(s): the outflow ramp seed (negative) for s <= 0, else the interpolated history."""
    if s <= 0:
        return (sim.params.storage - sim.params.initial) / sim.params.wave_time * s
    return _ref_interp(sim, sim._departures, s)


def _ref_now(sim: LtmSimulation) -> float:
    """The time t the next step starts at: one history entry per step taken."""
    return (len(sim._arrivals) - 1) * sim.dt


def _ref_queue_and_vacancy(sim: LtmSimulation) -> tuple[float, float]:
    t, p = _ref_now(sim), sim.params
    queue = max(0.0, _ref_arrivals_at(sim, t - p.free_flow_time) - sim.departures)
    vacancy = max(0.0, _ref_departures_at(sim, t - p.wave_time) + p.storage - sim.arrivals)
    return queue, vacancy


def _reference_volumes(sim: LtmSimulation) -> tuple[float, float]:
    """Demand and supply volumes from one read per delayed value, as the formulas state them."""
    t, dt, p = _ref_now(sim), sim.dt, sim.params
    cap_volume = p.capacity * dt
    queue, vacancy = _ref_queue_and_vacancy(sim)
    delayed_in = _ref_arrivals_at(sim, t + dt - p.free_flow_time) - _ref_arrivals_at(sim, t - p.free_flow_time)
    delayed_out = _ref_departures_at(sim, t + dt - p.wave_time) - _ref_departures_at(sim, t - p.wave_time)
    return min(delayed_in + queue, cap_volume), min(delayed_out + vacancy, cap_volume)


def test_ltm_volumes_equal_the_reference_formula_at_every_step():
    """A congested run from nonzero content, so the virtual-seed history is read for the first steps."""
    sim = LtmSimulation(STANDARD._replace(initial=75.0), dt=0.005)
    seeded = queued = full = 0
    for i in range(600):
        queue, vacancy = _ref_queue_and_vacancy(sim)
        seeded += _ref_now(sim) - STANDARD.wave_time <= 0
        queued += queue > 0
        full += vacancy == 0
        assert next_step_volumes(sim) == (queue, *_reference_volumes(sim))
        sim.step(4000 if i < 300 else 0, 500)
    assert seeded >= 10 and queued > 0 and full > 0


def test_pq_model_flags():
    flags = {m: (m.demand_includes_feed, m.supply_includes_service) for m in PqModel}
    assert flags == {
        PqModel.PQM1: (True, True),
        PqModel.PQM2: (False, False),
        PqModel.PQM3: (True, False),
        PqModel.PQM4: (False, True),
    }
    assert PqModel("pqm3") is PqModel.PQM3 and PqModel.PQM3.label == "PQM3"


def test_link_params_cache_is_invisible_to_eq_hash_and_fields():
    used = LinkParams(**STANDARD._asdict())
    assert used.capacity == 2250 and used.storage == 150
    fresh = LinkParams(**STANDARD._asdict())
    assert used == fresh and hash(used) == hash(fresh) and used._asdict() == fresh._asdict()
    assert list(used._fields) == ["length", "lanes", "free_flow_speed", "wave_speed", "jam_density", "initial"]
    with pytest.raises(AttributeError):
        used.length = 2.0


# --------------------------------------------------------------------------
# Reference forms of the tandem, LQM and profile kernels.  The point-queue
# ones are in ``reference``, shared with the run-loop replay.


def _ref_step_tandem(spec, arrivals, departures, feed, service):
    """Each boundary's min(upstream demand, downstream supply), None being an unlimited supply."""
    n = len(spec.queues)
    lams = [f - g for f, g in zip(arrivals, departures)]
    models = [q.model for q in spec.queues]
    demands = [feed]
    for i in range(n):
        demands.append(_ref_demand_volume(models[i], lams[i], demands[i]))
    supplies = [None] * n + [service]
    for i in range(n - 1, -1, -1):
        supplies[i] = _ref_supply_volume(models[i], lams[i], supplies[i + 1], spec.queues[i].spec.capacity)
    return [d if s is None else min(d, s) for d, s in zip(demands, supplies)]


def _ref_lqm_rates(rho, params):
    cap = params.capacity
    return min(rho / params.free_flow_time, cap), min((params.storage - rho) / params.wave_time, cap)


def _ref_lqm_step(arrivals, departures, params, dt, delta, sigma):
    """One LQM step from (F, G); returns (F', G', inflow, outflow)."""
    d, s = _ref_lqm_rates(arrivals - departures, params)
    inflow = min(delta, s) * dt
    outflow = min(d, sigma) * dt
    return arrivals + inflow, departures + outflow, inflow, outflow


def _ref_rate_at(profile, t):
    if t < 0:
        raise ValueError(t)
    if isinstance(profile, Constant):
        return profile.rate
    if isinstance(profile, PiecewiseConstant):
        return profile.rates[bisect_right(profile.breakpoints, t) - 1]
    return max(profile.amplitude * math.sin(math.pi * t), profile.floor)


def _same(got, want):
    """Equal as written out: same repr and same type, element by element."""
    assert [(repr(x), type(x)) for x in got] == [(repr(x), type(x)) for x in want]


# --------------------------------------------------------------------------
# Inputs: every tie the builtins break, signed zeros, the smallest subnormal,
# and states at 0, at capacity and at capacity - service.

EDGES = (0.0, -0.0, 0, 5e-324, -5e-324, 1.0, 12.0, 12, 100.0, 188.0, 200.0, 200)
VOLUME = st.one_of(st.sampled_from(EDGES), st.floats(-50.0, 5000.0, allow_nan=False))
CAPACITY = st.one_of(st.none(), st.sampled_from((200.0, 200, 12.0, 12, 5e-324)), st.floats(1e-3, 5000.0))
# The exhaustive products below: a tie between any two of these is a tie
# the builtins break by argument order.
SMALL = (0.0, -0.0, 0, 12.0, 12)
MODEL = st.sampled_from(list(PqModel))
EXAMPLES = settings(max_examples=300, deadline=None)


@st.composite
def queue_inputs(draw):
    """(lam, feed, service, capacity) with lam often on a floor or ceiling."""
    feed = draw(VOLUME)
    service = draw(VOLUME)
    capacity = draw(CAPACITY)
    place = draw(st.sampled_from(("any", "empty", "full", "full less service")))
    if place == "empty":
        lam = draw(st.sampled_from((0.0, -0.0, 0)))
    elif place == "full" and capacity is not None:
        lam = capacity
    elif place == "full less service" and capacity is not None:
        lam = capacity - service
    else:
        lam = draw(VOLUME)
    return lam, feed, service, capacity


@EXAMPLES
@given(model=MODEL, inputs=queue_inputs(), clamp=st.booleans())
def test_advance_matches_the_min_max_form(model, inputs, clamp):
    lam, feed, service, capacity = inputs
    want = _ref_advance(model, lam, feed, service, capacity, clamp)
    _same(exact_step(model, lam, feed, service, capacity, clamp), want)


@pytest.mark.parametrize("model", list(PqModel))
def test_advance_and_eps_advance_match_on_every_tie(model):
    """Every combination of signed zeros, int and float ties, unbounded storage, clamp and ratio."""
    cases = product(SMALL, SMALL, SMALL, (None, 12.0, 12), (True, False))
    for lam, feed, service, capacity, clamp in cases:
        want = _ref_advance(model, lam, feed, service, capacity, clamp)
        _same(exact_step(model, lam, feed, service, capacity, clamp), want)
        for ratio in (1, 1.0, 0.5):
            want = _ref_eps_advance(model, lam, feed, service, capacity, ratio, clamp)
            _same(eps_step(ratio, model, lam, feed, service, capacity, clamp), want)


@EXAMPLES
@given(
    model=MODEL,
    inputs=queue_inputs(),
    ratio=st.one_of(st.sampled_from((1, 1.0, 0.5, 0.25, 5e-324)), st.floats(1e-6, 1.0, exclude_max=True)),
    clamp=st.booleans(),
)
def test_eps_advance_matches_the_min_max_form(model, inputs, ratio, clamp):
    lam, feed, service, capacity = inputs
    got = eps_step(ratio, model, lam, feed, service, capacity, clamp)
    _same(got, _ref_eps_advance(model, lam, feed, service, capacity, ratio, clamp))


def test_step_tandem_matches_on_every_tie():
    """Two queues of every model pair, from contents and volumes at ties."""
    for first, second in product(PqModel, repeat=2):
        for capacity, lam1, lam2, feed, service in product((None, 12.0, 12), SMALL, SMALL, SMALL, SMALL):
            spec = TandemSpec((TandemQueue(QueueSpec(None), first), TandemQueue(QueueSpec(capacity), second)))
            state = ([lam1, lam2], [0, 0])
            _same(step_tandem(spec, *state, feed, service), _ref_step_tandem(spec, *state, feed, service))


@st.composite
def tandems(draw):
    """A tandem of 1-4 queues and its (F, G) with each content in [0, capacity]."""
    members, arrivals, departures = [], [], []
    for _ in range(draw(st.integers(1, 4))):
        capacity = draw(st.one_of(st.none(), st.sampled_from((200.0, 12.0)), st.floats(1.0, 400.0)))
        top = 400.0 if capacity is None else capacity
        lam = draw(st.one_of(st.sampled_from((0.0, top, top - 12.0 if top >= 12.0 else 0.0)), st.floats(0.0, top)))
        served = draw(st.one_of(st.sampled_from((0.0, -0.0)), st.floats(0.0, 1e4)))
        members.append(TandemQueue(QueueSpec(capacity), draw(MODEL)))
        arrivals.append(served + lam)
        departures.append(served)
    return TandemSpec(tuple(members)), arrivals, departures


@settings(max_examples=150, deadline=None)
@given(
    tandem=tandems(),
    delta=st.one_of(st.sampled_from((0.0, 1200.0)), st.floats(0.0, 5000.0)),
    sigma=st.one_of(st.sampled_from((0.0, 1200.0)), st.floats(0.0, 5000.0)),
    dt=st.sampled_from((0.01, 1e-4, 0.1)),
)
def test_step_tandem_matches_the_advance_form(tandem, delta, sigma, dt):
    spec, arrivals, departures = tandem
    feed, service = delta * dt, sigma * dt
    want = _ref_step_tandem(spec, arrivals, departures, feed, service)
    _same(step_tandem(spec, arrivals, departures, feed, service), want)


LINK_RATE = st.sampled_from((0.0, 2250.0, 4000.0)) | st.floats(0.0, 5000.0)


@settings(max_examples=100, deadline=None)
@given(
    initial=st.one_of(st.sampled_from((0.0, 75.0, 150.0)), st.floats(0.0, 150.0)),
    dt=st.sampled_from((0.01, 1 / 60, 0.005)),
    rates=st.lists(st.tuples(LINK_RATE, LINK_RATE), min_size=1, max_size=40),
)
def test_lqm_step_matches_the_min_max_form(initial, dt, rates):
    sim = LqmSimulation(STANDARD._replace(initial=initial), dt)
    arrivals, departures = initial, 0.0
    for delta, sigma in rates:
        content = sim.arrivals - sim.departures
        got = sim.step(delta, sigma)
        arrivals, departures, *want = _ref_lqm_step(arrivals, departures, STANDARD, dt, delta, sigma)
        _same([*got, sim.arrivals, sim.departures, sim.step_queue], [*want, arrivals, departures, content])


def test_lqm_step_matches_on_every_tie():
    """Empty and full links against zero and capacity-level rates of either sign."""
    rates = (0.0, -0.0, 0, STANDARD.capacity, 2250)
    for initial, delta, sigma in product((0.0, -0.0, 75.0, STANDARD.storage), rates, rates):
        sim = LqmSimulation(STANDARD._replace(initial=initial), 0.01)
        got = sim.step(delta, sigma)
        *_, inflow, outflow = _ref_lqm_step(initial, 0.0, STANDARD, 0.01, delta, sigma)
        _same(got, (inflow, outflow))


def test_ltm_step_matches_on_every_tie():
    """Empty and full links against zero rates of either sign, within and past dt <= T1."""
    rates = (0.0, -0.0, 0, 2250.0)
    for dt, initial, delta, sigma in product((0.005, 0.05), (0.0, -0.0, 75.0, STANDARD.storage), rates, rates):
        sim = LtmSimulation(STANDARD._replace(initial=initial), dt)
        for _ in range(4):
            demand, supply = _reference_volumes(sim)
            queue, _ = _ref_queue_and_vacancy(sim)
            got = sim.step(delta, sigma)
            _same([*got, sim.step_queue], [min(delta * dt, supply), min(demand, sigma * dt), queue])


@st.composite
def ltm_runs(draw):
    """A random link and run: dt at T1 or T2, a fraction of min(T1, T2) or past it; content 0, interior or full."""
    link = LinkParams(
        length=draw(st.floats(0.05, 2.0)),
        lanes=draw(st.integers(1, 3)),
        free_flow_speed=draw(st.floats(30.0, 120.0)),
        wave_speed=draw(st.floats(10.0, 40.0)),
        jam_density=draw(st.floats(100.0, 200.0)),
    )
    initial = draw(st.sampled_from((0.0, link.storage)) | st.floats(0.0, link.storage))
    params = LinkParams(*link[:5], initial)
    t1, t2 = params.free_flow_time, params.wave_time
    short = min(t1, t2)
    dt = draw(
        st.sampled_from((t1, t2, short / 2, short / 3, short / 10))
        | st.floats(0.02, 1.0).map(lambda x: x * short)
        | st.floats(1.01, 4.0).map(lambda x: x * short)
    )
    rate = st.sampled_from((0.0, params.capacity)) | st.floats(0.0, 2.0).map(lambda x: x * params.capacity)
    return params, dt, draw(st.lists(st.tuples(rate, rate), min_size=1, max_size=150))


def _hex(columns) -> list[list[str]]:
    return [list(map(float.hex, column)) for column in columns]


@settings(max_examples=200, deadline=None)
@given(run=ltm_runs())
def test_ltm_kernel_matches_the_kernel_that_reads_every_time(run):
    """Queue, inflow, outflow, F and G, bit for bit: one whole-grid call, and one call per rate pair (no carry)."""
    params, dt, rates = run
    want_f, want_g = [params.initial], [0.0]
    want = _hex([*_ref_ltm_advance(params, dt, want_f, want_g, rates), want_f, want_g])
    arrivals, departures = [params.initial], [0.0]
    got = _ltm_advance(params, dt, arrivals, departures, rates)
    assert _hex([*got, arrivals, departures]) == want
    arrivals, departures = [params.initial], [0.0]
    steps = [_ltm_advance(params, dt, arrivals, departures, (pair,)) for pair in rates]
    columns = [[x for (x,) in column] for column in zip(*steps)]
    assert _hex([*columns, arrivals, departures]) == want


@st.composite
def grid_profiles(draw):
    """A profile and a grid (n, dt), with piecewise breakpoints often on grid points."""
    dt = draw(st.one_of(st.sampled_from((1e-4, 8e-4, 0.01, 0.1, 0.3, 1 / 3)), st.floats(1e-5, 1.0)))
    n = draw(st.integers(0, 300))
    kind = draw(st.sampled_from(("constant", "piecewise", "sine")))
    if kind == "constant":
        return Constant(draw(st.sampled_from((0.0, 1200.0, 1200)) | st.floats(0.0, 5000.0))), n, dt
    if kind == "sine":
        amplitude = draw(st.floats(1.0, 5000.0))
        floor = draw(st.sampled_from((0.0, -0.0, 0)) | st.floats(0.0, amplitude, exclude_max=True))
        return SineFloor(amplitude, floor), n, dt
    on_grid = st.integers(1, n + 3).map(lambda k: k * dt)
    points = draw(st.lists(on_grid | st.floats(1e-9, (n + 3) * dt), max_size=5, unique=True))
    breakpoints = (0.0, *sorted(set(points)))
    rates = draw(st.lists(st.floats(0.0, 5000.0), min_size=len(breakpoints), max_size=len(breakpoints)))
    return PiecewiseConstant(breakpoints, tuple(rates)), n, dt


@settings(max_examples=200, deadline=None)
@given(case=grid_profiles())
def test_rates_on_grid_match_rate_at(case):
    profile, n, dt = case
    got = profile.rates_on_grid(n, dt)
    assert type(got) is list
    _same(got, [_ref_rate_at(profile, i * dt) for i in range(n)])
    _same(got, [profile.rate_at(i * dt) for i in range(n)])


def test_rates_on_grid_survive_an_overflowing_step_count():
    """b/dt overflows to infinity: every grid point lies before the breakpoint."""
    assert PiecewiseConstant((0, 1e300), (1, 2)).rates_on_grid(3, 5e-324) == [1.0] * 3
    assert PiecewiseConstant((0, 1e-300), (1, 2)).rates_on_grid(3, 1e300) == [1.0, 2.0, 2.0]


@pytest.mark.parametrize("dt", [0.0, -0.1, math.nan, math.inf])
@pytest.mark.parametrize("profile", [Constant(5.0), PiecewiseConstant((0, 1), (1, 2)), SineFloor(2.0, 1.0)])
def test_rates_on_grid_reject_a_bad_step(profile, dt):
    with pytest.raises(ValueError, match="grid step must be positive and finite"):
        profile.rates_on_grid(3, dt)
