"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The rush-hour scenario used throughout: demand
max(2000 sin(pi t), 1000) vph, supply 1200 vph, storage 200 veh, initially
empty, two-hour horizon.
"""

import json
import math
import random
import time

import pytest

from pqsim import (
    Constant,
    Formulation,
    PiecewiseConstant,
    PqModel,
    Trajectory,
    load_scenario,
    simulate_model,
    stationary_eps,
    stationary_exact,
    vickrey_closed_form,
    well_definedness_bound,
)
from pqsim import approx, point_queue
from pqsim.cli import main
from pqsim.scenario import convergence_table, run_scenario, scenario_from_dict
from point_runs import per_step, run_steps

ALL_MODELS = list(PqModel)
RUSH_SCENARIO = "scenarios/sine_floor_single_queue.json"

DEMAND_MAX = 2000.0
SIGMA = 1200.0
RATE_SUM = DEMAND_MAX + SIGMA


def rush(model="pqm1", **overrides):
    base = load_scenario(RUSH_SCENARIO)
    return base.with_overrides(model=model, **overrides)


def min_at_or_after(traj, t0):
    return min(q for t, q in zip(traj.times, traj.queue) if t >= t0)


def report(criterion, text):
    print(f"[PASS] criterion {criterion}: {text}")


def test_criterion_01_rush_hour_golden_numbers():
    """Ceiling/floor levels at dt = 0.01 are exact: 188/200 and 10/0."""
    t0 = time.perf_counter()
    report_run = run_scenario(rush(), models=["pqm1", "pqm2", "pqm3", "pqm4"])
    elapsed = time.perf_counter() - t0
    trajs = report_run.trajectories
    assert max(trajs["pqm2"].queue) == 188.0
    assert max(trajs["pqm3"].queue) == 188.0
    assert max(trajs["pqm1"].queue) == 200.0
    assert max(trajs["pqm4"].queue) == 200.0
    assert min_at_or_after(trajs["pqm2"], 1.8) == 10.0
    assert min_at_or_after(trajs["pqm4"], 1.8) == 10.0
    assert min_at_or_after(trajs["pqm1"], 1.8) == 0.0
    assert min_at_or_after(trajs["pqm3"], 1.8) == 0.0
    assert elapsed < 1.0
    report(1, f"golden levels 188/200 and 10/0 exact; runtime {elapsed:.3f} s < 1 s")


def test_criterion_02_relaxed_golden_numbers():
    """Relaxed ceilings/floors at eps = 1e-3, dt = 1e-4 within 1e-6 veh."""
    t0 = time.perf_counter()
    scenario = rush(epsilon=0.001, dt=0.0001)
    report_run = run_scenario(scenario, models=["eps-pqm1", "eps-pqm2", "eps-pqm3", "eps-pqm4"])
    elapsed = time.perf_counter() - t0
    trajs = report_run.trajectories
    assert max(trajs["eps-pqm2"].queue) == pytest.approx(198.8, abs=1e-6)
    assert max(trajs["eps-pqm3"].queue) == pytest.approx(198.8, abs=1e-6)
    assert max(trajs["eps-pqm1"].queue) == pytest.approx(200.0, abs=1e-6)
    assert max(trajs["eps-pqm4"].queue) == pytest.approx(200.0, abs=1e-6)
    assert min_at_or_after(trajs["eps-pqm2"], 1.8) == pytest.approx(1.0, abs=1e-6)
    assert min_at_or_after(trajs["eps-pqm4"], 1.8) == pytest.approx(1.0, abs=1e-6)
    assert min_at_or_after(trajs["eps-pqm1"], 1.8) == pytest.approx(0.0, abs=1e-6)
    assert min_at_or_after(trajs["eps-pqm3"], 1.8) == pytest.approx(0.0, abs=1e-6)
    assert elapsed < 5.0
    report(2, f"relaxed levels 198.8/200 and 1.0 within 1e-6; runtime {elapsed:.3f} s < 5 s")


def test_criterion_03_equivalence_under_refinement():
    """Pairwise gaps shrink monotonically and respect (d_max+s_max)*dt."""
    dts = [0.01, 0.001, 0.0001]
    rows = convergence_table(rush(), ["pqm1", "pqm2", "pqm3", "pqm4"], dts)
    gaps = [r["max_distance"] for r in rows]
    for dt, gap in zip(dts, gaps):
        assert gap <= RATE_SUM * dt
    assert gaps[0] > gaps[1] > gaps[2]
    report(3, f"max pairwise gaps {gaps} decrease and stay below 3200*dt")


def test_criterion_04_event_timing():
    """Onset, dissipation start and vanish times from a dt = 1e-5 reference run."""
    (traj,) = simulate_model(rush(dt=1e-5))
    stats = traj.stats()
    onset = math.asin(0.6) / math.pi
    assert stats.first_positive_time == pytest.approx(onset, abs=0.01)
    assert stats.dissipation_start_time == pytest.approx(1 - onset, abs=0.01)
    assert stats.vanish_time == pytest.approx(1.8, abs=0.02)
    report(
        4,
        f"events at {stats.first_positive_time:.4f}/{stats.dissipation_start_time:.4f}/"
        f"{stats.vanish_time:.4f} hr match {onset:.4f}/{1 - onset:.4f}/1.8",
    )


def _random_step_demand(rng, dt, horizon, sigma):
    """Grid-aligned step profile whose peak exceeds the service rate."""
    n = round(horizon / dt)
    k = rng.randrange(2, 7)
    idx = sorted(rng.sample(range(1, n), k))
    bps = [0.0] + [i * dt for i in idx]
    rates = [rng.uniform(0, 2.2 * sigma) for _ in bps]
    rates[rng.randrange(len(rates))] = rng.uniform(sigma, 2.2 * sigma)
    return PiecewiseConstant(tuple(bps), tuple(rates))


def test_criterion_05_closed_form_vs_recursion():
    """50 random step demands: closed form within (d_max+s_max)*dt of the
    recursion; the running-max form equals the running-min form to 1e-9."""
    rng = random.Random(2024)
    dt, horizon = 0.005, 1.5
    n = round(horizon / dt)
    for trial in range(50):
        sigma = rng.uniform(800, 2000)
        demand = _random_step_demand(rng, dt, horizon, sigma)
        sol = vickrey_closed_form(demand, Constant(sigma), dt, horizon)
        lam, worst = 0.0, 0.0
        for i in range(n):
            worst = max(worst, abs(lam - sol.queue[i]))
            lam = max(0.0, lam + (demand.rate_at(i * dt) - sigma) * dt)
        assert worst <= (demand.max_rate + sigma) * dt
        if trial % 5 == 0:
            for i in range(0, n, 7):
                t = sol.grid[i]
                literal = max(
                    sol.arrivals[i] - sol.arrivals[j] - (t - sol.grid[j]) * sigma for j in range(i + 1)
                )
                assert sol.queue[i] == pytest.approx(max(literal, 0.0), abs=1e-9)
    report(5, "closed form tracks the recursion within 3200*dt; max form == min form to 1e-9")


def test_criterion_06_complementarity():
    """Constant-service runs: negligible queue or discharge pinned at sigma."""
    rng = random.Random(77)
    dt, horizon = 0.005, 1.5
    checked = 0
    runs = []
    for _ in range(50):
        sigma = rng.uniform(800, 2000)
        demand = _random_step_demand(rng, dt, horizon, sigma)
        scenario = scenario_from_dict(
            {
                "model": "vickrey",
                "demand": {
                    "type": "piecewise_constant",
                    "breakpoints": list(demand.breakpoints),
                    "rates": list(demand.rates),
                },
                "supply": {"type": "constant", "rate": sigma},
                "queue": {"capacity": None, "initial": 0},
                "dt": dt,
                "horizon": horizon,
            }
        )
        (traj,) = simulate_model(scenario)
        runs.append((traj, demand.max_rate, sigma))
    (traj,) = simulate_model(rush(model="vickrey"))
    runs.append((traj, DEMAND_MAX, SIGMA))
    for traj, delta_max, sigma in runs:
        for q, g in zip(traj.queue, traj.outflow_rate):
            assert q <= delta_max * traj.dt or abs(g - sigma) <= 1e-9
            checked += 1
    report(6, f"complementarity held at {checked} grid points across {len(runs)} runs")


def test_criterion_07_well_definedness_campaign(tmp_path):
    """10^4 randomized admissible trials per variant stay inside [0, cap];
    deliberate violations (oversized step, oversized relaxation) go negative."""
    rng = random.Random(4242)
    trials_per_model = 10_000
    steps = 25
    for model in ALL_MODELS:
        for _ in range(trials_per_model):
            cap = rng.uniform(10, 400)
            bound = well_definedness_bound(model, 3000.0, 3000.0, cap)
            dt = rng.uniform(1e-4, min(bound, 0.25))
            initial = rng.uniform(0, cap)
            rates = [(rng.uniform(0, 3000), rng.uniform(0, 3000)) for _ in range(steps)]
            # Unsafe: the clamp is off, and dt lies within the bound by construction.
            run = run_steps(model.value, *per_step(rates, dt), dt, steps, cap, initial, unsafe=True)
            assert all(-1e-9 <= lam <= cap + 1e-9 for lam in run.queue[1:])
    # Oversized step for PQM3 through the CLI unsafe path.
    doc = {
        "model": "pqm3",
        "demand": {"type": "constant", "rate": 2000},
        "supply": {"type": "constant", "rate": 1200},
        "queue": {"capacity": 200, "initial": 200},
        "dt": 0.2,  # bound is 200/1200 = 1/6 hr
        "horizon": 1.0,
    }
    path = tmp_path / "oversized_step.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", str(path)]) == 2  # refused without the flag
    assert main(["simulate", str(path), "--unsafe", "--out-dir", str(tmp_path)]) == 0
    negative = min(Trajectory.from_csv(tmp_path / "pqm3.csv").queue)
    assert negative < 0
    # Oversized relaxation time for eps-PQM3: fixed point cap - eps*sigma < 0.
    eps = 0.1  # bound is 200/3000 = 1/15 hr
    run = run_steps("eps-pqm3", Constant(5000.0), Constant(3000.0), eps, 50, 200.0, 150.0, epsilon=eps, unsafe=True)
    eps_min = min(run.queue)
    assert eps_min < 0
    report(
        7,
        f"4x{trials_per_model} admissible trials stayed in range; oversized step hit "
        f"{negative:.1f} veh and oversized relaxation hit {eps_min:.1f} veh",
    )


def _fixed_point(stepper, initial, max_steps):
    """Iterate a deterministic one-step map until it repeats (period 1 or 2).

    With constant rates the map is memoryless, so a repeated state makes the
    remainder of the horizon constant (or an ulp-level two-cycle).
    """
    prev2, prev1 = None, initial
    for _ in range(max_steps):
        cur = stepper(prev1)
        if cur == prev1 or cur == prev2:
            return cur
        prev2, prev1 = prev1, cur
    return prev1


def test_criterion_08_stationary_solvers_and_long_runs():
    """Solver tables for all variants and orderings; 10-hour constant-rate
    runs land within 1e-3 veh of the predicted point values; at balanced
    rates one exact discrete step, in both formulations, lands exactly on
    the discrete stationary set for dt = 0.01."""
    cap = 200.0
    over, under, equal = (2000.0, 1200.0), (1000.0, 1200.0), (1200.0, 1200.0)
    # Solver: every variant and ordering.
    for model in ALL_MODELS:
        assert stationary_exact(*over, cap, model).queue == cap
        assert stationary_exact(*under, cap, model).queue == 0.0
        r = stationary_exact(*equal, cap, model)
        assert (r.queue_lo, r.queue_hi) == (0.0, cap)
    eps = 0.001
    expected_eps = {
        (PqModel.PQM1, over): cap,
        (PqModel.PQM4, over): cap,
        (PqModel.PQM2, over): cap - eps * over[1],
        (PqModel.PQM3, over): cap - eps * over[1],
        (PqModel.PQM1, under): 0.0,
        (PqModel.PQM3, under): 0.0,
        (PqModel.PQM2, under): eps * under[0],
        (PqModel.PQM4, under): eps * under[0],
    }
    for (model, rates), want in expected_eps.items():
        assert stationary_eps(model, *rates, cap, eps).queue == pytest.approx(want, abs=1e-12)
    interval_eps = {
        PqModel.PQM1: (0.0, cap),
        PqModel.PQM2: (eps * equal[0], cap - eps * equal[1]),
        PqModel.PQM3: (0.0, cap - eps * equal[1]),
        PqModel.PQM4: (eps * equal[0], cap),
    }
    for model, (lo, hi) in interval_eps.items():
        r = stationary_eps(model, *equal, cap, eps)
        assert (r.queue_lo, r.queue_hi) == pytest.approx((lo, hi))
    # Long-run simulations: constant rates over a 10 hr horizon, stepped to a
    # repeated state (the tail of the horizon is then constant).
    horizon = 10.0
    checked = 0
    for model in ALL_MODELS:
        for delta, sigma in (over, under):
            predicted = stationary_exact(delta, sigma, cap, model).queue
            # Tight steps only where the discrete offset (sigma*dt or
            # delta*dt) must shrink below the tolerance.
            needs_tiny = stationary_exact(delta, sigma, cap, model).limit_of_discrete
            dt = 7e-7 if needs_tiny else 0.01
            dt = min(dt, 0.9 * well_definedness_bound(model, delta, sigma, cap))
            lam = _fixed_point(
                lambda q: point_queue._step_with_volumes(model, q, delta * dt, sigma * dt, cap, True)[0],
                50.0,
                round(horizon / dt),
            )
            assert lam == pytest.approx(predicted, abs=1e-3)
            checked += 1
            eps_predicted = stationary_eps(model, delta, sigma, cap, eps).queue
            lam_eps = _fixed_point(
                lambda q: approx._step_with_volumes(eps / eps, model, q, delta * eps, sigma * eps, cap, True)[0],
                50.0,
                round(horizon / eps),
            )
            assert lam_eps == pytest.approx(eps_predicted, abs=1e-3)
            checked += 1
    # Balanced rates at a finite step: feed = service = vol = delta*dt, and the
    # update rules fix exactly the states below (the continuous set [0, cap]
    # is their dt -> 0 limit).  One step keeps a start inside the set and
    # moves a start outside it onto the nearer edge.
    dt = 0.01
    vol = equal[0] * dt
    interval_dt = {
        PqModel.PQM1: (0.0, cap),
        PqModel.PQM2: (vol, cap - vol),
        PqModel.PQM3: (0.0, cap - vol),
        PqModel.PQM4: (vol, cap),
    }
    balanced = 0
    for model, (lo, hi) in interval_dt.items():
        solved = stationary_eps(model, *equal, cap, dt)
        assert (solved.queue_lo, solved.queue_hi) == (lo, hi)
        for formulation in Formulation:
            for start in (0.0, 100.0, cap):
                run = run_steps(model.value, *map(Constant, equal), dt, 1, cap, start, formulation=formulation)
                assert run.queue[1] == min(max(start, lo), hi)
                balanced += 1
    report(
        8,
        f"solver tables exact for 4 variants x 3 orderings; {checked} long runs within 1e-3; "
        f"{balanced} balanced-rate steps land on the discrete stationary sets",
    )


def test_criterion_09_tandem_spillback():
    """Two-queue spillback at dt = 1e-5: saturation near 0.55 hr, upstream
    clears before 1.4 hr, downstream persists at 2 hr, conservation <= 1e-9."""
    scenario = load_scenario("scenarios/tandem_spillback.json").with_overrides(dt=1e-5)
    report_run = run_scenario(scenario)
    q1 = report_run.trajectories["queue1"]
    q2 = report_run.trajectories["queue2"]
    t_sat = next(t for t, q in zip(q2.times, q2.queue) if q >= 200.0 - 1e-6)
    assert t_sat == pytest.approx(0.55, abs=0.02)
    was_positive = False
    cleared_at = None
    for t, q in zip(q1.times, q1.queue):
        if q > 1e-6:
            was_positive = True
        elif was_positive and cleared_at is None:
            cleared_at = t
    assert was_positive and cleared_at is not None and cleared_at < 1.4
    assert q2.queue[-1] > 0
    assert report_run.metadata["max_conservation_residual"] <= 1e-9
    worst = max(
        abs((a - b) - ((f1 - 0.0) - g2))
        for a, b, f1, g2 in ((q1.queue[i] + q2.queue[i], 0.0, q1.arrivals[i], q2.departures[i])
                             for i in range(len(q1.times)))
    )
    assert worst <= 1e-9
    report(
        9,
        f"saturation at {t_sat:.4f} hr, upstream clear at {cleared_at:.4f} hr, "
        f"downstream {q2.queue[-1]:.1f} veh at 2 hr, residual {worst:.2e}",
    )


def test_criterion_10_formulation_identity():
    """Queue-state and cumulative-state formulations coincide bit for bit on
    the rush-hour scenario under exact (dyadic rational) arithmetic."""
    for name in ("pqm1", "pqm2", "pqm3", "pqm4"):
        (a,) = simulate_model(rush(model=name, formulation=Formulation.QUEUE), exact=True)
        (b,) = simulate_model(rush(model=name, formulation=Formulation.CUMULATIVE), exact=True)
        assert a.queue == b.queue  # b's queue is F - G by construction
        assert a.arrivals == b.arrivals
        assert a.departures == b.departures
    report(10, "lambda_A == F_B - G_B bitwise for all four variants")
