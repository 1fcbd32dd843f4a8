"""Bit-for-bit pins of the hot kernels against their plain reference forms.

The step, state and output code is written for interpreter speed; these
tests check, with exact equality, that it computes what the readable
formulas compute.
"""

import csv
from dataclasses import FrozenInstanceError, asdict, fields

import pytest

from pqsim import LinkParams, LtmSimulation, PqModel, PqState, Trajectory

STANDARD = LinkParams(length=1, lanes=1, free_flow_speed=60, wave_speed=20, jam_density=150)
# T1 = 1/60 hr, T2 = 1/20 hr, storage = 150 veh, capacity = 2250 vph

EDGE_FLOATS = [1e-05, 0.1 + 0.2, -0.0, 1e16, 5e-324, float(2**53)]


def _repr_writer(traj: Trajectory, path) -> None:
    """The per-cell ``repr`` writer the CSV format is defined by."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "lambda", "F", "G", "f", "g"])
        for row in zip(traj.times, traj.queue, traj.arrivals, traj.departures, traj.inflow_rate, traj.outflow_rate):
            writer.writerow([repr(x) for x in row])


def test_write_csv_bytes_match_the_repr_writer(tmp_path):
    n = len(EDGE_FLOATS)
    columns = [EDGE_FLOATS[k:] + EDGE_FLOATS[:k] for k in range(6)]  # every value in every column
    traj = Trajectory("edge", 0.1, *columns)
    assert n == len(traj)
    _repr_writer(traj, tmp_path / "reference.csv")
    written = traj.write_csv(tmp_path / "edge.csv")
    assert written.read_bytes() == (tmp_path / "reference.csv").read_bytes()
    back = Trajectory.from_csv(written)
    for name in ("times", "queue", "arrivals", "departures", "inflow_rate", "outflow_rate"):
        assert list(map(repr, getattr(back, name))) == list(map(repr, getattr(traj, name)))


def _reference_volumes(sim: LtmSimulation) -> tuple[float, float]:
    """Demand and supply volumes from the public queue and vacancy properties."""
    t, dt, p = sim.clock, sim.dt, sim.params
    cap_volume = p.capacity * dt
    delayed_in = sim._arrivals_at(t + dt - p.free_flow_time) - sim._arrivals_at(t - p.free_flow_time)
    delayed_out = sim._departures_at(t + dt - p.wave_time) - sim._departures_at(t - p.wave_time)
    return min(delayed_in + sim.queue_size, cap_volume), min(delayed_out + sim.vacancy, cap_volume)


def test_ltm_volumes_equal_the_reference_formula_at_every_step():
    """A congested run from nonzero content, so the virtual-seed history is read for the first steps."""
    sim = LtmSimulation(STANDARD, 75.0, dt=0.005)
    seeded = queued = full = 0
    for i in range(600):
        seeded += sim.clock - STANDARD.wave_time <= 0
        queued += sim.queue_size > 0
        full += sim.vacancy == 0
        assert sim.demand_supply_volumes() == _reference_volumes(sim)
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


def test_pq_state_is_immutable():
    state = PqState.initial(5.0)
    assert state == PqState(clock=0.0, queue=5.0, arrivals=5.0, departures=0.0)
    with pytest.raises(AttributeError):
        state.queue = 1.0


def test_link_params_cache_is_invisible_to_the_dataclass():
    used = LinkParams(**asdict(STANDARD))
    assert used.capacity == 2250 and used.storage == 150
    fresh = LinkParams(**asdict(STANDARD))
    assert used == fresh and hash(used) == hash(fresh) and asdict(used) == asdict(fresh)
    assert [f.name for f in fields(used)] == ["length", "lanes", "free_flow_speed", "wave_speed", "jam_density"]
    with pytest.raises(FrozenInstanceError):
        used.length = 2.0
