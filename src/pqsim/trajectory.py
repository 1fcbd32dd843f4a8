"""Uniform-grid simulation output: time series, summary stats, CSV I/O.

A trajectory holds one row per simulation step, attributed to the step's
start time: the state (queue length, cumulative in/out flows) at the start
of the step and the average fluxes over the step (volume / dt).  CSV
columns are exactly ``t, lambda, F, G, f, g`` with units hr, veh, veh,
veh, veh/hr, veh/hr.  Floats are written with ``repr`` so files are
byte-identical across runs and parse back to the same doubles, which makes
summary statistics exactly recomputable from the file.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from itertools import starmap
from pathlib import Path

__all__ = ["Trajectory", "TrajectoryStats", "sup_distance", "CSV_COLUMNS"]

CSV_COLUMNS = ("t", "lambda", "F", "G", "f", "g")

# Queue levels at or below this count as "gone" when timing events.
VANISH_EPS = 1e-9


class TrajectoryStats(
    namedtuple(
        "TrajectoryStats",
        "max_queue max_queue_time first_positive_time dissipation_start_time vanish_time min_queue_after_peak",
    )
):
    """Queue events of a run; every field but ``max_queue`` is None when no queue forms.

    ``dissipation_start_time`` is the last time the maximum is attained,
    ``vanish_time`` the first time at/below VANISH_EPS after the peak.
    """

    __slots__ = ()

    def describe(self) -> str:
        def fmt(x):
            return "-" if x is None else f"{x:g}"

        return (
            f"max lambda = {self.max_queue:g} veh at t = {fmt(self.max_queue_time)} hr; "
            f"first positive t = {fmt(self.first_positive_time)} hr; "
            f"dissipation starts t = {fmt(self.dissipation_start_time)} hr; "
            f"vanishes t = {fmt(self.vanish_time)} hr; "
            f"min after peak = {fmt(self.min_queue_after_peak)} veh"
        )


class Trajectory:
    """One row per step: state at the step start plus the step's fluxes; the columns are lists."""

    __slots__ = ("label", "dt", "times", "queue", "arrivals", "departures", "inflow_rate", "outflow_rate")

    def __init__(self, label, dt, times, queue, arrivals, departures, inflow_rate, outflow_rate):
        self.label, self.dt, self.times, self.queue = label, dt, times, queue
        self.arrivals, self.departures = arrivals, departures
        self.inflow_rate, self.outflow_rate = inflow_rate, outflow_rate
        for name in self.__slots__[3:]:
            if len(getattr(self, name)) != len(times):
                raise ValueError(f"column {name} has length {len(getattr(self, name))}, expected {len(times)}")

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{k}={getattr(self, k)!r}' for k in self.__slots__)})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return [getattr(self, k) for k in self.__slots__] == [getattr(other, k) for k in self.__slots__]

    def __len__(self) -> int:
        return len(self.times)

    def stats(self) -> TrajectoryStats:
        if not self.times:
            raise ValueError("empty trajectory")
        peak = max(self.queue)
        if peak <= 0:
            return TrajectoryStats(peak, None, None, None, None, None)
        peak_time = self.times[self.queue.index(peak)]
        first_positive = next((t for t, q in zip(self.times, self.queue) if q > 0), None)
        last_peak_idx = max(i for i, q in enumerate(self.queue) if q == peak)
        dissipation = self.times[last_peak_idx]
        vanish = next(
            (t for t, q in zip(self.times[last_peak_idx:], self.queue[last_peak_idx:]) if q <= VANISH_EPS),
            None,
        )
        return TrajectoryStats(peak, peak_time, first_positive, dissipation, vanish, min(self.queue[last_peak_idx:]))

    def write_csv(self, path: str | Path) -> Path:
        columns = (self.times, self.queue, self.arrivals, self.departures, self.inflow_rate, self.outflow_rate)
        return _write_table(path, CSV_COLUMNS, zip(*columns))

    @classmethod
    def from_csv(cls, path: str | Path, label: str | None = None) -> "Trajectory":
        import csv  # here, not at module top: only reading a CSV back needs it

        path = Path(path)
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = tuple(next(reader))
            if header != CSV_COLUMNS:
                raise ValueError(f"unexpected CSV header {header!r}, want {CSV_COLUMNS!r}")
            cols: list[list[float]] = [[] for _ in CSV_COLUMNS]
            for row in reader:
                for col, cell in zip(cols, row):
                    col.append(float(cell))
        times = cols[0]
        dt = times[1] - times[0] if len(times) > 1 else 0.0
        return cls(label or path.stem, dt, *cols)


def _write_table(path: str | Path, header, rows) -> Path:
    """Write a CSV file, making its directory: the header, then rows of comma-separated cells, each ended by CR LF.

    A cell is written as its ``str``, which for a float is its ``repr``.
    This is what ``csv.writer`` writes for cells that hold no comma, quote
    or line break; the package's cells are numbers and model labels.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    row = ",".join(["{}"] * len(header)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(starmap(row.format, rows))
    return path


def sup_distance(a: Trajectory, b: Trajectory) -> float:
    """Largest pointwise queue-length gap between two same-grid trajectories."""
    if len(a) != len(b) or a.dt != b.dt:
        raise ValueError(
            f"trajectories are not on the same grid ({len(a)} rows at dt={a.dt} vs {len(b)} at dt={b.dt})"
        )
    return max(map(abs, map(operator.sub, a.queue, b.queue)))
