"""Uniform-grid simulation output: time series, summary stats, CSV I/O.

A trajectory holds one row per simulation step, attributed to the step's
start time: the state (queue length, cumulative in/out flows) at the start
of the step and the average fluxes over the step (volume / dt).  It stores
dt and those five columns; row i starts at t = i * dt, which ``times``,
``stats`` and ``write_csv`` derive, so no time column is kept.  CSV
columns are exactly ``t, lambda, F, G, f, g`` with units hr, veh, veh,
veh, veh/hr, veh/hr.  Floats are written with ``repr`` so files are
byte-identical across runs and parse back to the same doubles, which makes
summary statistics exactly recomputable from the file; ``from_csv`` takes
dt from the ``t`` column and rejects, naming the file, bytes that are not
text, fewer than two rows, a row that is not six numbers and a ``t`` that
is not ``i * dt``.
"""

from __future__ import annotations

import operator
import reprlib
from collections import namedtuple
from itertools import repeat, starmap
from pathlib import Path

__all__ = ["Trajectory", "TrajectoryStats", "sup_distance"]

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

    __slots__ = ("label", "dt", "queue", "arrivals", "departures", "inflow_rate", "outflow_rate")

    def __init__(self, label, dt, queue, arrivals, departures, inflow_rate, outflow_rate):
        self.label, self.dt, self.queue = label, dt, queue
        self.arrivals, self.departures = arrivals, departures
        self.inflow_rate, self.outflow_rate = inflow_rate, outflow_rate
        for name in self.__slots__[3:]:
            if len(getattr(self, name)) != len(queue):
                raise ValueError(f"column {name} has length {len(getattr(self, name))}, expected {len(queue)}")

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{k}={getattr(self, k)!r}' for k in self.__slots__)})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return [getattr(self, k) for k in self.__slots__] == [getattr(other, k) for k in self.__slots__]

    def __len__(self) -> int:
        return len(self.queue)

    @property
    def times(self) -> list[float]:
        """Each row's start time, ``i * dt``: the ``t`` column of the CSV."""
        return list(map(operator.mul, range(len(self)), repeat(self.dt)))

    def stats(self) -> TrajectoryStats:
        queue, dt = self.queue, self.dt
        if not queue:
            raise ValueError("empty trajectory")
        peak = max(queue)
        if peak <= 0:
            return TrajectoryStats(peak, None, None, None, None, None)
        first_positive = next((i * dt for i, q in enumerate(queue) if q > 0), None)
        last_peak_idx = max(i for i, q in enumerate(queue) if q == peak)
        vanish = next((i * dt for i in range(last_peak_idx, len(queue)) if queue[i] <= VANISH_EPS), None)
        return TrajectoryStats(
            peak, queue.index(peak) * dt, first_positive, last_peak_idx * dt, vanish, min(queue[last_peak_idx:])
        )

    def write_csv(self, path: str | Path) -> Path:
        columns = (self.queue, self.arrivals, self.departures, self.inflow_rate, self.outflow_rate)
        return _write_table(path, CSV_COLUMNS, zip(map(operator.mul, range(len(self)), repeat(self.dt)), *columns))

    @classmethod
    def from_csv(cls, path: str | Path, label: str | None = None) -> "Trajectory":
        import csv  # here, not at module top: only reading a CSV back needs it

        path = Path(path)
        try:
            with open(path, newline="", encoding="utf-8") as fh:
                reader = csv.reader(fh)
                header = tuple(next(reader))
                if header != CSV_COLUMNS:
                    raise ValueError(f"{path}: unexpected CSV header {header!r}, want {CSV_COLUMNS!r}")
                times, *columns = cols = [[] for _ in CSV_COLUMNS]
                for i, row in enumerate(reader):
                    try:
                        for col, cell in zip(cols, row, strict=True):
                            col.append(float(cell))
                    except ValueError:
                        raise ValueError(f"{path}: row {i} is not {len(cols)} numbers: {reprlib.repr(row)}") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
        if len(times) < 2:
            raise ValueError(f"{path}: fewer than two rows (got {len(times)}); dt is read from the second row's t")
        dt = times[1]
        bad = next((i for i, t in enumerate(times) if t != i * dt), None)
        if bad is not None:
            raise ValueError(f"{path}: t[{bad}] = {times[bad]!r} is not {bad} * dt = {bad * dt!r}")
        return cls(label or path.stem, dt, *columns)


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
