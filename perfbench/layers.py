"""Per-layer tracing: one table of wrap targets and the tracer that wraps them.

Each entry of ``TARGETS`` names a layer function as ``<layer>.<fn>`` and
lists every ``(owner, attribute)`` site through which the package looks it
up at call time, so one wrapper per site sees every call made by the CLI.
When the package is refactored, this table is the one place to update.

The tracer keeps counters in memory only: calls, busy time (inclusive),
self time (busy time minus the busy time of traced calls made inside it),
calls that raised, and the work units each call handled (rows, points or
steps) for the normalised ``ns_per_<unit>`` rates.
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass
from typing import Callable

from pqsim import approx, cli, point_queue, profiles, scenario
from pqsim.link_models import LqmSimulation, LtmSimulation
from pqsim.trajectory import Trajectory


def _first_arg_rows(args, result) -> int:
    return len(args[0])


def _grid_points(args, result) -> int:
    return len(result.grid)


def _file_bytes(args, result) -> int:
    return os.path.getsize(result)


@dataclass(frozen=True)
class Target:
    """One traced layer function and the sites it is looked up through."""

    name: str
    sites: tuple[tuple[object, str], ...]
    per: str | None = None  # unit of the ns_per_<per> rate, if reported
    units: Callable | None = None  # work units of one call; None counts calls
    nbytes: Callable | None = None  # bytes one call wrote


TARGETS: tuple[Target, ...] = (
    Target("cli.main", ((cli, "main"),)),
    Target("scenario.load_scenario", ((cli, "load_scenario"), (scenario, "load_scenario"))),
    Target("scenario.validate_model", ((scenario, "validate_model"),)),
    Target("scenario.run_scenario", ((cli, "run_scenario"), (scenario, "run_scenario"))),
    Target("scenario.simulate_model", ((scenario, "simulate_model"),)),
    Target(
        "profiles.rate_at",
        ((profiles.Constant, "rate_at"), (profiles.PiecewiseConstant, "rate_at"), (profiles.SineFloor, "rate_at")),
        per="call",
    ),
    # The scenario loop looks the per-step functions up by module attribute.
    Target("point_queue.step", ((point_queue, "_step_with_volumes"),), per="step"),
    Target("approx.step", ((approx, "_step_with_volumes"),), per="step"),
    Target("network.step_tandem", ((scenario, "step_tandem"),), per="step"),
    Target("link_models.step", ((LtmSimulation, "step"), (LqmSimulation, "step")), per="step"),
    Target("trajectory.stats", ((Trajectory, "stats"),), per="row", units=_first_arg_rows),
    Target("trajectory.sup_distance", ((scenario, "sup_distance"),), per="row", units=_first_arg_rows),
    Target(
        "trajectory.write_csv", ((Trajectory, "write_csv"),), per="row", units=_first_arg_rows, nbytes=_file_bytes
    ),
    Target("analytical.vickrey_closed_form", ((cli, "vickrey_closed_form"),), per="point", units=_grid_points),
)

# Spans whose self time is the scenario module's own recording loops.
SCENARIO_SELF = ("scenario.run_scenario", "scenario.simulate_model")

_ORIGINALS = {(id(owner), attr): vars(owner)[attr] for t in TARGETS for owner, attr in t.sites}


def altered_sites() -> list[str]:
    """Sites of ``TARGETS`` whose attribute is no longer the package's own object."""
    return [
        f"{owner.__name__}.{attr}"
        for t in TARGETS
        for owner, attr in t.sites
        if vars(owner)[attr] is not _ORIGINALS[(id(owner), attr)]
    ]


@dataclass
class Counter:
    calls: int = 0
    busy: float = 0.0
    self_time: float = 0.0
    raised: int = 0
    units: int = 0
    nbytes: int = 0


class Tracer:
    """Wraps every site of ``targets`` while active (``with tracer:``)."""

    def __init__(self, targets: tuple[Target, ...] = TARGETS, clock: Callable[[], float] = time.perf_counter):
        self.targets = targets
        self.clock = clock
        self.counters = {t.name: Counter() for t in targets}
        self._open: list[float] = []  # child busy time of each open span
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, target: Target, fn):
        counter = self.counters[target.name]
        clock = self.clock
        open_spans = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counter.raised += 1
                raise
            finally:
                elapsed = clock() - start
                counter.calls += 1
                counter.busy += elapsed
                counter.self_time += elapsed - open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
            counter.units += 1 if target.units is None else target.units(args, result)
            if target.nbytes is not None:
                counter.nbytes += target.nbytes(args, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for target in self.targets:
            for owner, attr in target.sites:
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(target, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def self_total(self) -> float:
        return sum(c.self_time for c in self.counters.values())

    def metrics(self) -> dict[str, float]:
        """Per-layer metric values (see README.md for names and units)."""
        out: dict[str, float] = {}
        for t in self.targets:
            c = self.counters[t.name]
            out[f"{t.name}.calls"] = c.calls
            out[f"{t.name}.busy_s"] = c.busy
            if t.per is not None:
                out[f"{t.name}.ns_per_{t.per}"] = c.busy / c.units * 1e9 if c.units else 0.0
            if t.nbytes is not None:
                out[f"{t.name}.bytes"] = c.nbytes
        out["scenario.validate_model.rejected"] = self.counters["scenario.validate_model"].raised
        out["scenario.self_s"] = sum(self.counters[name].self_time for name in SCENARIO_SELF)
        out["cli.main.self_s"] = self.counters["cli.main"].self_time
        return out
