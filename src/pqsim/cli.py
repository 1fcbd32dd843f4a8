"""Command-line front end: scenario-driven simulation and analysis.

Subcommands: ``simulate``, ``compare``, ``convergence``, ``vickrey``,
``stationary``, ``tandem``.  Exit codes: 0 on success, 2 on scenario or
validation errors and an ``--out-dir`` that cannot be written, 1 on
unexpected runtime errors.  Runs return their data; only ``_write``
writes a file, into ``--out-dir``, and nothing is written without that flag.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

from .analytical import stationary_eps, stationary_exact, vickrey_closed_form
from .errors import ValidationError
from .point_queue import PqModel
from .scenario import (
    MODELS,
    RunReport,
    Scenario,
    convergence_table,
    load_scenario,
    run_scenario,
)
from .trajectory import Trajectory, _write_table


def _model_list(arg: str) -> list[str]:
    names = [m.strip().lower() for m in arg.split(",") if m.strip()]
    if not names:
        raise ValidationError(f"--models must name at least one model (got {arg!r})")
    return names


def _float_list(arg: str) -> list[float]:
    try:
        values = [float(x) for x in arg.split(",") if x.strip()]
    except ValueError:
        values = []
    if not values:
        raise ValidationError(f"--dt-list must be a comma-separated list of numbers (got {arg!r})")
    return values


def _apply_overrides(scenario: Scenario, args) -> Scenario:
    return scenario.with_overrides(
        dt=args.dt,
        epsilon=args.eps,
        horizon=args.horizon,
        unsafe=True if args.unsafe else None,
    )


def _write(out_dir: str | None, label: str, write, *args) -> None:
    """Write ``<label>.csv`` into ``out_dir``, if set, with ``write(path, *args)`` and print its ``wrote`` line.

    A directory that cannot be made or written is bad input: a ``ValidationError`` naming ``--out-dir``.
    """
    if out_dir is not None:
        try:
            path = write(Path(out_dir) / f"{label}.csv", *args)
        except OSError as exc:
            raise ValidationError(f"--out-dir {out_dir!r}: cannot write {label}.csv: {exc}") from None
        print(f"wrote {label}: {path}")


def _print_report(report: RunReport, out_dir: str | None) -> None:
    for line in report.summary_lines():
        print(line)
    for label, traj in report.trajectories.items():
        _write(out_dir, label, traj.write_csv)


def _cmd_simulate(args) -> int:
    scenario = _apply_overrides(load_scenario(args.scenario), args)
    models = _model_list(args.models) if args.models else None
    _print_report(run_scenario(scenario, models=models), args.out_dir)
    return 0


def _cmd_compare(args) -> int:
    scenario = _apply_overrides(load_scenario(args.scenario), args)
    report = run_scenario(scenario, models=_model_list(args.models))
    _print_report(report, args.out_dir)
    rows = ((a, b, d) for (a, b), d in report.distances.items())
    _write(args.out_dir, "comparison", _write_table, ("model_a", "model_b", "sup_distance"), rows)
    return 0


def _cmd_convergence(args) -> int:
    scenario = _apply_overrides(load_scenario(args.scenario), args)
    rows = convergence_table(scenario, _model_list(args.models), _float_list(args.dt_list))
    print(f"{'dt':>12}  {'max pairwise sup distance':>26}")
    for row in rows:
        print(f"{row['dt']:>12g}  {row['max_distance']:>26.9g}")
    cells = ((row["dt"], row["max_distance"]) for row in rows)
    _write(args.out_dir, "convergence", _write_table, ("dt", "max_distance"), cells)
    return 0


def _cmd_vickrey(args) -> int:
    scenario = _apply_overrides(load_scenario(args.scenario), args)
    initial = scenario.queue.initial if scenario.queue is not None else 0.0
    if initial != 0:
        raise ValidationError(f"{scenario.source}: the closed form needs field 'queue.initial' = 0 (got {initial:g})")
    solution = vickrey_closed_form(scenario.demand, scenario.supply, scenario.dt, scenario.horizon)
    dt, n = solution.dt, len(solution.grid) - 1
    cumulative = (solution.arrivals, solution.departures)
    columns = [list(c[:n]) for c in (solution.queue, *cumulative)]
    fluxes = [[(c[i + 1] - c[i]) / dt for i in range(n)] for c in cumulative]
    traj = Trajectory("vickrey_closed_form", dt, *columns, *fluxes)
    print(f"vickrey closed form: {traj.stats().describe()}")
    _write(args.out_dir, "vickrey_closed_form", traj.write_csv)
    return 0


def _check_stationary_inputs(args) -> None:
    """Raise unless the rates are nonnegative and the capacity and eps positive, all finite."""
    for flag, value, zero_ok in (
        ("--delta", args.delta, True),
        ("--sigma", args.sigma, True),
        ("--capacity", args.capacity, False),
        ("--eps", args.eps, False),
    ):
        if value is None:  # only --eps is optional
            continue
        if not (0 <= value < math.inf if zero_ok else 0 < value < math.inf):
            kind = "nonnegative" if zero_ok else "positive"
            raise ValidationError(f"stationary: {flag} must be {kind} and finite (got {value!r})")


def _stationary_model(name: str, relaxed: bool) -> PqModel:
    """The point-queue model ``--model`` names; a relaxed one may carry the ``eps-`` prefix."""
    key = name.lower().removeprefix("eps-") if relaxed else name.lower()
    try:
        return PqModel(key)
    except ValueError:
        valid = ", ".join(("eps-" if relaxed else "") + m.value for m in PqModel)
        raise ValidationError(f"stationary: --model must be one of {valid} (got {name!r})") from None


def _cmd_stationary(args) -> int:
    _check_stationary_inputs(args)
    if args.eps is not None:
        if args.model is None:
            raise ValidationError("stationary with --eps needs --model (one of eps-pqm1..eps-pqm4)")
        model = _stationary_model(args.model, relaxed=True)
        result = stationary_eps(model, args.delta, args.sigma, args.capacity, args.eps)
        print(f"eps-{model.label} stationary: {result.describe()}")
        return 0
    model = _stationary_model(args.model, relaxed=False) if args.model else None
    result = stationary_exact(args.delta, args.sigma, args.capacity, model)
    label = f"{model.label} " if model else ""
    kind = "full" if result.is_point and result.queue_lo == args.capacity else (
        "empty" if result.is_point and result.queue_lo == 0 else "interval"
    )
    print(f"{label}stationary ({kind}): {result.describe()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pqsim",
        description="Deterministic point-queue and link-queue simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("scenario", help="path to a JSON scenario file")
        p.add_argument("--dt", type=float, help="override the scenario step size [hr]")
        p.add_argument("--eps", type=float, help="override the relaxation time [hr]")
        p.add_argument("--horizon", type=float, help="override the horizon [hr]")
        p.add_argument("--unsafe", action="store_true", help="skip admissibility bound checks")
        p.add_argument("--out-dir", help="directory for CSV output")

    p = sub.add_parser("simulate", help="run one scenario and emit its time series")
    add_common(p)
    p.add_argument("--models", help="comma-separated models to run instead of the scenario's")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("compare", help="run several models on one scenario and compare")
    add_common(p)
    p.add_argument("--models", required=True, help=f"comma-separated subset of: {', '.join(MODELS)}")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("convergence", help="pairwise distances across a list of step sizes")
    add_common(p)
    p.add_argument("--models", required=True, help="comma-separated models")
    p.add_argument("--dt-list", required=True, help="comma-separated step sizes [hr]")
    p.set_defaults(func=_cmd_convergence)

    p = sub.add_parser("vickrey", help="closed-form bottleneck solution on the scenario grid")
    add_common(p)
    p.set_defaults(func=_cmd_vickrey)

    p = sub.add_parser("stationary", help="stationary state under constant rates")
    p.add_argument("--delta", type=float, required=True, help="origin demand rate [veh/hr]")
    p.add_argument("--sigma", type=float, required=True, help="destination supply rate [veh/hr]")
    p.add_argument("--capacity", type=float, required=True, help="storage capacity [veh]")
    p.add_argument("--eps", type=float, help="relaxation time; selects the relaxed solver")
    p.add_argument("--model", help="pqm1..pqm4 or eps-pqm1..eps-pqm4")
    p.set_defaults(func=_cmd_stationary)

    p = sub.add_parser("tandem", help="run the scenario's queues in series")
    add_common(p)
    p.set_defaults(func=_cmd_simulate, models="tandem")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser; ``parse_args`` keeps no state between calls."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # ScenarioError and ValidationError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
