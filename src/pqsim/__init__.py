"""Deterministic point-queue and link-queue simulation toolkit.

The package covers a family of queueing models built from a single
junction rule (flux = min of upstream demand and downstream supply):

* four exact discrete point-queue variants (PQM1..PQM4) in queue-length
  and cumulative-flow formulations, with the Vickrey bottleneck and the
  dam-process recursion as special cases;
* their relaxed counterparts with relaxation time eps (eps-PQM1..4);
* two link-based models the point queues are the zero-length limits of:
  the delay-based LTM and the delay-free LQM;
* closed-form bottleneck solutions and stationary-state solvers;
* tandems of point queues with spillback;
* a scenario CLI (``pqsim``) that runs all of the above and emits CSV.
"""

from .analytical import (
    StationaryResult,
    VickreySolution,
    stationary_eps,
    stationary_exact,
    vickrey_closed_form,
)
from .errors import PqsimError, ScenarioError, ValidationError
from .link_models import LqmSimulation, LtmSimulation
from .links import LinkParams, QueueSpec
from .network import TandemQueue, TandemSpec, step_tandem
from .point_queue import Formulation, PqModel, well_definedness_bound
from .profiles import (
    Constant,
    PiecewiseConstant,
    Profile,
    SineFloor,
    sine_floor,
)
from .scenario import (
    RunReport,
    Scenario,
    convergence_table,
    load_scenario,
    profile_from_dict,
    run_scenario,
    scenario_from_dict,
    simulate_model,
)
from .trajectory import Trajectory, TrajectoryStats, sup_distance

__version__ = "0.1.0"

__all__ = [
    "Constant",
    "Formulation",
    "LinkParams",
    "LqmSimulation",
    "LtmSimulation",
    "PiecewiseConstant",
    "PqModel",
    "PqsimError",
    "Profile",
    "QueueSpec",
    "RunReport",
    "Scenario",
    "ScenarioError",
    "SineFloor",
    "StationaryResult",
    "TandemQueue",
    "TandemSpec",
    "Trajectory",
    "TrajectoryStats",
    "ValidationError",
    "VickreySolution",
    "convergence_table",
    "load_scenario",
    "profile_from_dict",
    "run_scenario",
    "scenario_from_dict",
    "simulate_model",
    "sine_floor",
    "stationary_eps",
    "stationary_exact",
    "step_tandem",
    "sup_distance",
    "vickrey_closed_form",
    "well_definedness_bound",
]
