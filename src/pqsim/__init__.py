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

Each module's ``__all__`` is the one list of its public names, and the
package re-exports them all; helpers outside those lists, such as
``scenario.MAX_STEPS`` and ``trajectory.CSV_COLUMNS``, stay in their modules.
"""

from .analytical import *
from .errors import *
from .link_models import *
from .links import *
from .network import *
from .point_queue import *
from .profiles import *
from .scenario import *
from .trajectory import *

__version__ = "0.1.0"

__all__ = (
    analytical.__all__ + errors.__all__ + link_models.__all__ + links.__all__ + network.__all__
    + point_queue.__all__ + profiles.__all__ + scenario.__all__ + trajectory.__all__
)
