"""Physical description of a homogeneous road link and of a point queue.

The link carries a triangular flow-density relation

    q(k) = min(V * k, (N * K - k) * W)        [veh/hr]

with free-flow speed V [mph], backward wave speed W [mph], jam density K
[veh/mi/lane] and N lanes over length L [mi].  Derived quantities:

    T1 = L / V            free-flow traverse time
    T2 = L / W            backward-wave traverse time
    T3 = T1 + T2          (equals L / U with U = V*W/(V+W))
    storage  = N * L * K  maximum vehicle content [veh]
    capacity = storage / T3 = N * U * K   [veh/hr]

The five physical fields must be positive and finite.  ``initial`` is a
link's uniform content at t = 0 [veh], F(0) of both link models;
``LinkParams`` checks it once, in [0, storage].  NaN fails every check, and
``_replace`` and ``_make`` run the same checks as the constructor.

Units are hours, miles and vehicles throughout; there is no conversion
layer.  ``T3`` is defined as ``T1 + T2`` so the identity holds exactly in
floating point.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property

from .errors import checked_make

__all__ = ["LinkParams", "QueueSpec"]


class LinkParams(namedtuple("LinkParams", "length lanes free_flow_speed wave_speed jam_density initial")):
    """Length [mi], lanes (fractional to match a storage), V and W [mph], jam density [veh/mi/lane], initial [veh]."""

    _make = classmethod(checked_make)

    def __new__(cls, length, lanes, free_flow_speed, wave_speed, jam_density, initial=0.0):
        self = super().__new__(cls, length, lanes, free_flow_speed, wave_speed, jam_density, initial)
        for name, value in zip(cls._fields, self[:5]):
            if not 0 < value < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be positive and finite (got {value})")
        if not 0 <= initial <= self.storage:
            raise ValueError(f"initial must lie in [0, {self.storage:g}] (got {initial:g})")
        return self

    # Computed on first read and kept in the instance __dict__, outside the tuple,
    # so equality, hashing and the fields see only the six inputs.
    @cached_property
    def free_flow_time(self) -> float:
        """T1 = L/V [hr]."""
        return self.length / self.free_flow_speed

    @cached_property
    def wave_time(self) -> float:
        """T2 = L/W [hr]."""
        return self.length / self.wave_speed

    @cached_property
    def traverse_time(self) -> float:
        """T3 = T1 + T2 [hr]; equals L/U for U = V*W/(V+W)."""
        return self.free_flow_time + self.wave_time

    @cached_property
    def storage(self) -> float:
        """Maximum vehicle content N*L*K [veh]."""
        return self.lanes * self.length * self.jam_density

    @cached_property
    def capacity(self) -> float:
        """Total link capacity storage/T3 = N*U*K [veh/hr]."""
        return self.storage / self.traverse_time


class QueueSpec(namedtuple("QueueSpec", "capacity initial", defaults=(0.0,))):
    """Point-queue storage description.

    ``capacity`` is the maximum content [veh], positive and finite;
    ``None`` means unbounded storage, which structurally removes the supply
    limit (it is not a large sentinel number).  ``initial`` is the content
    at t = 0, nonnegative and finite.
    """

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, capacity, initial=0.0):
        if capacity is not None and not 0 < capacity < math.inf:  # NaN fails these checks too
            raise ValueError(f"capacity must be positive and finite, or None (got {capacity})")
        if not 0 <= initial < math.inf:
            raise ValueError(f"initial content must be nonnegative and finite (got {initial})")
        if capacity is not None and initial > capacity:
            raise ValueError(f"initial content {initial} exceeds capacity {capacity}")
        return super().__new__(cls, capacity, initial)

    @classmethod
    def unbounded(cls, initial: float = 0.0) -> "QueueSpec":
        return cls(capacity=None, initial=initial)
