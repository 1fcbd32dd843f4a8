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

Units are hours, miles and vehicles throughout; there is no conversion
layer.  ``T3`` is defined as ``T1 + T2`` so the identity holds exactly in
floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

__all__ = ["LinkParams", "QueueSpec"]


@dataclass(frozen=True)
class LinkParams:
    length: float  # mi
    lanes: float  # may be fractional when matching a storage target
    free_flow_speed: float  # mph
    wave_speed: float  # mph
    jam_density: float  # veh/mi/lane

    def __post_init__(self) -> None:
        for name in ("length", "lanes", "free_flow_speed", "wave_speed", "jam_density"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive (got {getattr(self, name)})")

    # Cached because the link steps read them every step; cached_property writes the
    # instance __dict__, so it works frozen and fields(), asdict, eq and hash ignore it.
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


@dataclass(frozen=True)
class QueueSpec:
    """Point-queue storage description.

    ``capacity`` is the maximum content [veh]; ``None`` means unbounded
    storage, which structurally removes the supply limit (it is not a
    large sentinel number).  ``initial`` is the content at t = 0.
    """

    capacity: float | None
    initial: float = 0.0

    def __post_init__(self) -> None:
        if self.capacity is not None and self.capacity <= 0:
            raise ValueError(f"capacity must be positive or None (got {self.capacity})")
        if self.initial < 0:
            raise ValueError(f"initial content must be nonnegative (got {self.initial})")
        if self.capacity is not None and self.initial > self.capacity:
            raise ValueError(
                f"initial content {self.initial} exceeds capacity {self.capacity}"
            )

    @classmethod
    def unbounded(cls, initial: float = 0.0) -> "QueueSpec":
        return cls(capacity=None, initial=initial)
