"""TDMA slot tables — the Aethereal guaranteed-service mechanism.

"In order to provide bandwidth and latency guarantees, it uses a Time
Division Multiple Access (TDMA) mechanism to divide time in multiple
time slots, and then assigns each GT connection a number of slots.  The
result is a slot-table in each NI, stating which GT connection is
allowed to enter the network at which time-slot." (Section 3)

A :class:`SlotTable` tracks slot ownership on one resource (a link or an
NI).  Slots are *phase-aligned* along a connection's route: a flit
entering the network in slot ``s`` reaches the k-th link of its route
``shift_k`` cycles later, so that link must reserve slot
``(s + shift_k) mod S``.  Alignment makes GT traffic contention-free:
when the flit arrives, the slot is — by construction — its own.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence


class SlotTable:
    """Slot ownership on one resource."""

    def __init__(self, num_slots: int):
        if num_slots < 1:
            raise ValueError("need at least one slot")
        self.num_slots = num_slots
        self._owner: List[Optional[int]] = [None] * num_slots

    def owner(self, slot: int) -> Optional[int]:
        return self._owner[slot % self.num_slots]

    def is_free(self, slot: int) -> bool:
        return self._owner[slot % self.num_slots] is None

    def reserve(self, slot: int, connection_id: int) -> None:
        idx = slot % self.num_slots
        current = self._owner[idx]
        if current is not None and current != connection_id:
            raise ValueError(
                f"slot {idx} already owned by connection {current}"
            )
        self._owner[idx] = connection_id

    def release_connection(self, connection_id: int) -> None:
        self._owner = [
            None if owner == connection_id else owner for owner in self._owner
        ]

    def slots_of(self, connection_id: int) -> List[int]:
        return [i for i, owner in enumerate(self._owner) if owner == connection_id]

    @property
    def free_slots(self) -> int:
        return sum(1 for owner in self._owner if owner is None)

    @property
    def utilization(self) -> float:
        return 1.0 - self.free_slots / self.num_slots


def required_slots(bandwidth_fraction: float, num_slots: int) -> int:
    """Slots needed to guarantee a fraction of link bandwidth.

    Ceil-rounded: the guarantee must meet or exceed the request.
    """
    if not 0.0 < bandwidth_fraction <= 1.0:
        raise ValueError("bandwidth fraction must be in (0, 1]")
    if num_slots < 1:
        raise ValueError("need at least one slot")
    import math

    return min(num_slots, math.ceil(bandwidth_fraction * num_slots))


def route_slot_shifts(
    link_delays: Sequence[int], switch_latency_cycles: int = 1
) -> List[int]:
    """Cumulative slot shift at each link of a route.

    ``link_delays[i]`` is the delay in cycles of the i-th link (NI link
    first).  A flit leaving the NI at cycle ``t`` is forwarded by the
    k-th *switch* ``switch_latency_cycles`` after its arrival there
    (router pipeline), so the shift of link k is
    ``sum(delays[0..k-1]) + k * switch_latency_cycles``.

    The first link (NI injection) has shift 0: the NI transmits in the
    owner slot itself.
    """
    if switch_latency_cycles < 1:
        raise ValueError("switch latency must be >= 1 cycle")
    shifts = [0]
    total = 0
    for k, delay in enumerate(link_delays[:-1], start=1):
        if delay < 1:
            raise ValueError("link delays must be >= 1 cycle")
        total += delay
        shifts.append(total + k * switch_latency_cycles)
    return shifts
