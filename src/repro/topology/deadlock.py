"""Deadlock analysis: channel-dependency graphs and message coupling.

The paper makes deadlock freedom a synthesis requirement: "the
synthesized topologies should be free of routing and message-dependent
deadlocks" (Section 2).  Two checks implement that requirement:

* **Routing deadlock** — Dally & Seitz: a deterministic wormhole network
  is deadlock-free iff its channel dependency graph (CDG) is acyclic.
  Channels are (link, virtual-channel) pairs; a dependency arises when a
  route holds one channel while requesting the next.
* **Message-dependent deadlock** — request and response messages that
  share channels can deadlock even with an acyclic CDG when endpoints
  couple them (a blocked response back-pressures request consumption).
  The standard remedies the literature (and the xpipes/Aethereal flows)
  apply are physical or virtual separation of the two message classes;
  the checker verifies one of them holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.topology.algorithms import find_cycle
from repro.topology.graph import NodeKind, RoutingTable, Topology

Channel = Tuple[str, str, int]  # (src node, dst node, virtual channel)
#: channel -> the channels a route requests while holding it; both
#: levels in first-seen order (the values are all None).
DependencyGraph = Dict[Channel, Dict[Channel, None]]


def channel_dependency_graph(
    topo: Topology,
    table: RoutingTable,
    vc_assignment: Optional[Dict[Tuple[str, str], Sequence[int]]] = None,
) -> DependencyGraph:
    """Build the CDG induced by a routing table.

    ``vc_assignment`` maps (src core, dst core) to the VC index used on
    each hop of that route (see
    :func:`repro.topology.routing.dateline_vc_assignment`); omitted
    routes use VC 0 everywhere.
    """
    cdg: DependencyGraph = {}
    for route in table:
        links = route.links()
        vcs = _vcs_for(route.source, route.destination, len(links), vc_assignment)
        channels: List[Channel] = [
            (src, dst, vc) for (src, dst), vc in zip(links, vcs)
        ]
        for ch in channels:
            cdg.setdefault(ch, {})
        for held, wanted in zip(channels, channels[1:]):
            cdg[held][wanted] = None
    return cdg


def _vcs_for(
    src: str,
    dst: str,
    num_links: int,
    vc_assignment: Optional[Dict[Tuple[str, str], Sequence[int]]],
) -> Sequence[int]:
    if vc_assignment is None:
        return [0] * num_links
    vcs = vc_assignment.get((src, dst))
    if vcs is None:
        return [0] * num_links
    if len(vcs) != num_links:
        raise ValueError(
            f"VC assignment for {src!r}->{dst!r} has {len(vcs)} entries, "
            f"route has {num_links} links"
        )
    return vcs


@dataclass
class DeadlockReport:
    """Result of a routing-deadlock check."""

    is_deadlock_free: bool
    cycle: List[Channel] = field(default_factory=list)
    num_channels: int = 0
    num_dependencies: int = 0

    def __bool__(self) -> bool:  # truthy when safe
        return self.is_deadlock_free


def check_routing_deadlock(
    topo: Topology,
    table: RoutingTable,
    vc_assignment: Optional[Dict[Tuple[str, str], Sequence[int]]] = None,
) -> DeadlockReport:
    """Dally-Seitz acyclicity check; returns a witness cycle if any."""
    cdg = channel_dependency_graph(topo, table, vc_assignment)
    cycle = find_cycle(cdg)
    return DeadlockReport(
        is_deadlock_free=cycle is None,
        cycle=cycle or [],
        num_channels=len(cdg),
        num_dependencies=sum(map(len, cdg.values())),
    )


def minimum_vcs_required(
    topo: Topology,
    table: RoutingTable,
    vc_assignments: Sequence[Optional[Dict[Tuple[str, str], Sequence[int]]]],
) -> Optional[int]:
    """Smallest candidate VC assignment (by max VC index) that is safe.

    ``vc_assignments`` is tried in order; returns 1 + max VC index of the
    first assignment whose CDG is acyclic, or None if none works.
    """
    for assignment in vc_assignments:
        if check_routing_deadlock(topo, table, assignment):
            if assignment is None:
                return 1
            top = max((max(v) for v in assignment.values() if v), default=0)
            return top + 1
    return None


# ----------------------------------------------------------------------
# Message-dependent deadlock
# ----------------------------------------------------------------------
@dataclass
class MessageClassReport:
    """Result of the request/response separation check."""

    is_safe: bool
    shared_channels: List[Channel] = field(default_factory=list)
    reason: str = ""

    def __bool__(self) -> bool:
        return self.is_safe


def check_message_dependent_deadlock(
    topo: Topology,
    request_table: RoutingTable,
    response_table: RoutingTable,
    request_vcs: Optional[Dict[Tuple[str, str], Sequence[int]]] = None,
    response_vcs: Optional[Dict[Tuple[str, str], Sequence[int]]] = None,
    sink_guarantees_consumption: bool = False,
) -> MessageClassReport:
    """Verify request/response separation.

    Safe when (a) target NIs always consume requests regardless of the
    response path (``sink_guarantees_consumption`` — the xpipes NI
    design point, which sizes response buffering for the outstanding
    window), or (b) the two message classes share no (link, VC) channel
    — separate physical networks or dedicated VCs per class.  The
    combined single-class CDG must also be acyclic in case (b).
    """

    def channels_of(table: RoutingTable, vcs) -> Set[Channel]:
        out: Set[Channel] = set()
        for route in table:
            links = route.links()
            assigned = _vcs_for(route.source, route.destination, len(links), vcs)
            out.update(
                (src, dst, vc) for (src, dst), vc in zip(links, assigned)
            )
        return out

    if sink_guarantees_consumption:
        return MessageClassReport(
            is_safe=True, reason="sinks guarantee consumption (buffered NIs)"
        )
    req = channels_of(request_table, request_vcs)
    resp = channels_of(response_table, response_vcs)
    shared = sorted(req & resp)
    if shared:
        return MessageClassReport(
            is_safe=False,
            shared_channels=list(shared),
            reason="request and response classes share channels without "
            "consumption guarantees",
        )
    return MessageClassReport(
        is_safe=True, reason="message classes are channel-disjoint"
    )
