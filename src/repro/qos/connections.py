"""Guaranteed-throughput connection admission and installation.

The Aethereal model (Section 3): "The architecture offers so-called GT
connections which provide bandwidth and latency guarantees on that
connection" while "for traffic that has no real-time requirements,
Aethereal implements Best-Effort connections".

:class:`ConnectionManager` performs slot-table admission control over a
routed topology and installs the resulting configuration into a
:class:`repro.sim.NocSimulator`:

* the source NI gets the injection slot table (per-flit gating);
* every switch output port along the route gets a phase-aligned
  :class:`repro.arch.arbiter.TdmaArbiter`;
* GT packets travel on a dedicated VC so best-effort wormholes can
  never block them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.arch.arbiter import TdmaArbiter
from repro.qos.tdma import SlotTable, required_slots, route_slot_shifts
from repro.topology.graph import NodeKind, RoutingTable, Topology

GT_VC = 1  # dedicated virtual channel for guaranteed traffic


@dataclass(frozen=True)
class GtConnection:
    """One guaranteed-throughput connection request."""

    connection_id: int
    source: str
    destination: str
    bandwidth_fraction: float  # share of one link's capacity
    packet_size_flits: int = 4

    def __post_init__(self) -> None:
        if not 0.0 < self.bandwidth_fraction <= 1.0:
            raise ValueError("bandwidth fraction must be in (0, 1]")
        if self.packet_size_flits < 1:
            raise ValueError("packet size must be >= 1")


@dataclass
class AdmittedConnection:
    connection: GtConnection
    slots: List[int]                    # injection slots (NI table indices)
    route_links: List[Tuple[str, str]]  # the path's links, NI link first
    shifts: List[int]                   # per-link slot shifts


class AdmissionError(Exception):
    """Raised when a GT request cannot be guaranteed."""


class ConnectionManager:
    """Admission control and installation of GT connections."""

    def __init__(self, topology: Topology, routing_table: RoutingTable,
                 num_slots: int = 16, switch_latency_cycles: int = 1):
        if num_slots < 1:
            raise ValueError("need at least one slot")
        if switch_latency_cycles < 1:
            raise ValueError("switch latency must be >= 1 cycle")
        self.topology = topology
        self.routing_table = routing_table
        self.num_slots = num_slots
        self.switch_latency_cycles = switch_latency_cycles
        self.link_tables: Dict[Tuple[str, str], SlotTable] = {}
        self.admitted: Dict[int, AdmittedConnection] = {}

    def _table(self, link: Tuple[str, str]) -> SlotTable:
        if link not in self.link_tables:
            self.link_tables[link] = SlotTable(self.num_slots)
        return self.link_tables[link]

    # ------------------------------------------------------------------
    def admit(self, connection: GtConnection) -> AdmittedConnection:
        """Reserve phase-aligned slots along the route or raise."""
        if connection.connection_id in self.admitted:
            raise AdmissionError(
                f"connection {connection.connection_id} already admitted"
            )
        route = self.routing_table.route(connection.source, connection.destination)
        links = route.links()
        delays = [
            self.topology.link_attrs(src, dst).delay_cycles for src, dst in links
        ]
        shifts = route_slot_shifts(delays, self.switch_latency_cycles)
        needed = required_slots(connection.bandwidth_fraction, self.num_slots)

        # Find injection slots free (after shifting) on every link.
        chosen: List[int] = []
        for slot in range(self.num_slots):
            if all(
                self._table(link).is_free(slot + shift)
                for link, shift in zip(links, shifts)
            ):
                chosen.append(slot)
                if len(chosen) == needed:
                    break
        if len(chosen) < needed:
            raise AdmissionError(
                f"connection {connection.connection_id}: only {len(chosen)} of "
                f"{needed} slots available along "
                f"{connection.source}->{connection.destination}"
            )
        for slot in chosen:
            for link, shift in zip(links, shifts):
                self._table(link).reserve(slot + shift, connection.connection_id)
        admitted = AdmittedConnection(
            connection=connection,
            slots=chosen,
            route_links=links,
            shifts=shifts,
        )
        self.admitted[connection.connection_id] = admitted
        return admitted

    def release(self, connection_id: int) -> None:
        admitted = self.admitted.pop(connection_id, None)
        if admitted is None:
            raise KeyError(f"connection {connection_id} not admitted")
        for table in self.link_tables.values():
            table.release_connection(connection_id)

    # ------------------------------------------------------------------
    def install(self, simulator) -> None:
        """Push NI slot tables and switch TDMA arbiters into a simulator.

        Requires ``simulator.params.num_vcs >= 2`` so GT traffic rides
        its dedicated VC.
        """
        if simulator.params.num_vcs < GT_VC + 1:
            raise ValueError(
                "GT installation needs num_vcs >= 2 (dedicated GT channel)"
            )
        if simulator.params.switch_latency_cycles != self.switch_latency_cycles:
            raise ValueError(
                "slot phase alignment was computed for switch latency "
                f"{self.switch_latency_cycles}, but the simulator runs "
                f"{simulator.params.switch_latency_cycles}-cycle switches"
            )
        # NI injection tables: union of the slots of connections sourced
        # at each core (slot index -> connection id).
        ni_tables: Dict[str, List[Optional[int]]] = {}
        for admitted in self.admitted.values():
            src = admitted.connection.source
            table = ni_tables.setdefault(src, [None] * self.num_slots)
            for slot in admitted.slots:
                if table[slot] is not None:
                    raise AdmissionError(
                        f"NI {src!r}: slot {slot} double-booked"
                    )
                table[slot] = admitted.connection.connection_id
        for core, table in ni_tables.items():
            simulator.initiators[core].slot_table = table

        # Switch output arbiters with phase-aligned ownership.
        for admitted in self.admitted.values():
            for (src, dst), shift in zip(admitted.route_links, admitted.shifts):
                if self.topology.kind(src) is not NodeKind.SWITCH:
                    continue  # NI link: gated at the NI itself
                switch = simulator.switches[src]
                arbiter = switch._tdma.get(dst)
                if arbiter is None:
                    n = len(switch.inputs) * simulator.params.num_vcs
                    arbiter = TdmaArbiter([None] * self.num_slots, n)
                    switch.set_tdma_table(dst, arbiter)
                for slot in admitted.slots:
                    idx = (slot + shift) % self.num_slots
                    current = arbiter.slot_table[idx]
                    cid = admitted.connection.connection_id
                    if current is not None and current != cid:
                        raise AdmissionError(
                            f"switch {src!r} output {dst!r}: slot {idx} "
                            "double-booked"
                        )
                    arbiter.slot_table[idx] = cid

        # Route GT packets onto the dedicated VC (the NI overrides the
        # LUT's vc_path for GUARANTEED-class packets only).
        for admitted in self.admitted.values():
            simulator.initiators[admitted.connection.source].gt_vc = GT_VC
