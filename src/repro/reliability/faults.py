"""Component-failure recovery through routing reconfiguration.

The paper's introduction: "reconfigurable NoCs can support component
redundancy in a transparent fashion, thus being an essential technology
for designing highly-dependable systems."

Source-routed NoCs recover from hard faults by recomputing NI LUTs:
this module generalizes the 3D vertical-link recovery to arbitrary
link and switch failures on any topology, always producing a
*deadlock-free* (up*/down*) reconfigured table, and quantifies the
degradation (hop inflation) the reconfiguration costs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.topology.algorithms import connected_components
from repro.topology.graph import NodeKind, Route, RoutingTable, Topology
from repro.topology.routing import up_down_routing


@dataclass
class FaultScenario:
    """A set of hard faults to recover from."""

    failed_links: Set[Tuple[str, str]] = field(default_factory=set)
    failed_switches: Set[str] = field(default_factory=set)

    def add_link(self, src: str, dst: str, both_directions: bool = True) -> None:
        self.failed_links.add((src, dst))
        if both_directions:
            self.failed_links.add((dst, src))

    def add_switch(self, switch: str) -> None:
        self.failed_switches.add(switch)

    @property
    def is_empty(self) -> bool:
        return not self.failed_links and not self.failed_switches


class UnrecoverableFaultError(RuntimeError):
    """The surviving fabric cannot connect every core pair."""


def surviving_topology(topo: Topology, scenario: FaultScenario) -> Topology:
    """The fabric that remains after the scenario's faults."""
    for sw in scenario.failed_switches:
        if sw not in topo or topo.kind(sw) is not NodeKind.SWITCH:
            raise KeyError(f"failed switch {sw!r} is not a switch of the topology")
    survivor = Topology(f"{topo.name}-degraded", flit_width=topo.flit_width)
    for sw in topo.switches:
        if sw in scenario.failed_switches:
            continue
        survivor.add_switch(
            sw, **{k: v for k, v in topo.node_attrs(sw).items() if k != "kind"}
        )
    for core in topo.cores:
        survivor.add_core(
            core, **{k: v for k, v in topo.node_attrs(core).items() if k != "kind"}
        )
    for src, dst in topo.links:
        if (src, dst) in scenario.failed_links:
            continue
        if src in scenario.failed_switches or dst in scenario.failed_switches:
            continue
        attrs = topo.link_attrs(src, dst)
        survivor.add_link(
            src, dst,
            length_mm=attrs.length_mm,
            pipeline_stages=attrs.pipeline_stages,
            width_bits=attrs.width_bits,
            bidirectional=False,
        )
    return survivor


def _largest_island(survivor: Topology) -> Topology:
    """Restrict a partitioned survivor to its best-connected piece.

    Keeps the connected switch component with the most switches (ties
    broken by sorted switch names) and drops every core that lost its
    bidirectional attachment to a kept switch — a core that can only
    send or only receive is as unreachable as one fully cut off.
    """
    components = sorted(
        (sorted(c) for c in connected_components(survivor.switch_neighbors())),
        key=lambda c: (-len(c), c),
    )
    if not components:
        raise UnrecoverableFaultError("no switch survives the fault scenario")
    keep = set(components[0])
    island = Topology(survivor.name, flit_width=survivor.flit_width)
    for sw in survivor.switches:
        if sw in keep:
            island.add_switch(
                sw,
                **{k: v for k, v in survivor.node_attrs(sw).items() if k != "kind"},
            )
    for core in survivor.cores:
        sends = any(sw in keep for sw in survivor.successors(core))
        receives = any(sw in keep for sw in survivor.predecessors(core))
        if sends and receives:
            island.add_core(
                core,
                **{k: v for k, v in survivor.node_attrs(core).items() if k != "kind"},
            )
    for src, dst in survivor.links:
        if src in island and dst in island:
            attrs = survivor.link_attrs(src, dst)
            island.add_link(
                src, dst,
                length_mm=attrs.length_mm,
                pipeline_stages=attrs.pipeline_stages,
                width_bits=attrs.width_bits,
                bidirectional=False,
            )
    if not island.cores:
        raise UnrecoverableFaultError(
            "no core keeps a bidirectional attachment to the surviving fabric"
        )
    return island


def reconfigure_routing(
    topo: Topology, scenario: FaultScenario, allow_partial: bool = False
) -> RoutingTable:
    """Deadlock-free routes over the surviving fabric.

    Routes are expressed against the *original* topology object (so an
    existing simulator/netlist can consume them) but never use a failed
    component.  Raises :class:`UnrecoverableFaultError` when cores are
    cut off — unless ``allow_partial`` is set, in which case unreachable
    cores are silently dropped from the table (no routes to or from
    them) and a partitioned fabric degrades to its largest connected
    island.  Partial tables are what the *online* recovery path wants: a
    dead switch orphans its core in a mesh, and the right response is to
    keep the rest of the chip running, not to refuse to reconfigure.
    """
    survivor = surviving_topology(topo, scenario)
    if allow_partial:
        survivor = _largest_island(survivor)
    else:
        for core in survivor.cores:
            if not survivor.attached_switches(core):
                raise UnrecoverableFaultError(
                    f"core {core!r} lost every switch attachment"
                )
        if not survivor.is_connected():
            raise UnrecoverableFaultError(
                "faults disconnect the network; spare components required"
            )
    degraded = up_down_routing(survivor)
    table = RoutingTable(topo)
    for route in degraded:
        table.set_route(Route(route.path))
    return table


@dataclass(frozen=True)
class DegradationReport:
    """How much the reconfiguration costs."""

    routes_rerouted: int
    mean_hops_before: float
    mean_hops_after: float

    @property
    def hop_inflation(self) -> float:
        if self.mean_hops_before == 0:
            return 0.0
        return self.mean_hops_after / self.mean_hops_before - 1.0


def degradation(
    before: RoutingTable, after: RoutingTable
) -> DegradationReport:
    """Compare hop counts across a reconfiguration (same pair set)."""
    pairs = set(before.pairs()) & set(after.pairs())
    if not pairs:
        raise ValueError("tables share no routed pairs")
    changed = sum(
        1
        for pair in pairs
        if before.route(*pair).path != after.route(*pair).path
    )
    mean_before = sum(before.route(*p).hops for p in pairs) / len(pairs)
    mean_after = sum(after.route(*p).hops for p in pairs) / len(pairs)
    return DegradationReport(
        routes_rerouted=changed,
        mean_hops_before=mean_before,
        mean_hops_after=mean_after,
    )
