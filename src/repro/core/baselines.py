"""Standard-topology baselines: mesh and star references.

The synthesis literature the paper recounts (Section 2) differentiated
itself from "earlier approaches that were targeting only standard
topologies, such as meshes, as these do not map well to SoCs that are
usually heterogeneous in nature".  To reproduce that comparison the
flow also evaluates each spec mapped onto a mesh (with a
traffic-aware tile assignment) and onto a single-hub star, scored by
the same evaluator as the custom designs.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Dict, List, Optional, Tuple

from repro.core.evaluate import DesignEvaluator, DesignPoint
from repro.core.spec import CommunicationSpec
from repro.physical.technology import TechNode, TechnologyLibrary
from repro.topology.graph import Route, RoutingTable, Topology
from repro.topology.mesh import mesh
from repro.topology.routing import _xy_switch_path, route_all
from repro.topology.star import star


def spec_floorplan(spec: CommunicationSpec) -> "Floorplan":
    """The default core floorplan: same grid the synthesizer assumes.

    Keeping every candidate (custom, mesh, star...) on the same physical
    substrate makes the wire-length comparison honest.
    """
    from repro.physical.floorplan import Block, Floorplan

    fp = Floorplan()
    names = spec.core_names
    cols = max(1, math.ceil(math.sqrt(len(names))))
    for i, name in enumerate(names):
        core = spec.cores[name]
        row, col = divmod(i, cols)
        fp.add(
            Block(
                name,
                core.width_mm,
                core.height_mm,
                x_mm=col * (core.width_mm + 0.2),
                y_mm=row * (core.height_mm + 0.2),
            )
        )
    return fp


def _traffic_aware_tile_assignment(
    spec: CommunicationSpec, width: int, height: int
) -> Dict[str, Tuple[int, int]]:
    """Greedy placement: heavy communicators land on adjacent tiles.

    Cores are placed in decreasing total-traffic order; each core takes
    the free tile minimizing bandwidth-weighted Manhattan distance to
    its already-placed partners (deterministic tie-breaks).
    """
    tiles = [(x, y) for y in range(height) for x in range(width)]
    order = sorted(spec.core_names, key=lambda c: (-spec.core_bandwidth(c), c))
    placed: Dict[str, Tuple[int, int]] = {}
    free = list(tiles)
    center = (width // 2, height // 2)
    for core in order:
        best = None
        for tile in free:
            cost = 0.0
            for other, pos in placed.items():
                bw = spec.bandwidth_between(core, other)
                if bw > 0:
                    cost += bw * (abs(tile[0] - pos[0]) + abs(tile[1] - pos[1]))
            if not placed:  # first core: center-most tile
                cost = abs(tile[0] - center[0]) + abs(tile[1] - center[1])
            key = (cost, tile)
            if best is None or key < best[0]:
                best = (key, tile)
        placed[core] = best[1]
        free.remove(best[1])
    return placed


def mesh_baseline(
    spec: CommunicationSpec,
    evaluator: Optional[DesignEvaluator] = None,
    frequency_hz: float = 800e6,
    flit_width: int = 32,
    tile_pitch_mm: float = 1.5,
    packet_size_flits: int = 4,
) -> DesignPoint:
    """Map the spec onto the smallest mesh that fits, route XY, score."""
    return _score_mesh(
        spec,
        _mesh_network(spec, flit_width, tile_pitch_mm),
        evaluator,
        frequency_hz,
        flit_width,
        packet_size_flits,
    )


def _mesh_network(
    spec: CommunicationSpec, flit_width: int, tile_pitch_mm: float = 1.5
) -> Tuple[str, Topology, RoutingTable]:
    """The routed mesh of :func:`mesh_baseline`, before scoring.

    Independent of the operating frequency, so a sweep builds it once
    per flit width and scores it at every frequency; scoring only reads
    the topology and table.
    """
    n = len(spec.core_names)
    width = max(2, math.ceil(math.sqrt(n)))
    height = max(2, math.ceil(n / width))
    assignment = _traffic_aware_tile_assignment(spec, width, height)

    grid = mesh(width, height, flit_width=flit_width, tile_pitch_mm=tile_pitch_mm)
    # Rebuild with the spec's core names on the assigned tiles.
    topo = Topology(f"{spec.name}-mesh{width}x{height}", flit_width=flit_width)
    for sw in grid.switches:
        attrs = grid.node_attrs(sw)
        topo.add_switch(sw, x=attrs["x"], y=attrs["y"])
    for core, (x, y) in assignment.items():
        topo.add_core(core, x=x, y=y)
        topo.add_link(core, f"s_{x}_{y}", length_mm=tile_pitch_mm / 4)
    for src, dst in grid.links:
        if grid.kind(src).value == "switch" and grid.kind(dst).value == "switch":
            if not topo.has_link(src, dst):
                attrs = grid.link_attrs(src, dst)
                topo.add_link(src, dst, length_mm=attrs.length_mm)

    # XY routes for the spec's flow pairs only, in first-seen flow order.
    pairs = dict.fromkeys((f.source, f.destination) for f in spec.flows)
    table = route_all(topo, partial(_xy_switch_path, topo, x_first=True), pairs)
    return f"{spec.name}-mesh{width}x{height}", topo, table


def _score_mesh(
    spec: CommunicationSpec,
    network: Tuple[str, Topology, RoutingTable],
    evaluator: Optional[DesignEvaluator],
    frequency_hz: float,
    flit_width: int,
    packet_size_flits: int = 4,
) -> DesignPoint:
    evaluator = evaluator or DesignEvaluator(
        TechnologyLibrary.for_node(TechNode.NM_65)
    )
    name, topo, table = network
    return evaluator.evaluate(
        name=name,
        spec=spec,
        topology=topo,
        routing_table=table,
        frequency_hz=frequency_hz,
        flit_width=flit_width,
        packet_size_flits=packet_size_flits,
    )


def star_baseline(
    spec: CommunicationSpec,
    evaluator: Optional[DesignEvaluator] = None,
    frequency_hz: float = 800e6,
    flit_width: int = 32,
    packet_size_flits: int = 4,
) -> DesignPoint:
    """Single central crossbar: minimal hops, maximal radix.

    Spoke lengths come from the shared default floorplan (hub at the
    die centroid), so the crossbar pays its true global wiring.
    """
    evaluator = evaluator or DesignEvaluator(
        TechnologyLibrary.for_node(TechNode.NM_65)
    )
    fp = spec_floorplan(spec)
    x0, y0, x1, y1 = fp.bounding_box()
    hub = ((x0 + x1) / 2.0, (y0 + y1) / 2.0)
    topo = Topology(f"{spec.name}-star", flit_width=flit_width)
    topo.add_switch("hub")
    for core in spec.core_names:
        cx, cy = fp.block(core).center
        spoke = abs(cx - hub[0]) + abs(cy - hub[1])
        topo.add_core(core)
        topo.add_link(core, "hub", length_mm=max(0.3, spoke))
    table = RoutingTable(topo)
    for flow in spec.flows:
        if not table.has_route(flow.source, flow.destination):
            table.set_route(
                Route((flow.source, "hub", flow.destination))
            )
    return evaluator.evaluate(
        name=f"{spec.name}-star",
        spec=spec,
        topology=topo,
        routing_table=table,
        frequency_hz=frequency_hz,
        flit_width=flit_width,
        packet_size_flits=packet_size_flits,
    )
