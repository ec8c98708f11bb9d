"""3D topologies: stacked meshes with TSV vertical links.

Fig. 3 shows "a chip where iNoCs technology has successfully met the
constraints of 3D design".  The structural win of stacking: a vertical
hop crosses tens of micrometers of silicon instead of millimeters of
metal, so the network diameter (in wire-millimeters) collapses.
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional, Tuple

from repro.topology.graph import NodeKind, RoutingTable, Topology
from repro.three_d.tsv import VerticalLinkDesign

# Physical length of one vertical hop (die thickness after thinning), mm.
VERTICAL_HOP_MM = 0.05


def switch_name(x: int, y: int, z: int) -> str:
    return f"s_{x}_{y}_{z}"


def core_name(x: int, y: int, z: int) -> str:
    return f"c_{x}_{y}_{z}"


def mesh3d(
    width: int,
    height: int,
    layers: int,
    flit_width: int = 32,
    tile_pitch_mm: float = 1.5,
    vertical_link: Optional[VerticalLinkDesign] = None,
    name: Optional[str] = None,
) -> Topology:
    """Build a ``width`` x ``height`` x ``layers`` stacked mesh.

    Vertical links carry the serialization design's extra pipeline
    latency; their physical length is :data:`VERTICAL_HOP_MM`.
    """
    if width < 1 or height < 1 or layers < 1:
        raise ValueError("dimensions must be >= 1")
    if width * height * layers < 2:
        raise ValueError("need at least 2 tiles")
    vertical_stages = vertical_link.extra_latency_cycles if vertical_link else 0
    topo = Topology(name or f"mesh3d_{width}x{height}x{layers}", flit_width=flit_width)
    for z in range(layers):
        for y in range(height):
            for x in range(width):
                topo.add_switch(switch_name(x, y, z), x=x, y=y, z=z)
                topo.add_core(core_name(x, y, z), x=x, y=y, z=z)
                topo.add_link(
                    core_name(x, y, z),
                    switch_name(x, y, z),
                    length_mm=tile_pitch_mm / 4,
                )
    for z in range(layers):
        for y in range(height):
            for x in range(width):
                if x + 1 < width:
                    topo.add_link(
                        switch_name(x, y, z),
                        switch_name(x + 1, y, z),
                        length_mm=tile_pitch_mm,
                    )
                if y + 1 < height:
                    topo.add_link(
                        switch_name(x, y, z),
                        switch_name(x, y + 1, z),
                        length_mm=tile_pitch_mm,
                    )
                if z + 1 < layers:
                    topo.add_link(
                        switch_name(x, y, z),
                        switch_name(x, y, z + 1),
                        length_mm=VERTICAL_HOP_MM,
                        pipeline_stages=vertical_stages,
                    )
    return topo


def xyz_routing(topo: Topology) -> RoutingTable:
    """Dimension-ordered X, then Y, then Z (deadlock-free on 3D meshes)."""
    return RoutingTable(topo, partial(_xyz_path, topo))


def _xyz_path(topo: Topology, src: str, dst: str) -> List[str]:
    a, b = topo.node_attrs(src), topo.node_attrs(dst)
    x, y, z = a["x"], a["y"], a["z"]
    dx, dy, dz = b["x"], b["y"], b["z"]
    path = [src, switch_name(x, y, z)]
    while x != dx:
        x += 1 if dx > x else -1
        path.append(switch_name(x, y, z))
    while y != dy:
        y += 1 if dy > y else -1
        path.append(switch_name(x, y, z))
    while z != dz:
        z += 1 if dz > z else -1
        path.append(switch_name(x, y, z))
    path.append(dst)
    return path


def routes_2d_only(topo: Topology, table: RoutingTable) -> RoutingTable:
    """Filter a routing table to intra-layer routes only.

    "The flexibility of NoC routing tables easily enabl[es] either
    2D-only operation (in testing mode) or 3D-capable communication" —
    this is the 2D test mode: each layer is operated standalone.
    """
    out = RoutingTable(topo)
    for route in table:
        zs = {
            topo.node_attrs(n)["z"]
            for n in route.path
            if "z" in topo.node_attrs(n)
        }
        if len(zs) == 1:
            out.set_route(route)
    return out


def vertical_links(topo: Topology) -> List[Tuple[str, str]]:
    """All inter-layer switch links (both directions)."""
    out = []
    for src, dst in topo.links:
        if (
            topo.kind(src) is NodeKind.SWITCH
            and topo.kind(dst) is NodeKind.SWITCH
            and topo.node_attrs(src).get("z") != topo.node_attrs(dst).get("z")
        ):
            out.append((src, dst))
    return out


def total_wire_mm(topo: Topology, table: RoutingTable) -> float:
    """Route-weighted wire length: the 3D-vs-2D figure of merit."""
    total = 0.0
    for route in table:
        for src, dst in route.links():
            total += topo.link_attrs(src, dst).length_mm
    return total
