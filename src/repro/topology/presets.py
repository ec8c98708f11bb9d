"""Named standard-topology instances: one string in, a runnable NoC out.

The CLI ``simulate`` path and the lab's declarative job specs both need
to conjure a ready-to-simulate (topology, routing, VC assignment)
triple from plain data — a kind name and a size — because job
parameters must survive JSON serialization and pickling across worker
processes.  This module is that single registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Tuple

from repro.topology.fattree import fat_tree
from repro.topology.graph import RoutingTable, Topology
from repro.topology.mesh import mesh, torus
from repro.topology.ring import spidergon
from repro.topology.routing import (
    dateline_vc_assignment,
    fat_tree_routing,
    spidergon_routing,
    torus_xy_routing,
    xy_routing,
)

STANDARD_KINDS = ("mesh", "torus", "spidergon", "fattree")


@dataclass
class TopologyInstance:
    """A simulation-ready standard topology."""

    kind: str
    size: int
    topology: Topology
    table: RoutingTable
    vc_assignment: Optional[Mapping[Tuple[str, str], List[int]]]
    min_vcs: int


def standard_instance(kind: str, size: int) -> TopologyInstance:
    """Build a standard topology with its deadlock-free routing.

    ``size`` is the mesh/torus side, the spidergon node count, or the
    fat-tree level count — the same convention as ``repro simulate``.
    """
    if kind == "mesh":
        topo = mesh(size, size)
        return TopologyInstance(kind, size, topo, xy_routing(topo), None, 1)
    if kind == "torus":
        topo = torus(size, size)
        table = torus_xy_routing(topo, size, size)
        return TopologyInstance(
            kind, size, topo, table, dateline_vc_assignment(topo, table), 2
        )
    if kind == "spidergon":
        topo = spidergon(size)
        table = spidergon_routing(topo)
        return TopologyInstance(
            kind, size, topo, table, dateline_vc_assignment(topo, table), 2
        )
    if kind == "fattree":
        topo = fat_tree(2, size)
        return TopologyInstance(
            kind, size, topo, fat_tree_routing(topo), None, 1
        )
    raise ValueError(
        f"unknown topology {kind!r}; choose from {STANDARD_KINDS}"
    )
