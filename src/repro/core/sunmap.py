"""SUNMAP-style topology selection over standard networks [9].

"Initial works on topology design focused on mapping cores onto regular
topologies" (Section 2) — SUNMAP [9] automated "topology selection and
generation": map the application onto each standard topology family,
evaluate, and pick the best.  This module reproduces that earlier
generation of tools; the custom synthesis of
:mod:`repro.core.synthesis` is the successor that the paper's narrative
contrasts it with.

Supported families: 2D mesh, torus, star (single crossbar),
hierarchical star, and Spidergon.  Cores are placed traffic-aware on
the coordinate-bearing families (heavy communicators adjacent), flows
are routed with each family's deadlock-free scheme, and every candidate
is scored by the shared :class:`repro.core.evaluate.DesignEvaluator`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.baselines import mesh_baseline, star_baseline
from repro.core.evaluate import DesignEvaluator, DesignPoint
from repro.core.mapping import map_cores
from repro.core.spec import CommunicationSpec
from repro.physical.technology import TechNode, TechnologyLibrary
from repro.topology.graph import Route, RoutingTable, Topology
from repro.topology.ring import spidergon as spidergon_topology
from repro.topology.routing import (
    dateline_vc_assignment,
    shortest_path_routing,
    spidergon_routing,
    torus_xy_routing,
)
from repro.topology.mesh import torus as torus_topology

STANDARD_FAMILIES = ("mesh", "torus", "star", "hierarchical-star", "spidergon")


@dataclass
class SunmapResult:
    """All evaluated candidates plus the selection."""

    candidates: List[DesignPoint]
    best: DesignPoint
    objective: str


def _spidergon_candidate(
    spec: CommunicationSpec,
    evaluator: DesignEvaluator,
    frequency_hz: float,
    flit_width: int,
) -> Optional[DesignPoint]:
    n = len(spec.core_names)
    size = n if n % 2 == 0 else n + 1
    if size < 4:
        return None
    base = spidergon_topology(size, flit_width=flit_width)
    # Traffic-aware ring placement: order cores greedily so heavy pairs
    # sit on adjacent ring positions.
    order = _ring_order(spec)
    topo = Topology(f"{spec.name}-spidergon{size}", flit_width=flit_width)
    for sw in base.switches:
        topo.add_switch(sw, **{
            k: v for k, v in base.node_attrs(sw).items() if k != "kind"
        })
    for src, dst in base.links:
        if base.kind(src).value == "switch" and base.kind(dst).value == "switch":
            if not topo.has_link(src, dst):
                topo.add_link(
                    src, dst, length_mm=base.link_attrs(src, dst).length_mm,
                    bidirectional=False,
                )
    for idx, core in enumerate(order):
        topo.add_core(core, index=idx)
        topo.add_link(core, f"s_{idx}", length_mm=0.4)
    full = spidergon_routing(topo)
    table = RoutingTable(topo)
    for flow in spec.flows:
        if not table.has_route(flow.source, flow.destination):
            table.set_route(full.route(flow.source, flow.destination))
    return evaluator.evaluate(
        name=f"{spec.name}-spidergon{size}",
        spec=spec,
        topology=topo,
        routing_table=table,
        frequency_hz=frequency_hz,
        flit_width=flit_width,
    )


def _ring_order(spec: CommunicationSpec) -> List[str]:
    """Greedy chain: repeatedly append the core most connected to the
    current tail (a light-weight TSP heuristic for ring placement)."""
    remaining = list(spec.core_names)
    current = max(remaining, key=lambda c: (spec.core_bandwidth(c), c))
    order = [current]
    remaining.remove(current)
    while remaining:
        nxt = max(
            remaining,
            key=lambda c: (spec.bandwidth_between(order[-1], c), -ord(c[0]), c),
        )
        order.append(nxt)
        remaining.remove(nxt)
    return order


def _torus_candidate(
    spec: CommunicationSpec,
    evaluator: DesignEvaluator,
    frequency_hz: float,
    flit_width: int,
) -> Optional[DesignPoint]:
    from repro.core.baselines import _traffic_aware_tile_assignment

    n = len(spec.core_names)
    width = max(3, math.ceil(math.sqrt(n)))
    height = max(3, math.ceil(n / width))
    base = torus_topology(width, height, flit_width=flit_width)
    assignment = _traffic_aware_tile_assignment(spec, width, height)
    topo = Topology(f"{spec.name}-torus{width}x{height}", flit_width=flit_width)
    for sw in base.switches:
        attrs = base.node_attrs(sw)
        topo.add_switch(sw, x=attrs["x"], y=attrs["y"])
    for src, dst in base.links:
        if base.kind(src).value == "switch" and base.kind(dst).value == "switch":
            if not topo.has_link(src, dst):
                topo.add_link(
                    src, dst, length_mm=base.link_attrs(src, dst).length_mm,
                    bidirectional=False,
                )
    for core, (x, y) in assignment.items():
        topo.add_core(core, x=x, y=y)
        topo.add_link(core, f"s_{x}_{y}", length_mm=0.4)
    full = torus_xy_routing(topo, width, height)
    table = RoutingTable(topo)
    for flow in spec.flows:
        if not table.has_route(flow.source, flow.destination):
            table.set_route(full.route(flow.source, flow.destination))
    point = evaluator.evaluate(
        name=f"{spec.name}-torus{width}x{height}",
        spec=spec,
        topology=topo,
        routing_table=table,
        frequency_hz=frequency_hz,
        flit_width=flit_width,
    )
    point.notes.append("requires 2 VCs (dateline) for deadlock freedom")
    return point


def _hierarchical_star_candidate(
    spec: CommunicationSpec,
    evaluator: DesignEvaluator,
    frequency_hz: float,
    flit_width: int,
) -> Optional[DesignPoint]:
    from repro.core.baselines import spec_floorplan

    n = len(spec.core_names)
    num_clusters = max(2, round(math.sqrt(n)))
    if num_clusters >= n:
        return None
    fp = spec_floorplan(spec)
    positions = {name: fp.block(name).center for name in spec.core_names}
    mapping = map_cores(spec, num_clusters, positions=positions)
    # Crossbars at cluster centroids, hub at the centroid of crossbars:
    # the same physical honesty the custom synthesizer pays.
    centroids = []
    for cluster in mapping.clusters:
        cx = sum(positions[c][0] for c in cluster) / len(cluster)
        cy = sum(positions[c][1] for c in cluster) / len(cluster)
        centroids.append((cx, cy))
    hub = (
        sum(c[0] for c in centroids) / len(centroids),
        sum(c[1] for c in centroids) / len(centroids),
    )
    topo = Topology(f"{spec.name}-hstar{num_clusters}", flit_width=flit_width)
    topo.add_switch("hub")
    for ci, cluster in enumerate(mapping.clusters):
        topo.add_switch(f"xbar_{ci}", cluster=ci)
        hub_len = abs(centroids[ci][0] - hub[0]) + abs(centroids[ci][1] - hub[1])
        topo.add_link(f"xbar_{ci}", "hub", length_mm=max(0.3, hub_len))
        for core in cluster:
            spoke = abs(positions[core][0] - centroids[ci][0]) + abs(
                positions[core][1] - centroids[ci][1]
            )
            topo.add_core(core, cluster=ci)
            topo.add_link(core, f"xbar_{ci}", length_mm=max(0.3, spoke))
    full = shortest_path_routing(topo)
    table = RoutingTable(topo)
    for flow in spec.flows:
        if not table.has_route(flow.source, flow.destination):
            table.set_route(full.route(flow.source, flow.destination))
    return evaluator.evaluate(
        name=f"{spec.name}-hstar{num_clusters}",
        spec=spec,
        topology=topo,
        routing_table=table,
        frequency_hz=frequency_hz,
        flit_width=flit_width,
    )


def select_topology(
    spec: CommunicationSpec,
    families: Sequence[str] = STANDARD_FAMILIES,
    objective: str = "power_mw",
    frequency_hz: float = 600e6,
    flit_width: int = 32,
    tech: Optional[TechnologyLibrary] = None,
    feasible_only: bool = True,
) -> SunmapResult:
    """Map the spec onto each family, evaluate, pick the best.

    ``objective`` is any numeric :class:`DesignPoint` attribute
    (``power_mw``, ``avg_latency_cycles``, ``area_mm2``...).
    """
    unknown = set(families) - set(STANDARD_FAMILIES)
    if unknown:
        raise ValueError(f"unknown families: {sorted(unknown)}")
    evaluator = DesignEvaluator(
        tech or TechnologyLibrary.for_node(TechNode.NM_65)
    )
    candidates: List[DesignPoint] = []
    for family in families:
        if family == "mesh":
            candidates.append(
                mesh_baseline(spec, evaluator, frequency_hz=frequency_hz,
                              flit_width=flit_width)
            )
        elif family == "star":
            candidates.append(
                star_baseline(spec, evaluator, frequency_hz=frequency_hz,
                              flit_width=flit_width)
            )
        elif family == "torus":
            point = _torus_candidate(spec, evaluator, frequency_hz, flit_width)
            if point is not None:
                candidates.append(point)
        elif family == "hierarchical-star":
            point = _hierarchical_star_candidate(
                spec, evaluator, frequency_hz, flit_width
            )
            if point is not None:
                candidates.append(point)
        elif family == "spidergon":
            point = _spidergon_candidate(
                spec, evaluator, frequency_hz, flit_width
            )
            if point is not None:
                candidates.append(point)
    if not candidates:
        raise RuntimeError("no candidate topology could be built")
    pool = [p for p in candidates if p.feasible] if feasible_only else candidates
    if not pool:
        raise RuntimeError(
            "no feasible standard topology at this operating point"
        )
    best = min(pool, key=lambda p: (getattr(p, objective), p.name))
    return SunmapResult(candidates=candidates, best=best, objective=objective)
