"""Application-specific topology synthesis — the SunFloor engine [11].

Given a communication spec, a switch count and an operating point,
produce a *custom* topology: cores clustered onto switches (min-cut
mapping), inter-switch links opened only where traffic justifies them,
and every flow routed deadlock-free with wire power/delay taken from
the (incremental) floorplan — "this approach captures accurately wire
delays and power values of the NoC during topology synthesis".

Path allocation is the greedy power-aware scheme of the SunFloor family:

1. flows are allocated in decreasing bandwidth order;
2. each flow takes the min-marginal-power path over the complete switch
   graph (Dijkstra), where using an already-open link is cheap, opening
   a new one pays its leakage/area amortization, and exceeding link
   capacity is forbidden;
3. a channel-dependency graph is maintained incrementally; a path that
   would close a cycle is rejected and re-searched with the offending
   links penalized, falling back to the (provably acyclic) spanning-tree
   path through the mapping's cluster order.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.evaluate import DesignEvaluator, DesignPoint
from repro.core.mapping import Mapping, map_cores
from repro.core.spec import CommunicationSpec
from repro.physical.floorplan import Block, Floorplan, IncrementalFloorplanner
from repro.physical.technology import TechNode, TechnologyLibrary
from repro.physical.wire import required_pipeline_stages
from repro.topology.algorithms import reachable
from repro.topology.graph import Route, RoutingTable, Topology

# Amortized cost (dimensionless, in the Dijkstra metric) of opening a new
# inter-switch link: trades fewer links (power/area) against shorter paths.
_LINK_OPEN_COST = 1.0
# Weight of wire length in the path metric (per mm) relative to a hop.
_WIRE_COST_PER_MM = 0.35
# Retry budget for deadlock-driven re-search before the tree fallback.
_DEADLOCK_RETRIES = 4


def switch_name(index: int) -> str:
    return f"sw{index}"


def would_deadlock(cdg: Dict[Tuple, Dict[Tuple, None]], links: Sequence) -> bool:
    """Add one route's channel dependencies to an acyclic CDG.

    ``cdg`` maps each directed link onto the links that depend on it
    (``{link: {next link: None}}``).  ``links`` is the route's ordered
    list of directed links; each consecutive pair is a dependency edge.
    Returns ``True``, and rolls the additions back, if they would close
    a cycle.  The CDG is acyclic before the call, so any new cycle
    passes through an added edge ``(u, v)``: one exists exactly when
    ``u`` is reachable from ``v``.
    """
    added_nodes = [l for l in links if l not in cdg]
    added_edges = [
        (a, b) for a, b in zip(links, links[1:])
        if b not in cdg.get(a, ())
    ]
    for l in links:
        cdg.setdefault(l, {})
    for a, b in added_edges:
        cdg[a][b] = None
    cyclic = any(u in reachable(cdg, v) for u, v in added_edges)
    if cyclic:  # roll back; every edge of an added node was added here
        for a, b in added_edges:
            cdg[a].pop(b, None)
        for l in added_nodes:
            cdg.pop(l, None)
    return cyclic


@dataclass
class SynthesisResult:
    """A synthesized custom topology plus its evaluation."""

    design: DesignPoint
    mapping: Mapping
    opened_links: List[Tuple[int, int]]


class TopologySynthesizer:
    """The SunFloor-style synthesis engine over one spec."""

    def __init__(
        self,
        spec: CommunicationSpec,
        tech: TechnologyLibrary = None,
        floorplan: Optional[Floorplan] = None,
    ):
        self.spec = spec
        self.tech = tech or TechnologyLibrary.for_node(TechNode.NM_65)
        self.evaluator = DesignEvaluator(self.tech)
        self.input_floorplan = floorplan or self._default_floorplan()
        for core in spec.core_names:
            if core not in self.input_floorplan:
                raise ValueError(f"floorplan lacks a block for core {core!r}")
        # switch count -> (mapping, placed floorplan); see _place_cores.
        self._placements: Dict[int, Tuple[Mapping, Floorplan]] = {}

    def _default_floorplan(self) -> Floorplan:
        fp = Floorplan()
        names = self.spec.core_names
        cols = max(1, math.ceil(math.sqrt(len(names))))
        for i, name in enumerate(names):
            core = self.spec.cores[name]
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

    # ------------------------------------------------------------------
    def synthesize(
        self,
        num_switches: int,
        frequency_hz: float = 800e6,
        flit_width: int = 32,
        packet_size_flits: int = 4,
    ) -> SynthesisResult:
        """Produce one design point at the given operating point."""
        mapping, floorplan = self._place_cores(num_switches)
        positions = {
            switch_name(i): floorplan.block(switch_name(i)).center
            for i in range(num_switches)
        }

        capacity_bps = flit_width * frequency_hz
        routes, opened = self._allocate_paths(
            mapping, positions, capacity_bps
        )

        topology = self._build_topology(
            mapping, opened, routes, floorplan, frequency_hz, flit_width
        )
        table = RoutingTable(topology)
        for (src, dst), switch_path in routes.items():
            table.set_route(Route(tuple([src, *switch_path, dst])))

        design = self.evaluator.evaluate(
            name=f"{self.spec.name}-custom-k{num_switches}",
            spec=self.spec,
            topology=topology,
            routing_table=table,
            frequency_hz=frequency_hz,
            flit_width=flit_width,
            floorplan=floorplan,
            packet_size_flits=packet_size_flits,
        )
        return SynthesisResult(design=design, mapping=mapping, opened_links=sorted(opened))

    # ------------------------------------------------------------------
    def _place_cores(self, num_switches: int) -> Tuple[Mapping, Floorplan]:
        """Map cores onto ``num_switches`` switches and place the switches.

        Both stages depend only on the spec, the input floorplan and the
        switch count, so a sweep over frequencies and flit widths runs
        them once per switch count.  Each design point gets its own
        copies: a caller may edit one point's mapping or floorplan
        without touching another's.
        """
        placed = self._placements.get(num_switches)
        if placed is None:
            core_positions = {
                name: self.input_floorplan.block(name).center
                for name in self.spec.core_names
            }
            mapping = map_cores(
                self.spec, num_switches, positions=core_positions
            )
            placed = (mapping, self._place_switches(mapping))
            self._placements[num_switches] = placed
        mapping, floorplan = placed
        return (
            Mapping([list(cluster) for cluster in mapping.clusters]),
            floorplan.copy(),
        )

    def _place_switches(self, mapping: Mapping) -> Floorplan:
        """Incremental floorplanning: insert switches near their cores."""
        planner = IncrementalFloorplanner(self.input_floorplan)
        for idx, cluster in enumerate(mapping.clusters):
            attached = [
                (core, max(self.spec.core_bandwidth(core), 1.0))
                for core in cluster
            ]
            planner.insert(switch_name(idx), 0.3, 0.3, attached)
        return planner.place()

    # ------------------------------------------------------------------
    def _allocate_paths(
        self,
        mapping: Mapping,
        positions: Dict[str, Tuple[float, float]],
        capacity_bps: float,
    ) -> Tuple[Dict[Tuple[str, str], List[str]], set]:
        """Power-aware, deadlock-free path allocation for every flow."""
        k = mapping.num_switches
        names = [switch_name(i) for i in range(k)]
        switch_of = {
            core: idx for idx, cluster in enumerate(mapping.clusters)
            for core in cluster
        }
        # Dijkstra's edge metric before the open-link and penalty terms.
        base_cost = []
        for a in names:
            ax, ay = positions[a]
            base_cost.append([
                1.0 + _WIRE_COST_PER_MM * (abs(ax - bx) + abs(ay - by))
                for bx, by in (positions[b] for b in names)
            ])

        opened: set = set()  # undirected (i, j) pairs, i < j
        is_open = [[False] * k for _ in range(k)]  # ``opened``, both ways
        link_load = [[0.0] * k for _ in range(k)]  # directed, bits/s
        cdg: Dict[Tuple, Dict[Tuple, None]] = {}  # see would_deadlock

        # Aggregate flows per core pair, largest first.
        pair_bw: Dict[Tuple[str, str], float] = {}
        for flow in self.spec.flows:
            key = (flow.source, flow.destination)
            pair_bw[key] = pair_bw.get(key, 0.0) + flow.bandwidth_mbps * 8e6
        order = sorted(pair_bw.items(), key=lambda kv: (-kv[1], kv[0]))

        routes: Dict[Tuple[str, str], List[str]] = {}

        def tree_path(a: int, b: int) -> List[int]:
            """Spanning-chain path sw_a .. sw_b over consecutive indices
            (the deterministic deadlock-free fallback: a chain is a tree,
            and index-monotone routes on a chain cannot close CDG cycles)."""
            step = 1 if b > a else -1
            return list(range(a, b + step, step))

        def full_links(src_core: str, path: List[int], dst_core: str):
            nodes = [src_core, *(names[i] for i in path), dst_core]
            return list(zip(nodes, nodes[1:]))

        def commit(key: Tuple[str, str], path: List[int], bw: float) -> None:
            routes[key] = [names[i] for i in path]
            for i, j in zip(path, path[1:]):
                opened.add((min(i, j), max(i, j)))
                is_open[i][j] = is_open[j][i] = True
                link_load[i][j] += bw

        for key, bw in order:
            src_sw = switch_of[key[0]]
            dst_sw = switch_of[key[1]]
            if src_sw == dst_sw:
                # Only NI links: the ejection link has no successor in the
                # CDG, so this verdict is always False.
                would_deadlock(cdg, full_links(key[0], [src_sw], key[1]))
                commit(key, [src_sw], bw)
                continue

            penalties: Dict[Tuple[int, int], float] = {}
            path = None
            for attempt in range(_DEADLOCK_RETRIES + 1):
                candidate = self._dijkstra(
                    names, src_sw, dst_sw, base_cost, is_open, link_load,
                    capacity_bps, bw, penalties,
                )
                if candidate is None:
                    break
                links = full_links(key[0], candidate, key[1])
                if not would_deadlock(cdg, links):
                    path = candidate
                    break
                for a, b in zip(candidate, candidate[1:]):
                    penalties[(a, b)] = penalties.get((a, b), 0.0) + 10.0
            if path is None:
                fallback = tree_path(src_sw, dst_sw)
                links = full_links(key[0], fallback, key[1])
                if would_deadlock(cdg, links):
                    raise RuntimeError(
                        f"cannot route flow {key} deadlock-free even on the "
                        "fallback tree; design is over-constrained"
                    )
                path = fallback
            commit(key, path, bw)

        # Any-to-any reachability: flows may leave switch clusters
        # unconnected, but a NoC must still physically reach every core
        # (test access, configuration, late traffic).  Chain disconnected
        # components along the index order — index-monotone chain links
        # keep the up*/down*-style acyclicity of the fallback tree.
        if k > 1:
            component = list(range(k))

            def find(i: int) -> int:
                while component[i] != i:
                    component[i] = component[component[i]]
                    i = component[i]
                return i

            for i, j in opened:
                component[find(i)] = find(j)
            for i in range(k - 1):
                if find(i) != find(i + 1):
                    opened.add((i, i + 1))
                    component[find(i)] = find(i + 1)

        return routes, opened

    @staticmethod
    def _dijkstra(
        names: Sequence[str],
        src: int,
        dst: int,
        base_cost: Sequence[Sequence[float]],
        is_open: Sequence[Sequence[bool]],
        link_load: Sequence[Sequence[float]],
        capacity_bps: float,
        bw: float,
        penalties: Dict[Tuple[int, int], float],
    ) -> Optional[List[int]]:
        """Min-marginal-cost switch-index path over the complete switch
        graph.  An edge costs ``base_cost``, then ``_LINK_OPEN_COST`` if
        the link is not open yet, then its penalty.  Exact cost ties pop
        in switch-name order (``"sw10" < "sw2"``), not index order."""
        k = len(names)
        best = [math.inf] * k
        best[src] = 0.0
        parent = [-1] * k
        visited = [False] * k
        heap = [(0.0, names[src], src)]
        while heap:
            cost, _, node = heapq.heappop(heap)
            if visited[node]:
                continue
            visited[node] = True
            if node == dst:
                path = [dst]
                while path[-1] != src:
                    path.append(parent[path[-1]])
                return path[::-1]
            costs, opens, loads = base_cost[node], is_open[node], link_load[node]
            for nxt in range(k):
                if visited[nxt] or loads[nxt] + bw > capacity_bps:
                    continue  # settled, or capacity exceeded: forbidden
                edge_cost = costs[nxt]
                if not opens[nxt]:
                    edge_cost += _LINK_OPEN_COST
                if penalties:
                    edge_cost += penalties.get((node, nxt), 0.0)
                total = cost + edge_cost
                if total < best[nxt]:
                    best[nxt] = total
                    parent[nxt] = node
                    heapq.heappush(heap, (total, names[nxt], nxt))
        return None

    # ------------------------------------------------------------------
    def _build_topology(
        self,
        mapping: Mapping,
        opened: set,
        routes: Dict[Tuple[str, str], List[str]],
        floorplan: Floorplan,
        frequency_hz: float,
        flit_width: int,
    ) -> Topology:
        topo = Topology(
            name=f"{self.spec.name}-custom-k{mapping.num_switches}",
            flit_width=flit_width,
        )
        for idx in range(mapping.num_switches):
            pos = floorplan.block(switch_name(idx)).center
            topo.add_switch(switch_name(idx), pos=pos)
        for idx, cluster in enumerate(mapping.clusters):
            for core in cluster:
                topo.add_core(core)
                length = floorplan.distance_mm(core, switch_name(idx))
                stages = required_pipeline_stages(length, frequency_hz, self.tech)
                topo.add_link(
                    core, switch_name(idx),
                    length_mm=length, pipeline_stages=stages,
                )
        for i, j in sorted(opened):
            a, b = switch_name(i), switch_name(j)
            length = floorplan.distance_mm(a, b)
            stages = required_pipeline_stages(length, frequency_hz, self.tech)
            topo.add_link(a, b, length_mm=length, pipeline_stages=stages)
        return topo
