"""Topology graph: switches, cores (via NIs) and unidirectional links.

The modular NoC architecture of Section 3 has three basic elements —
Network Interfaces, switches and links.  At the topology level we model
switches and cores as nodes (each core's NI is the attachment point) and
links as directed edges; a bidirectional connection is a pair of opposed
unidirectional links, matching the point-to-point wiring of Section 4.1.

Link attributes carry the physical annotations the tool flow needs:
length in mm (from the floorplan) and pipeline stage count (from the wire
model), so the same object serves synthesis, simulation and power
analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.topology.algorithms import reachable


class NodeKind(Enum):
    SWITCH = "switch"
    CORE = "core"


@dataclass
class LinkAttrs:
    """Physical annotations of one unidirectional link."""

    length_mm: float = 0.0
    pipeline_stages: int = 0
    width_bits: Optional[int] = None  # None = topology default

    def __post_init__(self) -> None:
        if self.length_mm < 0:
            raise ValueError("link length must be non-negative")
        if self.pipeline_stages < 0:
            raise ValueError("pipeline stages must be non-negative")
        if self.width_bits is not None and self.width_bits < 1:
            raise ValueError("link width must be >= 1 bit")

    @property
    def delay_cycles(self) -> int:
        """Cycles a flit spends on this link (1 + relay stations)."""
        return 1 + self.pipeline_stages


class Topology:
    """A NoC topology: named switches and cores, directed links.

    Parameters
    ----------
    name:
        Human-readable identifier (e.g. ``"mesh4x4"``).
    flit_width:
        Default link width in bits; individual links may override.

    The graph is three insertion-ordered dicts: node -> attributes (its
    ``kind`` included), and node -> {neighbor: :class:`LinkAttrs`} for
    outgoing and for incoming links, both directions sharing one
    ``LinkAttrs``.  Nodes list in the order they were added, and links
    by source node, then in the order they were added.
    """

    def __init__(self, name: str = "noc", flit_width: int = 32):
        if flit_width < 1:
            raise ValueError("flit width must be >= 1")
        self.name = name
        self.flit_width = flit_width
        self._nodes: Dict[str, dict] = {}
        self._succ: Dict[str, Dict[str, LinkAttrs]] = {}
        self._pred: Dict[str, Dict[str, LinkAttrs]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_switch(self, name: str, **attrs) -> None:
        self._add_node(name, NodeKind.SWITCH, **attrs)

    def add_core(self, name: str, **attrs) -> None:
        self._add_node(name, NodeKind.CORE, **attrs)

    def _add_node(self, name: str, kind: NodeKind, **attrs) -> None:
        if name in self._nodes:
            raise ValueError(f"duplicate node {name!r}")
        self._nodes[name] = {"kind": kind, **attrs}
        self._succ[name] = {}
        self._pred[name] = {}

    def add_link(
        self,
        src: str,
        dst: str,
        length_mm: float = 0.0,
        pipeline_stages: int = 0,
        width_bits: Optional[int] = None,
        bidirectional: bool = True,
    ) -> None:
        """Add a link; by default also adds the opposing direction."""
        for node in (src, dst):
            if node not in self._nodes:
                raise KeyError(f"unknown node {node!r}")
        if src == dst:
            raise ValueError(f"self-link on {src!r}")
        if self.kind(src) is NodeKind.CORE and self.kind(dst) is NodeKind.CORE:
            raise ValueError("cores cannot connect directly; route through a switch")
        if dst in self._succ[src]:
            raise ValueError(f"duplicate link {src!r}->{dst!r}")
        self._link(src, dst, LinkAttrs(length_mm, pipeline_stages, width_bits))
        if bidirectional:
            if src in self._succ[dst]:
                raise ValueError(f"duplicate link {dst!r}->{src!r}")
            self._link(dst, src, LinkAttrs(length_mm, pipeline_stages, width_bits))

    def _link(self, src: str, dst: str, attrs: LinkAttrs) -> None:
        self._succ[src][dst] = self._pred[dst][src] = attrs

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def kind(self, name: str) -> NodeKind:
        try:
            return self._nodes[name]["kind"]
        except KeyError:
            raise KeyError(f"unknown node {name!r}") from None

    def node_attrs(self, name: str) -> dict:
        if name not in self._nodes:
            raise KeyError(f"unknown node {name!r}")
        return dict(self._nodes[name])

    @property
    def nodes(self) -> List[str]:
        return list(self._nodes)

    @property
    def adjacency(self) -> Dict[str, Dict[str, LinkAttrs]]:
        """node -> {successor: the link's attributes} (treat as read-only)."""
        return self._succ

    @property
    def switches(self) -> List[str]:
        return [n for n, d in self._nodes.items() if d["kind"] is NodeKind.SWITCH]

    @property
    def cores(self) -> List[str]:
        return [n for n, d in self._nodes.items() if d["kind"] is NodeKind.CORE]

    @property
    def links(self) -> List[Tuple[str, str]]:
        return [(src, dst) for src, out in self._succ.items() for dst in out]

    def link_attrs(self, src: str, dst: str) -> LinkAttrs:
        try:
            return self._succ[src][dst]
        except KeyError:
            raise KeyError(f"no link {src!r}->{dst!r}") from None

    def has_link(self, src: str, dst: str) -> bool:
        return dst in self._succ.get(src, ())

    def link_width(self, src: str, dst: str) -> int:
        attrs = self.link_attrs(src, dst)
        return attrs.width_bits if attrs.width_bits is not None else self.flit_width

    def successors(self, name: str) -> List[str]:
        if name not in self._nodes:
            raise KeyError(f"unknown node {name!r}")
        return list(self._succ[name])

    def predecessors(self, name: str) -> List[str]:
        if name not in self._nodes:
            raise KeyError(f"unknown node {name!r}")
        return list(self._pred[name])

    def radix(self, switch: str) -> Tuple[int, int]:
        """(input ports, output ports) of a switch, cores included."""
        if self.kind(switch) is not NodeKind.SWITCH:
            raise ValueError(f"{switch!r} is not a switch")
        return (len(self._pred[switch]), len(self._succ[switch]))

    def attached_switches(self, core: str) -> List[str]:
        """Switches this core's NI connects to."""
        if self.kind(core) is not NodeKind.CORE:
            raise ValueError(f"{core!r} is not a core")
        return sorted(self._succ[core].keys() | self._pred[core].keys())

    def switch_neighbors(self) -> Dict[str, List[str]]:
        """The switch fabric, cores stripped, with links taken both ways:
        each switch (in node order) -> its neighboring switches, sorted."""
        nodes = self._nodes
        return {
            sw: sorted(
                n for n in self._succ[sw].keys() | self._pred[sw].keys()
                if nodes[n]["kind"] is NodeKind.SWITCH
            )
            for sw in self.switches
        }

    def is_connected(self) -> bool:
        """Every core can reach every other core.

        They all can exactly when the first core reaches every core and
        every core reaches it, so two searches decide it.
        """
        cores = self.cores
        if len(cores) < 2:
            return True
        return all(
            reachable(adj, cores[0]).issuperset(cores)
            for adj in (self._succ, self._pred)
        )

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Structural design rules: raise ValueError on violation."""
        problems: List[str] = []
        for core in self.cores:
            if not self._succ[core] and not self._pred[core]:
                problems.append(f"core {core!r} is unconnected")
        for switch in self.switches:
            if not self._pred[switch] or not self._succ[switch]:
                problems.append(f"switch {switch!r} lacks input or output links")
        if not self.is_connected():
            problems.append("topology does not connect all core pairs")
        if problems:
            raise ValueError("; ".join(problems))

    def __repr__(self) -> str:
        return (
            f"Topology({self.name!r}, switches={len(self.switches)}, "
            f"cores={len(self.cores)}, links={len(self.links)})"
        )


@dataclass
class Route:
    """One source route: the full node path core -> switches -> core."""

    __slots__ = ("path",)  # by hand: dataclass(slots=True) needs 3.10

    path: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.path) < 2:
            raise ValueError("route needs at least source and destination")

    @property
    def source(self) -> str:
        return self.path[0]

    @property
    def destination(self) -> str:
        return self.path[-1]

    @property
    def hops(self) -> int:
        """Number of links traversed (including NI links)."""
        return len(self.path) - 1

    @property
    def num_switches(self) -> int:
        """Number of switches traversed."""
        return max(0, len(self.path) - 2)

    @property
    def switch_hops(self) -> int:
        """Number of switch-to-switch links traversed."""
        return max(0, len(self.path) - 3)

    def links(self) -> List[Tuple[str, str]]:
        return list(zip(self.path, self.path[1:]))


class RoutingTable:
    """Source-routing table: (src core, dst core) -> Route.

    This is the design-time artifact stored in the NI Look-Up Tables
    ("NI LUTs specify the path that packets will follow in the network to
    reach their destination (source routing)", Section 3).

    A table is filled one of two ways.  Synthesized and irregular tables
    get every route through :meth:`set_route`.  A rule-routed table
    (``rule(src, dst)`` returns the node path) answers the pairs of
    ``pairs`` (default: every ordered pair of distinct cores) and
    computes each route on its first lookup, then keeps it.  Iterating,
    ``len``, :meth:`pairs`, :meth:`link_loads` and :meth:`set_route`
    first compute every route and keep them in ``pairs`` order, as if
    all had been set in that order.  A rule must pickle (a module-level function, or a
    :func:`functools.partial` of one), because checkpoints pickle the
    table.
    """

    def __init__(
        self,
        topology: Topology,
        rule: Optional[Callable[[str, str], Sequence[str]]] = None,
        pairs: Optional[Iterable[Tuple[str, str]]] = None,
    ):
        self.topology = topology
        self._routes: Dict[Tuple[str, str], Route] = {}
        self._rule = rule
        # The rule's pairs: given explicitly (first-seen order), or every
        # ordered pair of these cores.
        self._pairs = None if pairs is None else dict.fromkeys(pairs)
        self._cores = (
            dict.fromkeys(topology.cores)
            if rule is not None and pairs is None else None
        )

    def set_route(self, route: Route) -> None:
        self._complete()
        self._check(route.path)
        self._routes[(route.source, route.destination)] = route

    def _check(self, path: Tuple[str, ...]) -> None:
        # The topology's own dicts: route tables hold one entry per core
        # pair, too many to check through copying accessors.
        nodes, succ = self.topology._nodes, self.topology._succ
        for node in path:
            if node not in nodes:
                raise KeyError(f"route references unknown node {node!r}")
        if nodes[path[0]]["kind"] is not NodeKind.CORE:
            raise ValueError(f"route source {path[0]!r} is not a core")
        if nodes[path[-1]]["kind"] is not NodeKind.CORE:
            raise ValueError(f"route destination {path[-1]!r} is not a core")
        for src, dst in zip(path, path[1:]):
            if dst not in succ[src]:
                raise ValueError(f"route uses missing link {src!r}->{dst!r}")
        for mid in path[1:-1]:
            if nodes[mid]["kind"] is not NodeKind.SWITCH:
                raise ValueError(f"route transits non-switch node {mid!r}")

    def _answers(self, src: str, dst: str) -> bool:
        """Whether the rule owes a route for this pair."""
        if self._rule is None:
            return False
        if self._pairs is not None:
            return (src, dst) in self._pairs
        return src != dst and src in self._cores and dst in self._cores

    def _fill(self, src: str, dst: str) -> Route:
        route = self._routes[(src, dst)] = self._compute(src, dst)
        return route

    def _compute(self, src: str, dst: str) -> Route:
        route = Route(tuple(self._rule(src, dst)))
        self._check(route.path)
        return route

    def _complete(self) -> None:
        """Compute every route the rule owes, in ``pairs`` order; the
        table then holds them all, like one filled by :meth:`set_route`."""
        if self._rule is None:
            return
        if self._pairs is not None:
            order = list(self._pairs)
        else:
            cores = list(self._cores)
            order = [(s, d) for s in cores for d in cores if s != d]
        known = self._routes
        self._routes = {
            pair: known[pair] if pair in known else self._compute(*pair)
            for pair in order
        }
        self._rule = self._pairs = self._cores = None

    def route(self, src: str, dst: str) -> Route:
        try:
            return self._routes[(src, dst)]
        except KeyError:
            pass
        if self._answers(src, dst):
            return self._fill(src, dst)
        raise KeyError(f"no route {src!r} -> {dst!r}")

    def has_route(self, src: str, dst: str) -> bool:
        if (src, dst) in self._routes:
            return True
        if not self._answers(src, dst):
            return False
        self._fill(src, dst)
        return True

    def __len__(self) -> int:
        self._complete()
        return len(self._routes)

    def __iter__(self) -> Iterator[Route]:
        self._complete()
        return iter(self._routes.values())

    def pairs(self) -> List[Tuple[str, str]]:
        self._complete()
        return list(self._routes)

    def link_loads(self, flow_rates: Optional[Dict[Tuple[str, str], float]] = None
                   ) -> Dict[Tuple[str, str], float]:
        """Aggregate load per link.

        Without ``flow_rates``, each route counts 1.0; with rates (e.g.
        bandwidth in bits/s per (src, dst)), loads are weighted — the
        quantity synthesis compares against link capacity.
        """
        self._complete()
        loads: Dict[Tuple[str, str], float] = {}
        for (src, dst), route in self._routes.items():
            weight = 1.0 if flow_rates is None else flow_rates.get((src, dst), 0.0)
            for link in route.links():
                loads[link] = loads.get(link, 0.0) + weight
        return loads
