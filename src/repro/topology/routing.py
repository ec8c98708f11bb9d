"""Design-time routing: the paths loaded into the NI LUTs.

xpipes uses source routing — "NI Look-Up Tables (LUTs) specify the path
that packets will follow in the network to reach their destination"
(Section 3) — so routes are computed here, at design time, and stored in
a :class:`repro.topology.graph.RoutingTable`.  Each algorithm is a rule:
the table computes a pair's route on its first lookup and keeps it, so a
large mesh pays only for the routes a run uses.  Rules are module-level
functions bound with :func:`functools.partial`, so tables pickle.

Deterministic algorithms provided:

* dimension-ordered XY / YX on meshes;
* the turn models (west-first, north-last, negative-first) and odd-even,
  implemented over a shared turn-constrained BFS;
* up*/down* for arbitrary (custom/irregular) topologies;
* least-common-ancestor routing on k-ary n-trees (SPIN);
* Across-First on Spidergon;
* plain weighted shortest path (no deadlock guarantee — pair with the
  checker in :mod:`repro.topology.deadlock`).

Ring-based schemes (torus, spidergon) need two virtual channels with a
dateline; :func:`dateline_vc_assignment` computes the per-hop VC indices
the simulator and the deadlock checker consume.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping
from functools import partial
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.topology.algorithms import dijkstra
from repro.topology.graph import NodeKind, Route, RoutingTable, Topology

Direction = str  # "E", "W", "N", "S"
_DIRECTION_ORDER = ("E", "N", "S", "W")  # deterministic tie-break priority


# ----------------------------------------------------------------------
# Generic helpers
# ----------------------------------------------------------------------
def route_all(
    topo: Topology,
    switch_path_fn: Callable[[str, str], List[str]],
    pairs: Optional[Iterable[Tuple[str, str]]] = None,
) -> RoutingTable:
    """A routing table whose routes follow a switch-level path function.

    ``switch_path_fn(src_switch, dst_switch)`` returns the switch node
    path (inclusive).  A core attached to several switches (e.g. a
    dual-port SRAM) routes via whichever attachment gives the shortest
    switch path (ties broken by switch name).  The table answers
    ``pairs`` (default: every ordered pair of distinct cores) and
    computes each route on its first lookup.
    """
    return RoutingTable(
        topo, partial(_attached_route, topo, switch_path_fn, {}), pairs
    )


def _attached_route(
    topo: Topology,
    switch_path_fn: Callable[[str, str], List[str]],
    attachments: Dict[str, Tuple[List[str], List[str]]],
    src: str,
    dst: str,
) -> List[str]:
    """The node path ``src`` -> ``dst`` over the best attachment pair.

    ``attachments`` caches, per core, the switches it injects into and
    the switches that eject to it.
    """
    ingress = _attachment(topo, attachments, src)[0]
    egress = _attachment(topo, attachments, dst)[1]
    candidates = []
    for s_sw in ingress:
        for d_sw in egress:
            if s_sw == d_sw:
                switch_path = [s_sw]
            else:
                switch_path = switch_path_fn(s_sw, d_sw)
                if (
                    not switch_path
                    or switch_path[0] != s_sw
                    or switch_path[-1] != d_sw
                ):
                    raise ValueError(
                        f"path function returned invalid path "
                        f"{switch_path!r} for {s_sw!r}->{d_sw!r}"
                    )
            candidates.append((len(switch_path), s_sw, d_sw, switch_path))
    if not candidates:
        raise ValueError(f"cores {src!r}/{dst!r} have no usable attachments")
    return [src, *min(candidates)[3], dst]


def _attachment(
    topo: Topology,
    attachments: Dict[str, Tuple[List[str], List[str]]],
    core: str,
) -> Tuple[List[str], List[str]]:
    entry = attachments.get(core)
    if entry is None:
        switches = topo.attached_switches(core)  # sorted
        entry = attachments[core] = (
            [sw for sw in switches if topo.has_link(core, sw)],
            [sw for sw in switches if topo.has_link(sw, core)],
        )
    return entry


# ----------------------------------------------------------------------
# Mesh coordinate machinery
# ----------------------------------------------------------------------
def _coords(topo: Topology, switch: str) -> Tuple[int, int]:
    attrs = topo.node_attrs(switch)
    if "x" not in attrs or "y" not in attrs:
        raise ValueError(f"switch {switch!r} lacks x/y mesh coordinates")
    return attrs["x"], attrs["y"]


def _mesh_direction(topo: Topology, a: str, b: str) -> Direction:
    ax, ay = _coords(topo, a)
    bx, by = _coords(topo, b)
    if bx == ax + 1 and by == ay:
        return "E"
    if bx == ax - 1 and by == ay:
        return "W"
    if by == ay + 1 and bx == ax:
        return "N"
    if by == ay - 1 and bx == ax:
        return "S"
    raise ValueError(f"{a!r}->{b!r} is not a unit mesh hop")


def _mesh_neighbors(topo: Topology, switch: str) -> List[Tuple[Direction, str]]:
    out = []
    for nxt in topo.successors(switch):
        if topo.kind(nxt) is not NodeKind.SWITCH:
            continue
        try:
            direction = _mesh_direction(topo, switch, nxt)
        except ValueError:
            continue  # wraparound links are handled by torus routing only
        out.append((direction, nxt))
    out.sort(key=lambda item: _DIRECTION_ORDER.index(item[0]))
    return out


# ----------------------------------------------------------------------
# Dimension-ordered routing
# ----------------------------------------------------------------------
def _xy_switch_path(topo: Topology, src: str, dst: str, x_first: bool) -> List[str]:
    sx, sy = _coords(topo, src)
    dx, dy = _coords(topo, dst)
    path = [src]
    x, y = sx, sy

    def step_x():
        nonlocal x
        while x != dx:
            x += 1 if dx > x else -1
            path.append(_switch_at(topo, x, y))

    def step_y():
        nonlocal y
        while y != dy:
            y += 1 if dy > y else -1
            path.append(_switch_at(topo, x, y))

    if x_first:
        step_x()
        step_y()
    else:
        step_y()
        step_x()
    return path


def _switch_at(topo: Topology, x: int, y: int) -> str:
    cache = getattr(topo, "_switch_at_cache", None)
    if cache is None:
        cache = {}
        for sw in topo.switches:
            attrs = topo.node_attrs(sw)
            if "x" in attrs and "y" in attrs:
                cache[(attrs["x"], attrs["y"])] = sw
        topo._switch_at_cache = cache
    try:
        return cache[(x, y)]
    except KeyError:
        raise ValueError(f"no switch at mesh position ({x}, {y})") from None


def xy_routing(topo: Topology) -> RoutingTable:
    """Dimension-ordered X-then-Y routing (deadlock-free on meshes)."""
    return route_all(topo, partial(_xy_switch_path, topo, x_first=True))


def yx_routing(topo: Topology) -> RoutingTable:
    """Dimension-ordered Y-then-X routing (deadlock-free on meshes)."""
    return route_all(topo, partial(_xy_switch_path, topo, x_first=False))


# ----------------------------------------------------------------------
# Turn-model routing (west-first, north-last, negative-first, odd-even)
# ----------------------------------------------------------------------
#: Glass & Ni turn models: each prohibits two of the eight turns.
_BANNED_TURNS: Dict[str, Tuple[Tuple[Direction, Direction], ...]] = {
    "west-first": (("N", "W"), ("S", "W")),
    "north-last": (("N", "E"), ("N", "W")),
    "negative-first": (("N", "W"), ("E", "S")),
}
_OPPOSITE = {"E": "W", "W": "E", "N": "S", "S": "N"}


def _prohibited_turns_for(model: str) -> Callable[[Tuple[int, int], Direction, Direction], bool]:
    """Return allowed(node_coords, dir_in, dir_out) for a named model."""
    if model not in _BANNED_TURNS and model != "odd-even":
        raise ValueError(
            f"unknown turn model {model!r}; "
            "choose west-first, north-last, negative-first or odd-even"
        )
    return partial(_turn_allowed, model)


def _turn_allowed(
    model: str, coords: Tuple[int, int], d_in: Direction, d_out: Direction
) -> bool:
    if d_out == _OPPOSITE[d_in]:
        return False  # no U-turns
    if model == "odd-even":
        # Chiu's odd-even rules, keyed on column (x) parity:
        #   even column: EN and ES turns prohibited;
        #   odd column:  NW and SW turns prohibited.
        x = coords[0]
        if x % 2 == 0 and d_in == "E" and d_out in ("N", "S"):
            return False
        if x % 2 == 1 and d_in in ("N", "S") and d_out == "W":
            return False
        return True
    return (d_in, d_out) not in _BANNED_TURNS[model]


def _turn_constrained_path(
    topo: Topology,
    src: str,
    dst: str,
    allowed: Callable[[Tuple[int, int], Direction, Direction], bool],
) -> List[str]:
    """Shortest mesh path obeying a turn predicate (deterministic BFS)."""
    start = (src, None)  # (switch, incoming direction)
    parents: Dict[Tuple[str, Optional[Direction]], Tuple[str, Optional[Direction]]] = {}
    seen = {start}
    queue = deque([start])
    goal: Optional[Tuple[str, Optional[Direction]]] = None
    while queue:
        node, d_in = queue.popleft()
        if node == dst:
            goal = (node, d_in)
            break
        for d_out, nxt in _mesh_neighbors(topo, node):
            if d_in is not None and not allowed(_coords(topo, node), d_in, d_out):
                continue
            state = (nxt, d_out)
            if state in seen:
                continue
            seen.add(state)
            parents[state] = (node, d_in)
            queue.append(state)
    if goal is None:
        raise ValueError(f"no turn-legal path {src!r}->{dst!r}")
    path = [goal[0]]
    state = goal
    while state != start:
        state = parents[state]
        path.append(state[0])
    path.reverse()
    return path


def turn_model_routing(topo: Topology, model: str = "west-first") -> RoutingTable:
    """Route a mesh under a named turn model (all deadlock-free)."""
    allowed = _prohibited_turns_for(model)
    return route_all(topo, partial(_turn_constrained_path, topo, allowed=allowed))


def odd_even_routing(topo: Topology) -> RoutingTable:
    """Chiu's odd-even turn model on a mesh."""
    return turn_model_routing(topo, "odd-even")


# ----------------------------------------------------------------------
# Weighted shortest path (generic, no deadlock guarantee)
# ----------------------------------------------------------------------
def shortest_path_routing(
    topo: Topology, weight: Optional[str] = None
) -> RoutingTable:
    """Dijkstra over the whole node graph.

    ``weight`` may be ``"length"`` (sum of link lengths in mm) or None
    (hop count).  Handles multi-attached cores (BONE dual-port SRAMs)
    naturally.  Deadlock freedom is *not* guaranteed; run the
    channel-dependency check before using the table.
    """
    return RoutingTable(topo, partial(_shortest_path, topo, weight))


def _shortest_path(
    topo: Topology, weight: Optional[str], src: str, dst: str
) -> List[str]:
    def w(u, v, attrs):
        base = attrs.length_mm if weight == "length" else 1.0
        if weight == "length":
            base = base if base > 0 else 1e-3
        # Never route through an intermediate core.
        if topo.kind(v) is NodeKind.CORE:
            return None  # hides the edge
        return base

    # Route to each switch attached to the destination, then append the
    # core: the core itself is hidden as an intermediate node.
    best: Optional[List[str]] = None
    best_cost = float("inf")
    for d_sw in sorted(topo.attached_switches(dst)):
        found = dijkstra(topo.adjacency, src, d_sw, w)
        if found is None:
            continue
        cost, path = found
        if not topo.has_link(d_sw, dst):
            continue
        tail = topo.link_attrs(d_sw, dst).length_mm if weight == "length" else 1.0
        if cost + tail < best_cost:
            best_cost = cost + tail
            best = path + [dst]
    if best is None:
        raise ValueError(f"no path {src!r}->{dst!r}")
    return best


# ----------------------------------------------------------------------
# up*/down* for irregular topologies
# ----------------------------------------------------------------------
def up_down_routing(topo: Topology, root: Optional[str] = None) -> RoutingTable:
    """Classic up*/down*: deadlock-free on any connected topology.

    A BFS tree from ``root`` (default: the highest-degree switch) levels
    the switches; every link is labelled *up* (toward lower level, ties
    broken by name) or *down*.  Legal routes climb zero or more up links
    then descend zero or more down links, which provably breaks all
    channel-dependency cycles.
    """
    return route_all(
        topo, partial(_up_down_switch_path, topo, _up_down_levels(topo, root))
    )


def _up_down_levels(topo: Topology, root: Optional[str]) -> Dict[str, int]:
    """BFS level of every switch from ``root`` (default: the
    highest-degree switch)."""
    switches = topo.switches
    if not switches:
        raise ValueError("topology has no switches")
    fabric = topo.switch_neighbors()
    if root is None:
        root = max(switches, key=lambda s: (len(fabric[s]), s))
    elif root not in switches:
        raise KeyError(f"root {root!r} is not a switch")
    level = {root: 0}
    order = deque([root])
    while order:
        node = order.popleft()
        for nxt in fabric[node]:
            if nxt not in level:
                level[nxt] = level[node] + 1
                order.append(nxt)
    if len(level) != len(switches):
        raise ValueError("switch fabric is not connected")
    return level


def _up_down_switch_path(
    topo: Topology, level: Dict[str, int], src: str, dst: str
) -> List[str]:
    """Shortest legal up*/down* path over (switch, phase) states, with
    phase 0 while still ascending."""

    def is_up(a: str, b: str) -> bool:
        la, lb = level[a], level[b]
        if la != lb:
            return lb < la
        return b < a  # tie-break by name: toward smaller name is "up"

    start = (src, 0)
    parents: Dict[Tuple[str, int], Tuple[str, int]] = {}
    seen = {start}
    queue = deque([start])
    goal = None
    while queue:
        node, phase = queue.popleft()
        if node == dst:
            goal = (node, phase)
            break
        for nxt in sorted(
            n for n in topo.successors(node) if topo.kind(n) is NodeKind.SWITCH
        ):
            up = is_up(node, nxt)
            if phase == 1 and up:
                continue  # once descending, never ascend again
            state = (nxt, 0 if up else 1)
            if state in seen:
                continue
            seen.add(state)
            parents[state] = (node, phase)
            queue.append(state)
    if goal is None:
        raise ValueError(f"no up*/down* path {src!r}->{dst!r}")
    path = [goal[0]]
    state = goal
    while state != start:
        state = parents[state]
        path.append(state[0])
    path.reverse()
    return path


# ----------------------------------------------------------------------
# Fat-tree (k-ary n-tree) LCA routing
# ----------------------------------------------------------------------
def fat_tree_routing(topo: Topology) -> RoutingTable:
    """Least-common-ancestor routing on a k-ary n-tree (deadlock-free).

    Ascend choosing at level ``l`` the up-neighbour whose digit ``l``
    already matches the destination, stop at the LCA level, then descend
    along the unique down path.
    """
    return RoutingTable(topo, partial(_fat_tree_path, topo))


def _fat_tree_path(topo: Topology, src: str, dst: str) -> List[str]:
    from repro.topology.fattree import switch_name

    def address(core: str) -> Tuple[int, ...]:
        attrs = topo.node_attrs(core)
        if "address" not in attrs:
            raise ValueError(f"core {core!r} lacks a fat-tree address")
        return attrs["address"]

    p, q = address(src), address(dst)
    n = len(p)
    prefix = p[: n - 1]
    q_prefix = q[: n - 1]
    if prefix == q_prefix:
        lca_level = 0
    else:
        lca_level = 1 + max(i for i in range(n - 1) if p[i] != q[i])
    # Ascend: at level l take the up-neighbour with digit l = q[l].
    w = list(prefix)
    path = [switch_name(0, tuple(w))]
    for l in range(lca_level):
        w[l] = q[l]
        path.append(switch_name(l + 1, tuple(w)))
    # Descend: digits already match q's prefix on the way down.
    for l in range(lca_level - 1, -1, -1):
        w[l] = q_prefix[l]
        path.append(switch_name(l, tuple(w)))
    return [src, *path, dst]


# ----------------------------------------------------------------------
# Spidergon Across-First
# ----------------------------------------------------------------------
def spidergon_routing(topo: Topology) -> RoutingTable:
    """Across-First: take the across link when the ring distance exceeds
    a quarter of the ring, then finish along the ring.

    Needs two virtual channels (dateline) for deadlock freedom; use
    :func:`dateline_vc_assignment` for the per-hop VC indices.
    """
    indices = {}
    for sw in topo.switches:
        attrs = topo.node_attrs(sw)
        if "index" not in attrs:
            raise ValueError(f"switch {sw!r} lacks a ring index")
        indices[sw] = attrs["index"]
    return route_all(topo, partial(_spidergon_switch_path, topo, indices))


def _spidergon_switch_path(
    topo: Topology, indices: Dict[str, int], src: str, dst: str
) -> List[str]:
    from repro.topology.ring import switch_name

    n = len(indices)
    half = n // 2
    i, j = indices[src], indices[dst]
    path = [src]
    cw = (j - i) % n
    ccw = (i - j) % n
    if min(cw, ccw) > n // 4 and topo.has_link(src, switch_name((i + half) % n)):
        i = (i + half) % n
        path.append(switch_name(i))
        cw = (j - i) % n
        ccw = (i - j) % n
    step = 1 if cw <= ccw else -1
    while i != j:
        i = (i + step) % n
        path.append(switch_name(i))
    return path


# ----------------------------------------------------------------------
# Torus minimal dimension-ordered routing (with wraparound)
# ----------------------------------------------------------------------
def torus_xy_routing(topo: Topology, width: int, height: int) -> RoutingTable:
    """Minimal XY on a torus, using wrap links when shorter.

    Requires a dateline VC assignment (2 VCs) for deadlock freedom.
    """
    return route_all(topo, partial(_torus_switch_path, topo, width, height))


def _torus_switch_path(
    topo: Topology, width: int, height: int, src: str, dst: str
) -> List[str]:
    sx, sy = _coords(topo, src)
    dx, dy = _coords(topo, dst)
    path = [src]
    x, y = sx, sy
    step_x = _ring_step(sx, dx, width)
    while x != dx:
        x = (x + step_x) % width
        path.append(_switch_at(topo, x, y))
    step_y = _ring_step(sy, dy, height)
    while y != dy:
        y = (y + step_y) % height
        path.append(_switch_at(topo, x, y))
    return path


def _ring_step(src: int, dst: int, size: int) -> int:
    forward = (dst - src) % size
    backward = (src - dst) % size
    return 1 if forward <= backward else -1


# ----------------------------------------------------------------------
# Dateline virtual-channel assignment
# ----------------------------------------------------------------------
def dateline_vc_assignment(
    topo: Topology,
    table: RoutingTable,
    index_of: Optional[Callable[[str], Optional[Tuple[int, ...]]]] = None,
) -> "DatelineVcs":
    """Per-hop VC indices: start in VC0, switch to VC1 at each dateline.

    The dateline of a ring dimension sits between the highest index and
    index 0; any hop that wraps (index decreases going "forward" or
    increases going "backward" by more than one) crosses it.  Works for
    rings, spidergons (ring part) and both torus dimensions.

    ``index_of`` maps a switch name to its position tuple; defaults to
    the ``index`` attribute (rings) or ``(x, y)`` (meshes/tori).

    The VC resets to 0 whenever the route changes travel dimension
    (dimension-ordered torus routing finishes one ring before entering
    the next, so each ring's dateline is independent).

    The result maps (src core, dst core) to the VC list of the table's
    route, computed on first lookup like the route itself.
    """
    get_index = index_of or partial(_default_index, topo)
    # Per-dimension maximum index, to recognize true wrap hops (0 <-> max)
    # and distinguish them from long chords such as Spidergon across links.
    max_index: List[int] = []
    for sw in topo.switches:
        idx = get_index(sw)
        if idx is None:
            continue
        if len(max_index) < len(idx):
            max_index.extend([0] * (len(idx) - len(max_index)))
        for i, v in enumerate(idx):
            max_index[i] = max(max_index[i], v)
    return DatelineVcs(topo, table, get_index, max_index)


def _default_index(topo: Topology, sw: str) -> Optional[Tuple[int, ...]]:
    attrs = topo.node_attrs(sw)
    if "index" in attrs:
        return (attrs["index"],)
    if "x" in attrs and "y" in attrs:
        return (attrs["x"], attrs["y"])
    return None


class DatelineVcs(Mapping):
    """(src core, dst core) -> the per-hop VC indices of the table's
    route (see :func:`dateline_vc_assignment`), in the table's order."""

    def __init__(
        self,
        topo: Topology,
        table: RoutingTable,
        get_index: Callable[[str], Optional[Tuple[int, ...]]],
        max_index: List[int],
    ):
        self.topology = topo
        self.table = table
        self._get_index = get_index
        self._max_index = max_index
        self._vcs: Dict[Tuple[str, str], List[int]] = {}

    def __getitem__(self, pair: Tuple[str, str]) -> List[int]:
        try:
            return self._vcs[pair]
        except KeyError:
            pass
        src, dst = pair
        if not self.table.has_route(src, dst):
            raise KeyError(pair)
        vcs = self._vcs[pair] = self._route_vcs(self.table.route(src, dst))
        return vcs

    def __iter__(self) -> Iterator[Tuple[str, str]]:
        return iter(self.table.pairs())

    def __len__(self) -> int:
        return len(self.table)

    def _route_vcs(self, route: Route) -> List[int]:
        topo, get_index = self.topology, self._get_index
        vcs: List[int] = []
        vc = 0
        current_dim: Optional[int] = None
        for src, dst in route.links():
            if (
                topo.kind(src) is NodeKind.SWITCH
                and topo.kind(dst) is NodeKind.SWITCH
            ):
                a, b = get_index(src), get_index(dst)
                if a is not None and b is not None:
                    dim = _travel_dimension(a, b)
                    if dim is not None and dim != current_dim:
                        vc = 0  # new ring: its dateline is independent
                        current_dim = dim
                    if dim is not None and _is_wrap_hop(
                        a[dim], b[dim], self._max_index[dim]
                    ):
                        vc = 1
            vcs.append(vc)
        return vcs


def _travel_dimension(a: Sequence[int], b: Sequence[int]) -> Optional[int]:
    """Index of the (single) coordinate that changes on this hop."""
    changed = [i for i, (x, y) in enumerate(zip(a, b)) if x != y]
    return changed[0] if len(changed) == 1 else None


def _is_wrap_hop(a: int, b: int, max_idx: int) -> bool:
    """True for the 0 <-> max transitions: the ring's dateline."""
    return (a == max_idx and b == 0) or (a == 0 and b == max_idx)
