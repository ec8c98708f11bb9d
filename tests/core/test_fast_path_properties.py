"""Property tests: the synthesis sweep's O(1) and incremental queries
against the linear scans and whole-graph checks they stand in for.

* ``CommunicationSpec.bandwidth_between`` / ``core_bandwidth`` answer
  from an index built once; they must equal a scan of ``spec.flows``
  bit for bit, repeated flows and both directions included.
* ``repro.core.synthesis.would_deadlock`` tests only what the added
  dependency edges can reach; its verdict and the CDG it leaves must
  match a whole-graph ``nx.find_cycle`` after every route.
* The floorplan legalizer's ``fits`` / ``spacing_bounds`` pair must agree
  with ``Block.overlaps``, including blocks exactly one margin apart.
* The four searches of the synthesis sweep — path Dijkstra, ring-local
  legalization, incremental cluster merging and flows-only mesh routing —
  must return what the code they replaced returns; a copy of that code
  is kept here as the reference.
"""

import heapq
import math

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.baselines import mesh_baseline
from repro.core.mapping import map_cores
from repro.core.spec import CommunicationSpec, CoreSpec, FlowSpec
from repro.core.synthesis import (
    _LINK_OPEN_COST, _WIRE_COST_PER_MM, TopologySynthesizer, switch_name,
    would_deadlock,
)
from repro.physical.floorplan import (
    Block, Floorplan, IncrementalFloorplanner, _Insertion, fits, manhattan,
    spacing_bounds,
)
from repro.topology.routing import xy_routing

CORES = ("a", "b", "c", "d", "e")


# ----------------------------------------------------------------------
# Spec traffic index
# ----------------------------------------------------------------------
_flows = st.lists(
    st.tuples(
        st.sampled_from(CORES),
        st.sampled_from(CORES),
        st.floats(0.001, 5000.0, allow_nan=False, allow_infinity=False),
    ).filter(lambda f: f[0] != f[1]),
    max_size=25,
)


class TestSpecIndex:
    @given(flows=_flows)
    @settings(max_examples=200, deadline=None)
    def test_lookups_equal_linear_scans(self, flows):
        spec = CommunicationSpec(
            [CoreSpec(c) for c in CORES],
            [FlowSpec(s, d, bw) for s, d, bw in flows],
        )
        for a in CORES:
            scan = sum(
                f.bandwidth_mbps for f in spec.flows
                if a in (f.source, f.destination)
            )
            assert repr(spec.core_bandwidth(a)) == repr(scan)
            for b in CORES:
                scan = sum(
                    f.bandwidth_mbps for f in spec.flows
                    if (f.source, f.destination) in ((a, b), (b, a))
                )
                assert repr(spec.bandwidth_between(a, b)) == repr(scan)

    def test_repeated_flows_and_self_pair(self):
        spec = CommunicationSpec(
            [CoreSpec("a"), CoreSpec("b")],
            [FlowSpec("a", "b", 0.1), FlowSpec("b", "a", 0.2),
             FlowSpec("a", "b", 0.3)],
        )
        assert spec.bandwidth_between("a", "b") == 0.1 + 0.2 + 0.3
        assert spec.bandwidth_between("b", "a") == 0.1 + 0.2 + 0.3
        assert spec.bandwidth_between("a", "a") == 0
        assert spec.core_bandwidth("b") == 0.1 + 0.2 + 0.3


# ----------------------------------------------------------------------
# Incremental channel-dependency check
# ----------------------------------------------------------------------
def _would_deadlock_whole_graph(cdg, links) -> bool:
    """The whole-graph check: add, look for any cycle, roll back."""
    added_nodes = [l for l in links if l not in cdg]
    added_edges = [
        (a, b) for a, b in zip(links, links[1:]) if not cdg.has_edge(a, b)
    ]
    cdg.add_edges_from(added_edges)
    for l in links:
        cdg.add_node(l)
    try:
        nx.find_cycle(cdg)
        cyclic = True
    except nx.NetworkXNoCycle:
        cyclic = False
    if cyclic:
        cdg.remove_edges_from(added_edges)
        cdg.remove_nodes_from([n for n in added_nodes if cdg.degree(n) == 0])
    return cyclic


# A route is a walk over a few nodes; its links are consecutive node
# pairs, so walks can revisit links and close cycles on their own.
_walk = st.lists(st.sampled_from(CORES), min_size=3, max_size=7).filter(
    lambda w: all(a != b for a, b in zip(w, w[1:]))
)


def _as_digraph(cdg) -> nx.DiGraph:
    """The dict CDG (``{link: {next link: None}}``) as a networkx graph."""
    graph = nx.DiGraph()
    graph.add_nodes_from(cdg)
    graph.add_edges_from((a, b) for a, nexts in cdg.items() for b in nexts)
    return graph


class TestIncrementalDeadlockCheck:
    @given(walks=st.lists(_walk, min_size=1, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_matches_whole_graph_find_cycle(self, walks):
        fast, whole = {}, nx.DiGraph()
        for walk in walks:
            links = list(zip(walk, walk[1:]))
            assert would_deadlock(fast, links) == \
                _would_deadlock_whole_graph(whole, links)
            assert all(b in fast for nexts in fast.values() for b in nexts)
            graph = _as_digraph(fast)
            assert sorted(graph.nodes) == sorted(whole.nodes)
            assert sorted(graph.edges) == sorted(whole.edges)
            assert nx.is_directed_acyclic_graph(graph)

    def test_cycle_through_two_added_edges_is_rejected(self):
        cdg = {}
        assert not would_deadlock(cdg, [("x", "y"), ("y", "z")])
        # (z, w) -> (w, x) -> (x, y) -> (y, z) -> (z, w): closed only by
        # the second route's two new edges together.
        assert would_deadlock(
            cdg, [("y", "z"), ("z", "w"), ("w", "x"), ("x", "y")]
        )
        assert sorted(_as_digraph(cdg).edges) == [(("x", "y"), ("y", "z"))]


# ----------------------------------------------------------------------
# Legalization predicate
# ----------------------------------------------------------------------
_coord = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)
_size = st.floats(0.05, 3.0, allow_nan=False, allow_infinity=False)
_margin = st.sampled_from([0.0, 0.02, 0.1, 0.3])


@st.composite
def _block_pairs(draw):
    """A candidate and a placed block; often exactly one margin apart
    (or touching) on some side, the boundary the test must get right."""
    margin = draw(_margin)
    x, y, w, h = draw(_coord), draw(_coord), draw(_size), draw(_size)
    ow, oh = draw(_size), draw(_size)
    side = draw(st.sampled_from(["free", "left", "right", "below", "above"]))
    ox, oy = draw(_coord), draw(_coord)
    if side == "right":  # placed block starts one margin right of it
        ox = x + w + margin
    elif side == "left":
        ox = x - ow - margin
    elif side == "above":
        oy = y + h + margin
    elif side == "below":
        oy = y - oh - margin
    return margin, (x, y, w, h), Block("o", ow, oh, ox, oy)


class TestLegalizationPredicate:
    @given(pair=_block_pairs())
    @settings(max_examples=400, deadline=None)
    def test_fits_agrees_with_overlaps(self, pair):
        margin, (x, y, w, h), other = pair
        candidate = Block("c", w, h, x, y)
        assert fits(x, y, w, h, margin, [spacing_bounds(other, margin)]) == \
            (not candidate.overlaps(other, margin=margin))

    def test_exactly_one_margin_apart_fits(self):
        other = Block("o", 1.0, 1.0, 0.0, 0.0)
        bounds = [spacing_bounds(other, 0.02)]
        assert fits(1.02, 0.0, 0.3, 0.3, 0.02, bounds)
        assert not fits(1.01, 0.0, 0.3, 0.3, 0.02, bounds)


# ----------------------------------------------------------------------
# Path allocation's Dijkstra
# ----------------------------------------------------------------------
def _dijkstra_by_name(names, src, dst, dist, opened, link_load,
                      capacity_bps, bw, penalties):
    """The name-keyed search over dicts that the index search replaced."""
    best = {src: 0.0}
    parent = {}
    heap = [(0.0, src)]
    visited = set()
    while heap:
        cost, node = heapq.heappop(heap)
        if node in visited:
            continue
        visited.add(node)
        if node == dst:
            path = [dst]
            while path[-1] != src:
                path.append(parent[path[-1]])
            return list(reversed(path))
        for nxt in names:
            if nxt == node or nxt in visited:
                continue
            load = link_load.get((node, nxt), 0.0)
            if load + bw > capacity_bps:
                continue
            i, j = int(node[2:]), int(nxt[2:])
            edge_cost = 1.0 + _WIRE_COST_PER_MM * dist(node, nxt)
            if (min(i, j), max(i, j)) not in opened:
                edge_cost += _LINK_OPEN_COST
            edge_cost += penalties.get((node, nxt), 0.0)
            total = cost + edge_cost
            if total < best.get(nxt, math.inf):
                best[nxt] = total
                parent[nxt] = node
                heapq.heappush(heap, (total, nxt))
    return None


@st.composite
def _switch_graphs(draw):
    """Up to 14 switches, so that name order ("sw10" < "sw2") and index
    order differ.  Positions on a coarse grid, often collinear or shared,
    and twin switches give exact cost ties; loads near capacity exclude
    edges."""
    k = draw(st.one_of(st.integers(2, 10), st.integers(11, 14)))
    grid = st.sampled_from(draw(st.sampled_from(
        [[0.0, 1.0], [0.0, 0.5, 1.0, 1.5, 3.0]])))
    if draw(st.booleans()):  # all on one line
        positions = [(draw(grid), 0.0) for _ in range(k)]
    else:
        positions = [(draw(grid), draw(grid)) for _ in range(k)]
    pairs = [(i, j) for i in range(k) for j in range(k) if i != j]
    opened = {(i, j) for i, j in pairs if i < j and draw(st.booleans())}
    loads = {pair: draw(st.sampled_from([0.0, 0.0, 2.0, 9.5]))
             for pair in pairs}
    # Twins: switch j copies switch i's place, links and loads, so paths
    # through either cost exactly the same.
    for i, j in draw(st.lists(st.tuples(st.integers(0, k - 1),
                                        st.integers(0, k - 1)), max_size=4)):
        if i == j:
            continue
        positions[j] = positions[i]
        for m in range(k):
            if m in (i, j):
                continue
            opened.discard((min(j, m), max(j, m)))
            if (min(i, m), max(i, m)) in opened:
                opened.add((min(j, m), max(j, m)))
            loads[(j, m)], loads[(m, j)] = loads[(i, m)], loads[(m, i)]
    penalties = draw(st.dictionaries(
        st.sampled_from(pairs), st.sampled_from([10.0, 20.0, 0.35]),
        max_size=6))
    src, dst = draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2,
                             unique=True))
    bw = draw(st.sampled_from([0.5, 1.0, 3.0]))
    return positions, opened, loads, penalties, src, dst, bw


class TestDijkstra:
    @given(graph=_switch_graphs())
    @settings(max_examples=400, deadline=None)
    def test_index_search_matches_name_search(self, graph):
        positions, opened, loads, penalties, src, dst, bw = graph
        k = len(positions)
        capacity = 10.0
        names = [switch_name(i) for i in range(k)]
        pos = dict(zip(names, positions))

        def dist(a, b):
            (ax, ay), (bx, by) = pos[a], pos[b]
            return abs(ax - bx) + abs(ay - by)

        expected = _dijkstra_by_name(
            names, names[src], names[dst], dist, opened,
            {(names[i], names[j]): v for (i, j), v in loads.items()},
            capacity, bw,
            {(names[i], names[j]): v for (i, j), v in penalties.items()},
        )
        base_cost = [
            [1.0 + _WIRE_COST_PER_MM * (abs(ax - bx) + abs(ay - by))
             for bx, by in positions]
            for ax, ay in positions
        ]
        is_open = [[(min(i, j), max(i, j)) in opened for j in range(k)]
                   for i in range(k)]
        link_load = [[loads.get((i, j), 0.0) for j in range(k)]
                     for i in range(k)]
        path = TopologySynthesizer._dijkstra(
            names, src, dst, base_cost, is_open, link_load, capacity, bw,
            penalties,
        )
        assert (None if path is None else [names[i] for i in path]) == expected

    def test_exact_tie_goes_to_the_smaller_name(self):
        # sw2 and sw10 sit at the same place: both two-hop paths cost the
        # same, and "sw10" < "sw2" decides.
        k = 11
        positions = [(0.0, 0.0)] * k
        positions[1] = (1.0, 0.0)
        base_cost = [
            [1.0 + _WIRE_COST_PER_MM * (abs(ax - bx) + abs(ay - by))
             for bx, by in positions]
            for ax, ay in positions
        ]
        names = [switch_name(i) for i in range(k)]
        is_open = [[False] * k for _ in range(k)]
        for mid in (2, 10):
            for a, b in ((0, mid), (mid, 1)):
                is_open[a][b] = is_open[b][a] = True
        link_load = [[0.0] * k for _ in range(k)]
        path = TopologySynthesizer._dijkstra(
            names, 0, 1, base_cost, is_open, link_load, 1.0, 0.5,
            {(0, 1): 10.0},
        )
        assert path == [0, 10, 1]


# ----------------------------------------------------------------------
# Ring-local legalization
# ----------------------------------------------------------------------
def _legalize_all_blocks(fp, item, target, margin):
    """The spiral search that tested every placed block on every ring."""
    x0, y0, x1, y1 = fp.bounding_box()
    slack = max(item.width_mm, item.height_mm) * 4 + 1.0
    step = max(min(item.width_mm, item.height_mm) / 2.0, 0.05)
    bounds = [spacing_bounds(other, margin) for other in fp]

    def candidate_ok(cx, cy):
        x = cx - item.width_mm / 2.0
        y = cy - item.height_mm / 2.0
        if not fits(x, y, item.width_mm, item.height_mm, margin, bounds):
            return None
        return Block(item.name, item.width_mm, item.height_mm, x, y)

    best = candidate_ok(*target)
    if best is not None:
        return best
    radius = step
    while radius < slack + max(x1 - x0, y1 - y0):
        steps = max(8, int(2 * math.pi * radius / step))
        candidates = []
        for k in range(steps):
            angle = 2 * math.pi * k / steps
            cx = target[0] + radius * math.cos(angle)
            cy = target[1] + radius * math.sin(angle)
            block = candidate_ok(cx, cy)
            if block is not None:
                candidates.append((manhattan((cx, cy), target), k, block))
        if candidates:
            return min(candidates)[2]
        radius += step
    raise RuntimeError(f"could not legalize component {item.name!r}")


def _as_tuple(block):
    return (block.name, block.width_mm, block.height_mm, block.x_mm,
            block.y_mm)


@st.composite
def _legalize_cases(draw):
    """A target walled in by a square blocker up to ring ``m``, where
    the axis candidates first escape, plus a block on one side exactly
    at ring ``m``'s reach (or one ulp either way) and a few random
    blocks."""
    margin = draw(st.sampled_from([0.0, 0.02, 0.1]))
    w = draw(st.sampled_from([0.3, 0.2, 0.45, 1.0]))
    h = draw(st.sampled_from([0.3, 0.2, 0.45, 1.0]))
    tx = draw(st.floats(-3.0, 3.0, allow_nan=False))
    ty = draw(st.floats(-3.0, 3.0, allow_nan=False))
    half_w, half_h = w / 2.0, h / 2.0
    step = max(min(w, h) / 2.0, 0.05)
    m = draw(st.integers(1, 8))
    radius = step
    for _ in range(m - 1):
        radius += step
    blocks = []
    if draw(st.booleans()):
        reach = radius - max(half_w, half_h) - margin
        reach -= draw(st.floats(0.0, step / 2.0))
        if reach > 0:
            blocks.append(Block("wall", 2 * reach, 2 * reach,
                                tx - reach, ty - reach))
    side = draw(st.sampled_from(["right", "left", "above", "below"]))
    toward = draw(st.sampled_from([-math.inf, None, math.inf]))

    def nudged(edge):  # the reach itself, or one ulp either side of it
        return edge if toward is None else math.nextafter(edge, toward)

    thin = 0.05
    # Right / above: the block's near edge sits at the ring's reach.
    # Left / below: its far edge plus margin does (up to rounding).
    if side == "right":
        edge = nudged((tx + radius) - half_w + w + margin)
        blocks.append(Block("edge", thin, h, edge, ty - half_h))
    elif side == "above":
        edge = nudged((ty + radius) - half_h + h + margin)
        blocks.append(Block("edge", w, thin, tx - half_w, edge))
    elif side == "left":
        edge = nudged((tx - radius) - half_w)
        blocks.append(Block("edge", thin, h, edge - margin - thin,
                            ty - half_h))
    else:
        edge = nudged((ty - radius) - half_h)
        blocks.append(Block("edge", w, thin, tx - half_w,
                            edge - margin - thin))
    for i in range(draw(st.integers(0, 6))):
        blocks.append(Block(
            f"r{i}", draw(_size), draw(_size),
            draw(st.floats(tx - 3.0, tx + 3.0, allow_nan=False)),
            draw(st.floats(ty - 3.0, ty + 3.0, allow_nan=False)),
        ))
    return margin, Floorplan(blocks), _Insertion("new", w, h, []), (tx, ty)


class TestRingLocalLegalization:
    @given(case=_legalize_cases())
    @settings(max_examples=400, deadline=None)
    def test_matches_all_block_search(self, case):
        margin, fp, item, target = case
        planner = IncrementalFloorplanner(fp, margin_mm=margin)
        placed = planner._legalize(fp, item, target, {})
        assert _as_tuple(placed) == _as_tuple(
            _legalize_all_blocks(fp, item, target, margin))

    def test_ring_tables_are_shared_across_insertions(self):
        fp = Floorplan.grid([f"c{i}" for i in range(9)], spacing_mm=0.1)
        planner = IncrementalFloorplanner(fp)
        for i in range(4):
            planner.insert(f"sw{i}", 0.3, 0.3, [(f"c{i}", 1.0), ("c4", 1.0)])
        placed = planner.place()
        expected = fp.copy()
        for item in planner._pending:
            target = planner._weighted_centroid(expected, item)
            expected.add(_legalize_all_blocks(expected, item, target, 0.02))
        assert [_as_tuple(b) for b in placed] == \
            [_as_tuple(b) for b in expected]


# ----------------------------------------------------------------------
# Incremental cluster merging
# ----------------------------------------------------------------------
def _map_cores_rescan(spec, num_switches, balance_slack=1.5, positions=None,
                      distance_weight=0.5):
    """The merge loop that recomputed every pair's weight per merge.
    Returns the clusters and whether the cap had to be relaxed."""
    cores = spec.core_names
    n = len(cores)
    max_size = max(1, math.ceil(balance_slack * n / num_switches))
    clusters = [[c] for c in cores]

    def discount(x, y):
        if positions is None or distance_weight <= 0:
            return 1.0
        (ax, ay), (bx, by) = positions[x], positions[y]
        return 1.0 / (1.0 + distance_weight * (abs(ax - bx) + abs(ay - by)))

    pair_w = {
        (x, y): spec.bandwidth_between(x, y) * discount(x, y)
        for x in cores for y in cores
    }

    def weight(a, b):
        return sum(pair_w[x, y] for x in a for y in b)

    relaxed = False
    while len(clusters) > num_switches:
        best = (-1.0, -1, -1)
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                if len(clusters[i]) + len(clusters[j]) > max_size:
                    continue
                w = weight(clusters[i], clusters[j])
                if w > best[0]:
                    best = (w, i, j)
        if best[1] < 0:
            max_size += 1
            relaxed = True
            continue
        __, i, j = best
        clusters[i] = sorted(clusters[i] + clusters[j])
        del clusters[j]
    return [sorted(c) for c in clusters], relaxed


@st.composite
def _mapping_cases(draw):
    """Small specs whose bandwidths sum differently in different orders
    (0.1 + 0.2 != 0.3), so a changed summation order flips ties."""
    n = draw(st.integers(2, 10))
    cores = [f"c{i}" for i in range(n)]
    flows = draw(st.lists(
        st.tuples(st.sampled_from(cores), st.sampled_from(cores),
                  st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.0, 3.0])
                  ).filter(lambda f: f[0] != f[1]),
        max_size=30))
    spec = CommunicationSpec(
        [CoreSpec(c) for c in cores], [FlowSpec(*f) for f in flows])
    positions = None
    if draw(st.booleans()):
        coord = st.sampled_from([0.0, 1.0, 1.2, 2.4])
        positions = {c: (draw(coord), draw(coord)) for c in cores}
    k = draw(st.integers(1, n))
    slack = draw(st.sampled_from([1.0, 1.2, 1.5, 3.0]))
    return spec, k, slack, positions


class TestIncrementalMerging:
    @given(case=_mapping_cases())
    @settings(max_examples=400, deadline=None)
    def test_matches_full_rescan(self, case):
        spec, k, slack, positions = case
        expected, _ = _map_cores_rescan(spec, k, slack, positions)
        mapping = map_cores(spec, k, balance_slack=slack, positions=positions)
        assert mapping.clusters == expected

    @pytest.mark.parametrize("pair_weights", [(10.0, 9.0, 8.0),
                                              (8.0, 10.0, 9.0)])
    def test_merged_weights_keep_summation_order(self, pair_weights):
        # Pairs a, b and c merge first: in the order a, b, c (the merged
        # cluster's partners sit at lower indices) or b, c, a (higher).
        # Then A-B and A-C both weigh 1.4, but summed in (i, j) order
        # A-B is 1.4000000000000001 and A-C 1.4000000000000004, so A-C
        # wins; summed in (j, i) order it is the other way round.
        a, b, c = pair_weights
        cores = ["a1", "a2", "b1", "b2", "c1", "c2"]
        flows = [FlowSpec("a1", "a2", a), FlowSpec("b1", "b2", b),
                 FlowSpec("c1", "c2", c),
                 FlowSpec("a1", "b1", 0.1), FlowSpec("a1", "b2", 0.1),
                 FlowSpec("a2", "b1", 1.1), FlowSpec("a2", "b2", 0.1),
                 FlowSpec("a1", "c1", 0.1), FlowSpec("a1", "c2", 1.1),
                 FlowSpec("a2", "c1", 0.1), FlowSpec("a2", "c2", 0.1)]
        spec = CommunicationSpec([CoreSpec(x) for x in cores], flows)
        expected, _ = _map_cores_rescan(spec, 2)
        assert expected == [["a1", "a2", "c1", "c2"], ["b1", "b2"]]
        assert map_cores(spec, 2).clusters == expected

    def test_cap_relaxation_branch(self):
        # Six cores in three tight pairs merge into three clusters of
        # two; under a cap of three no two of them fit together, so
        # reaching two switches needs the cap relaxed.
        cores = [f"c{i}" for i in range(6)]
        flows = [FlowSpec("c0", "c1", 3.0), FlowSpec("c2", "c3", 3.0),
                 FlowSpec("c4", "c5", 3.0), FlowSpec("c1", "c2", 0.1),
                 FlowSpec("c3", "c4", 0.2), FlowSpec("c0", "c5", 0.3)]
        spec = CommunicationSpec([CoreSpec(c) for c in cores], flows)
        expected, relaxed = _map_cores_rescan(spec, 2, balance_slack=1.0)
        assert relaxed
        assert map_cores(spec, 2, balance_slack=1.0).clusters == expected


# ----------------------------------------------------------------------
# Flows-only mesh-baseline routing
# ----------------------------------------------------------------------
class TestMeshBaselineRouting:
    @given(flows=_flows.filter(bool))
    @settings(max_examples=60, deadline=None)
    def test_matches_full_xy_table(self, flows):
        spec = CommunicationSpec(
            [CoreSpec(c) for c in CORES],
            [FlowSpec(s, d, bw) for s, d, bw in flows],
        )
        design = mesh_baseline(spec)
        # The table it replaced: XY routes for every core pair, then the
        # flows' routes copied out in first-seen flow order.
        full = xy_routing(design.topology)
        expected = []
        for f in spec.flows:
            route = full.route(f.source, f.destination)
            if route not in expected:
                expected.append(route)
        assert list(design.routing_table) == expected
