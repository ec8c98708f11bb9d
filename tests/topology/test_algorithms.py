"""Oracle tests: the dict-based graph searches against networkx.

``repro.topology.algorithms`` replaces the networkx calls the stack
used to make; every answer must be the one networkx gives on the same
graph (nodes added in the same order, edges in the same order), ties
and cycle witnesses included.  The second half compares whole routing
tables and deadlock reports on real fabrics with the networkx code the
stack used to run, kept here as the reference.
"""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.topology import (
    bone_style, fat_tree, mesh, random_irregular, ring, spidergon, torus,
)
from repro.topology.algorithms import (
    connected_components, dijkstra, find_cycle, reachable,
)
from repro.topology.deadlock import (
    channel_dependency_graph, check_routing_deadlock,
)
from repro.topology.graph import NodeKind, Route, Topology
from repro.topology.routing import shortest_path_routing

_WEIGHTS = [0.0, 0.5, 1.0, 1.0, 1.0, 2.0, None]  # None hides the edge


@st.composite
def _digraphs(draw):
    """A few nodes in a random insertion order and random weighted
    edges, self-loops included; many equal weights, so many ties."""
    n = draw(st.integers(1, 9))
    nodes = draw(st.permutations([f"n{i}" for i in range(n)]))
    edges = draw(st.lists(
        st.tuples(st.sampled_from(nodes), st.sampled_from(nodes),
                  st.sampled_from(_WEIGHTS)),
        max_size=30,
    ))
    succ = {v: {} for v in nodes}
    graph = nx.DiGraph()
    graph.add_nodes_from(nodes)
    for u, v, w in edges:
        if v not in succ[u]:
            succ[u][v] = w
            graph.add_edge(u, v, w=w)
    return nodes, succ, graph


def _nx_cycle(graph):
    try:
        return [edge[0] for edge in nx.find_cycle(graph)]
    except nx.NetworkXNoCycle:
        return None


class TestAgainstNetworkx:
    @given(case=_digraphs(), data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_dijkstra_path_and_cost(self, case, data):
        nodes, succ, graph = case
        source = data.draw(st.sampled_from(nodes))
        target = data.draw(st.sampled_from(nodes))
        try:
            expected = nx.single_source_dijkstra(
                graph, source, target, weight=lambda u, v, e: e["w"])
        except nx.NetworkXNoPath:
            expected = None
        found = dijkstra(succ, source, target, lambda u, v, w: w)
        assert found == expected
        if found is not None:
            assert repr(found[0]) == repr(expected[0])

    @given(case=_digraphs())
    @settings(max_examples=400, deadline=None)
    def test_find_cycle_witness(self, case):
        __, succ, graph = case
        assert find_cycle(succ) == _nx_cycle(graph)

    @given(case=_digraphs())
    @settings(max_examples=200, deadline=None)
    def test_reachability(self, case):
        nodes, succ, graph = case
        for source in nodes:
            found = reachable(succ, source)
            assert found == nx.descendants(graph, source) | {source}
            for target in nodes:
                assert (target in found) == nx.has_path(graph, source, target)

    @given(case=_digraphs())
    @settings(max_examples=200, deadline=None)
    def test_connected_components(self, case):
        nodes, succ, graph = case
        neighbors = {v: set() for v in nodes}
        for u, out in succ.items():
            for v in out:
                neighbors[u].add(v)
                neighbors[v].add(u)
        assert connected_components(neighbors) == \
            list(nx.connected_components(graph.to_undirected()))

    def test_dijkstra_tie_keeps_first_cheapest_predecessor(self):
        # a->b->d and a->c->d both cost 2; b was pushed first.
        succ = {"a": {"b": 1, "c": 1}, "b": {"d": 1}, "c": {"d": 1}, "d": {}}
        assert dijkstra(succ, "a", "d", lambda u, v, w: w) == (2, ["a", "b", "d"])


# ----------------------------------------------------------------------
# Random channel-dependency graphs
# ----------------------------------------------------------------------
_walk = st.lists(st.sampled_from("abcde"), min_size=2, max_size=7).filter(
    lambda w: all(x != y for x, y in zip(w, w[1:]))
)


def _nx_cdg(table, vcs):
    """The CDG as the stack used to build it, on networkx."""
    cdg = nx.DiGraph()
    for route in table:
        links = route.links()
        assigned = (vcs or {}).get((route.source, route.destination),
                                   [0] * len(links))
        channels = [(s, d, vc) for (s, d), vc in zip(links, assigned)]
        for ch in channels:
            cdg.add_node(ch)
        for held, wanted in zip(channels, channels[1:]):
            cdg.add_edge(held, wanted)
    return cdg


class TestRandomDependencyGraphs:
    @given(walks=st.lists(_walk, min_size=1, max_size=12), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_cdg_and_witness_match(self, walks, data):
        table = [Route(tuple(w)) for w in walks]
        vcs = {}
        for route in table:
            if data.draw(st.booleans()):
                vcs[(route.source, route.destination)] = data.draw(st.lists(
                    st.integers(0, 1), min_size=route.hops,
                    max_size=route.hops))
        # Routes sharing end points must agree on their length to share
        # one assignment; drop the pairs that do not.
        for route in table:
            pair = (route.source, route.destination)
            if pair in vcs and len(vcs[pair]) != route.hops:
                del vcs[pair]
        cdg = channel_dependency_graph(None, table, vcs)
        oracle = _nx_cdg(table, vcs)
        assert list(cdg) == list(oracle.nodes)
        assert [(a, b) for a in cdg for b in cdg[a]] == list(oracle.edges)
        report = check_routing_deadlock(None, table, vcs)
        expected = _nx_cycle(oracle)
        assert report.cycle == (expected or [])
        assert report.is_deadlock_free == (expected is None)
        assert report.num_channels == oracle.number_of_nodes()
        assert report.num_dependencies == oracle.number_of_edges()


# ----------------------------------------------------------------------
# Routing tables and deadlock witnesses on real fabrics
# ----------------------------------------------------------------------
def _nx_graph(topo: Topology) -> nx.DiGraph:
    """The topology as the networkx graph it used to be stored in."""
    graph = nx.DiGraph()
    for node in topo.nodes:
        graph.add_node(node, kind=topo.kind(node))
    for src, dst in topo.links:
        graph.add_edge(src, dst, attrs=topo.link_attrs(src, dst))
    return graph


def _nx_shortest_path(graph, weight, src, dst):
    """``routing._shortest_path`` as it ran on networkx."""
    def w(u, v, d):
        base = d["attrs"].length_mm if weight == "length" else 1.0
        if weight == "length":
            base = base if base > 0 else 1e-3
        if graph.nodes[v]["kind"] is NodeKind.CORE:
            return None
        return base

    attached = set(graph.successors(dst)) | set(graph.predecessors(dst))
    best, best_cost = None, float("inf")
    for d_sw in sorted(attached):
        try:
            cost, path = nx.single_source_dijkstra(graph, src, d_sw, weight=w)
        except nx.NetworkXNoPath:
            continue
        tail = graph.edges[d_sw, dst]["attrs"].length_mm \
            if weight == "length" else 1.0
        if cost + tail < best_cost:
            best_cost, best = cost + tail, path + [dst]
    return best


FABRICS = {
    "mesh4": lambda: mesh(4, 4),
    "torus4": lambda: torus(4, 4),
    "ring6": lambda: ring(6),
    "spidergon8": lambda: spidergon(8),
    "fat_tree": lambda: fat_tree(2, 3),
    "bone_style": bone_style,
    "bone_10x8": lambda: bone_style(10, 8),
    "irregular_a": lambda: random_irregular(7, 10, extra_links=4, seed=3),
    "irregular_b": lambda: random_irregular(9, 12, extra_links=6, seed=11),
}


@pytest.mark.parametrize("weight", [None, "length"])
@pytest.mark.parametrize("fabric", sorted(FABRICS))
def test_shortest_path_routes_and_witness(fabric, weight):
    topo = FABRICS[fabric]()
    graph = _nx_graph(topo)
    table = shortest_path_routing(topo, weight)
    for route in table:
        assert list(route.path) == _nx_shortest_path(
            graph, weight, route.source, route.destination)
    report = check_routing_deadlock(topo, table)
    expected = _nx_cycle(_nx_cdg(table, None))
    assert report.cycle == (expected or [])


@pytest.mark.parametrize("fabric", sorted(FABRICS))
def test_is_connected_matches_descendants(fabric):
    topo = FABRICS[fabric]()
    # Cut one direction of a few links: some fabrics stay connected,
    # some lose a core pair.
    for cut in range(4):
        graph = _nx_graph(topo)
        cores = topo.cores
        expected = all(
            dst in nx.descendants(graph, src)
            for src in cores for dst in cores if dst != src
        )
        assert topo.is_connected() == expected
        trimmed = Topology(topo.name, topo.flit_width)
        for node in topo.nodes:
            attrs = {k: v for k, v in topo.node_attrs(node).items()
                     if k != "kind"}
            if topo.kind(node) is NodeKind.CORE:
                trimmed.add_core(node, **attrs)
            else:
                trimmed.add_switch(node, **attrs)
        for i, (src, dst) in enumerate(topo.links):
            if i % 7 != cut:
                trimmed.add_link(src, dst, bidirectional=False)
        topo = trimmed
