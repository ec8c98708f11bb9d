"""Tests for the topology graph model."""

import networkx as nx
import pytest

from repro.topology.graph import LinkAttrs, NodeKind, Route, RoutingTable, Topology


@pytest.fixture
def small():
    """Two switches, two cores, fully routed."""
    t = Topology("small")
    t.add_switch("s0")
    t.add_switch("s1")
    t.add_core("c0")
    t.add_core("c1")
    t.add_link("c0", "s0")
    t.add_link("c1", "s1")
    t.add_link("s0", "s1", length_mm=2.0, pipeline_stages=1)
    return t


class TestConstruction:
    def test_node_kinds(self, small):
        assert small.kind("s0") is NodeKind.SWITCH
        assert small.kind("c0") is NodeKind.CORE
        assert set(small.switches) == {"s0", "s1"}
        assert set(small.cores) == {"c0", "c1"}

    def test_duplicate_node_rejected(self, small):
        with pytest.raises(ValueError):
            small.add_switch("s0")
        with pytest.raises(ValueError):
            small.add_core("s0")

    def test_unknown_node_in_link(self, small):
        with pytest.raises(KeyError):
            small.add_link("s0", "ghost")

    def test_self_link_rejected(self, small):
        with pytest.raises(ValueError):
            small.add_link("s0", "s0")

    def test_core_to_core_link_rejected(self, small):
        with pytest.raises(ValueError):
            small.add_link("c0", "c1")

    def test_duplicate_link_rejected(self, small):
        with pytest.raises(ValueError):
            small.add_link("s0", "s1")

    def test_bidirectional_by_default(self, small):
        assert small.has_link("s0", "s1")
        assert small.has_link("s1", "s0")

    def test_unidirectional_option(self):
        t = Topology()
        t.add_switch("a")
        t.add_switch("b")
        t.add_link("a", "b", bidirectional=False)
        assert t.has_link("a", "b")
        assert not t.has_link("b", "a")

    def test_flit_width_validation(self):
        with pytest.raises(ValueError):
            Topology(flit_width=0)


class TestLinkAttrs:
    def test_delay_cycles(self):
        assert LinkAttrs(pipeline_stages=0).delay_cycles == 1
        assert LinkAttrs(pipeline_stages=3).delay_cycles == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkAttrs(length_mm=-1)
        with pytest.raises(ValueError):
            LinkAttrs(pipeline_stages=-1)
        with pytest.raises(ValueError):
            LinkAttrs(width_bits=0)

    def test_link_width_default_and_override(self, small):
        assert small.link_width("s0", "s1") == 32
        small.add_link("c0", "s1", width_bits=8)
        assert small.link_width("c0", "s1") == 8


class TestQueries:
    def test_radix_counts_cores(self, small):
        assert small.radix("s0") == (2, 2)  # c0 + s1, both directions

    def test_radix_on_core_rejected(self, small):
        with pytest.raises(ValueError):
            small.radix("c0")

    def test_attached_switches(self, small):
        assert small.attached_switches("c0") == ["s0"]

    def test_attached_switches_on_switch_rejected(self, small):
        with pytest.raises(ValueError):
            small.attached_switches("s0")

    def test_connectivity(self, small):
        assert small.is_connected()

    def test_disconnected_detected(self):
        t = Topology()
        t.add_switch("s0")
        t.add_switch("s1")
        t.add_core("c0")
        t.add_core("c1")
        t.add_link("c0", "s0")
        t.add_link("c1", "s1")
        assert not t.is_connected()

    def test_validate_passes_on_good_topology(self, small):
        small.validate()

    def test_validate_catches_unconnected_core(self):
        t = Topology()
        t.add_switch("s0")
        t.add_core("c0")
        t.add_core("lonely")
        t.add_link("c0", "s0")
        with pytest.raises(ValueError, match="lonely"):
            t.validate()

    def test_switch_neighbors_strip_cores(self, small):
        fabric = small.switch_neighbors()
        assert set(fabric) == {"s0", "s1"}
        # Oracle: the undirected graph of the switch-to-switch links.
        switches = set(small.switches)
        oracle = nx.Graph()
        oracle.add_nodes_from(small.switches)
        oracle.add_edges_from(
            (a, b) for a, b in small.links if a in switches and b in switches
        )
        assert fabric == {s: sorted(oracle.neighbors(s)) for s in oracle}

    def test_repr(self, small):
        text = repr(small)
        assert "small" in text and "switches=2" in text


class TestRoute:
    def test_route_properties(self):
        r = Route(("c0", "s0", "s1", "c1"))
        assert r.source == "c0"
        assert r.destination == "c1"
        assert r.hops == 3
        assert r.num_switches == 2
        assert r.switch_hops == 1
        assert r.links() == [("c0", "s0"), ("s0", "s1"), ("s1", "c1")]

    def test_degenerate_route_rejected(self):
        with pytest.raises(ValueError):
            Route(("c0",))

    def test_route_is_slotted_and_survives_pickle(self):
        """A table keeps one Route per computed pair: no instance dict,
        not even after a pickle round trip (a checkpoint)."""
        import pickle

        r = Route(("c0", "s0", "c1"))
        copy = pickle.loads(pickle.dumps(r))
        assert copy == r
        for route in (r, copy):
            assert not hasattr(route, "__dict__")


class TestRoutingTable:
    def test_set_and_get(self, small):
        table = RoutingTable(small)
        table.set_route(Route(("c0", "s0", "s1", "c1")))
        assert table.has_route("c0", "c1")
        assert table.route("c0", "c1").hops == 3
        assert len(table) == 1

    def test_missing_route(self, small):
        table = RoutingTable(small)
        with pytest.raises(KeyError):
            table.route("c0", "c1")

    def test_route_must_use_existing_links(self, small):
        table = RoutingTable(small)
        with pytest.raises(ValueError):
            table.set_route(Route(("c0", "s1", "c1")))  # no c0->s1 link

    def test_route_endpoints_must_be_cores(self, small):
        table = RoutingTable(small)
        with pytest.raises(ValueError):
            table.set_route(Route(("s0", "s1", "c1")))

    def test_route_transit_must_be_switches(self, small):
        small.add_link("c1", "s0")
        table = RoutingTable(small)
        with pytest.raises(ValueError):
            table.set_route(Route(("c0", "s0", "c1", "s1", "c1")))

    def test_link_loads_unweighted(self, small):
        table = RoutingTable(small)
        table.set_route(Route(("c0", "s0", "s1", "c1")))
        table.set_route(Route(("c1", "s1", "s0", "c0")))
        loads = table.link_loads()
        assert loads[("s0", "s1")] == 1.0
        assert loads[("s1", "s0")] == 1.0

    def test_link_loads_weighted(self, small):
        table = RoutingTable(small)
        table.set_route(Route(("c0", "s0", "s1", "c1")))
        loads = table.link_loads({("c0", "c1"): 100.0})
        assert loads[("s0", "s1")] == 100.0
