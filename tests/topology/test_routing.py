"""Tests for the routing algorithms."""

import pytest

from repro.topology import (
    RoutingTable,
    bone_style,
    fat_tree,
    fat_tree_routing,
    mesh,
    odd_even_routing,
    ring,
    shortest_path_routing,
    spidergon,
    spidergon_routing,
    torus,
    torus_xy_routing,
    turn_model_routing,
    up_down_routing,
    xy_routing,
    yx_routing,
)
from repro.topology.routing import dateline_vc_assignment


def assert_complete(table: RoutingTable, topo) -> None:
    cores = topo.cores
    assert len(table) == len(cores) * (len(cores) - 1)


class TestXYRouting:
    def test_complete_and_valid(self):
        m = mesh(4, 4)
        table = xy_routing(m)
        assert_complete(table, m)

    def test_x_before_y(self):
        m = mesh(4, 4)
        table = xy_routing(m)
        route = table.route("c_0_0", "c_2_2")
        assert route.path == (
            "c_0_0", "s_0_0", "s_1_0", "s_2_0", "s_2_1", "s_2_2", "c_2_2"
        )

    def test_yx_is_y_before_x(self):
        m = mesh(4, 4)
        route = yx_routing(m).route("c_0_0", "c_2_2")
        assert route.path == (
            "c_0_0", "s_0_0", "s_0_1", "s_0_2", "s_1_2", "s_2_2", "c_2_2"
        )

    def test_routes_are_minimal(self):
        m = mesh(5, 5)
        table = xy_routing(m)
        route = table.route("c_1_1", "c_4_3")
        assert route.switch_hops == (4 - 1) + (3 - 1)

    def test_same_switch_pair(self):
        m = mesh(2, 2, cores_per_switch=2)
        table = xy_routing(m)
        route = table.route("c_0_0", "c_0_0_1")
        assert route.switch_hops == 0


class TestTurnModels:
    @pytest.mark.parametrize(
        "model", ["west-first", "north-last", "negative-first", "odd-even"]
    )
    def test_complete_and_minimal_capable(self, model):
        m = mesh(4, 4)
        table = turn_model_routing(m, model)
        assert_complete(table, m)
        # Turn-model routes on a mesh are minimal.
        for route in table:
            src = m.node_attrs(route.path[1])
            dst = m.node_attrs(route.path[-2])
            manhattan = abs(src["x"] - dst["x"]) + abs(src["y"] - dst["y"])
            assert route.switch_hops == manhattan

    def test_west_first_goes_west_first(self):
        m = mesh(4, 4)
        table = turn_model_routing(m, "west-first")
        route = table.route("c_3_0", "c_0_2")
        xs = [m.node_attrs(sw)["x"] for sw in route.path[1:-1]]
        # All west movement happens before any non-west movement ends.
        assert xs == sorted(xs, reverse=True)

    def test_unknown_model_rejected(self):
        m = mesh(3, 3)
        with pytest.raises(ValueError, match="unknown turn model"):
            turn_model_routing(m, "banana")

    def test_odd_even_alias(self):
        m = mesh(3, 3)
        assert len(odd_even_routing(m)) == len(turn_model_routing(m, "odd-even"))


class TestShortestPath:
    def test_hop_count_weight(self):
        m = mesh(3, 3)
        table = shortest_path_routing(m)
        assert_complete(table, m)

    def test_length_weight_prefers_short_wires(self):
        from repro.topology.graph import Topology

        t = Topology()
        for s in ("s0", "s1", "s2"):
            t.add_switch(s)
        t.add_core("a")
        t.add_core("b")
        t.add_link("a", "s0")
        t.add_link("b", "s2")
        t.add_link("s0", "s2", length_mm=10.0)     # direct but long
        t.add_link("s0", "s1", length_mm=1.0)
        t.add_link("s1", "s2", length_mm=1.0)      # detour but short
        by_hops = shortest_path_routing(t).route("a", "b")
        by_length = shortest_path_routing(t, weight="length").route("a", "b")
        assert by_hops.switch_hops == 1
        assert by_length.switch_hops == 2

    @pytest.mark.parametrize("weight", [None, "length"])
    def test_send_only_attachment_is_skipped(self, weight):
        """A switch the destination only sends to cannot deliver to it:
        both weights route around it instead of reading its missing
        ``switch -> core`` link."""
        from repro.topology.graph import Topology

        t = Topology()
        t.add_switch("s0")
        t.add_switch("s1")
        t.add_core("a")
        t.add_core("b")
        t.add_link("a", "s0")
        t.add_link("b", "s1")
        t.add_link("s0", "s1")
        t.add_link("b", "s0", bidirectional=False)
        route = shortest_path_routing(t, weight=weight).route("a", "b")
        assert route.path == ("a", "s0", "s1", "b")

    def test_multi_attached_core(self):
        b = bone_style()
        table = shortest_path_routing(b)
        assert_complete(table, b)


class TestUpDown:
    def test_complete_on_irregular(self):
        b = bone_style()
        table = up_down_routing(b)
        assert_complete(table, b)

    def test_no_down_then_up(self):
        """Every route must be a rising phase followed by a falling one."""
        b = bone_style()
        table = up_down_routing(b)
        # Reconstruct levels the same way the router does.
        import networkx as nx

        switches = set(b.switches)
        fabric = nx.Graph()
        fabric.add_nodes_from(b.switches)
        fabric.add_edges_from(
            (a, c) for a, c in b.links if a in switches and c in switches
        )
        root = max(b.switches, key=lambda s: (fabric.degree(s), s))
        level = nx.single_source_shortest_path_length(fabric, root)

        def is_up(a, c):
            la, lb = level[a], level[c]
            return lb < la if la != lb else c < a

        for route in table:
            switches = route.path[1:-1]
            phases = [is_up(a, c) for a, c in zip(switches, switches[1:])]
            # Once descending (False), never ascend (True) again.
            seen_down = False
            for up in phases:
                if up:
                    assert not seen_down, f"down-then-up in {route.path}"
                else:
                    seen_down = True

    def test_explicit_root(self):
        b = bone_style()
        table = up_down_routing(b, root="hub")
        assert_complete(table, b)

    def test_bad_root_rejected(self):
        b = bone_style()
        with pytest.raises(KeyError):
            up_down_routing(b, root="risc_0")


class TestFatTreeRouting:
    def test_complete(self):
        ft = fat_tree(2, 3)
        assert_complete(fat_tree_routing(ft), ft)

    def test_same_switch_shortcut(self):
        ft = fat_tree(2, 2)
        table = fat_tree_routing(ft)
        route = table.route("c_00", "c_01")  # same leaf switch
        assert route.switch_hops == 0

    def test_lca_height(self):
        ft = fat_tree(2, 3)
        table = fat_tree_routing(ft)
        # c_000 and c_100 differ in digit 0 -> LCA at level 1 -> 2+1 switches.
        route = table.route("c_000", "c_100")
        assert len(route.path) - 2 == 3

    def test_up_down_shape(self):
        ft = fat_tree(2, 3)
        table = fat_tree_routing(ft)
        for route in table:
            levels = [ft.node_attrs(sw)["level"] for sw in route.path[1:-1]]
            peak = levels.index(max(levels))
            assert levels[: peak + 1] == sorted(levels[: peak + 1])
            assert levels[peak:] == sorted(levels[peak:], reverse=True)


class TestSpidergonRouting:
    def test_complete(self):
        s = spidergon(12)
        assert_complete(spidergon_routing(s), s)

    def test_across_used_for_far_destinations(self):
        s = spidergon(16)
        table = spidergon_routing(s)
        route = table.route("c_0", "c_8")  # antipodal: across is 1 hop
        assert route.switch_hops == 1
        assert route.path[1:-1] == ("s_0", "s_8")

    def test_ring_used_for_near_destinations(self):
        s = spidergon(16)
        table = spidergon_routing(s)
        route = table.route("c_0", "c_2")
        assert route.switch_hops == 2  # two clockwise ring hops

    def test_beats_plain_ring_on_average(self):
        import statistics

        n = 16
        r, s = ring(n), spidergon(n)
        ring_table = shortest_path_routing(r)
        spider_table = spidergon_routing(s)
        ring_avg = statistics.mean(rt.switch_hops for rt in ring_table)
        spider_avg = statistics.mean(rt.switch_hops for rt in spider_table)
        assert spider_avg < ring_avg


class TestTorusRouting:
    def test_wrap_links_shorten_routes(self):
        t = torus(5, 5)
        table = torus_xy_routing(t, 5, 5)
        route = table.route("c_0_0", "c_4_0")
        assert route.switch_hops == 1  # wraps instead of 4 hops

    def test_complete(self):
        t = torus(4, 4)
        assert_complete(torus_xy_routing(t, 4, 4), t)


class TestDatelineAssignment:
    def test_mesh_routes_stay_on_vc0(self):
        m = mesh(3, 3)
        table = xy_routing(m)
        vca = dateline_vc_assignment(m, table)
        assert all(all(vc == 0 for vc in vcs) for vcs in vca.values())

    def test_torus_wrap_hops_switch_vc(self):
        t = torus(4, 4)
        table = torus_xy_routing(t, 4, 4)
        vca = dateline_vc_assignment(t, table)
        vcs = vca[("c_3_0", "c_0_0")]  # wraps in x
        assert 1 in vcs

    def test_assignment_lengths_match_routes(self):
        t = torus(4, 4)
        table = torus_xy_routing(t, 4, 4)
        vca = dateline_vc_assignment(t, table)
        for route in table:
            assert len(vca[(route.source, route.destination)]) == route.hops
