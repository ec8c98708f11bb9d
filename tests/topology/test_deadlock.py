"""Tests for deadlock analysis (routing and message-dependent)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.topology import (
    bone_style,
    channel_dependency_graph,
    check_message_dependent_deadlock,
    check_routing_deadlock,
    fat_tree,
    fat_tree_routing,
    mesh,
    minimum_vcs_required,
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
from repro.topology.graph import Route, RoutingTable, Topology
from repro.topology.routing import dateline_vc_assignment


class TestKnownDeadlockFreeSchemes:
    """Every scheme the library labels deadlock-free must pass the
    Dally-Seitz check — the paper's synthesis-time requirement."""

    def test_xy_on_mesh(self):
        m = mesh(4, 4)
        assert check_routing_deadlock(m, xy_routing(m))

    def test_yx_on_mesh(self):
        m = mesh(4, 4)
        assert check_routing_deadlock(m, yx_routing(m))

    @pytest.mark.parametrize(
        "model", ["west-first", "north-last", "negative-first", "odd-even"]
    )
    def test_turn_models_on_mesh(self, model):
        m = mesh(4, 4)
        assert check_routing_deadlock(m, turn_model_routing(m, model))

    def test_up_down_on_irregular(self):
        b = bone_style()
        assert check_routing_deadlock(b, up_down_routing(b))

    def test_fat_tree_lca(self):
        ft = fat_tree(2, 3)
        assert check_routing_deadlock(ft, fat_tree_routing(ft))

    @pytest.mark.parametrize("n", [8, 12, 16, 20])
    def test_spidergon_with_dateline(self, n):
        s = spidergon(n)
        table = spidergon_routing(s)
        vca = dateline_vc_assignment(s, table)
        assert check_routing_deadlock(s, table, vca)

    @pytest.mark.parametrize("w,h", [(3, 3), (4, 4), (5, 4)])
    def test_torus_with_dateline(self, w, h):
        t = torus(w, h)
        table = torus_xy_routing(t, w, h)
        vca = dateline_vc_assignment(t, table)
        assert check_routing_deadlock(t, table, vca)


class TestKnownDeadlockProneSchemes:
    def test_minimal_ring_routing_deadlocks_without_vcs(self):
        r = ring(8)
        table = shortest_path_routing(r)
        report = check_routing_deadlock(r, table)
        assert not report.is_deadlock_free
        assert report.cycle  # witness returned

    def test_torus_wraps_deadlock_without_vcs(self):
        t = torus(4, 4)
        table = torus_xy_routing(t, 4, 4)
        assert not check_routing_deadlock(t, table)

    def test_minimum_vcs(self):
        r = ring(8)
        table = shortest_path_routing(r)
        vca = dateline_vc_assignment(r, table)
        assert minimum_vcs_required(r, table, [None, vca]) == 2

    def test_minimum_vcs_none_when_all_fail(self):
        r = ring(8)
        table = shortest_path_routing(r)
        assert minimum_vcs_required(r, table, [None]) is None

    def test_mesh_needs_single_vc(self):
        m = mesh(3, 3)
        table = xy_routing(m)
        assert minimum_vcs_required(m, table, [None]) == 1


class TestCDGStructure:
    def test_cdg_nodes_are_channels(self):
        m = mesh(2, 2)
        table = xy_routing(m)
        cdg = channel_dependency_graph(m, table)
        for src, dst, vc in cdg:
            assert m.has_link(src, dst)
            assert vc == 0

    def test_report_statistics(self):
        m = mesh(3, 3)
        report = check_routing_deadlock(m, xy_routing(m))
        assert report.num_channels > 0
        assert report.num_dependencies > 0
        assert bool(report)

    def test_vc_assignment_length_mismatch_rejected(self):
        m = mesh(2, 2)
        table = xy_routing(m)
        bad = {("c_0_0", "c_1_1"): [0]}  # wrong length
        with pytest.raises(ValueError):
            channel_dependency_graph(m, table, bad)


class TestMessageDependentDeadlock:
    def _tiny(self):
        t = Topology()
        t.add_switch("s0")
        t.add_switch("s1")
        t.add_core("m")   # master
        t.add_core("sl")  # slave
        t.add_link("m", "s0")
        t.add_link("sl", "s1")
        t.add_link("s0", "s1")
        return t

    def test_shared_channels_flagged(self):
        t = self._tiny()
        req = RoutingTable(t)
        req.set_route(Route(("m", "s0", "s1", "sl")))
        resp = RoutingTable(t)
        resp.set_route(Route(("sl", "s1", "s0", "m")))
        # Responses reuse the request links in the opposite direction, so
        # channel sets are disjoint -> safe.
        report = check_message_dependent_deadlock(t, req, resp)
        assert report.is_safe

    def test_same_direction_sharing_unsafe(self):
        t = self._tiny()
        t.add_link("sl", "s0")
        req = RoutingTable(t)
        req.set_route(Route(("m", "s0", "s1", "sl")))
        resp = RoutingTable(t)
        resp.set_route(Route(("sl", "s0", "s1", "sl")))  # shares s0->s1
        report = check_message_dependent_deadlock(t, req, resp)
        assert not report.is_safe
        assert ("s0", "s1", 0) in report.shared_channels

    def test_vc_separation_makes_sharing_safe(self):
        t = self._tiny()
        t.add_link("sl", "s0")
        req = RoutingTable(t)
        req.set_route(Route(("m", "s0", "s1", "sl")))
        resp = RoutingTable(t)
        resp.set_route(Route(("sl", "s0", "s1", "sl")))
        resp_vcs = {("sl", "sl"): [1, 1, 1]}
        report = check_message_dependent_deadlock(
            t, req, resp, response_vcs=resp_vcs
        )
        assert report.is_safe

    def test_consumption_guarantee_short_circuits(self):
        t = self._tiny()
        req = RoutingTable(t)
        resp = RoutingTable(t)
        report = check_message_dependent_deadlock(
            t, req, resp, sink_guarantees_consumption=True
        )
        assert report.is_safe
        assert "consumption" in report.reason


class TestRandomizedMeshProperty:
    @given(w=st.integers(2, 5), h=st.integers(2, 5))
    @settings(max_examples=10, deadline=None)
    def test_xy_always_deadlock_free(self, w, h):
        if w * h < 2:
            return
        m = mesh(w, h)
        assert check_routing_deadlock(m, xy_routing(m))
