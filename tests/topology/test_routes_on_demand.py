"""Rule-routed tables compute each route on first lookup: same routes,
same order, same errors as building every route up front.

``_eager_route_all`` is the table builder the on-demand tables replaced,
kept here as the reference: it computes and sets every route at once.
``PINNED`` holds the sha256 prefix of each table's serialized form as the
eager builder wrote it, so the rules themselves are pinned too.
"""

import hashlib
import json
import pickle
import random
from functools import partial
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import pytest

from repro.topology import (
    RoutingTable,
    bone_style,
    fat_tree,
    fat_tree_routing,
    mesh,
    route_all,
    spidergon,
    spidergon_routing,
    torus,
    torus_xy_routing,
    turn_model_routing,
    up_down_routing,
    xy_routing,
    yx_routing,
)
from repro.topology import routing
from repro.topology.graph import Route, Topology
from repro.topology.irregular import random_irregular
from repro.topology.routing import dateline_vc_assignment
from repro.topology.serialize import routing_table_to_dict


# ----------------------------------------------------------------------
# The reference: every route computed and set up front
# ----------------------------------------------------------------------
def _core_pairs(topo: Topology) -> Iterable[Tuple[str, str]]:
    cores = topo.cores
    for src in cores:
        for dst in cores:
            if src != dst:
                yield src, dst


def _eager_route_all(
    topo: Topology,
    switch_path_fn: Callable[[str, str], List[str]],
    pairs: Optional[Iterable[Tuple[str, str]]] = None,
) -> RoutingTable:
    table = RoutingTable(topo)
    ingress: Dict[str, List[str]] = {}  # core -> switches it injects into
    egress: Dict[str, List[str]] = {}  # core -> switches that eject to it
    for src, dst in pairs if pairs is not None else _core_pairs(topo):
        if src not in ingress:
            ingress[src] = sorted(sw for sw in topo.attached_switches(src)
                                  if topo.has_link(src, sw))
        if dst not in egress:
            egress[dst] = sorted(sw for sw in topo.attached_switches(dst)
                                 if topo.has_link(sw, dst))
        candidates = []
        for s_sw in ingress[src]:
            for d_sw in egress[dst]:
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
        switch_path = min(candidates)[3]
        table.set_route(Route(tuple([src, *switch_path, dst])))
    return table


def _eager_fat_tree(topo: Topology) -> RoutingTable:
    table = RoutingTable(topo)
    for src, dst in _core_pairs(topo):
        table.set_route(Route(tuple(routing._fat_tree_path(topo, src, dst))))
    return table


def _serialized(table: RoutingTable) -> bytes:
    return json.dumps(routing_table_to_dict(table)).encode()


def _digest(table: RoutingTable) -> str:
    return hashlib.sha256(_serialized(table)).hexdigest()[:16]


def _spidergon_indices(topo):
    return {sw: topo.node_attrs(sw)["index"] for sw in topo.switches}


# name -> (topology, on-demand table builder, eager reference builder)
CASES = {
    "xy mesh 4": (
        lambda: mesh(4, 4), xy_routing,
        lambda t: _eager_route_all(t, partial(routing._xy_switch_path, t, x_first=True)),
    ),
    "xy mesh 8": (
        lambda: mesh(8, 8), xy_routing,
        lambda t: _eager_route_all(t, partial(routing._xy_switch_path, t, x_first=True)),
    ),
    "yx mesh 4": (
        lambda: mesh(4, 4), yx_routing,
        lambda t: _eager_route_all(t, partial(routing._xy_switch_path, t, x_first=False)),
    ),
    "xy mesh 2 x2 cores": (
        lambda: mesh(2, 2, cores_per_switch=2), xy_routing,
        lambda t: _eager_route_all(t, partial(routing._xy_switch_path, t, x_first=True)),
    ),
    "torus 4": (
        lambda: torus(4, 4), lambda t: torus_xy_routing(t, 4, 4),
        lambda t: _eager_route_all(t, partial(routing._torus_switch_path, t, 4, 4)),
    ),
    "spidergon 8": (
        lambda: spidergon(8), spidergon_routing,
        lambda t: _eager_route_all(
            t, partial(routing._spidergon_switch_path, t, _spidergon_indices(t))),
    ),
    "fat tree 3": (lambda: fat_tree(2, 3), fat_tree_routing, _eager_fat_tree),
    "up*/down* irregular": (
        lambda: random_irregular(10, 14, extra_links=5, seed=5), up_down_routing,
        lambda t: _eager_route_all(t, partial(
            routing._up_down_switch_path, t, routing._up_down_levels(t, None))),
    ),
    "up*/down* dual-port cores": (
        bone_style, up_down_routing,
        lambda t: _eager_route_all(t, partial(
            routing._up_down_switch_path, t, routing._up_down_levels(t, None))),
    ),
}
for _model in ("west-first", "north-last", "negative-first", "odd-even"):
    CASES[_model] = (
        lambda: mesh(4, 4),
        partial(turn_model_routing, model=_model),
        partial(lambda t, m: _eager_route_all(t, partial(
            routing._turn_constrained_path, t,
            allowed=routing._prohibited_turns_for(m))), m=_model),
    )

#: sha256 prefixes of the eagerly built tables' serialized form.
PINNED = {
    "xy mesh 4": "4f9ef8ac43a583ca",
    "yx mesh 4": "483fd39baeacf28c",
    "xy mesh 8": "644e29cd25f142b8",
    "xy mesh 2 x2 cores": "33fb5be788ecef0c",
    "torus 4": "dbcee2e665c77a0f",
    "spidergon 8": "8dd6233a709254b0",
    "fat tree 3": "c5000b49e50355ef",
    "west-first": "4f9ef8ac43a583ca",
    "north-last": "734f04cc30cbf2a0",
    "negative-first": "b5f09afe0e40ae17",
    "odd-even": "8103a67de04225af",
    "up*/down* irregular": "0486b5615420fe01",
    "up*/down* dual-port cores": "f0cd4c4af9770fd8",
}


@pytest.mark.parametrize("name", sorted(CASES))
class TestSameRoutesSameOrder:
    def test_iteration_matches_the_eager_table(self, name):
        make_topo, on_demand, eager = CASES[name]
        topo = make_topo()
        table, reference = on_demand(topo), eager(topo)
        assert [r.path for r in table] == [r.path for r in reference]
        assert table.pairs() == reference.pairs()
        assert len(table) == len(reference)
        assert table.link_loads() == reference.link_loads()
        assert _serialized(table) == _serialized(reference)
        assert _digest(table) == PINNED[name]

    def test_lookups_first_do_not_change_the_order(self, name):
        make_topo, on_demand, eager = CASES[name]
        topo = make_topo()
        table, reference = on_demand(topo), eager(topo)
        pairs = reference.pairs()
        rng = random.Random(name)
        for src, dst in rng.sample(pairs, len(pairs) // 3):
            assert table.has_route(src, dst)
            assert table.route(src, dst) == reference.route(src, dst)
        assert _serialized(table) == _serialized(reference)

    def test_pickles_part_filled(self, name):
        make_topo, on_demand, eager = CASES[name]
        topo = make_topo()
        table = on_demand(topo)
        src, dst = table.topology.cores[0], table.topology.cores[-1]
        table.route(src, dst)
        copy = pickle.loads(pickle.dumps(table))
        assert _serialized(copy) == _serialized(eager(topo))


#: sha256 prefixes of the eagerly built dateline VC assignments.
PINNED_VCS = {"torus 4": "9043edaa6c2c9918", "spidergon 8": "2e706ac0d60745a8"}


@pytest.mark.parametrize("name", sorted(PINNED_VCS))
def test_dateline_vcs_match_the_eager_assignment(name):
    make_topo, on_demand, _ = CASES[name]
    topo = make_topo()
    table = on_demand(topo)
    vca = dateline_vc_assignment(topo, table)
    pairs = [("c_3_0", "c_0_0"), ("c_1_0", "c_2_3")] if name == "torus 4" else [
        ("c_7", "c_0"), ("c_2", "c_6")]
    for src, dst in pairs:
        vcs = vca[(src, dst)]
        assert len(vcs) == table.route(src, dst).hops
    assert vca.get(("c_0_0", "c_0_0")) is None
    copy = pickle.loads(pickle.dumps(vca))
    for assignment in (vca, copy):
        listed = json.dumps([[list(k), v] for k, v in assignment.items()])
        assert hashlib.sha256(listed.encode()).hexdigest()[:16] == PINNED_VCS[name]
        assert len(assignment) == len(table)


class TestOnDemand:
    def test_lookup_fills_only_that_route(self):
        m = mesh(8, 8)
        table = xy_routing(m)
        assert table.route("c_0_0", "c_7_7").path[-2:] == ("s_7_7", "c_7_7")
        assert table.has_route("c_1_0", "c_0_0")
        assert list(table._routes) == [("c_0_0", "c_7_7"), ("c_1_0", "c_0_0")]

    def test_unknown_pairs_have_no_route(self):
        m = mesh(3, 3)
        table = xy_routing(m)
        assert not table.has_route("c_0_0", "c_0_0")
        assert not table.has_route("c_0_0", "s_1_1")
        assert not table.has_route("ghost", "c_0_0")
        with pytest.raises(KeyError, match="no route"):
            table.route("c_0_0", "c_0_0")

    def test_pair_subset_answers_only_its_pairs(self):
        m = mesh(4, 4)
        pairs = [("c_3_3", "c_0_0"), ("c_0_1", "c_2_3"), ("c_3_3", "c_0_0")]
        rule = partial(routing._xy_switch_path, m, x_first=True)
        table = route_all(m, rule, pairs)
        reference = _eager_route_all(m, rule, pairs)
        assert not table.has_route("c_0_0", "c_3_3")
        with pytest.raises(KeyError, match="no route"):
            table.route("c_0_0", "c_3_3")
        assert table.route("c_0_1", "c_2_3") == reference.route("c_0_1", "c_2_3")
        assert table.pairs() == [("c_3_3", "c_0_0"), ("c_0_1", "c_2_3")]
        assert _serialized(table) == _serialized(reference)
        assert _digest(table) == "b63cf91f9d89c012"

    def test_set_route_after_lookups_keeps_the_eager_order(self):
        m = mesh(3, 3)
        table, reference = xy_routing(m), xy_routing(m)
        list(reference)
        detour = Route(("c_0_0", "s_0_0", "s_0_1", "s_1_1", "c_1_1"))
        table.route("c_2_2", "c_0_0")
        table.set_route(detour)
        reference.set_route(detour)
        assert _serialized(table) == _serialized(reference)
        assert table.route("c_0_0", "c_1_1") == detour

    def test_invalid_rule_path_raises_on_lookup_and_iteration(self):
        m = mesh(3, 3)
        table = route_all(m, lambda s, d: [s])
        assert table.has_route("c_0_0", "c_0_0") is False
        with pytest.raises(ValueError, match="invalid path"):
            table.route("c_0_0", "c_2_2")
        with pytest.raises(ValueError, match="invalid path"):
            list(table)

    def test_rule_using_a_missing_link_raises(self):
        m = mesh(3, 3)
        table = route_all(m, lambda s, d: [s, "s_2_2", d] if s != d else [s])
        with pytest.raises(ValueError, match="missing link"):
            table.route("c_0_0", "c_1_0")

    def test_core_without_attachments_raises_on_lookup(self):
        topo = Topology()
        topo.add_switch("s0")
        topo.add_core("a")
        topo.add_core("b")
        topo.add_link("a", "s0")
        topo.add_link("s0", "b", bidirectional=False)
        table = route_all(topo, lambda s, d: [s, d])
        assert table.route("a", "b").path == ("a", "s0", "b")
        with pytest.raises(ValueError, match="no usable attachments"):
            table.route("b", "a")
