"""NI LUTs and routing hot-swaps: what a LUT holds, and when.

A LUT entry is the route of one (source, destination) pair plus its VC
path, loaded from the simulator's routing table on first use.  A
hot-swap rewrites the LUTs to a recovery table: an unchanged route keeps
its VC path, a changed route loses it, and a destination the fault
severed leaves the LUT.
"""

from repro.arch import MessageClass, NocParameters, RetransmissionPolicy
from repro.arch.packet import reset_packet_ids
from repro.reliability.faults import FaultScenario, reconfigure_routing
from repro.resilience.checkpoint import restore_simulator, snapshot_simulator
from repro.sim import NocSimulator, SyntheticTraffic
from repro.topology.presets import standard_instance


def _neighbor_run(fill_table_first: bool = False):
    reset_packet_ids()
    inst = standard_instance("mesh", 8)
    if fill_table_first:
        list(inst.table)
    sim = NocSimulator(inst.topology, inst.table)
    traffic = SyntheticTraffic("neighbor", 0.05, 4, seed=11)
    sim.run(300, traffic, drain=True)
    return sim, traffic


def _sent_pairs(sim):
    return {
        (packet.source, packet.destination)
        for target in sim.targets.values()
        for packet, _ in target.packets_received
    }


def test_luts_hold_only_the_destinations_used():
    sim, _ = _neighbor_run()
    sent = _sent_pairs(sim)
    assert sent
    for core, ni in sim.initiators.items():
        assert set(ni.lut.destinations()) == {d for s, d in sent if s == core}
    assert len(sent) < len(sim.topology.cores)  # neighbour: one each at most


def test_torus_vcs_load_with_their_routes():
    inst, sim = _torus_sim()
    sim.run(200, SyntheticTraffic("neighbor", 0.05, 4, seed=5), drain=True)
    sent = _sent_pairs(sim)
    assert set(inst.table._routes) == sent
    assert set(inst.vc_assignment._vcs) == sent
    for src, dst in sent:
        _, vcs = sim.initiators[src].lut.lookup(dst)
        assert vcs == tuple(inst.vc_assignment[(src, dst)])


def test_luts_load_responses_to_requesters():
    reset_packet_ids()
    inst = standard_instance("mesh", 4)
    sim = NocSimulator(inst.topology, inst.table)
    sim.attach_memory("c_3_3")
    sim.inject("c_0_0", "c_3_3", 2, message_class=MessageClass.REQUEST)
    sim.run(0, drain=True)
    assert sim.initiators["c_0_0"].lut.destinations() == ["c_3_3"]
    assert sim.initiators["c_3_3"].lut.destinations() == ["c_0_0"]
    assert all(len(ni.lut) == 0 for core, ni in sim.initiators.items()
               if core not in ("c_0_0", "c_3_3"))


def test_capsule_carries_only_the_routes_used():
    sim, traffic = _neighbor_run()
    sent = _sent_pairs(sim)
    capsule = snapshot_simulator(sim, traffic)
    restored, _ = restore_simulator(capsule)
    assert set(restored.routing_table._routes) == sent
    for core, ni in restored.initiators.items():
        assert set(ni.lut.destinations()) == {d for s, d in sent if s == core}

    full_sim, full_traffic = _neighbor_run(fill_table_first=True)
    assert _sent_pairs(full_sim) == sent
    full = snapshot_simulator(full_sim, full_traffic)
    assert len(capsule) < len(full)


def _torus_sim():
    inst = standard_instance("torus", 4)
    sim = NocSimulator(inst.topology, inst.table,
                       NocParameters(num_vcs=inst.min_vcs),
                       vc_assignment=inst.vc_assignment)
    return inst, sim


def test_hot_swap_keeps_unchanged_routes_and_their_vcs():
    inst, sim = _torus_sim()
    topo = inst.topology
    cores = topo.cores
    # Some entries are used before the swap, most are not.
    sim.run(60, SyntheticTraffic("neighbor", 0.05, 4, seed=3), drain=True)
    before = {
        (src, dst): (inst.table.route(src, dst).path,
                     tuple(inst.vc_assignment[(src, dst)]))
        for src in cores for dst in cores if src != dst
    }
    scenario = FaultScenario()
    scenario.add_switch("s_1_1")
    new_table = reconfigure_routing(topo, scenario, allow_partial=True)
    # Two transfers wait for their acks: one toward the core the fault
    # severs, which the swap abandons, and one that survives.
    sim.enable_retransmission(RetransmissionPolicy())
    sim.inject("c_0_0", "c_1_1", 4)
    sim.inject("c_0_0", "c_3_3", 4)

    changed, abandoned = sim.hot_swap_routing(new_table, sim.cycle)

    assert sim.routing_table is new_table
    assert abandoned == 1
    severed = kept = rerouted = 0
    kept_with_dateline = 0
    for (src, dst), (old_path, old_vcs) in before.items():
        lut = sim.initiators[src].lut
        if not new_table.has_route(src, dst):
            assert dst not in lut
            severed += 1
            continue
        path, vcs = lut.lookup(dst)
        assert path == new_table.route(src, dst).path
        if path == old_path:
            assert vcs == old_vcs
            kept += 1
            kept_with_dateline += 1 in vcs
        else:
            assert vcs is None
            rerouted += 1
    assert severed == 2 * (len(cores) - 1)  # to and from the core on s_1_1
    assert kept and rerouted and kept_with_dateline
    assert changed == severed + rerouted


def test_hot_swap_twice_counts_only_the_second_change():
    inst, sim = _torus_sim()
    scenario = FaultScenario()
    scenario.add_switch("s_1_1")
    table = reconfigure_routing(inst.topology, scenario, allow_partial=True)
    first, _ = sim.hot_swap_routing(table, 0)
    assert first > 0
    again, _ = sim.hot_swap_routing(table, 0)
    assert again == 0
