"""Tests for the cycle-accurate simulator."""

import pytest

from repro.arch import FlowControlKind, MessageClass, NocParameters
from repro.sim import NocSimulator, SyntheticTraffic
from repro.topology import (
    bone_style,
    fat_tree,
    fat_tree_routing,
    mesh,
    shortest_path_routing,
    spidergon,
    spidergon_routing,
    torus,
    torus_xy_routing,
    xy_routing,
)
from repro.topology.routing import dateline_vc_assignment


@pytest.fixture
def mesh44():
    m = mesh(4, 4)
    return m, xy_routing(m)


class TestBasicDelivery:
    def test_single_packet(self, mesh44):
        m, table = mesh44
        sim = NocSimulator(m, table)
        sim.inject("c_0_0", "c_3_3", 4)
        sim.run(0, drain=True)
        assert sim.stats.packets_delivered == 1

    def test_unknown_source_rejected(self, mesh44):
        m, table = mesh44
        sim = NocSimulator(m, table)
        with pytest.raises(KeyError):
            sim.inject("ghost", "c_0_0", 1)

    def test_zero_load_latency_scales_with_distance(self, mesh44):
        m, table = mesh44
        sim = NocSimulator(m, table)
        near = sim.inject("c_0_0", "c_1_0", 1)
        sim.run(0, drain=True)
        near_lat = sim.stats.records[-1].latency

        sim2 = NocSimulator(m, table)
        sim2.inject("c_0_0", "c_3_3", 1)
        sim2.run(0, drain=True)
        far_lat = sim2.stats.records[-1].latency
        assert far_lat > near_lat

    def test_packet_conservation(self, mesh44):
        """Everything injected is eventually delivered, exactly once."""
        m, table = mesh44
        sim = NocSimulator(m, table)
        traffic = SyntheticTraffic("uniform", 0.2, 4, seed=5)
        sim.run(500, traffic, drain=True)
        assert sim.stats.packets_delivered == traffic.packets_offered
        assert sim.stats.flits_delivered == sim.stats.flits_injected

    def test_deterministic_across_runs(self, mesh44):
        m, table = mesh44

        def once():
            from repro.arch.packet import reset_packet_ids

            reset_packet_ids()
            sim = NocSimulator(m, table)
            traffic = SyntheticTraffic("uniform", 0.15, 4, seed=9)
            sim.run(400, traffic, drain=True)
            return [
                (r.source, r.destination, r.injection_cycle, r.arrival_cycle)
                for r in sim.stats.records
            ]

        assert once() == once()

    def test_warmup_excluded_from_stats(self, mesh44):
        m, table = mesh44
        sim = NocSimulator(m, table, warmup_cycles=100)
        traffic = SyntheticTraffic("uniform", 0.2, 4, seed=5)
        sim.run(300, traffic, drain=True)
        assert all(r.injection_cycle >= 100 for r in sim.stats.records)


class TestLoadBehaviour:
    def test_latency_grows_with_load(self, mesh44):
        m, table = mesh44
        means = []
        for rate in (0.05, 0.35):
            sim = NocSimulator(m, table, warmup_cycles=200)
            sim.run(1500, SyntheticTraffic("uniform", rate, 4, seed=3))
            means.append(sim.stats.latency().mean)
        assert means[1] > means[0]

    def test_throughput_tracks_offered_load_below_saturation(self, mesh44):
        m, table = mesh44
        sim = NocSimulator(m, table, warmup_cycles=200)
        sim.run(2000, SyntheticTraffic("uniform", 0.2, 4, seed=3))
        per_core = sim.stats.throughput_flits_per_cycle(1800) / 16
        assert per_core == pytest.approx(0.2, rel=0.15)

    def test_onoff_saturates_before_credit(self, mesh44):
        """ON/OFF's conservative gating costs throughput near saturation
        — the buffer/throughput trade-off of Fig. 1's flow controls."""
        m, table = mesh44
        lat = {}
        for fc in (FlowControlKind.CREDIT, FlowControlKind.ON_OFF):
            sim = NocSimulator(
                m, table, NocParameters(flow_control=fc, buffer_depth=2),
                warmup_cycles=200,
            )
            sim.run(1500, SyntheticTraffic("uniform", 0.4, 4, seed=3))
            lat[fc] = sim.stats.latency().mean
        assert lat[FlowControlKind.ON_OFF] >= lat[FlowControlKind.CREDIT]


class TestAcrossTopologies:
    @pytest.mark.parametrize("build", [
        lambda: (lambda m: (m, xy_routing(m)))(mesh(3, 3)),
        lambda: (lambda t: (t, shortest_path_routing(t)))(bone_style()),
        lambda: (lambda f: (f, fat_tree_routing(f)))(fat_tree(2, 2)),
    ])
    def test_uniform_traffic_drains(self, build):
        topo, table = build()
        sim = NocSimulator(topo, table)
        traffic = SyntheticTraffic("uniform", 0.1, 2, seed=2)
        sim.run(300, traffic, drain=True)
        assert sim.stats.packets_delivered == traffic.packets_offered

    def test_torus_with_vcs(self):
        t = torus(4, 4)
        table = torus_xy_routing(t, 4, 4)
        vca = dateline_vc_assignment(t, table)
        sim = NocSimulator(t, table, NocParameters(num_vcs=2), vc_assignment=vca)
        traffic = SyntheticTraffic("uniform", 0.15, 4, seed=4)
        sim.run(500, traffic, drain=True)
        assert sim.stats.packets_delivered == traffic.packets_offered

    def test_spidergon_with_vcs(self):
        s = spidergon(8)
        table = spidergon_routing(s)
        vca = dateline_vc_assignment(s, table)
        sim = NocSimulator(s, table, NocParameters(num_vcs=2), vc_assignment=vca)
        traffic = SyntheticTraffic("uniform", 0.15, 4, seed=4)
        sim.run(500, traffic, drain=True)
        assert sim.stats.packets_delivered == traffic.packets_offered

    def test_multi_attached_core_injection(self):
        """BONE dual-port SRAMs inject on the link their route starts with."""
        b = bone_style()
        table = shortest_path_routing(b)
        sim = NocSimulator(b, table)
        sim.inject("sram_0", "risc_9", 2)
        sim.inject("risc_0", "sram_0", 2)
        sim.run(0, drain=True)
        assert sim.stats.packets_delivered == 2


class TestUtilities:
    def test_link_utilization_bounded(self, mesh44):
        m, table = mesh44
        sim = NocSimulator(m, table, warmup_cycles=0)
        sim.run(500, SyntheticTraffic("uniform", 0.3, 4, seed=8))
        util = sim.link_utilization()
        assert all(0.0 <= u <= 1.0 for u in util.values())
        assert any(u > 0 for u in util.values())

    def test_gt_packets_counted_by_class(self, mesh44):
        m, table = mesh44
        sim = NocSimulator(m, table)
        sim.inject("c_0_0", "c_3_3", 2, message_class=MessageClass.GUARANTEED,
                   connection_id=1)
        sim.inject("c_0_0", "c_3_0", 2)
        sim.run(0, drain=True)
        gt = sim.stats.latency(MessageClass.GUARANTEED)
        be = sim.stats.latency(MessageClass.BEST_EFFORT)
        assert gt.count == 1 and be.count == 1

    def test_run_negative_cycles_rejected(self, mesh44):
        m, table = mesh44
        sim = NocSimulator(m, table)
        with pytest.raises(ValueError):
            sim.run(-1)


def _freed_without_the_cyclic_gc(build, traffic, drain=True):
    """Run the simulator ``build()`` makes, drop it, and check that
    reference counting alone freed it and everything it held."""
    import gc
    import weakref

    gc.collect()
    gc.disable()
    try:
        sim = build()
        sim.run(300, traffic, drain=drain)
        assert sim.stats.packets_delivered > 0
        ref = weakref.ref(sim)
        del sim, traffic
        assert ref() is None
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestReclamation:
    """A finished simulator is freed by reference counting alone:
    components refer to each other one way (a link to the port it
    delivers into, never back), and the event scheduler's back-reference,
    the wakeup hooks, the targets' shared stats, trace callbacks and
    memory responders form no cycle; and a delivered packet leaves only
    its record in the log."""

    @pytest.mark.parametrize("kernel", ["event", "reference"])
    @pytest.mark.parametrize("fc", ["on_off", "credit", "ack_nack"])
    def test_dropped_simulator_is_freed_without_the_cyclic_gc(
        self, mesh44, kernel, fc
    ):
        m, table = mesh44
        params = NocParameters(
            flow_control=FlowControlKind(fc),
            output_buffer_depth=4 if fc == "ack_nack" else 0,
        )
        _freed_without_the_cyclic_gc(
            lambda: NocSimulator(m, table, params, kernel=kernel),
            SyntheticTraffic("uniform", 0.2, 4, seed=3),
        )

    @pytest.mark.parametrize("kernel", ["event", "reference"])
    @pytest.mark.parametrize("attachment", ["tracing", "memory"])
    def test_attachments_form_no_cycle(self, mesh44, kernel, attachment):
        from repro.sim import RequestResponseTraffic
        from repro.sim.tracing import TraceRecorder

        m, table = mesh44
        cores = sorted(m.cores)

        def build():
            sim = NocSimulator(m, table, kernel=kernel)
            if attachment == "tracing":
                sim.enable_tracing(TraceRecorder())
            else:
                sim.attach_memory(cores[5], service_cycles=4)
            return sim

        if attachment == "tracing":
            traffic = SyntheticTraffic("uniform", 0.2, 4, seed=3)
        else:
            traffic = RequestResponseTraffic(cores[:4], [cores[5]], 0.1,
                                             seed=3)
        _freed_without_the_cyclic_gc(build, traffic)

    @pytest.mark.parametrize("kernel", ["event", "reference"])
    def test_recovery_controller_forms_no_cycle(self, mesh44, kernel):
        """The controller, which the simulator and its NIs' callbacks
        hold, holds the simulator weakly."""
        from repro.sim import (
            FaultEvent, FaultKind, FaultSchedule, RecoveryController,
        )

        m, table = mesh44

        def build():
            sim = NocSimulator(m, table, kernel=kernel)
            sim.attach_fault_schedule(FaultSchedule([
                FaultEvent(100, FaultKind.SWITCH_DOWN, "s_1_1"),
            ]))
            sim.attach_recovery_controller(RecoveryController())
            return sim

        _freed_without_the_cyclic_gc(
            build, SyntheticTraffic("uniform", 0.05, 4, seed=3), drain=False,
        )

    @pytest.mark.parametrize("kernel", ["event", "reference"])
    def test_metrics_probe_forms_no_cycle(self, mesh44, kernel):
        m, table = mesh44

        def build():
            sim = NocSimulator(m, table, kernel=kernel)
            sim.enable_metrics(interval=50)
            return sim

        _freed_without_the_cyclic_gc(
            build, SyntheticTraffic("uniform", 0.05, 4, seed=3), drain=False,
        )


    @pytest.mark.parametrize("kernel", ["event", "reference"])
    def test_delivered_packet_is_let_go(self, mesh44, kernel):
        import gc
        import weakref

        m, table = mesh44
        gc.disable()
        try:
            sim = NocSimulator(m, table, kernel=kernel)
            ref = weakref.ref(sim.inject("c_0_0", "c_3_3", 4))
            sim.run(0, drain=True)
            assert ref() is None
        finally:
            gc.enable()
        (record,) = sim.stats.log
        assert (record.source, record.destination) == ("c_0_0", "c_3_3")
        assert sim.targets["c_3_3"].packets_received == (
            (record, record.arrival_cycle),
        )

    @pytest.mark.parametrize("kernel", ["event", "reference"])
    def test_records_filter_the_warmup_out_of_the_log(self, mesh44, kernel):
        m, table = mesh44
        sim = NocSimulator(m, table, warmup_cycles=10, kernel=kernel)
        sim.run(9)
        sim.inject("c_0_0", "c_3_3", 16)  # warm-up: long and far
        sim.run(1)
        sim.inject("c_1_1", "c_1_2", 1)  # measured: short and near
        sim.run(0, drain=True)
        log = sim.stats.log
        assert [r.injection_cycle for r in log] == [10, 9]  # arrival order
        assert sim.stats.records == [log[0]]
        assert sim.stats.flits_delivered == 1
        assert len(sim.targets["c_3_3"].packets_received) == 1


class TestFootprint:
    """The simulator's own memory: list FIFOs, lazily created queues and
    slotted components keep a 16x16 mesh small."""

    def test_mesh16_build_allocates_at_most_3_mb(self):
        import gc
        import tracemalloc

        from repro.topology.presets import standard_instance

        inst = standard_instance("mesh", 16)
        gc.collect()
        tracemalloc.start()
        try:
            sim = NocSimulator(inst.topology, inst.table,
                               vc_assignment=inst.vc_assignment)
            gc.collect()
            allocated = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(sim.switches) == 256
        assert allocated <= 3_000_000, f"{allocated / 1e6:.2f} MB"

    @pytest.mark.parametrize("fc", ["credit", "on_off", "ack_nack"])
    def test_components_and_packets_have_no_instance_dict(self, mesh44, fc):
        from repro.arch.network_interface import (
            EjectionPort, InitiatorNI, TargetNI,
        )
        from repro.arch.packet import Flit, Packet
        from repro.arch.switch import InputPort, SwitchModel
        from repro.sim.stats import PacketRecord

        m, table = mesh44
        params = NocParameters(
            flow_control=FlowControlKind(fc),
            output_buffer_depth=4 if fc == "ack_nack" else 0,
        )
        sim = NocSimulator(m, table, params)
        packet = sim.inject("c_0_0", "c_3_3", 4)
        sim.run(0, drain=True)
        objects = [packet, *packet.flits(), *sim.stats.records,
                   *sim.links.values()]
        for sw in sim.switches.values():
            objects.append(sw)
            objects.extend(sw.inputs.values())
        objects.extend(sim.initiators.values())
        objects.extend(sim.targets.values())
        objects.extend(t.port for t in sim.targets.values())
        kinds = {type(o) for o in objects}
        assert {Flit, Packet, PacketRecord, InputPort, SwitchModel,
                InitiatorNI, TargetNI, EjectionPort} <= kinds
        for obj in objects:
            assert not hasattr(obj, "__dict__"), type(obj).__name__

    @pytest.mark.parametrize("kernel", ["event", "reference"])
    def test_run_grows_only_by_the_delivery_log(self, kernel):
        """From 1k to 4k cycles of 8x8 uniform traffic, memory and the
        capsule grow only by the log.  A log entry is a slotted record
        (80 B), at most two cycle ints (64 B) and a list slot (8 B), and
        pickles to under 40 B.  Memory is read after each snapshot: the
        first pickle of a table's routes gives each a ``__dict__``."""
        import gc
        import tracemalloc

        from repro.resilience.checkpoint import snapshot_simulator
        from repro.topology.presets import standard_instance

        inst = standard_instance("mesh", 8)
        list(inst.table)  # every route computed up front
        gc.collect()
        tracemalloc.start()
        try:
            sim = NocSimulator(inst.topology, inst.table,
                               vc_assignment=inst.vc_assignment, kernel=kernel)
            for ni in sim.initiators.values():  # every LUT filled up front
                for core in sim.targets:
                    if core != ni.core:
                        ni.lut.lookup(core)
            traffic = SyntheticTraffic("uniform", 0.06, 4, seed=7)
            points = []
            for upto in (1000, 4000):
                sim.run(upto - sim.cycle, traffic)
                capsule_bytes = len(snapshot_simulator(sim, traffic))
                gc.collect()
                points.append((len(sim.stats.log), capsule_bytes,
                               tracemalloc.get_traced_memory()[0]))
        finally:
            tracemalloc.stop()
        (n0, cap0, mem0), (n1, cap1, mem1) = points
        entries = n1 - n0
        assert entries > 2000
        assert cap1 - cap0 <= 40 * entries, (cap1 - cap0) / entries
        assert mem1 - mem0 <= 152 * entries + 16_000, (mem1 - mem0) / entries
