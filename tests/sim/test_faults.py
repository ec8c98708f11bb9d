"""Tests for live fault injection and online recovery."""

import pytest

from repro.arch import FlowControlKind, NocParameters
from repro.arch.packet import reset_packet_ids
from repro.reliability import reconfigure_routing
from repro.sim import (
    DrainTimeoutError,
    FaultEvent,
    FaultKind,
    FaultSchedule,
    NocSimulator,
    RecoveryController,
    RetransmissionPolicy,
    SyntheticTraffic,
    TraceEventKind,
    TraceRecorder,
)
from repro.topology import mesh, xy_routing
from repro.topology.presets import standard_instance


@pytest.fixture
def mesh44():
    m = mesh(4, 4)
    return m, xy_routing(m)


class TestFaultEvent:
    def test_switch_event_needs_switch_name(self):
        with pytest.raises(ValueError):
            FaultEvent(10, FaultKind.SWITCH_DOWN, ("s_0_0", "s_0_1"))

    def test_link_event_needs_pair(self):
        with pytest.raises(ValueError):
            FaultEvent(10, FaultKind.LINK_DOWN, "s_0_0")

    def test_negative_cycle_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(-1, FaultKind.SWITCH_DOWN, "s_0_0")

    def test_burst_needs_duration_and_probability(self):
        with pytest.raises(ValueError):
            FaultEvent(0, FaultKind.TRANSIENT_BURST, ("a", "b"), duration=0,
                       probability=0.5)
        with pytest.raises(ValueError):
            FaultEvent(0, FaultKind.TRANSIENT_BURST, ("a", "b"), duration=8,
                       probability=0.0)

    def test_describe(self):
        e = FaultEvent(5, FaultKind.LINK_DOWN, ("s_0_0", "s_0_1"))
        assert "link_down" in e.describe()
        assert "s_0_0->s_0_1" in e.describe()


class TestFaultSchedule:
    def test_events_sorted_and_cursor(self):
        sched = FaultSchedule([
            FaultEvent(30, FaultKind.SWITCH_DOWN, "s_1_1"),
            FaultEvent(10, FaultKind.LINK_DOWN, ("s_0_0", "s_0_1")),
        ])
        assert [e.cycle for e in sched.events] == [10, 30]
        assert [e.cycle for e in sched.due(10)] == [10]
        assert sched.due(10) == []  # already delivered
        assert [e.cycle for e in sched.due(100)] == [30]
        sched.reset()
        assert len(sched.due(100)) == 2

    def test_random_is_seed_deterministic(self):
        m = mesh(4, 4)
        a = FaultSchedule.random(m, seed=3, link_faults=2, switch_faults=1,
                                 transient_bursts=2)
        b = FaultSchedule.random(m, seed=3, link_faults=2, switch_faults=1,
                                 transient_bursts=2)
        assert a.events == b.events
        assert a.corruption_seed == b.corruption_seed

    def test_random_different_seeds_differ(self):
        m = mesh(4, 4)
        a = FaultSchedule.random(m, seed=3, switch_faults=2)
        b = FaultSchedule.random(m, seed=4, switch_faults=2)
        assert a.events != b.events

    def test_too_many_faults_rejected(self):
        m = mesh(2, 2)
        with pytest.raises(ValueError):
            FaultSchedule.random(m, seed=1, switch_faults=5)

    def test_unknown_component_rejected_at_attach(self, mesh44):
        m, table = mesh44
        sim = NocSimulator(m, table)
        sched = FaultSchedule([FaultEvent(5, FaultKind.SWITCH_DOWN, "ghost")])
        with pytest.raises(KeyError):
            sim.attach_fault_schedule(sched)


class TestRetransmission:
    def test_loss_recovered_after_repair(self, mesh44):
        """Packets lost during a link outage are replayed end to end."""
        m, table = mesh44
        reset_packet_ids()
        sim = NocSimulator(m, table)
        sim.attach_fault_schedule(FaultSchedule([
            FaultEvent(50, FaultKind.LINK_DOWN, ("s_0_0", "s_1_0")),
            FaultEvent(400, FaultKind.LINK_UP, ("s_0_0", "s_1_0")),
        ]))
        sim.enable_retransmission()
        traffic = SyntheticTraffic("uniform", 0.05, 4, seed=2)
        sim.run(1500, traffic, drain=True)
        inis = sim.initiators.values()
        assert sum(ni.packets_retransmitted for ni in inis) > 0
        assert sum(ni.packets_lost for ni in inis) == 0
        # Conservation: everything offered was eventually delivered.
        assert sim.stats.packets_delivered == traffic.packets_offered

    @pytest.mark.parametrize("kernel", ["event", "reference"])
    def test_repaired_credit_link_never_overflows(self, mesh44, kernel):
        """A credit link repaired one cycle after it failed, while the
        switch behind it still holds flits, grants only the slots that
        switch has free."""
        m, table = mesh44
        reset_packet_ids()
        params = NocParameters(flow_control=FlowControlKind.CREDIT,
                               buffer_depth=2)
        sim = NocSimulator(m, table, params, kernel=kernel)
        sim.attach_fault_schedule(FaultSchedule([
            FaultEvent(150, FaultKind.LINK_DOWN, ("s_1_1", "s_2_1")),
            FaultEvent(151, FaultKind.LINK_UP, ("s_1_1", "s_2_1")),
        ]))
        sim.enable_retransmission()
        traffic = SyntheticTraffic("uniform", 0.3, 4, seed=1)
        sim.run(400, traffic)  # overflowed at cycle 155 before the fix
        assert sim.stats.packets_delivered > 0

    @pytest.mark.parametrize("kernel", ["event", "reference"])
    def test_repaired_onoff_link_never_overflows(self, mesh44, kernel):
        """The ON/OFF twin: a link repaired one cycle after it failed
        keeps counting the slots its full receiver still holds, instead
        of reading a whole free buffer for ``delay`` cycles."""
        m, table = mesh44
        reset_packet_ids()
        params = NocParameters(flow_control=FlowControlKind.ON_OFF,
                               buffer_depth=2, onoff_threshold=1)
        sim = NocSimulator(m, table, params, kernel=kernel)
        sim.attach_fault_schedule(FaultSchedule([
            FaultEvent(120, FaultKind.LINK_DOWN, ("s_1_1", "s_2_1")),
            FaultEvent(121, FaultKind.LINK_UP, ("s_1_1", "s_2_1")),
        ]))
        sim.enable_retransmission()
        traffic = SyntheticTraffic("uniform", 0.5, 4, seed=4)
        sim.run(400, traffic)  # overflowed at cycle 122 before the fix
        assert sim.cycle == 400
        assert sim.stats.packets_delivered > 0

    def test_duplicates_are_discarded_not_double_counted(self, mesh44):
        """A transient burst NACK-storms; dedup keeps stats honest."""
        m, table = mesh44
        reset_packet_ids()
        sim = NocSimulator(m, table)
        sim.attach_fault_schedule(FaultSchedule([
            FaultEvent(40, FaultKind.TRANSIENT_BURST, ("s_0_0", "s_1_0"),
                       duration=300, probability=0.9),
        ], corruption_seed=11))
        sim.enable_retransmission()
        traffic = SyntheticTraffic("uniform", 0.05, 4, seed=2)
        sim.run(1200, traffic, drain=True)
        assert sim.stats.packets_delivered == traffic.packets_offered
        dupes = sum(t.duplicates_discarded for t in sim.targets.values())
        assert dupes >= 0  # dedup path exercised without inflating stats

    def test_bounded_retries_give_up(self, mesh44):
        """With no recovery controller, retries exhaust and count as lost."""
        m, table = mesh44
        reset_packet_ids()
        sim = NocSimulator(m, table)
        sim.attach_fault_schedule(FaultSchedule([
            FaultEvent(10, FaultKind.SWITCH_DOWN, "s_1_1"),
        ]))
        sim.enable_retransmission(RetransmissionPolicy(
            timeout_cycles=32, max_retries=2, backoff=1.0))
        sim.inject("c_0_0", "c_0_1", 4)   # clean path, stays deliverable
        sim.run(20)
        sim.inject("c_1_1", "c_3_3", 4)   # source NI sits on the dead switch
        sim.run(600, drain=True)
        inis = sim.initiators.values()
        assert sum(ni.packets_lost for ni in inis) == 1
        assert sim.stats.packets_delivered == 1


class TestDrainTimeout:
    def test_census_on_timeout(self, mesh44):
        m, table = mesh44
        reset_packet_ids()
        sim = NocSimulator(m, table)
        sim.attach_fault_schedule(FaultSchedule([
            FaultEvent(10, FaultKind.SWITCH_DOWN, "s_1_1"),
        ]))
        # Practically unbounded retries: the pending transfer outlives the
        # (deliberately small) drain budget.
        sim.enable_retransmission(RetransmissionPolicy(
            timeout_cycles=64, max_retries=1000, backoff=1.0))
        sim.run(20)
        sim.inject("c_1_1", "c_3_3", 4)
        with pytest.raises(DrainTimeoutError) as exc:
            sim.run(50, drain=True, max_drain_cycles=300)
        err = exc.value
        assert err.pending_transfers.get("c_1_1") == 1
        assert err.cycle == sim.cycle
        assert err.flits_stuck >= 0


ACCEPT_SCENARIO = dict(topology="mesh", size=4, kill="s_1_1", at=2000)


def _run_acceptance():
    """Kill one mesh switch at cycle 2000 under uniform-random load."""
    reset_packet_ids()
    inst = standard_instance("mesh", 4)
    sim = NocSimulator(inst.topology, inst.table)
    sim.attach_fault_schedule(FaultSchedule([
        FaultEvent(2000, FaultKind.SWITCH_DOWN, "s_1_1"),
    ]))
    controller = RecoveryController()
    sim.attach_recovery_controller(controller)
    recorder = TraceRecorder(max_events=200_000)
    sim.enable_tracing(recorder)
    traffic = SyntheticTraffic("uniform", 0.1, packet_size_flits=4, seed=7)
    sim.run(4000, traffic, drain=True)
    return sim, controller, recorder


class TestRecoveryAcceptance:
    @pytest.fixture(scope="class")
    def outcome(self):
        return _run_acceptance()

    def test_fault_detected_without_oracle(self, outcome):
        sim, controller, __ = outcome
        assert sim.stats.recoveries, "controller never detected the fault"
        latencies = [r.detection_latency for r in sim.stats.recoveries]
        assert all(lat is None or lat > 0 for lat in latencies)
        assert any(lat is not None and lat > 0 for lat in latencies)

    def test_blame_converges_to_dead_switch(self, outcome):
        sim, controller, __ = outcome
        blamed_switches = {
            sw for r in sim.stats.recoveries for sw in r.blamed_switches
        }
        assert "s_1_1" in blamed_switches
        # ... and nothing healthy was blamed along the way except
        # components adjacent to the dead switch.
        for r in sim.stats.recoveries:
            for a, b in r.blamed_links:
                assert "s_1_1" in (a, b)
        assert blamed_switches == {"s_1_1"}

    def test_swapped_table_is_deadlock_free(self, outcome):
        sim, controller, __ = outcome
        from repro.topology import check_routing_deadlock

        table = reconfigure_routing(
            sim.topology, controller.scenario, allow_partial=True
        )
        assert check_routing_deadlock(sim.topology, table)

    def test_all_reachable_packets_delivered(self, outcome):
        sim, __, __rec = outcome
        inis = sim.initiators.values()
        assert sum(ni.packets_lost for ni in inis) == 0
        # Only packets to/from the orphaned core were written off.
        assert sum(ni.packets_abandoned_unreachable for ni in inis) > 0
        assert sum(ni.packets_retransmitted for ni in inis) > 0

    def test_stats_report_degraded_mode(self, outcome):
        sim, __, __rec = outcome
        report = sim.stats.degraded_latency_summary()
        assert report.healthy_count > 0
        assert report.degraded_count > 0
        assert report.healthy_mean is not None
        assert report.degraded_mean is not None
        assert report.inflation is not None
        rec = sim.stats.recoveries[0]
        assert rec.recovery_cycles >= 1

    def test_trace_notes_interleave(self, outcome):
        __, __ctl, recorder = outcome
        kinds = {e.kind for e in recorder.notes()}
        assert TraceEventKind.FAULT in kinds
        assert TraceEventKind.RECOVERY in kinds
        assert TraceEventKind.RETRANSMIT in kinds

    def test_drain_completed(self, outcome):
        sim, __, __rec = outcome
        assert sim.idle


class TestDeterminism:
    def test_same_seed_byte_identical(self):
        def fingerprint():
            sim, controller, __ = _run_acceptance()
            inis = sim.initiators.values()
            return (
                tuple(
                    (r.source, r.destination, r.injection_cycle,
                     r.arrival_cycle)
                    for r in sim.stats.records
                ),
                tuple(sim.stats.recoveries),
                tuple(sim.stats.fault_events),
                sum(ni.packets_retransmitted for ni in inis),
                sum(ni.packets_abandoned_unreachable for ni in inis),
                sim.cycle,
            )

        assert fingerprint() == fingerprint()
