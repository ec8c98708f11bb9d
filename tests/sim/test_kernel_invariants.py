"""Property-based invariants of the event simulation kernel.

Four families, per the kernels' correctness arguments:

* **Flit conservation** — nothing is duplicated or lost: every packet
  offered is delivered (fault-free, drained) or accounted for as
  lost/abandoned (fault runs with bounded retries).
* **Latency lower bound** — no delivered packet beats the zero-load
  path latency (hops + serialisation), which a skip-induced time warp
  would violate.
* **Skip audit** — via ``NocSimulator._skip_hook``: no jump ever
  crosses a scheduled fault or a pending retransmission deadline, and
  every jump moves strictly forward from a quiescent cycle.
* **Wakeup audit** — no clock jump crosses a posted
  wheel wakeup, a scheduled fault, a pending retransmission deadline,
  or a metrics window boundary; and at the end of every executed cycle
  no component holds work without a wheel entry or active-set
  membership (the "lost wakeup" detector, which fails the run when
  wired through ``NocSimulator._event_audit``).

The strategies draw mesh 4, torus 4 and fat tree 3, plus a chain fabric
whose cores have 2–4 ejection links, with links of delay 1–5; switch
pipelines have 1–3 stages.  No run may overflow a receiver.
"""

import pytest

from hypothesis import given, settings, strategies as st

from repro.arch import FlowControlKind, NocParameters
from repro.arch.packet import reset_packet_ids
from repro.sim import (
    DrainTimeoutError,
    FaultEvent,
    FaultKind,
    FaultSchedule,
    NocSimulator,
    RetransmissionPolicy,
    SyntheticTraffic,
)
from repro.topology.graph import Topology
from repro.topology.presets import standard_instance
from repro.topology.routing import shortest_path_routing


def _homed_fabric(homes, delay):
    """Six cores on a chain of five switches, each core attached to
    ``homes`` of them (so it has ``homes`` ejection links), every link
    ``delay`` cycles long.  The switches form a tree, so shortest-path
    routes cannot deadlock."""
    topo = Topology(f"homed{homes}_d{delay}")
    switches = [f"sw{i}" for i in range(5)]
    for sw in switches:
        topo.add_switch(sw)
    for a, b in zip(switches, switches[1:]):
        topo.add_link(a, b, pipeline_stages=delay - 1)
    for i in range(6):
        topo.add_core(f"c{i}")
        for k in range(homes):
            topo.add_link(f"c{i}", switches[(i + k) % 5],
                          pipeline_stages=delay - 1)
    return topo, shortest_path_routing(topo), None, 1


def _fresh_sim(topology, size, fc, kernel, warmup=0, latency=1):
    """``size`` is ``(homes, delay)`` for the ``"homed"`` fabric."""
    if topology == "homed":
        topo, table, vca, min_vcs = _homed_fabric(*size)
    else:
        inst = standard_instance(topology, size)
        topo, table = inst.topology, inst.table
        vca, min_vcs = inst.vc_assignment, inst.min_vcs
    params = NocParameters(
        flow_control=FlowControlKind(fc),
        num_vcs=max(min_vcs, 1),
        buffer_depth=4,
        output_buffer_depth=4 if fc == "ack_nack" else 0,
        switch_latency_cycles=latency,
    )
    sim = NocSimulator(topo, table, params, vc_assignment=vca,
                       warmup_cycles=warmup, kernel=kernel)
    return sim, table


def _builds(config):
    """A config whose ejection shares cannot hold an ON/OFF link's OFF
    threshold is refused at build (see test_refused_shares)."""
    (topology, size), fc = config[:2]
    try:
        _fresh_sim(topology, size, fc, "reference")
    except ValueError:
        return False
    return True


_HOMED = st.tuples(
    st.just("homed"),
    st.tuples(st.integers(min_value=2, max_value=4),   # ejection links
              st.integers(min_value=1, max_value=5)),  # link delay
)

_CONFIG = st.tuples(
    st.one_of(
        st.sampled_from([("mesh", 4), ("torus", 4), ("fattree", 3)]),
        _HOMED,
    ),
    st.sampled_from(["credit", "on_off"]),
    st.floats(min_value=0.001, max_value=0.15),
    st.integers(min_value=1, max_value=6),     # packet size
    st.integers(min_value=0, max_value=2**16),  # seed
    st.integers(min_value=1, max_value=3),     # switch pipeline stages
).filter(_builds)


@pytest.mark.parametrize("homes", [2, 3, 4])
@pytest.mark.parametrize("delay", range(1, 6))
def test_refused_shares(homes, delay):
    """Credit links always fit their ejection share; an ON/OFF link is
    refused exactly when its 8 // homes slots are fewer than its OFF
    threshold (the link delay, within 2..4)."""
    _fresh_sim("homed", (homes, delay), "credit", "reference")
    refused = 8 // homes < min(max(2, delay), 4)
    if refused:
        with pytest.raises(ValueError, match="share"):
            _fresh_sim("homed", (homes, delay), "on_off", "reference")
    else:
        _fresh_sim("homed", (homes, delay), "on_off", "reference")


#: Multi-homed targets under load: several ejection links deliver into
#: one target in the same cycles.
_HOMED_LOAD = st.tuples(
    _HOMED,
    st.sampled_from(["credit", "on_off"]),
    st.floats(min_value=0.2, max_value=0.6),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**16),
    st.integers(min_value=1, max_value=3),
).filter(_builds)


def _check_conservation(config):
    """Run drained, with no receiver overflow; nothing lost or doubled."""
    (topology, size), fc, rate, packet_size, seed, latency = config
    reset_packet_ids()
    sim, __ = _fresh_sim(topology, size, fc, "event", latency=latency)
    traffic = SyntheticTraffic("uniform", rate, packet_size, seed=seed)
    sim.run(400, traffic, drain=True)
    assert sim.idle
    # Packet-level: everything offered arrived, exactly once.
    assert sim.stats.packets_delivered == traffic.packets_offered
    assert all(t.duplicates_discarded == 0
               for t in sim.targets.values())
    # Flit-level: source and sink counters agree.
    injected = sum(ni.flits_injected for ni in sim.initiators.values())
    received = sum(t.flits_received for t in sim.targets.values())
    assert injected == received == sim.stats.flits_delivered


class TestConservation:
    @settings(max_examples=12, deadline=None)
    @given(_CONFIG)
    def test_no_flit_lost_or_duplicated_fault_free(self, config):
        _check_conservation(config)

    @settings(max_examples=12, deadline=None)
    @given(_HOMED_LOAD)
    def test_multi_homed_targets_never_overflow(self, config):
        _check_conservation(config)

    def test_fault_run_fully_accounted(self):
        """With a mid-run outage and bounded retries, offered packets
        partition exactly into delivered / lost / abandoned — on both
        kernels, with identical partitions."""
        partitions = {}
        for kernel in ("event", "reference"):
            reset_packet_ids()
            sim, __ = _fresh_sim("mesh", 4, "on_off", kernel)
            sim.attach_fault_schedule(FaultSchedule([
                FaultEvent(50, FaultKind.LINK_DOWN, ("s_0_0", "s_1_0")),
                FaultEvent(400, FaultKind.LINK_UP, ("s_0_0", "s_1_0")),
            ]))
            sim.enable_retransmission(RetransmissionPolicy(
                timeout_cycles=32, max_retries=3, backoff=1.5))
            traffic = SyntheticTraffic("uniform", 0.04, 4, seed=23)
            sim.run(900, traffic, drain=True)
            inis = sim.initiators.values()
            delivered = sim.stats.packets_delivered
            lost = sum(ni.packets_lost for ni in inis)
            abandoned = sum(ni.packets_abandoned_unreachable for ni in inis)
            # No duplicates in the delivered stats...
            assert delivered <= traffic.packets_offered
            # ...and no packet vanishes unaccounted.  The categories can
            # overlap (a packet whose *ack* died is delivered yet later
            # declared lost when retries exhaust), so the partition is a
            # cover, not exact.
            assert delivered + lost + abandoned >= traffic.packets_offered
            assert lost + abandoned <= traffic.packets_offered
            partitions[kernel] = (delivered, lost, abandoned)
        assert partitions["event"] == partitions["reference"]


class TestLatencyLowerBound:
    @settings(max_examples=12, deadline=None)
    @given(_CONFIG)
    def test_no_packet_beats_zero_load_latency(self, config):
        (topology, size), fc, rate, packet_size, seed, latency = config
        reset_packet_ids()
        sim, table = _fresh_sim(topology, size, fc, "event",
                                latency=latency)
        traffic = SyntheticTraffic("uniform", rate, packet_size, seed=seed)
        sim.run(400, traffic, drain=True)
        for r in sim.stats.records:
            hops = len(table.route(r.source, r.destination).path) - 1
            # Each edge of the route costs at least one cycle, each of
            # its hops - 1 switches holds a flit latency - 1 more, and
            # the tail flit trails the head by at least size-1 cycles.
            floor = hops + (hops - 1) * (latency - 1) + (r.size_flits - 1)
            assert r.latency >= floor, (
                f"{r.source}->{r.destination} took {r.latency} cycles, "
                f"below the zero-load floor {floor}"
            )


class TestSkipAudit:
    def _audited_run(self, *, faults=None, retransmission=False,
                     rate=0.002, cycles=3000, seed=5):
        reset_packet_ids()
        sim, __ = _fresh_sim("mesh", 4, "on_off", "event")
        if faults:
            sim.attach_fault_schedule(FaultSchedule(faults))
        if retransmission:
            sim.enable_retransmission(RetransmissionPolicy(
                timeout_cycles=48, max_retries=3, backoff=1.5))
        jumps = []

        def hook(from_cycle, to_cycle):
            # Snapshot the timed state *before* the jump lands.
            sched = sim._fault_schedule
            next_fault = sched.next_cycle() if sched is not None else None
            deadlines = [
                ni.next_timeout_cycle()
                for ni in sim.initiators.values()
                if ni.next_timeout_cycle() is not None
            ]
            jumps.append((from_cycle, to_cycle, next_fault,
                          min(deadlines) if deadlines else None))

        sim._skip_hook = hook
        traffic = SyntheticTraffic("uniform", rate, 4, seed=seed)
        sim.run(cycles, traffic, drain=True)
        return sim, jumps

    def test_jumps_move_strictly_forward(self):
        sim, jumps = self._audited_run()
        assert jumps, "trickle load should have produced skips"
        for from_cycle, to_cycle, __, __unused in jumps:
            assert from_cycle < to_cycle
        assert sim.cycles_skipped == sum(t - f for f, t, *__ in jumps)

    def test_never_jumps_past_a_scheduled_fault(self):
        faults = [
            FaultEvent(500, FaultKind.LINK_DOWN, ("s_0_0", "s_1_0")),
            FaultEvent(1500, FaultKind.LINK_UP, ("s_0_0", "s_1_0")),
            FaultEvent(2200, FaultKind.TRANSIENT_BURST, ("s_1_1", "s_2_1"),
                       duration=100, probability=0.5),
        ]
        sim, jumps = self._audited_run(faults=list(faults),
                                       retransmission=True)
        assert jumps
        for from_cycle, to_cycle, next_fault, __ in jumps:
            if next_fault is not None:
                # Landing exactly ON the fault cycle is correct: that
                # step executes and applies it on time.
                assert to_cycle <= next_fault, (
                    f"jump {from_cycle}->{to_cycle} crossed the fault "
                    f"scheduled at {next_fault}"
                )
        applied = {f.cycle for f in sim.stats.fault_events}
        assert applied == {e.cycle for e in faults}, (
            "every scheduled fault must be applied at its exact cycle"
        )

    def test_never_jumps_past_a_retransmission_deadline(self):
        faults = [FaultEvent(300, FaultKind.LINK_DOWN, ("s_0_0", "s_1_0")),
                  FaultEvent(900, FaultKind.LINK_UP, ("s_0_0", "s_1_0"))]
        __, jumps = self._audited_run(faults=faults, retransmission=True,
                                      rate=0.01, cycles=2000)
        for from_cycle, to_cycle, __unused, next_deadline in jumps:
            if next_deadline is not None:
                assert to_cycle <= next_deadline, (
                    f"jump {from_cycle}->{to_cycle} crossed the pending "
                    f"retransmission deadline at {next_deadline}"
                )

    def test_skips_disabled_on_reference_kernel(self):
        reset_packet_ids()
        sim, __ = _fresh_sim("mesh", 4, "on_off", "reference")
        traffic = SyntheticTraffic("uniform", 0.002, 4, seed=5)
        sim.run(2000, traffic, drain=True)
        assert sim.cycles_skipped == 0


class TestEventWakeupAudit:
    """The event kernel's safety invariants, audited live.

    The scheduler's correctness argument has exactly two failure modes:
    a clock jump that crosses a timed wakeup (time warp), and a
    component left holding work with nothing scheduled to tick it
    (lost wakeup — the network silently freezes).  Both are audited
    from inside real runs here.
    """

    _FAULTS = [
        FaultEvent(120, FaultKind.LINK_DOWN, ("s_0_0", "s_1_0")),
        FaultEvent(700, FaultKind.LINK_UP, ("s_0_0", "s_1_0")),
    ]

    @settings(max_examples=10, deadline=None)
    @given(_CONFIG)
    def test_no_jump_crosses_a_timed_wakeup(self, config):
        """Every jump lands at or before the earliest posted wheel
        entry, scheduled fault, retransmission deadline, and metrics
        window boundary (snapshotted *before* the jump lands)."""
        (topology, size), fc, rate, packet_size, seed, latency = config
        reset_packet_ids()
        sim, __ = _fresh_sim(topology, size, fc, "event", latency=latency)
        if topology == "mesh":
            sim.attach_fault_schedule(FaultSchedule(list(self._FAULTS)))
        sim.enable_retransmission(RetransmissionPolicy(
            timeout_cycles=48, max_retries=3, backoff=1.5))
        probe = sim.enable_metrics(interval=89)
        jumps = []

        def hook(from_cycle, to_cycle):
            sched = sim._event_sched
            deadlines = [
                ni.next_timeout_cycle()
                for ni in sim.initiators.values()
                if ni.next_timeout_cycle() is not None
            ]
            fault_sched = sim._fault_schedule
            jumps.append((
                from_cycle, to_cycle,
                sched.wheel.next_cycle(),
                fault_sched.next_cycle() if fault_sched is not None else None,
                min(deadlines) if deadlines else None,
                probe.next_sample_cycle(),
            ))

        sim._skip_hook = hook
        traffic = SyntheticTraffic("uniform", rate, packet_size, seed=seed)
        try:
            sim.run(900, traffic, drain=True, max_drain_cycles=4000)
        except DrainTimeoutError:
            # A fault can legitimately strand high-rate traffic (both
            # kernels stall identically; the equivalence suite covers
            # that) — the jumps taken so far are still fully auditable.
            pass
        assert sim.cycle - sim.cycles_skipped >= 1
        for (from_cycle, to_cycle, wheel_next, next_fault,
             next_deadline, next_sample) in jumps:
            assert from_cycle < to_cycle
            # Landing exactly ON the wakeup cycle is correct: that
            # cycle executes and services it on time.
            if wheel_next is not None:
                assert to_cycle <= wheel_next, (
                    f"jump {from_cycle}->{to_cycle} crossed the posted "
                    f"wheel wakeup at {wheel_next}")
            if next_fault is not None:
                assert to_cycle <= next_fault, (
                    f"jump {from_cycle}->{to_cycle} crossed the fault "
                    f"scheduled at {next_fault}")
            if next_deadline is not None:
                assert to_cycle <= next_deadline, (
                    f"jump {from_cycle}->{to_cycle} crossed the "
                    f"retransmission deadline at {next_deadline}")
            assert to_cycle <= next_sample, (
                f"jump {from_cycle}->{to_cycle} crossed the metrics "
                f"window boundary at {next_sample}")
        assert sim.cycles_skipped == sum(t - f for f, t, *__ in jumps)

    @settings(max_examples=10, deadline=None)
    @given(_CONFIG)
    def test_no_lost_wakeups_throughout_run(self, config):
        """After every executed cycle, every component with pending
        work is in an active set or on the wheel."""
        (topology, size), fc, rate, packet_size, seed, latency = config
        reset_packet_ids()
        sim, __ = _fresh_sim(topology, size, fc, "event", latency=latency)
        if topology == "mesh":
            sim.attach_fault_schedule(FaultSchedule(list(self._FAULTS)))
            sim.enable_retransmission(RetransmissionPolicy(
                timeout_cycles=48, max_retries=3, backoff=1.5))
        failures = []

        def audit(cycle):
            lost = sim._event_sched.find_lost_wakeups()
            if lost:
                failures.append((cycle, lost))

        sim._event_audit = audit
        traffic = SyntheticTraffic("uniform", rate, packet_size, seed=seed)
        try:
            sim.run(600, traffic, drain=True, max_drain_cycles=4000)
        except DrainTimeoutError:
            pass  # stranded traffic is legitimate; the audit still ran
        assert not failures, f"lost wakeups: {failures[:3]}"

    def test_lost_wakeup_detector_fails_the_run(self):
        """The detector is only worth trusting if it actually trips:
        sabotage one busy switch mid-run by stripping its in-links'
        posts (what wakes a switch) and its active-set entry — the exact
        bug class the detector exists for (a component that is never
        posted) — and the audit hook must abort the run, not let the
        network stall silently."""
        reset_packet_ids()
        sim, __ = _fresh_sim("mesh", 4, "on_off", "event")
        state = {"sabotaged_at": None}

        def audit(cycle):
            sched = sim._event_sched
            if state["sabotaged_at"] is None:
                for i in sorted(sched.active_switches):
                    sw = sim._switch_seq[i]
                    if sw.occupancy:
                        for link in sw.in_links.values():
                            link.wheel = None  # "never installed"
                        sched.active_switches.discard(i)
                        state["sabotaged_at"] = cycle
                        break
                return
            lost = sched.find_lost_wakeups()
            if lost:
                raise RuntimeError(f"lost wakeup detected: {lost[0]}")

        sim._event_audit = audit
        traffic = SyntheticTraffic("uniform", 0.1, 4, seed=3)
        with pytest.raises(RuntimeError, match="lost wakeup detected"):
            sim.run(400, traffic, drain=True)
        assert state["sabotaged_at"] is not None

    def test_event_audit_hook_not_pickled(self):
        """The audit hook and scheduler are observation-side: a capsule
        taken mid-run carries neither (they are rebuilt/re-attached)."""
        reset_packet_ids()
        sim, __ = _fresh_sim("mesh", 4, "on_off", "event")
        sim._event_audit = lambda cycle: None
        traffic = SyntheticTraffic("uniform", 0.05, 4, seed=9)
        sim.run(100, traffic)
        restored, __t = NocSimulator.restore(sim.snapshot(traffic))
        assert restored._event_audit is None
        assert restored._event_sched is None
