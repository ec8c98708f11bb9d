"""Receivers take their own flits: the event kernel ticks no clean link.

A credit or ON/OFF link is a fixed-delay pipe, so under the event kernel
the switch or target NI it feeds takes each landed flit itself, and a
faulty link only decides fates on its flits' due cycles.  These tests
pin the cases where that could diverge from the reference kernel's
eager link phase — a multi-homed target fed in the same cycle by a
faulty and a clean link, with a second burst drawing on the shared
corruption RNG — and check that the lost-wakeup detector sees the new
ways to lose a flit.
"""

import random

import pytest

from repro.arch.link import CreditLink, Link, OnOffLink
from repro.arch.packet import reset_packet_ids
from repro.sim import (
    FaultEvent,
    FaultKind,
    FaultSchedule,
    SyntheticTraffic,
    TraceRecorder,
)
from tests.sim.test_kernel_invariants import _fresh_sim

#: Core c0 of the chain fabric ejects from sw0 and sw1.
FAULTY, CLEAN = ("sw0", "c0"), ("sw1", "c0")


def _bursts():
    """Two bursts opening in the same cycle: one on a c0 ejection link,
    one on another target's, so both draw on the shared RNG."""
    return FaultSchedule([
        FaultEvent(40, FaultKind.TRANSIENT_BURST, FAULTY, duration=400,
                   probability=0.4, both_directions=False),
        FaultEvent(40, FaultKind.TRANSIENT_BURST, ("sw2", "c2"),
                   duration=400, probability=0.4, both_directions=False),
    ], corruption_seed=7)


def _homed_run(fc, kernel, delay):
    reset_packet_ids()
    sim, __ = _fresh_sim("homed", (2, delay), fc, kernel)
    sim.attach_fault_schedule(_bursts())
    recorder = TraceRecorder(max_events=1_000_000)
    sim.enable_tracing(recorder)
    traffic = SyntheticTraffic("uniform", 0.5, 3, seed=11)
    same_cycle = 0
    if kernel == "reference":
        # Count the cycles in which both c0 links land a flit.
        faulty, clean = sim.links[FAULTY], sim.links[CLEAN]
        for __ in range(500):
            c = sim.cycle
            if all(any(at == c for at, __ in link._in_flight)
                   for link in (faulty, clean)):
                same_cycle += 1
            traffic.tick(c, sim)
            sim.step()
        sim.run(0, drain=True)
    else:
        sim.run(500, traffic, drain=True)
    fp = {
        "trace": [(e.cycle, e.kind.value, e.location, e.packet_id,
                   e.flit_index, e.note) for e in recorder.events],
        "records": [(r.source, r.destination, r.injection_cycle,
                     r.arrival_cycle) for r in sim.stats.log],
        "dropped": {key: link.flits_dropped
                    for key, link in sorted(sim.links.items())},
    }
    return fp, same_cycle


@pytest.mark.parametrize("delay", [1, 3])
@pytest.mark.parametrize("fc", ["credit", "on_off"])
def test_faulty_and_clean_ejection_links_keep_link_order(fc, delay):
    ref, same_cycle = _homed_run(fc, "reference", delay)
    event, __ = _homed_run(fc, "event", delay)
    # Not vacuous: both bursts killed flits, and the faulty and the
    # clean link landed flits into c0 in the same cycles.
    assert ref["dropped"][FAULTY] > 0 and ref["dropped"][("sw2", "c2")] > 0
    assert same_cycle > 10
    assert event == ref


def test_clean_links_are_never_ticked(monkeypatch):
    """Under the event kernel only faulty links reach phase 3, and only
    to decide fates; ON/OFF links keep no in-flight count or delivery
    log, only the slots their receivers return."""
    ticks, decided = [], set()
    tick, decide = Link.tick, Link.decide

    def counting_tick(link, cycle):
        ticks.append(link.name)
        return tick(link, cycle)

    def recording_decide(link, cycle):
        decided.add(link.name)
        return decide(link, cycle)

    monkeypatch.setattr(Link, "tick", counting_tick)
    monkeypatch.setattr(Link, "decide", recording_decide)
    for fc in ("credit", "on_off"):
        reset_packet_ids()
        sim, __ = _fresh_sim("homed", (2, 2), fc, "event")
        sim.attach_fault_schedule(_bursts())
        sim.run(300, SyntheticTraffic("uniform", 0.3, 3, seed=5), drain=True)
        assert sim.stats.packets_delivered > 0
        assert ticks == []
        assert decided == {"sw0->c0", "sw2->c2"}
        decided.clear()
    assert "_in_flight_count" not in OnOffLink.__slots__
    assert CreditLink.tick is Link.tick and OnOffLink.tick is Link.tick


def _mesh_event_sim():
    reset_packet_ids()
    sim, __ = _fresh_sim("mesh", 4, "on_off", "event")
    return sim


def test_detector_reports_a_landed_flit_nobody_will_take():
    """A flit that landed on a switch's in-link while the switch is
    neither posted nor active would sit on the wire forever."""
    sim = _mesh_event_sim()
    reports = []

    def audit(cycle):
        sched = sim._event_sched
        for (__, dst), link in sorted(sim.links.items()):
            if dst in sim.switches and any(
                at < sim.cycle for at, __ in link._in_flight
            ):
                sched.wheel.clear()
                sched.active_switches.clear()
                reports.extend(sched.find_lost_wakeups())
                raise StopIteration

    sim._event_audit = audit
    with pytest.raises(StopIteration):
        sim.run(200, SyntheticTraffic("uniform", 0.1, 4, seed=3))
    assert any("landed flit" in r and "neither posted nor active" in r
               for r in reports), reports


def test_detector_reports_a_faulty_link_left_inactive():
    """A link turned faulty behind the scheduler's back (no rescan) holds
    flits whose fate nobody will decide."""
    sim = _mesh_event_sim()
    traffic = SyntheticTraffic("uniform", 0.1, 4, seed=3)
    sim.run(60, traffic)
    sched = sim._event_sched
    assert not sched.find_lost_wakeups()
    link = next(
        link for (__, dst), link in sorted(sim.links.items())
        if dst in sim.switches and link._in_flight
    )
    link.start_corruption_burst(sim.cycle + 50, 0.5, random.Random(1))
    lost = sched.find_lost_wakeups()
    assert any(r.startswith(f"link {link.name}: undecided") for r in lost), lost
