"""The event scheduler kept across ``run()`` calls stays exact.

``NocSimulator`` builds its :class:`repro.sim.event_wheel.EventScheduler`
on the first event-kernel run and keeps it: later runs pick up the
wheel and active sets where the last one left them.  A mutation made
between runs either goes through the wakeup hooks (``inject``, the
attachments, ``enable_retransmission``) or marks the scheduler stale
(``step()``, ``purge_packets``, ``recover_from``), and the next run
rescans.

Each case splits a differential-matrix run into random chunks and
applies one public mutator between them, the same way on both kernels.
It asserts:

* no executed cycle of any chunk loses a wakeup, and after a hooked
  mutation the live wheel and active sets cover what a fresh
  :meth:`~repro.sim.event_wheel.EventScheduler.rescan` builds (after
  the others, the scheduler is stale);
* a quiescent stretch after the mutation is still jumped over;
* the results equal the reference kernel's, byte for byte.
"""

import json
import random
import zlib

import pytest

from repro.arch.packet import MessageClass, reset_packet_ids
from repro.reliability.faults import FaultScenario
from repro.sim import (
    DrainTimeoutError,
    FaultEvent,
    FaultKind,
    FaultSchedule,
    RetransmissionPolicy,
    TraceRecorder,
)
from tests.sim.test_kernel_equivalence import (
    CONFIGS,
    _attach_faults,
    _build_sim,
    _build_traffic,
    _fingerprint,
)

MUTATORS = (
    "inject", "step", "purge_packets", "recover_from",
    "attach_fault_schedule", "attach_memory", "enable_retransmission",
)
#: Mutators that act behind the wakeup hooks and mark the scheduler stale.
STALE = {"step", "purge_packets", "recover_from"}

#: Differential-matrix configs: ON/OFF and pipelined credit meshes at
#: mid load, an ACK/NACK mesh, a two-VC torus with a metrics probe,
#: request/response traffic, a link outage under tracing, and online
#: recovery.
_PICKED = (
    "12-mesh4-on_off-synthetic-none-r0.1",
    "27-mesh4-credit-synthetic-none-r0.1-lat3",
    "29-mesh4-ack_nack-synthetic-none-r0.02-lat3",
    "24-torus4-on_off-synthetic-none-r0.002",
    "16-mesh4-on_off-reqresp-none-r0.01",
    "19-mesh4-on_off-synthetic-outage-r0.03",
    "30-mesh4-on_off-synthetic-recovery-r0.02-lat2",
)
CASES = [c for c in CONFIGS if c["id"] in _PICKED]

_SCHEDULER_SETS = ("active_switches", "active_initiators", "active_targets",
                   "active_links", "rt_watch")


def _missing_from_live(sched):
    """What a fresh rescan schedules that the live scheduler does not.

    The live wheel and sets are restored in place afterwards (the hooks
    hold them), so the run goes on from the state under test.
    """
    live = {name: set(getattr(sched, name)) for name in _SCHEDULER_SETS}
    buckets = sched.wheel._buckets
    wheel = {cycle: list(tokens) for cycle, tokens in buckets.items()}
    sched.rescan()
    missing = [
        f"{name}: {sorted(getattr(sched, name) - live[name])}"
        for name in _SCHEDULER_SETS if getattr(sched, name) - live[name]
    ]
    missing += [
        f"wheel[{cycle}]: {sorted(set(tokens) - set(wheel.get(cycle, ())))}"
        for cycle, tokens in buckets.items()
        if set(tokens) - set(wheel.get(cycle, ()))
    ]
    for name in _SCHEDULER_SETS:
        current = getattr(sched, name)
        current.clear()
        current.update(live[name])
    buckets.clear()
    for cycle, tokens in wheel.items():
        buckets[cycle] = tokens
    return missing


def _mutate(mutator, sim, rng):
    """Apply ``mutator`` with arguments drawn from ``rng``."""
    cores = sorted(sim.initiators)
    source, destination = rng.sample(cores, 2)
    if mutator == "inject":
        for __ in range(rng.randint(1, 4)):
            source, destination = rng.sample(cores, 2)
            sim.inject(source, destination, rng.randint(1, 5))
    elif mutator == "step":
        for __ in range(rng.randint(1, 3)):
            sim.step()
    elif mutator == "purge_packets":
        modulus = rng.randint(2, 4)
        sim.purge_packets(lambda p: p.packet_id % modulus == 0, sim.cycle)
    elif mutator == "recover_from":
        between_switches = [
            (a, b) for a, b in sorted(sim.links)
            if a in sim.switches and b in sim.switches
        ]
        scenario = FaultScenario()
        scenario.add_link(*rng.choice(between_switches))
        sim.recover_from(scenario, sim.cycle)
    elif mutator == "attach_fault_schedule":
        a, b = sorted(sim.links)[rng.randrange(len(sim.links))]
        down = sim.cycle + rng.randint(1, 20)
        sim.attach_fault_schedule(FaultSchedule([
            FaultEvent(down, FaultKind.LINK_DOWN, (a, b)),
            FaultEvent(down + rng.randint(1, 5), FaultKind.LINK_UP, (a, b)),
        ]))
    elif mutator == "attach_memory":
        sim.attach_memory(destination, service_cycles=rng.randint(0, 6))
        sim.inject(source, destination, 2, message_class=MessageClass.REQUEST)
    else:  # enable_retransmission
        sim.enable_retransmission(RetransmissionPolicy(
            timeout_cycles=rng.randint(40, 120), max_retries=4))
        sim.inject(source, destination, rng.randint(1, 5))


def _run(config, kernel, mutator, plan_seed):
    """Chunked run with ``mutator`` between chunks, then a drain, the
    mutator once more and a quiescent stretch; returns the fingerprint
    and the cycles the event kernel skipped in that stretch."""
    reset_packet_ids()
    sim = _build_sim(config, kernel)
    recorder = None
    if config["trace"]:
        recorder = TraceRecorder(max_events=500_000)
        sim.enable_tracing(recorder)
    probe = None
    if config["metrics"]:
        probe = sim.enable_metrics(interval=config["metrics"])
    _attach_faults(config, sim)
    traffic = _build_traffic(config, sim)
    lost = []
    if kernel == "event":
        sim._event_audit = lambda cycle: lost.extend(
            f"cycle {cycle}: {entry}"
            for entry in sim._event_sched.find_lost_wakeups()
        )

    def check(mutator):
        sched = sim._event_sched
        if kernel != "event" or sched is None:
            return
        assert not sched.find_lost_wakeups()
        if mutator in STALE:
            assert sched.stale, f"{mutator} did not mark the scheduler stale"
        else:
            assert not _missing_from_live(sched), mutator

    plan = random.Random(plan_seed)
    cycles = min(config["cycles"], 500)
    try:
        while sim.cycle < cycles:
            sim.run(min(plan.randint(1, 120), cycles - sim.cycle), traffic)
            check(None)
            _mutate(mutator, sim, plan)
            check(mutator)
        sim.run(0, traffic, drain=True, max_drain_cycles=20_000)
        _mutate(mutator, sim, plan)
        check(mutator)
        sim.run(0, drain=True, max_drain_cycles=20_000)
        outcome = "drained"
    except DrainTimeoutError as err:
        outcome = ["drain_timeout", err.cycle,
                   sorted(err.pending_transfers.items()), err.flits_stuck]
    before = sim.cycles_skipped
    sim.run(300)
    skipped = sim.cycles_skipped - before
    assert not lost, lost[:3]
    return _fingerprint(sim, traffic, recorder, probe, outcome), skipped, sim


@pytest.mark.parametrize("mutator", MUTATORS)
@pytest.mark.parametrize("config", CASES, ids=[c["id"] for c in CASES])
def test_kept_scheduler_matches_reference(config, mutator):
    plan_seed = zlib.crc32(f"{config['id']}/{mutator}".encode())
    fp_ref, __, __sim = _run(config, "reference", mutator, plan_seed)
    fp, skipped, sim = _run(config, "event", mutator, plan_seed)
    assert json.dumps(fp, sort_keys=True) == json.dumps(fp_ref, sort_keys=True)
    if sim.idle:
        # Only metrics windows and a controller's timers may execute a
        # cycle of an idle network.
        assert skipped >= 240, f"only {skipped} of 300 idle cycles skipped"


def test_step_between_runs_keeps_jumps():
    """``step()`` leaves past wheel buckets behind; without the rescan
    they would pin every later jump horizon to the past.  A long
    stepping loop does not pile the hooks' posts up on the wheel."""
    config = dict(CASES[0], rate=0.02)
    reset_packet_ids()
    sim = _build_sim(config, "event")
    traffic = _build_traffic(config, sim)
    sim.run(200, traffic)
    for __ in range(300):
        traffic.tick(sim.cycle, sim)
        sim.step()
    assert sim._event_sched.stale
    assert len(sim._event_sched.wheel._buckets) <= 1
    sim.run(0, drain=True)
    before = sim.cycles_skipped
    sim.run(500)
    assert sim.cycles_skipped - before == 500
