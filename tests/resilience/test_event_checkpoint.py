"""Checkpoint/resume under the event kernel.

The event scheduler's wheel and active sets are *derived* state: the
capsule carries only component state, and a restored simulator rebuilds
the scheduler exactly (``EventScheduler.rescan``).  The contract under
test: an event-kernel run interrupted at any cycle — mid-fault-campaign
included — and resumed in fresh global state completes byte-identical
to the uninterrupted run, which is itself byte-identical to the
reference kernel.
"""

import pytest

from repro.arch import NocParameters
from repro.arch.packet import reset_packet_ids
from repro.lab.hashing import canonical_json
from repro.sim import (
    FaultEvent,
    FaultKind,
    FaultSchedule,
    NocSimulator,
    RecoveryController,
    RetransmissionPolicy,
    SyntheticTraffic,
)
from repro.topology.presets import standard_instance

CYCLES = 2400


def _build_sim(kernel, seed=11):
    """Same shape as test_checkpoint's fault campaign, kernel-selectable."""
    reset_packet_ids()
    inst = standard_instance("mesh", 4)
    sim = NocSimulator(
        inst.topology, inst.table,
        NocParameters(num_vcs=max(1, inst.min_vcs)),
        vc_assignment=inst.vc_assignment,
        kernel=kernel,
    )
    switch = sorted(sim.switches)[len(sim.switches) // 2]
    sim.attach_fault_schedule(FaultSchedule([
        FaultEvent(400, FaultKind.SWITCH_DOWN, switch),
    ]))
    sim.enable_retransmission(RetransmissionPolicy(max_retries=8))
    sim.attach_recovery_controller(RecoveryController())
    traffic = SyntheticTraffic("uniform", 0.08, 4, seed=seed)
    return sim, traffic


def _fingerprint(sim) -> str:
    stats = sim.stats
    return canonical_json({
        "cycle": sim.cycle,
        "delivered": stats.packets_delivered,
        "flits_injected": stats.flits_injected,
        "flits_delivered": stats.flits_delivered,
        "records": [
            [r.source, r.destination, r.size_flits,
             r.injection_cycle, r.arrival_cycle]
            for r in stats.records
        ],
        "recoveries": len(stats.recoveries),
        "initiators": {
            name: [ni.packets_injected, ni.packets_retransmitted,
                   ni.packets_lost]
            for name, ni in sim.initiators.items()
        },
    })


def _uninterrupted(kernel) -> str:
    sim, traffic = _build_sim(kernel)
    sim.run(CYCLES, traffic, drain=True)
    return _fingerprint(sim)


class TestEventKernelCheckpoint:
    def test_event_and_reference_uninterrupted_agree(self):
        """Anchor: the campaign itself is kernel-independent."""
        assert _uninterrupted("event") == _uninterrupted("reference")

    @pytest.mark.parametrize("interrupt_at", [1, 399, 401, 1300, 2399])
    def test_resume_is_byte_identical(self, interrupt_at):
        """Snapshot mid-run (wheel and active sets live), restore in
        wrecked global state, finish: identical to never stopping."""
        reference = _uninterrupted("event")
        sim, traffic = _build_sim("event")
        sim.run(interrupt_at, traffic)
        assert sim._event_sched is not None  # the scheduler was live
        capsule = sim.snapshot(traffic)
        reset_packet_ids()  # fresh-process illusion
        restored, restored_traffic = NocSimulator.restore(capsule)
        # Derived state stays out of the capsule and is rebuilt lazily.
        assert restored._event_sched is None
        assert restored.kernel == "event"
        restored.run(CYCLES - restored.cycle, restored_traffic, drain=True)
        assert restored._event_sched is not None
        assert _fingerprint(restored) == reference

    def test_resume_scheduler_rebuild_is_exact(self):
        """After restore, the rebuilt wheel/active sets must pass the
        lost-wakeup audit on every executed cycle to completion."""
        sim, traffic = _build_sim("event")
        sim.run(1300, traffic)
        capsule = sim.snapshot(traffic)
        reset_packet_ids()
        restored, restored_traffic = NocSimulator.restore(capsule)
        failures = []
        restored._event_audit = lambda c: (
            failures.append(c)
            if restored._event_sched.find_lost_wakeups() else None
        )
        restored.run(CYCLES - restored.cycle, restored_traffic, drain=True)
        assert not failures

    def test_chunked_event_run_matches_one_shot(self):
        """Checkpoint-every-N shape: many short run() calls (each one
        re-entering and rescanning the scheduler) equal one long run."""
        reference = _uninterrupted("event")
        sim, traffic = _build_sim("event")
        done = 0
        while done < CYCLES:
            chunk = min(250, CYCLES - done)
            sim.run(chunk, traffic)
            done += chunk
        sim.run(0, traffic, drain=True)
        assert _fingerprint(sim) == reference

    def test_cross_kernel_resume(self):
        """A capsule taken under the reference kernel finishes under the
        event kernel with identical results: the capsule format is
        kernel-agnostic and the scheduler rebuild makes no assumptions
        about who produced the state."""
        reference = _uninterrupted("reference")
        sim, traffic = _build_sim("reference")
        sim.run(1300, traffic)
        capsule = sim.snapshot(traffic)
        reset_packet_ids()
        restored, restored_traffic = NocSimulator.restore(capsule)
        restored.kernel = "event"
        restored.run(CYCLES - restored.cycle, restored_traffic, drain=True)
        assert restored._event_sched is not None
        assert _fingerprint(restored) == reference
