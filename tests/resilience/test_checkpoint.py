"""Checkpoint/resume: byte-identical state capsules.

The contract under test is the PR's core invariant: a run interrupted
at *any* cycle and resumed from its capsule — even in a fresh process
with virgin global state — produces a fingerprint byte-identical to the
uninterrupted run, and a run that checkpoints every N cycles is
byte-identical to one that never checkpoints at all.
"""

import pickle

import pytest

from repro.arch import NocParameters
from repro.arch.packet import (
    packet_id_watermark,
    reset_packet_ids,
    set_packet_id_watermark,
)
from repro.lab.hashing import canonical_json
from repro.resilience.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointCorruptError,
    CheckpointPlan,
    CheckpointStore,
    CheckpointVersionError,
    current_cancel_event,
    current_checkpoint_plan,
    restore_simulator,
    run_with_checkpoints,
    snapshot_simulator,
    use_cancel_event,
    use_checkpoint_plan,
    validate_capsule,
)
from repro.sim import (
    FaultEvent,
    FaultKind,
    FaultSchedule,
    NocSimulator,
    RecoveryController,
    RequestResponseTraffic,
    RetransmissionPolicy,
    SyntheticTraffic,
)
from repro.topology.presets import standard_instance

CYCLES = 2400


def _build_fault_sim(seed=11):
    """A simulator shaped like the fault_campaign runner's."""
    reset_packet_ids()
    inst = standard_instance("mesh", 4)
    sim = NocSimulator(
        inst.topology, inst.table,
        NocParameters(num_vcs=max(1, inst.min_vcs)),
        vc_assignment=inst.vc_assignment,
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


def _reference_fingerprint() -> str:
    sim, traffic = _build_fault_sim()
    sim.run(CYCLES, traffic, drain=True)
    return _fingerprint(sim)


class TestSnapshotRestore:
    def test_mid_run_snapshot_resumes_byte_identical(self):
        reference = _reference_fingerprint()
        sim, traffic = _build_fault_sim()
        sim.run(1300, traffic)
        capsule = sim.snapshot(traffic)
        # Fresh-process illusion: wreck every piece of global state the
        # capsule is supposed to carry.
        reset_packet_ids()
        restored, restored_traffic = NocSimulator.restore(capsule)
        restored.run(CYCLES - restored.cycle, restored_traffic, drain=True)
        assert _fingerprint(restored) == reference

    @pytest.mark.parametrize("interrupt_at", [1, 399, 401, 2399])
    def test_arbitrary_interrupt_cycles(self, interrupt_at):
        reference = _reference_fingerprint()
        sim, traffic = _build_fault_sim()
        sim.run(interrupt_at, traffic)
        capsule = sim.snapshot(traffic)
        reset_packet_ids()
        restored, restored_traffic = NocSimulator.restore(capsule)
        restored.run(CYCLES - restored.cycle, restored_traffic, drain=True)
        assert _fingerprint(restored) == reference

    def test_memory_attachments_survive_restore(self):
        def build():
            reset_packet_ids()
            inst = standard_instance("mesh", 4)
            sim = NocSimulator(
                inst.topology, inst.table,
                NocParameters(num_vcs=max(1, inst.min_vcs)),
                vc_assignment=inst.vc_assignment,
            )
            cores = sorted(sim.initiators)
            slave = cores[len(cores) // 2]
            sim.attach_memory(slave, service_cycles=4)
            masters = [c for c in cores if c != slave][:4]
            traffic = RequestResponseTraffic(masters, [slave], 0.05, seed=3)
            return sim, traffic

        sim, traffic = build()
        sim.run(1200, traffic, drain=True)
        reference = _fingerprint(sim)

        sim, traffic = build()
        sim.run(500, traffic)
        capsule = sim.snapshot(traffic)
        reset_packet_ids()
        restored, restored_traffic = NocSimulator.restore(capsule)
        restored.run(1200 - restored.cycle, restored_traffic, drain=True)
        assert _fingerprint(restored) == reference

    def test_packet_id_watermark_round_trip(self):
        reset_packet_ids()
        mark = packet_id_watermark()
        assert packet_id_watermark() == mark  # reading does not consume
        set_packet_id_watermark(mark + 10)
        assert packet_id_watermark() == mark + 10
        reset_packet_ids()


class TestCapsuleIntegrity:
    def _capsule(self):
        sim, traffic = _build_fault_sim()
        sim.run(600, traffic)
        return sim.snapshot(traffic)

    def test_validate_accepts_good_capsule(self):
        body = validate_capsule(self._capsule())
        assert isinstance(body, bytes) and body

    def test_framed_body_is_the_one_shot_pickle(self):
        # The capsule is written frame by frame; its body must still be
        # byte for byte what pickle.dumps gives for the same document.
        sim, traffic = _build_fault_sim()
        sim.run(600, traffic)
        body = validate_capsule(snapshot_simulator(sim, traffic))
        assert body == pickle.dumps(
            {
                "version": CHECKPOINT_VERSION,
                "cycle": sim.cycle,
                "packet_watermark": packet_id_watermark(),
                "sim": sim,
                "traffic": traffic,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )

    def test_truncation_detected(self):
        capsule = self._capsule()
        with pytest.raises(CheckpointCorruptError):
            validate_capsule(capsule[: len(capsule) // 2])
        with pytest.raises(CheckpointCorruptError):
            restore_simulator(capsule[: len(capsule) // 2])

    def test_bit_flip_detected(self):
        capsule = bytearray(self._capsule())
        capsule[len(capsule) - 5] ^= 0x40
        with pytest.raises(CheckpointCorruptError):
            validate_capsule(bytes(capsule))

    def test_bad_magic_detected(self):
        with pytest.raises(CheckpointCorruptError):
            validate_capsule(b"not a capsule at all")

    def test_future_version_rejected(self):
        from repro.resilience import checkpoint as ck

        doc = pickle.loads(validate_capsule(self._capsule()))
        doc["version"] = CHECKPOINT_VERSION + 1
        body = pickle.dumps(doc, protocol=pickle.HIGHEST_PROTOCOL)
        forged = (
            ck._MAGIC
            + ck.payload_digest(body).encode("ascii")
            + b"\n"
            + body
        )
        with pytest.raises(CheckpointVersionError):
            restore_simulator(forged)


class TestCheckpointStore:
    def test_save_load_discard(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        assert store.load("t1") is None
        store.save("t1", b"payload")
        assert store.load("t1") == b"payload"
        assert list(store.tags()) == ["t1"]
        assert store.discard("t1") is True
        assert store.discard("t1") is False
        assert store.load("t1") is None

    def test_try_restore_discards_corrupt(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        sim, traffic = _build_fault_sim()
        sim.run(500, traffic)
        store.save("good", sim.snapshot(traffic))
        store.save("bad", b"garbage capsule")
        restored = store.try_restore("good")
        assert restored is not None and restored[0].cycle == 500
        assert store.try_restore("bad") is None
        assert store.corrupt_discarded == 1
        assert store.load("bad") is None  # evicted, not lurking

    def test_recovery_scan(self, tmp_path):
        root = tmp_path / "ckpt"
        store = CheckpointStore(root)
        sim, traffic = _build_fault_sim()
        sim.run(400, traffic)
        store.save("keep", sim.snapshot(traffic))
        store.save("torn", b"\x00\x01half a capsule")
        (root / ".tmp-abc.part").write_bytes(b"temp debris")
        scan = store.recovery_scan()
        assert scan["corrupt_removed"] == ["torn"]
        assert scan["tempfiles_removed"] == 1
        assert scan["checkpoints"] == 1
        assert list(store.tags()) == ["keep"]

    def test_tag_validation(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        with pytest.raises(ValueError):
            store.path_for("../escape")


class TestRunWithCheckpoints:
    @pytest.mark.parametrize("interval", [150, 600, 10_000])
    def test_identical_to_plain_run(self, tmp_path, interval):
        reference = _reference_fingerprint()
        store = CheckpointStore(tmp_path / "ckpt")
        sim, traffic = _build_fault_sim()
        run_with_checkpoints(
            sim, CYCLES, traffic,
            store=store, tag="job", interval=interval, drain=True,
        )
        assert _fingerprint(sim) == reference
        assert store.load("job") is not None

    def test_resume_from_capsule_completes_identically(self, tmp_path):
        reference = _reference_fingerprint()
        store = CheckpointStore(tmp_path / "ckpt")
        sim, traffic = _build_fault_sim()
        # "Crash" after a few chunks: run part-way with checkpoints...
        run_with_checkpoints(
            sim, 900, traffic, store=store, tag="job", interval=300,
        )
        # ...then resume in a polluted process from the capsule alone.
        reset_packet_ids()
        restored, restored_traffic = store.try_restore("job")
        run_with_checkpoints(
            restored, CYCLES, restored_traffic,
            store=store, tag="job", interval=300, drain=True,
        )
        assert _fingerprint(restored) == reference

    def test_cancel_event_raises_at_chunk_boundary(self, tmp_path):
        import threading

        from repro.lab.jobs import JobCancelled

        store = CheckpointStore(tmp_path / "ckpt")
        sim, traffic = _build_fault_sim()
        event = threading.Event()
        event.set()
        with use_cancel_event(event):
            with pytest.raises(JobCancelled):
                run_with_checkpoints(
                    sim, CYCLES, traffic,
                    store=store, tag="job", interval=200,
                )


class TestPlanAndContextVars:
    def test_plan_validation(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointPlan(directory=str(tmp_path), interval=0)

    def test_contextvars_scoped(self, tmp_path):
        assert current_checkpoint_plan() is None
        assert current_cancel_event() is None
        plan = CheckpointPlan(directory=str(tmp_path), interval=500)
        with use_checkpoint_plan(plan):
            assert current_checkpoint_plan() is plan
        assert current_checkpoint_plan() is None
