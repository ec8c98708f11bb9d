"""Differential equivalence suite: the event kernel vs ``reference``.

Every configuration in the seeded matrix below runs once per kernel
(``reference``, ``event``) from identical seeds and freshly built
component state.  The resulting fingerprints (packet records,
component counters, trace streams, fault/recovery accounting, metrics
summaries) are serialised to canonical JSON and must be
**byte-identical** across both kernels.  The only observable allowed to
differ between kernels is ``NocSimulator.cycles_skipped``, which is
therefore excluded from the fingerprint.

The matrix spans topology x load x flow control x faults x traffic
model x metrics/tracing.  Low injection rates stress the event
kernel's quiescence jumps; mid/high rates stress its active-set
bookkeeping (the network is never quiescent, but the scheduler must
still wake exactly the right components).
"""

import json
import random

import pytest

from repro.arch import FlowControlKind, NocParameters
from repro.arch.packet import reset_packet_ids
from repro.sim import (
    CompositeTraffic,
    DrainTimeoutError,
    FaultEvent,
    FaultKind,
    FaultSchedule,
    Flow,
    FlowGraphTraffic,
    KERNELS,
    NocSimulator,
    RecoveryController,
    RequestResponseTraffic,
    RetransmissionPolicy,
    SyntheticTraffic,
    TraceRecorder,
)
from repro.topology import bone_style
from repro.topology.presets import standard_instance
from repro.topology.irregular import random_irregular
from repro.topology.routing import shortest_path_routing


# ----------------------------------------------------------------------
# Config matrix
# ----------------------------------------------------------------------

def _make_configs():
    """~2 dozen seeded configs spanning the product axes.

    Hand-rolled sampling (rather than itertools.product) keeps the
    suite fast while still crossing every axis value with several
    others; the RNG only picks rates/seeds so every config is valid by
    construction (e.g. ack_nack stays on single-VC topologies).
    """
    rng = random.Random(20260806)
    configs = []

    def add(**kw):
        base = {
            "topology": "mesh", "size": 4, "fc": "on_off", "vcs": 1,
            "buffer": 4, "traffic": "synthetic", "pattern": "uniform",
            "rate": 0.05, "packet_size": 4, "cycles": 600, "warmup": 100,
            "seed": rng.randrange(1, 1000), "faults": "none",
            "metrics": 0, "trace": False, "latency": 1,
        }
        base.update(kw)
        base["id"] = (
            f"{len(configs):02d}-{base['topology']}{base['size']}-"
            f"{base['fc']}-{base['traffic']}-{base['faults']}"
            f"-r{base['rate']}"
        )
        if base["latency"] != 1:
            base["id"] += f"-lat{base['latency']}"
        configs.append(base)

    # Topology x flow-control sweep at skip-friendly (low) load.
    for topo, size in (("mesh", 4), ("torus", 4), ("spidergon", 8),
                       ("fattree", 3)):
        fcs = ["credit", "on_off"]
        if topo in ("mesh", "fattree"):  # single-VC topologies only
            fcs.append("ack_nack")
        for fc in fcs:
            add(topology=topo, size=size, fc=fc,
                rate=rng.choice([0.002, 0.01, 0.03]))

    # Load sweep on the workhorse mesh: idle, light, saturating.
    for rate in (0.001, 0.02, 0.10, 0.35):
        add(rate=rate, pattern=rng.choice(["uniform", "transpose",
                                           "hotspot"]))

    # Alternate traffic models (each has its own lookahead replay path).
    add(traffic="flows", rate=0.02)
    add(traffic="flows", rate=0.004, fc="credit")
    add(traffic="reqresp", rate=0.01)
    add(traffic="trace")
    add(traffic="composite", rate=0.01)

    # Faults: outage + retransmission, NACK bursts, full online recovery.
    add(faults="outage", rate=0.03, trace=True)
    add(faults="outage", rate=0.005, fc="credit", cycles=900)
    add(faults="burst", rate=0.03, fc="ack_nack")
    add(faults="recovery", rate=0.02, cycles=1200, metrics=100)

    # Observability on (probe reads counters every interval; the skip
    # horizon must respect window boundaries).
    add(metrics=50, rate=0.01, trace=True)
    add(metrics=37, rate=0.002, topology="torus", size=4, vcs=2)

    # Irregular topology (no standard preset; shortest-path routed).
    add(topology="irregular", size=0, fc="credit", rate=0.01)

    # Multi-stage switch pipelines: a switch stays active while its
    # head flits wait out the pipeline, at low and saturating load,
    # across flow controls and under online recovery.
    add(latency=2, rate=0.01)
    add(latency=3, rate=0.10, pattern="transpose", fc="credit")
    add(latency=2, topology="torus", size=4, vcs=2, rate=0.03)
    add(latency=3, fc="ack_nack", rate=0.02)
    add(latency=2, faults="recovery", rate=0.02, cycles=1200, metrics=100)

    # Dual-homed cores (BONE's SRAMs): two injection links per NI and
    # two ON/OFF ejection links reporting into one shared buffer.
    add(topology="bone", size=0, fc="on_off", rate=0.03)
    return configs


CONFIGS = _make_configs()


# ----------------------------------------------------------------------
# One seeded run -> canonical fingerprint
# ----------------------------------------------------------------------

def _build_sim(config, kernel):
    if config["topology"] == "irregular":
        topo = random_irregular(8, 10, extra_links=4, seed=7)
        table = shortest_path_routing(topo)
        vca, min_vcs = None, 1
    elif config["topology"] == "bone":
        topo = bone_style()
        table = shortest_path_routing(topo)
        vca, min_vcs = None, 1
    else:
        inst = standard_instance(config["topology"], config["size"])
        topo, table = inst.topology, inst.table
        vca, min_vcs = inst.vc_assignment, inst.min_vcs
    params = NocParameters(
        flow_control=FlowControlKind(config["fc"]),
        num_vcs=max(min_vcs, config["vcs"]),
        buffer_depth=config["buffer"],
        output_buffer_depth=(
            config["buffer"] if config["fc"] == "ack_nack" else 0
        ),
        switch_latency_cycles=config["latency"],
    )
    return NocSimulator(topo, table, params, vc_assignment=vca,
                        warmup_cycles=config["warmup"], kernel=kernel)


def _build_traffic(config, sim):
    kind = config["traffic"]
    cores = sorted(c for c in sim.initiators)
    if kind == "synthetic":
        return SyntheticTraffic(config["pattern"], config["rate"],
                                config["packet_size"], seed=config["seed"])
    if kind == "flows":
        flows = [
            Flow(cores[0], cores[-1], flits_per_cycle=config["rate"] * 4,
                 packet_size_flits=config["packet_size"]),
            Flow(cores[1], cores[-2], flits_per_cycle=config["rate"],
                 packet_size_flits=2),
            Flow(cores[2], cores[0], flits_per_cycle=config["rate"] * 7,
                 packet_size_flits=config["packet_size"]),
        ]
        return FlowGraphTraffic(flows)
    if kind == "reqresp":
        slaves = [cores[len(cores) // 2]]
        for slave in slaves:
            sim.attach_memory(slave, service_cycles=4)
        masters = [c for c in cores if c not in slaves][:4]
        return RequestResponseTraffic(masters, slaves, config["rate"],
                                      seed=config["seed"])
    if kind == "composite":
        return CompositeTraffic([
            SyntheticTraffic("uniform", config["rate"],
                             config["packet_size"], seed=config["seed"]),
            FlowGraphTraffic([
                Flow(cores[0], cores[-1],
                     flits_per_cycle=config["rate"] * 2,
                     packet_size_flits=2),
            ]),
        ])
    # kind == "trace": bursty hand-written schedule with long gaps.
    from repro.sim import TraceEvent
    events = [
        TraceEvent(5, cores[0], cores[-1], 4),
        TraceEvent(6, cores[1], cores[-2], 2),
        TraceEvent(200, cores[-1], cores[0], 6),
        TraceEvent(450, cores[2], cores[3], 1),
        TraceEvent(451, cores[3], cores[2], 1),
    ]
    from repro.sim import TraceTraffic
    return TraceTraffic(events)


def _attach_faults(config, sim):
    mode = config["faults"]
    if mode == "none":
        return
    links = sorted(sim.links)
    victim = links[len(links) // 3]
    if mode == "outage":
        sim.attach_fault_schedule(FaultSchedule([
            FaultEvent(60, FaultKind.LINK_DOWN, victim),
            FaultEvent(320, FaultKind.LINK_UP, victim),
        ]))
        sim.enable_retransmission()
    elif mode == "burst":
        sim.attach_fault_schedule(FaultSchedule([
            FaultEvent(40, FaultKind.TRANSIENT_BURST, victim,
                       duration=200, probability=0.7),
        ], corruption_seed=config["seed"]))
        sim.enable_retransmission()
    elif mode == "recovery":
        switch = sorted(sim.switches)[len(sim.switches) // 2]
        sim.attach_fault_schedule(FaultSchedule([
            FaultEvent(100, FaultKind.SWITCH_DOWN, switch),
        ]))
        sim.enable_retransmission(RetransmissionPolicy(
            timeout_cycles=32, max_retries=6, backoff=1.5))
        sim.attach_recovery_controller(RecoveryController(
            min_timeouts=2, reconfiguration_delay=16,
            cooldown_cycles=64))


_NI_COUNTERS = (
    "packets_injected", "flits_injected", "injection_stall_cycles",
    "packets_retransmitted", "packets_recovered", "packets_lost",
    "packets_abandoned_unreachable",
)
_TARGET_COUNTERS = ("flits_received", "duplicates_discarded", "acks_sent")


def _offered(traffic):
    if hasattr(traffic, "packets_offered"):
        return traffic.packets_offered
    if hasattr(traffic, "requests_offered"):  # RequestResponseTraffic
        return traffic.requests_offered
    return sum(_offered(s) for s in traffic.sources)  # CompositeTraffic


def _fingerprint(sim, traffic, recorder, probe, outcome):
    stats = sim.stats
    fp = {
        "outcome": outcome,
        "cycle": sim.cycle,
        "idle": sim.idle,
        "offered": _offered(traffic),
        "delivered": stats.packets_delivered,
        "flits_injected": stats.flits_injected,
        "flits_delivered": stats.flits_delivered,
        "dropped_by_faults": stats.flits_dropped_by_faults,
        "unroutable": stats.unroutable_injections,
        "records": [
            [r.source, r.destination, r.size_flits,
             r.injection_cycle, r.arrival_cycle, r.message_class.value]
            for r in stats.records
        ],
        "faults": [[f.cycle, f.kind, f.component]
                   for f in stats.fault_events],
        "recoveries": [
            [r.detected_cycle, r.completed_cycle,
             sorted(map(list, r.blamed_links)), sorted(r.blamed_switches),
             r.routes_changed, r.packets_purged, r.transfers_abandoned,
             r.detection_latency]
            for r in stats.recoveries
        ],
        "initiators": {
            name: [getattr(ni, c) for c in _NI_COUNTERS]
            for name, ni in sim.initiators.items()
        },
        "targets": {
            name: [getattr(t, c) for c in _TARGET_COUNTERS]
            for name, t in sim.targets.items()
        },
        "switches": {
            name: [sw.flits_forwarded, sw.flits_dropped]
            for name, sw in sim.switches.items()
        },
        "links": {
            f"{a}->{b}": link.flits_dropped
            for (a, b), link in sim.links.items()
        },
    }
    if recorder is not None:
        fp["trace"] = [
            [e.cycle, e.kind.value, e.location, e.packet_id,
             e.flit_index, e.source, e.destination, e.note]
            for e in recorder.events
        ]
        fp["trace_dropped"] = recorder.dropped
    if probe is not None:
        fp["metrics_samples"] = probe.samples_taken
        fp["metrics_summary"] = probe.summary()
    return fp


def _run(config, kernel):
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
    try:
        sim.run(config["cycles"], traffic, drain=True,
                max_drain_cycles=20_000)
        outcome = "drained"
    except DrainTimeoutError as err:
        # A stuck network is a legitimate outcome (e.g. a dead switch
        # holding transfers hostage); the census must match too.
        outcome = ["drain_timeout", err.cycle,
                   sorted(err.pending_transfers.items()), err.flits_stuck]
    return sim, _fingerprint(sim, traffic, recorder, probe, outcome)


# ----------------------------------------------------------------------
# The differential tests
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "config", CONFIGS, ids=[c["id"] for c in CONFIGS]
)
def test_kernels_byte_identical(config):
    """2-way matrix: every non-reference kernel matches the reference."""
    __, fp_ref = _run(config, "reference")
    blob_ref = json.dumps(fp_ref, sort_keys=True)
    for kernel in KERNELS:
        if kernel == "reference":
            continue
        __, fp = _run(config, kernel)
        blob = json.dumps(fp, sort_keys=True)
        assert blob == blob_ref, (
            f"kernel {kernel!r} diverged from reference on {config['id']}"
        )


def test_matrix_is_large_enough():
    """The ISSUE contract: at least 20 distinct configs in the matrix."""
    assert len(CONFIGS) >= 20
    assert len({c["id"] for c in CONFIGS}) == len(CONFIGS)


def test_event_kernel_actually_skips_at_low_load():
    """Guard against the suite silently degenerating: at trickle load
    the event kernel must be exercising its quiescence jump, not just
    matching because it never skipped."""
    config = dict(CONFIGS[0], rate=0.001, cycles=2000, id="skip-probe")
    sim_event, fp_event = _run(config, "event")
    sim_ref, fp_ref = _run(config, "reference")
    assert sim_ref.cycles_skipped == 0
    assert sim_event.cycles_skipped > 500
    assert json.dumps(fp_event, sort_keys=True) == \
        json.dumps(fp_ref, sort_keys=True)


def test_event_kernel_actually_schedules():
    """Same degeneration guard at a load where the network is never
    quiescent: the scheduler must be live (its wheel posting
    deliveries) while matching the reference byte-for-byte."""
    mid = dict(CONFIGS[0], rate=0.05, cycles=1000, id="event-mid")
    sim_mid, fp_mid = _run(mid, "event")
    assert sim_mid._event_sched is not None
    sim_ref, fp_ref = _run(mid, "reference")
    assert json.dumps(fp_mid, sort_keys=True) == \
        json.dumps(fp_ref, sort_keys=True)


def test_kernel_names_are_closed():
    assert KERNELS == ("reference", "event")
    with pytest.raises(ValueError):
        _build_sim(CONFIGS[0], "warp")
