"""Golden-result regression tests for the simulation kernels.

Three canonical runs — a mesh load point, a fat-tree load point, and a
mesh fault campaign with retransmission — are frozen as JSON fixtures
under ``tests/sim/golden/``.  Both kernels are checked against the
same fixture: any drift in simulation semantics (not just an
event-vs-reference divergence, which ``test_kernel_equivalence``
already catches) fails loudly here.

Regenerating after an *intentional* semantic change::

    PYTHONPATH=src python tests/sim/test_kernel_golden.py --regen

and review the fixture diff like any other code change.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.arch import FlowControlKind, NocParameters
from repro.arch.packet import reset_packet_ids
from repro.sim import (
    FaultEvent,
    FaultKind,
    FaultSchedule,
    KERNELS,
    NocSimulator,
    SyntheticTraffic,
)
from repro.topology.presets import standard_instance

GOLDEN_DIR = Path(__file__).parent / "golden"


# ----------------------------------------------------------------------
# The three frozen scenarios
# ----------------------------------------------------------------------

def _sim_for(scenario, kernel):
    inst = standard_instance(scenario["topology"], scenario["size"])
    params = NocParameters(
        flow_control=FlowControlKind(scenario["flow_control"]),
        num_vcs=max(inst.min_vcs, 1),
        buffer_depth=4,
    )
    return NocSimulator(inst.topology, inst.table, params,
                        vc_assignment=inst.vc_assignment,
                        warmup_cycles=scenario["warmup"], kernel=kernel)


def _run_scenario(scenario, kernel):
    reset_packet_ids()
    sim = _sim_for(scenario, kernel)
    if scenario.get("faults"):
        sim.attach_fault_schedule(FaultSchedule([
            FaultEvent(e["cycle"], FaultKind(e["kind"]),
                       tuple(e["component"]),
                       duration=e.get("duration", 0),
                       probability=e.get("probability", 1.0))
            for e in scenario["faults"]
        ], corruption_seed=scenario["seed"]))
        sim.enable_retransmission()
    traffic = SyntheticTraffic(scenario["pattern"], scenario["rate"],
                               scenario["packet_size"],
                               seed=scenario["seed"])
    sim.run(scenario["cycles"], traffic, drain=True)
    latency = sim.stats.latency()
    return {
        "final_cycle": sim.cycle,
        "packets_offered": traffic.packets_offered,
        "packets_delivered": sim.stats.packets_delivered,
        "flits_injected": sim.stats.flits_injected,
        "flits_delivered": sim.stats.flits_delivered,
        "flits_dropped_by_faults": sim.stats.flits_dropped_by_faults,
        "latency_mean": latency.mean,
        "latency_p95": latency.p95,
        "latency_max": latency.maximum,
        "packets_retransmitted": sum(
            ni.packets_retransmitted for ni in sim.initiators.values()
        ),
        "packets_lost": sum(
            ni.packets_lost for ni in sim.initiators.values()
        ),
        "fault_events": [
            [f.cycle, f.kind, f.component] for f in sim.stats.fault_events
        ],
        "records_digest": _records_digest(sim.stats.records),
    }


def _records_digest(records):
    """Order-sensitive digest of every packet record: cheap to store,
    still catches any reordering or single-field drift."""
    import hashlib
    h = hashlib.sha256()
    for r in records:
        h.update(
            f"{r.source}>{r.destination}:{r.size_flits}"
            f"@{r.injection_cycle}-{r.arrival_cycle}"
            f"/{r.message_class.value};".encode()
        )
    return h.hexdigest()


SCENARIOS = {
    "mesh": {
        "topology": "mesh", "size": 4, "flow_control": "on_off",
        "pattern": "uniform", "rate": 0.05, "packet_size": 4,
        "cycles": 800, "warmup": 100, "seed": 11, "faults": None,
    },
    "fattree": {
        "topology": "fattree", "size": 3, "flow_control": "credit",
        "pattern": "uniform", "rate": 0.03, "packet_size": 4,
        "cycles": 800, "warmup": 100, "seed": 13, "faults": None,
    },
    # Mid-load on a big mesh: enough cores inject every cycle that the
    # whole network is almost never quiescent, so the event kernel's
    # clock jump rarely fires and its active-set scheduling does the
    # work (see BENCH_sim_event.json).
    "mesh_midload": {
        "topology": "mesh", "size": 8, "flow_control": "on_off",
        "pattern": "uniform", "rate": 0.05, "packet_size": 4,
        "cycles": 600, "warmup": 100, "seed": 29, "faults": None,
    },
    "fault_campaign": {
        "topology": "mesh", "size": 4, "flow_control": "on_off",
        "pattern": "uniform", "rate": 0.04, "packet_size": 4,
        "cycles": 1000, "warmup": 0, "seed": 17,
        "faults": [
            {"cycle": 80, "kind": "link_down",
             "component": ["s_0_0", "s_1_0"]},
            {"cycle": 420, "kind": "link_up",
             "component": ["s_0_0", "s_1_0"]},
            {"cycle": 150, "kind": "transient_burst",
             "component": ["s_1_1", "s_2_1"],
             "duration": 250, "probability": 0.8},
        ],
    },
}


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(SCENARIOS))
# "fast" is the retired kernel name, still accepted for one release
# (stored job specs and capsules may carry it); it must run as "event".
@pytest.mark.parametrize("kernel", KERNELS + ("fast",))
def test_matches_golden(name, kernel):
    path = GOLDEN_DIR / f"{name}.json"
    assert path.exists(), (
        f"golden fixture {path} missing; generate with "
        f"`PYTHONPATH=src python {__file__} --regen`"
    )
    expected = json.loads(path.read_text())
    actual = _run_scenario(SCENARIOS[name], kernel)
    drift = {
        k: (expected.get(k), actual.get(k))
        for k in set(expected) | set(actual)
        if expected.get(k) != actual.get(k)
    }
    assert not drift, (
        f"[{kernel} kernel] simulation drift vs golden {name!r}: {drift}\n"
        f"If this change is intentional, regenerate the fixture and "
        f"review its diff."
    )


def test_midload_golden_defeats_idle_skipping():
    """The mid-load fixture must sit where whole-network idle skipping
    is ineffective (otherwise it guards nothing the mesh fixture does
    not): the event kernel's active-set scheduling, not its clock
    jump, is what matches byte-for-byte there."""
    scenario = SCENARIOS["mesh_midload"]
    reset_packet_ids()
    sim = _sim_for(scenario, "event")
    traffic = SyntheticTraffic(scenario["pattern"], scenario["rate"],
                               scenario["packet_size"],
                               seed=scenario["seed"])
    sim.run(scenario["cycles"], traffic, drain=True)
    executed = sim.cycle - sim.cycles_skipped
    assert sim.cycles_skipped < 0.2 * executed, (
        "the mid-load scenario no longer defeats idle skipping; "
        "raise its rate or size so it stays a meaningful regression net"
    )


def test_fault_campaign_golden_exercises_faults():
    """The frozen campaign must actually contain applied faults and
    retransmissions, or the fixture guards nothing."""
    golden = json.loads((GOLDEN_DIR / "fault_campaign.json").read_text())
    assert len(golden["fault_events"]) >= 3
    assert golden["packets_retransmitted"] > 0
    assert golden["packets_delivered"] > 0


def _regen():
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, scenario in SCENARIOS.items():
        result = _run_scenario(scenario, "reference")
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
