"""Wiring identity: the simulator builder wires every component the same way.

For each fabric below, under credit, ON/OFF and ACK/NACK flow control,
the test records how ``NocSimulator`` wired its components:

* per switch: the ``_scan`` order of input (slot, VC, upstream), the
  sorted output names, ``out_index`` and the output link per index;
* per target NI: each ON/OFF ejection link's ``[link name, share]`` of
  the ejection buffer, and the credit-return link per upstream node;
* per initiator NI: the link a flit takes for each first switch of its
  route (probed by injecting one flit, so the record does not depend
  on how the NI stores its links).

Each record is compared with a frozen SHA-256 digest under
``tests/sim/golden/wiring.json``.  The fabrics cover single- and
multi-VC topologies, pipelined links (the stacked mesh), dual-homed
cores with two ejection and two injection links (BONE's SRAMs) and an
irregular fabric.

Regenerating after an *intentional* wiring change::

    PYTHONPATH=src python tests/sim/test_wiring_identity.py --regen
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.arch import FlowControlKind, NocParameters
from repro.arch.link import CreditLink, OnOffLink
from repro.arch.packet import Packet, reset_packet_ids
from repro.sim import NocSimulator
from repro.three_d.topology3d import mesh3d, xyz_routing
from repro.three_d.tsv import design_vertical_link
from repro.topology import bone_style
from repro.topology.irregular import random_irregular
from repro.topology.presets import standard_instance
from repro.topology.routing import shortest_path_routing

GOLDEN = Path(__file__).parent / "golden" / "wiring.json"

FABRICS = ("mesh4", "torus4", "spidergon8", "fattree3", "mesh3d",
           "bone", "irregular")
FLOW_CONTROLS = ("credit", "on_off", "ack_nack")


def _fabric(name):
    """(topology, table, vc_assignment, min_vcs) for one fabric."""
    if name == "mesh3d":
        topo = mesh3d(3, 3, 2, vertical_link=design_vertical_link(32, 4))
        return topo, xyz_routing(topo), None, 1
    if name == "bone":
        topo = bone_style()
        return topo, shortest_path_routing(topo), None, 1
    if name == "irregular":
        topo = random_irregular(8, 10, extra_links=4, seed=7)
        return topo, shortest_path_routing(topo), None, 1
    kind = name.rstrip("0123456789")
    inst = standard_instance(kind, int(name[len(kind):]))
    return inst.topology, inst.table, inst.vc_assignment, inst.min_vcs


def _build(fabric, fc):
    topo, table, vca, min_vcs = _fabric(fabric)
    if fc == "ack_nack":  # single-VC links: no dateline VCs
        vca, min_vcs = None, 1
    params = NocParameters(
        flow_control=FlowControlKind(fc),
        num_vcs=min_vcs,
        buffer_depth=4,
        output_buffer_depth=4 if fc == "ack_nack" else 0,
    )
    return NocSimulator(topo, table, params, vc_assignment=vca,
                        kernel="reference")


def _injection_links(sim, core):
    """Link each first switch of ``core``'s routes injects on, by probe."""
    links = sim.links
    probed = {}
    for (src, sw) in sorted(links):
        if src != core:
            continue
        ni = sim.initiators[core]
        carried = {key: link.flits_carried for key, link in links.items()}
        ni.enqueue(Packet(core, core, 1, (core, sw, core)))
        ni.tick(len(probed))
        used = [key for key, link in links.items()
                if link.flits_carried != carried[key]]
        probed[sw] = [links[key].name for key in used]
    return probed


def wiring_record(sim):
    """Canonical description of how ``sim``'s components are wired."""
    record = {"switches": {}, "targets": {}, "initiators": {}}
    for name in sorted(sim.switches):
        sw = sim.switches[name]
        upstream_of = {link: up for up, link in sw.in_links.items()}
        record["switches"][name] = {
            "scan": [[slot, vc, upstream_of[link]]
                     for slot, vc, __, link in sw._scan],
            "outputs": list(sw._sorted_outputs),
            "out_index": sorted(sw.out_index.items()),
            "out_links": [link.name for link in sw._out_links],
        }
    for name in sorted(sim.targets):
        links = sorted(sim.targets[name].ejection_links.items())
        record["targets"][name] = {
            "onoff": [[link.name, link.share] for __, link in links
                      if isinstance(link, OnOffLink)],
            "credit": [(up, link.name) for up, link in links
                       if isinstance(link, CreditLink)],
        }
    for core in sorted(sim.initiators):
        record["initiators"][core] = _injection_links(sim, core)
    return record


def _digest(record):
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _case_id(fabric, fc):
    return f"{fabric}-{fc}"


CASES = [(f, fc) for f in FABRICS for fc in FLOW_CONTROLS]


@pytest.mark.parametrize(
    "fabric,fc", CASES, ids=[_case_id(f, fc) for f, fc in CASES]
)
def test_wiring_matches_golden(fabric, fc):
    reset_packet_ids()
    record = wiring_record(_build(fabric, fc))
    golden = json.loads(GOLDEN.read_text())
    assert _digest(record) == golden[_case_id(fabric, fc)]


def test_dual_homed_cores_are_wired_on_every_port():
    """BONE's dual-port SRAMs inject on the link their route starts
    with, and each of their two ejection links gets half of the
    8-slot ejection buffer."""
    sim = _build("bone", "on_off")
    record = wiring_record(sim)
    sram = record["initiators"]["sram_0"]
    assert sram == {sw: [f"sram_0->{sw}"] for sw in ("xbar_0", "xbar_1")}
    assert record["targets"]["sram_0"]["onoff"] == [
        ["xbar_0->sram_0", 4], ["xbar_1->sram_0", 4],
    ]
    assert all(isinstance(link, OnOffLink) for link in sim.links.values())


def _regen():
    golden = {}
    for fabric, fc in CASES:
        reset_packet_ids()
        golden[_case_id(fabric, fc)] = _digest(
            wiring_record(_build(fabric, fc))
        )
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} digests to {GOLDEN}")


if __name__ == "__main__":
    if "--regen" in sys.argv:
        _regen()
