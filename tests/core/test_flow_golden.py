"""Golden-result regression test for the Fig. 6 tool flow.

One seeded synthetic SoC is run through the whole flow (synthesis sweep,
baselines, Pareto front, knee-point choice, netlist, verification) and
everything the flow decides is frozen in ``tests/core/golden/flow_synth.json``:
every metric as a float ``repr``, every link with its attributes, every
route path and every floorplan block, plus digests of the Verilog and of
the verification report.  Any change to the synthesis engine's lookups
must leave all of it byte-identical.

Regenerating after an *intentional* change to the flow's results::

    PYTHONPATH=src python tests/core/test_flow_golden.py --regen

and review the fixture diff like any other code change.
"""

import dataclasses
import hashlib
import json
import re
import sys
from pathlib import Path

from repro.apps import synthetic_soc
from repro.core import CommunicationSpec, NocDesignFlow

GOLDEN = Path(__file__).parent / "golden" / "flow_synth.json"

SOC = {"num_cores": 20, "num_memories": 3, "seed": 5}
VERIFY_CYCLES = 1000

_METRICS = (
    "num_switches", "flit_width", "frequency_hz", "max_frequency_hz",
    "power_mw", "area_mm2", "avg_latency_cycles", "avg_latency_ns",
    "max_link_load", "feasible",
)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _design(point) -> dict:
    topo = point.topology
    links = []
    for src, dst in sorted(topo.links):
        attrs = topo.link_attrs(src, dst)
        links.append([src, dst, repr(attrs.length_mm), attrs.pipeline_stages,
                      attrs.width_bits])
    blocks = None
    if point.floorplan is not None:
        blocks = sorted(
            [b.name, repr(b.width_mm), repr(b.height_mm), repr(b.x_mm),
             repr(b.y_mm)]
            for b in point.floorplan
        )
    return {
        "name": point.name,
        "metrics": {m: repr(getattr(point, m)) for m in _METRICS},
        "notes": list(point.notes),
        "links": links,
        "routes": sorted(list(r.path) for r in point.routing_table),
        "floorplan": blocks,
    }


def _run_flow() -> dict:
    spec = CommunicationSpec.from_workload(synthetic_soc(**SOC))
    result = NocDesignFlow(spec).run(verify_cycles=VERIFY_CYCLES)
    report = dataclasses.asdict(result.verification)
    return {
        "soc": SOC,
        "points": [_design(p) for p in result.sweep.points],
        "baselines": [_design(p) for p in result.sweep.baselines],
        "front": [_design(p) for p in result.sweep.front],
        "chosen": _design(result.chosen),
        "verilog_sha256": _sha256(result.verilog),
        "verification_sha256": _sha256(
            json.dumps(report, sort_keys=True, default=repr)),
        "verification_passed": result.verification.passed,
    }


def test_flow_matches_golden():
    assert GOLDEN.exists(), (
        f"golden fixture {GOLDEN} missing; generate with "
        f"`PYTHONPATH=src python {__file__} --regen`"
    )
    expected = json.loads(GOLDEN.read_text())
    actual = json.loads(json.dumps(_run_flow()))
    drift = sorted(k for k in set(expected) | set(actual)
                   if expected.get(k) != actual.get(k))
    assert not drift, (
        f"tool-flow drift vs golden in {drift}; if this change is "
        f"intentional, regenerate the fixture and review its diff."
    )


def test_flow_golden_is_meaningful():
    """The frozen flow must sweep several points, keep a front and pass
    verification, or the fixture guards little."""
    golden = json.loads(GOLDEN.read_text())
    assert len(golden["points"]) >= 10
    assert golden["front"] and golden["baselines"]
    assert golden["verification_passed"] is True
    assert all(p["floorplan"] for p in golden["points"])


def _regen():
    GOLDEN.parent.mkdir(exist_ok=True)
    text = json.dumps(_run_flow(), indent=1, sort_keys=True)
    # One line per link, route and block keeps the fixture diffable.
    text = re.sub(r"\[[^\[\]{}]*\]",
                  lambda m: re.sub(r"\s*\n\s*", " ", m.group()), text)
    GOLDEN.write_text(text + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
