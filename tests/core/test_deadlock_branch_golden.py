"""Golden-result regression test for the deadlock branch of path allocation.

No bundled or synthetic spec drives ``TopologySynthesizer._allocate_paths``
into its retry / penalty / tree-fallback branch, so this test builds an
input that does, by hand:

* four switches on a unit square: sw0 (0,0), sw1 (1,0), sw2 (1,1),
  sw3 (0,1), six cores each;
* 1500 MB/s flows on the counter-clockwise edges (0->3, 3->2, 2->1,
  1->0) and on both diagonals in both directions, which a 32 bit x
  400 MHz link can carry only once;
* 200 MB/s flows that open the clockwise edges;
* 150 MB/s flows from each switch to the switch two steps clockwise.

The rotating flows can only use the clockwise ring, and the last one
closes a cycle on every retry, so it falls back to the spanning-chain
path sw3 -> sw2 -> sw1.  Its routes, opened links and the sequence of
``would_deadlock`` verdicts are frozen in
``tests/core/golden/deadlock_branch.json``; each route is its full node
path, source core to destination core.

Regenerating after an *intentional* change to path allocation::

    PYTHONPATH=src python tests/core/test_deadlock_branch_golden.py --regen

and review the fixture diff like any other code change.
"""

import json
import re
import sys
from pathlib import Path

import repro.core.synthesis as synthesis
from repro.core.mapping import Mapping
from repro.core.spec import CommunicationSpec, CoreSpec, FlowSpec

GOLDEN = Path(__file__).parent / "golden" / "deadlock_branch.json"

POSITIONS = {
    "sw0": (0.0, 0.0), "sw1": (1.0, 0.0), "sw2": (1.0, 1.0), "sw3": (0.0, 1.0),
}
CAPACITY_BPS = 32 * 400e6
FLOW_GROUPS = (  # (switch pairs, MB/s); group t uses source core t
    (((0, 3), (3, 2), (2, 1), (1, 0)), 1500.0),  # counter-clockwise
    (((0, 2), (2, 0), (1, 3), (3, 1)), 1500.0),  # both diagonals
    (((0, 1), (1, 2), (2, 3), (3, 0)), 200.0),   # clockwise
    (((0, 2), (1, 3), (2, 0), (3, 1)), 150.0),   # two steps clockwise
)


def _core(switch: int, index: int) -> str:
    return f"s{switch}_{index}"


def _allocate() -> dict:
    flows = [
        FlowSpec(_core(a, t), _core(b, 5 - t), bw)
        for t, (pairs, bw) in enumerate(FLOW_GROUPS)
        for a, b in pairs
    ]
    spec = CommunicationSpec(
        [CoreSpec(_core(s, i)) for s in range(4) for i in range(6)],
        flows, name="deadlock-branch",
    )
    mapping = Mapping([[_core(s, i) for i in range(6)] for s in range(4)])

    verdicts = []
    check = synthesis.would_deadlock

    def counting(cdg, links):
        verdict = check(cdg, links)
        verdicts.append(verdict)
        return verdict

    synthesis.would_deadlock = counting
    try:
        routes, opened = synthesis.TopologySynthesizer(spec)._allocate_paths(
            mapping, POSITIONS, CAPACITY_BPS
        )
    finally:
        synthesis.would_deadlock = check
    return {
        "routes": [[src, *path, dst] for (src, dst), path in routes.items()],
        "opened": [list(link) for link in sorted(opened)],
        "verdicts": verdicts,
    }


def test_deadlock_branch_matches_golden():
    assert GOLDEN.exists(), (
        f"golden fixture {GOLDEN} missing; generate with "
        f"`PYTHONPATH=src python {__file__} --regen`"
    )
    expected = json.loads(GOLDEN.read_text())
    assert _allocate() == expected


def test_deadlock_branch_golden_is_meaningful():
    """The frozen input must exhaust the retries and take the fallback,
    or the fixture guards nothing the flow golden does not."""
    golden = json.loads(GOLDEN.read_text())
    cyclic = sum(golden["verdicts"])
    assert cyclic >= synthesis._DEADLOCK_RETRIES + 1
    assert len(golden["verdicts"]) == len(golden["routes"]) + cyclic
    assert golden["routes"][-1] == ["s3_3", "sw3", "sw2", "sw1", "s1_2"]


def _regen():
    GOLDEN.parent.mkdir(exist_ok=True)
    text = json.dumps(_allocate(), indent=1)
    # One line per route, link and verdict list keeps the fixture diffable.
    text = re.sub(r"\[[^\[\]{}]*\]",
                  lambda m: re.sub(r"\s*\n\s*", " ", m.group()), text)
    GOLDEN.write_text(text + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
