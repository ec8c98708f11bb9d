"""Output checks, one function per workload.

Each check returns a list of problems (empty when the outputs are
right) and states only properties that hold for every seed:

* ``stats.packets_delivered`` excludes warmup packets, so conservation
  is checked on what the target NIs received;
* ``load_point`` jobs do not drain, so a load point is compared with a
  recomputation, never with the offered traffic;
* a failed operation (such as a checkpoint that raises) is counted by
  the workload as failed, never reported here.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional


def _same(a, b) -> bool:
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def _diff_fields(a: Optional[dict], b: Optional[dict]) -> List[str]:
    if not isinstance(a, dict) or not isinstance(b, dict):
        return ["<whole result>"]
    return sorted(k for k in set(a) | set(b) if not _same(a.get(k), b.get(k)))


def check_midload(sim, traffic) -> List[str]:
    """After drain: idle, every offered packet received, flits conserved."""
    problems = []
    if not sim.idle:
        problems.append("network not idle after drain")
    received = [p for t in sim.targets.values() for p, _ in t.packets_received]
    if len(received) != traffic.packets_offered:
        problems.append(f"received {len(received)} packets, "
                        f"offered {traffic.packets_offered}")
    delivered_flits = sum(p.size_flits for p in received)
    if delivered_flits != sim.stats.flits_injected:
        problems.append(f"delivered {delivered_flits} flits, "
                        f"injected {sim.stats.flits_injected}")
    return problems


def check_flow(spec, result) -> List[str]:
    """Verified; chosen on the front; the front is exactly the feasible
    points no feasible point dominates; every front design routes all
    flows without deadlock."""
    from repro.core.pareto import dominates
    from repro.topology.deadlock import check_routing_deadlock

    problems = []
    if not result.verification.passed:
        problems.append(f"verification failed: {result.verification.failures}")
    front = result.sweep.front
    if not any(p is result.chosen for p in front):
        problems.append(f"chosen design {result.chosen.name} not on the front")
    # The front is taken over the implementable (feasible) points: an
    # infeasible point may well dominate it.
    feasible = result.sweep.feasible_points
    for q in feasible:
        if not any(q is f for f in front) and not any(dominates(f, q) for f in front):
            problems.append(f"feasible design {q.name} is neither on the "
                            f"front nor dominated by it")
    for f in front:
        if not f.feasible:
            problems.append(f"front design {f.name} is infeasible")
        for q in feasible:
            if q is not f and dominates(q, f):
                problems.append(f"front design {f.name} dominated by {q.name}")
        unrouted = [
            (flow.source, flow.destination) for flow in spec.flows
            if not f.routing_table.has_route(flow.source, flow.destination)
        ]
        if unrouted:
            problems.append(f"{f.name}: {len(unrouted)} flows unrouted, "
                            f"e.g. {unrouted[0]}")
        if not check_routing_deadlock(f.topology, f.routing_table).is_deadlock_free:
            problems.append(f"{f.name}: routing deadlock")
    return problems


def check_serve(records: List[dict], reference: Dict[str, dict]) -> List[str]:
    """Every accepted submission ends done with a result; repeats equal
    the first copy; seeded specs equal an in-process ``run_job``.

    A submission the server refused (429) or the client could not send
    is a failed operation only; it has no output to check.
    """
    problems = []
    by_spec: Dict[str, dict] = {}
    for i, rec in enumerate(records):
        if rec.get("state") != "done" or not isinstance(rec.get("result"), dict):
            if "doc" in rec:
                problems.append(f"submission {i} accepted but ended "
                                f"{rec.get('state')!r} without a result")
            continue
        key = json.dumps(rec["spec"], sort_keys=True)
        if key not in by_spec:
            by_spec[key] = rec["result"]
        elif not _same(rec["result"], by_spec[key]):
            problems.append(f"submission {i}: result differs from the "
                            f"first copy of its spec")
    for key, expected in reference.items():
        if key in by_spec and not _same(by_spec[key], expected):
            problems.append(f"served result differs from run_job for {key}")
    return problems
