"""Built-in vertical-link test and routing reconfiguration.

Section 4.4: "Verification has been automated by leveraging built-in
link testing facilities ... 3D NoCs providing a modular and flexible
interconnect means that can also obviate for vertical connection
failures" — the routing tables are recomputed around failed TSV links,
keeping the stack operational.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Set, Tuple

from repro.topology.graph import NodeKind, Route, RoutingTable, Topology
from repro.three_d.topology3d import vertical_links


@dataclass
class LinkTestReport:
    """Outcome of the built-in self test over the vertical links."""

    tested: List[Tuple[str, str]]
    failed: List[Tuple[str, str]]

    @property
    def all_pass(self) -> bool:
        return not self.failed

    @property
    def yield_observed(self) -> float:
        if not self.tested:
            return 1.0
        return 1.0 - len(self.failed) / len(self.tested)


def run_link_test(
    topo: Topology,
    fail_probability: float = 0.0,
    seed: int = 1,
    forced_failures: Optional[Iterable[Tuple[str, str]]] = None,
) -> LinkTestReport:
    """Exercise every vertical link; failures are injected.

    ``fail_probability`` models TSV defects discovered at test time;
    ``forced_failures`` pins specific links as broken (fault-injection
    tests).  Both directions of a broken via pair fail together.
    """
    if not 0.0 <= fail_probability <= 1.0:
        raise ValueError("fail probability must be in [0, 1]")
    rng = random.Random(seed)
    verticals = vertical_links(topo)
    forced = set(forced_failures or ())
    failed: Set[Tuple[str, str]] = set()
    seen_pairs = set()
    for src, dst in verticals:
        pair = tuple(sorted((src, dst)))
        if pair in seen_pairs:
            continue
        seen_pairs.add(pair)
        broken = (src, dst) in forced or (dst, src) in forced
        if not broken and rng.random() < fail_probability:
            broken = True
        if broken:
            failed.add((src, dst))
            failed.add((dst, src))
    return LinkTestReport(
        tested=sorted(verticals),
        failed=sorted(f for f in failed if f in set(verticals)),
    )


def reroute_around_failures(
    topo: Topology,
    failed_links: Iterable[Tuple[str, str]],
) -> RoutingTable:
    """Recompute *deadlock-free* routes avoiding failed links.

    The surviving fabric is re-routed with up*/down* (valid on any
    connected topology, so the reconfigured table keeps the synthesis
    deadlock guarantee).  Raises ``RuntimeError`` if any core pair
    becomes unreachable — the stack cannot be salvaged by routing alone.
    """
    from repro.topology.routing import up_down_routing

    dead = set(failed_links)
    survivor = Topology(f"{topo.name}-degraded", flit_width=topo.flit_width)
    for sw in topo.switches:
        survivor.add_switch(sw, **{
            k: v for k, v in topo.node_attrs(sw).items() if k != "kind"
        })
    for core in topo.cores:
        survivor.add_core(core, **{
            k: v for k, v in topo.node_attrs(core).items() if k != "kind"
        })
    for src, dst in topo.links:
        if (src, dst) in dead:
            continue
        attrs = topo.link_attrs(src, dst)
        survivor.add_link(
            src, dst,
            length_mm=attrs.length_mm,
            pipeline_stages=attrs.pipeline_stages,
            width_bits=attrs.width_bits,
            bidirectional=False,
        )
    if not survivor.is_connected():
        raise RuntimeError(
            "link failures disconnect the stack; reconfiguration alone "
            "cannot recover"
        )
    degraded = up_down_routing(survivor)
    # Re-express the routes on the original topology object.
    table = RoutingTable(topo)
    for route in degraded:
        table.set_route(Route(route.path))
    return table
