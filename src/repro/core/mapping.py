"""Core-to-switch mapping: min-cut style partitioning.

SunFloor's first phase assigns cores to switches so that heavily
communicating cores share a switch and inter-switch traffic (which costs
switch hops, wire power and link capacity) is minimized.  We use a
deterministic greedy agglomerative scheme: start with one cluster per
core, repeatedly merge the cluster pair with the highest inter-cluster
bandwidth, subject to a balance cap, until the target switch count is
reached — a standard lightweight stand-in for exact min-cut
partitioning with the same qualitative behaviour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.spec import CommunicationSpec


@dataclass
class Mapping:
    """Assignment of cores to switch clusters."""

    clusters: List[List[str]]  # cluster index -> sorted core names

    def __post_init__(self) -> None:
        seen = set()
        for cluster in self.clusters:
            for core in cluster:
                if core in seen:
                    raise ValueError(f"core {core!r} mapped twice")
                seen.add(core)

    @property
    def num_switches(self) -> int:
        return len(self.clusters)

    def switch_of(self, core: str) -> int:
        for idx, cluster in enumerate(self.clusters):
            if core in cluster:
                return idx
        raise KeyError(f"core {core!r} not mapped")

    def intercluster_bandwidth(self, spec: CommunicationSpec) -> float:
        """Total MB/s crossing cluster boundaries — the min-cut objective."""
        total = 0.0
        assignment = {
            core: idx for idx, cluster in enumerate(self.clusters) for core in cluster
        }
        for flow in spec.flows:
            if assignment[flow.source] != assignment[flow.destination]:
                total += flow.bandwidth_mbps
        return total


def map_cores(
    spec: CommunicationSpec,
    num_switches: int,
    balance_slack: float = 1.5,
    positions: Dict[str, Tuple[float, float]] = None,
    distance_weight: float = 0.5,
) -> Mapping:
    """Partition the spec's cores into ``num_switches`` clusters.

    ``balance_slack`` caps cluster size at
    ``ceil(slack * n / num_switches)`` so one switch cannot swallow the
    whole design (its radix would kill frequency — Fig. 2).

    ``positions`` (core name -> floorplan center, mm) makes the mapping
    floorplan-aware, the key idea of [11]: merging physically distant
    cores is discounted because every flit between them pays wire power
    on the NI links, so clusters stay local and custom topologies keep
    their wire-length advantage.  ``distance_weight`` (per mm) controls
    the discount strength.
    """
    cores = spec.core_names
    n = len(cores)
    if num_switches < 1:
        raise ValueError("need at least one switch")
    if num_switches > n:
        raise ValueError(f"cannot use {num_switches} switches for {n} cores")
    if balance_slack < 1.0:
        raise ValueError("balance slack must be >= 1.0")
    max_size = max(1, math.ceil(balance_slack * n / num_switches))

    clusters: List[List[str]] = [[c] for c in cores]

    def discount(x: str, y: str) -> float:
        if positions is None or distance_weight <= 0:
            return 1.0
        (ax, ay), (bx, by) = positions[x], positions[y]
        return 1.0 / (1.0 + distance_weight * (abs(ax - bx) + abs(ay - by)))

    pair_w = {
        (x, y): spec.bandwidth_between(x, y) * discount(x, y)
        for x in cores for y in cores
    }

    def weight(a: List[str], b: List[str]) -> float:
        return sum(pair_w[x, y] for x in a for y in b)

    # weights[i][j], i < j: weight(clusters[i], clusters[j]).  A merge
    # changes only the pairs that involve the merged cluster.
    weights = [
        [weight(clusters[i], clusters[j]) if j > i else 0.0
         for j in range(n)]
        for i in range(n)
    ]
    while len(clusters) > num_switches:
        best: Tuple[float, int, int] = (-1.0, -1, -1)
        for i in range(len(clusters)):
            size_i, row = len(clusters[i]), weights[i]
            for j in range(i + 1, len(clusters)):
                if size_i + len(clusters[j]) > max_size:
                    continue
                # Deterministic tie-break via indices (prefer earlier pairs).
                if row[j] > best[0]:
                    best = (row[j], i, j)
        if best[1] < 0:
            # No merge respects the cap; relax it minimally to make progress.
            max_size += 1
            continue
        __, i, j = best
        clusters[i] = sorted(clusters[i] + clusters[j])
        del clusters[j]
        del weights[j]
        for row in weights:
            del row[j]
        for m in range(i):
            weights[m][i] = weight(clusters[m], clusters[i])
        for m in range(i + 1, len(clusters)):
            weights[i][m] = weight(clusters[i], clusters[m])

    return Mapping(clusters=[sorted(c) for c in clusters])
