"""Simulation statistics: latency, throughput, utilization.

Logs every completed packet and reduces the ones injected after an
optional warmup window into the numbers the paper's evaluation language
uses: average and tail latency (cycles), accepted throughput
(flits/cycle and flits/cycle/core), aggregate bandwidth (bits/s at a
clock frequency), and per-link utilization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.arch.packet import MessageClass, Packet


@dataclass
class PacketRecord:
    """One completed packet (slotted: a run keeps one per delivery)."""

    __slots__ = (
        "source", "destination", "size_flits", "injection_cycle",
        "arrival_cycle", "message_class",
    )

    source: str
    destination: str
    size_flits: int
    injection_cycle: int
    arrival_cycle: int
    message_class: MessageClass

    def __reduce__(self):
        # As Packet.__reduce__: a tuple of the fields restores faster
        # than the slot rule, and a run keeps one record per delivery.
        return PacketRecord, (
            self.source, self.destination, self.size_flits,
            self.injection_cycle, self.arrival_cycle, self.message_class,
        )

    @property
    def latency(self) -> int:
        return self.arrival_cycle - self.injection_cycle


def _percentile(sorted_values: List[int], q: float) -> float:
    """Nearest-rank percentile on a pre-sorted list."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return float(sorted_values[rank - 1])


@dataclass
class LatencySummary:
    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    maximum: int
    minimum: int


@dataclass(frozen=True)
class FaultRecord:
    """One fault event applied to the running network."""

    cycle: int
    kind: str        # FaultKind value ("link_down", "switch_down", ...)
    component: str   # "s_1_1" or "s_0_0->s_0_1"


@dataclass(frozen=True)
class RecoveryRecord:
    """One completed online recovery (detect -> reconfigure -> swap)."""

    detected_cycle: int
    completed_cycle: int
    blamed_links: Tuple[Tuple[str, str], ...]
    blamed_switches: Tuple[str, ...]
    routes_changed: int
    packets_purged: int
    transfers_abandoned: int
    detection_latency: Optional[int]  # cycles from last fault to detection

    @property
    def recovery_cycles(self) -> int:
        """Cycles from detection to the executed LUT swap."""
        return self.completed_cycle - self.detected_cycle


@dataclass(frozen=True)
class DegradedLatencyReport:
    """Mean latency before the first fault vs. after the first recovery.

    Packets injected during the outage itself (between fault and
    recovery) belong to neither steady state and are excluded from both
    means; their (honestly long) latencies still appear in the overall
    :meth:`StatsCollector.latency` summary.
    """

    healthy_count: int
    healthy_mean: Optional[float]
    degraded_count: int
    degraded_mean: Optional[float]

    @property
    def inflation(self) -> Optional[float]:
        """Fractional latency increase of degraded mode (None if unknown)."""
        if not self.healthy_mean or self.degraded_mean is None:
            return None
        return self.degraded_mean / self.healthy_mean - 1.0


class StatsCollector:
    """A run's one delivery log, and the summaries read from it.

    Target NIs call :meth:`record_packet` as each packet completes, so
    ``log`` holds a :class:`PacketRecord` per delivery, in completion
    order, warm-up included.  Every summary reads :attr:`records`, its
    measured part; each target NI's view reads the part addressed to it.
    """

    def __init__(self, warmup_cycles: int = 0):
        if warmup_cycles < 0:
            raise ValueError("warmup must be non-negative")
        self.warmup_cycles = warmup_cycles
        self.log: List[PacketRecord] = []
        self.flits_injected = 0
        self.flits_delivered = 0
        # Fault-injection and recovery bookkeeping.
        self.fault_events: List[FaultRecord] = []
        self.recoveries: List[RecoveryRecord] = []
        self.flits_dropped_by_faults = 0
        self.unroutable_injections = 0

    # ------------------------------------------------------------------
    def record_packet(self, packet: Packet, arrival_cycle: int) -> None:
        self.log.append(PacketRecord(
            packet.source, packet.destination, packet.size_flits,
            packet.injection_cycle, arrival_cycle, packet.message_class,
        ))
        if packet.injection_cycle >= self.warmup_cycles:
            self.flits_delivered += packet.size_flits

    @property
    def records(self) -> List[PacketRecord]:
        """Post-warm-up entries (a filter: a warm-up packet may land later)."""
        return [r for r in self.log if r.injection_cycle >= self.warmup_cycles]

    # ------------------------------------------------------------------
    def latency(self, message_class: Optional[MessageClass] = None) -> LatencySummary:
        """Latency summary, optionally restricted to one traffic class."""
        samples = sorted(
            r.latency
            for r in self.records
            if message_class is None or r.message_class is message_class
        )
        if not samples:
            raise ValueError("no packets recorded for the requested class")
        return LatencySummary(
            count=len(samples),
            mean=sum(samples) / len(samples),
            p50=_percentile(samples, 50),
            p95=_percentile(samples, 95),
            p99=_percentile(samples, 99),
            maximum=samples[-1],
            minimum=samples[0],
        )

    def throughput_flits_per_cycle(self, measured_cycles: int) -> float:
        """Accepted traffic over the measurement window."""
        if measured_cycles <= 0:
            raise ValueError("measurement window must be positive")
        return self.flits_delivered / measured_cycles

    def aggregate_bandwidth_bps(
        self, measured_cycles: int, flit_width: int, frequency_hz: float
    ) -> float:
        """Delivered payload bandwidth at a clock frequency, bits/s.

        This is the metric behind the paper's Teraflops figure ("the
        aggregate bandwidth supported by the chip at 3.16 GHz operating
        speed is around 1.62 Terabits/s").
        """
        return (
            self.throughput_flits_per_cycle(measured_cycles)
            * flit_width
            * frequency_hz
        )

    # ------------------------------------------------------------------
    # Fault injection and recovery
    # ------------------------------------------------------------------
    def record_fault(self, cycle: int, kind: str, component: str) -> None:
        """Log one applied fault event (called by the simulator)."""
        self.fault_events.append(FaultRecord(cycle, kind, component))

    def record_recovery(
        self,
        *,
        detected_cycle: int,
        completed_cycle: int,
        blamed_links,
        blamed_switches,
        routes_changed: int,
        packets_purged: int,
        transfers_abandoned: int,
    ) -> None:
        """Log one completed recovery; derives the detection latency.

        Detection latency is measured against the most recent *injected*
        fault (repairs excluded) at or before the detection cycle — the
        controller itself has no oracle, but the collector saw both
        sides and can correlate them.
        """
        injections = [
            f.cycle
            for f in self.fault_events
            if f.cycle <= detected_cycle and not f.kind.endswith("_up")
        ]
        latency = detected_cycle - max(injections) if injections else None
        self.recoveries.append(
            RecoveryRecord(
                detected_cycle=detected_cycle,
                completed_cycle=completed_cycle,
                blamed_links=tuple(tuple(l) for l in blamed_links),
                blamed_switches=tuple(blamed_switches),
                routes_changed=routes_changed,
                packets_purged=packets_purged,
                transfers_abandoned=transfers_abandoned,
                detection_latency=latency,
            )
        )

    def degraded_latency_summary(self) -> DegradedLatencyReport:
        """Healthy-mode vs. degraded-mode mean latency.

        Healthy: packets injected before the first fault (all packets
        when no fault ever fired).  Degraded: packets injected at or
        after the first recovery completed, i.e. running entirely on
        the reconfigured routes.
        """
        first_fault = min((f.cycle for f in self.fault_events), default=None)
        first_recovered = min(
            (r.completed_cycle for r in self.recoveries), default=None
        )
        records = self.records
        healthy = [r.latency for r in records
                   if first_fault is None or r.injection_cycle < first_fault]
        degraded = [] if first_recovered is None else [
            r.latency for r in records if r.injection_cycle >= first_recovered
        ]
        return DegradedLatencyReport(
            healthy_count=len(healthy),
            healthy_mean=sum(healthy) / len(healthy) if healthy else None,
            degraded_count=len(degraded),
            degraded_mean=sum(degraded) / len(degraded) if degraded else None,
        )

    def per_flow_counts(self) -> Dict[Tuple[str, str], int]:
        counts: Dict[Tuple[str, str], int] = {}
        for r in self.records:
            key = (r.source, r.destination)
            counts[key] = counts.get(key, 0) + 1
        return counts

    @property
    def packets_delivered(self) -> int:
        return len(self.records)
