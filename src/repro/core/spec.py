"""Communication specification — the tool-flow input (Fig. 6).

"The tool flow takes the application architecture and application
constraints as inputs.  The architecture specifications include the type
of core (master or slave), the kind of protocol supported.  The
application communication constraints include the average bandwidth of
communication between the different cores, average latency constraints,
hard QoS constraints on bandwidth and latency..." (Section 6)

:class:`CommunicationSpec` is that input bundle, with unit conversion
between the designer-facing MB/s and the architecture-facing
flits/cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.apps.workloads import ApplicationWorkload


@dataclass(frozen=True)
class CoreSpec:
    """One IP core at the edge of the NoC."""

    name: str
    is_master: bool = True
    is_slave: bool = True
    protocol: str = "OCP"
    width_mm: float = 1.0
    height_mm: float = 1.0

    def __post_init__(self) -> None:
        if not (self.is_master or self.is_slave):
            raise ValueError(f"core {self.name!r} must be master, slave or both")
        if self.width_mm <= 0 or self.height_mm <= 0:
            raise ValueError(f"core {self.name!r} needs positive dimensions")


@dataclass(frozen=True)
class FlowSpec:
    """One communication flow with its constraints."""

    source: str
    destination: str
    bandwidth_mbps: float                  # average bandwidth, MB/s
    latency_constraint_ns: Optional[float] = None
    is_hard_realtime: bool = False         # needs a GT connection

    def __post_init__(self) -> None:
        if self.bandwidth_mbps <= 0:
            raise ValueError("flow bandwidth must be positive")
        if self.latency_constraint_ns is not None and self.latency_constraint_ns <= 0:
            raise ValueError("latency constraint must be positive")
        if self.source == self.destination:
            raise ValueError("flow endpoints must differ")

    def flits_per_cycle(self, flit_width: int, frequency_hz: float) -> float:
        """Convert MB/s into flits/cycle at an operating point."""
        bits_per_s = self.bandwidth_mbps * 8e6
        return bits_per_s / (flit_width * frequency_hz)


def _pair(a: str, b: str) -> Tuple[str, str]:
    return (a, b) if a <= b else (b, a)


class CommunicationSpec:
    """The complete synthesis input: cores, flows, global constraints.

    A spec is read-only after construction: its traffic queries answer
    from an index built in ``__init__``, so ``cores`` and ``flows`` must
    not be changed afterwards.  Build a new spec instead.
    """

    def __init__(
        self,
        cores: Sequence[CoreSpec],
        flows: Sequence[FlowSpec],
        name: str = "soc",
    ):
        self.name = name
        self.cores: Dict[str, CoreSpec] = {}
        for core in cores:
            if core.name in self.cores:
                raise ValueError(f"duplicate core {core.name!r}")
            self.cores[core.name] = core
        self.flows: List[FlowSpec] = []
        for flow in flows:
            if flow.source not in self.cores:
                raise ValueError(f"flow source {flow.source!r} unknown")
            if flow.destination not in self.cores:
                raise ValueError(f"flow destination {flow.destination!r} unknown")
            self.flows.append(flow)
        # Traffic index, built once.  Each value is ``sum()`` over its
        # key's flows in flow order, exactly as a scan of ``flows`` adds
        # them, so lookups match the scans bit for bit.
        pair_flows: Dict[Tuple[str, str], List[float]] = {}
        core_flows: Dict[str, List[float]] = {name: [] for name in self.cores}
        for f in self.flows:
            pair_flows.setdefault(_pair(f.source, f.destination), []).append(
                f.bandwidth_mbps
            )
            core_flows[f.source].append(f.bandwidth_mbps)
            core_flows[f.destination].append(f.bandwidth_mbps)
        self._pair_mbps = {k: sum(v) for k, v in pair_flows.items()}
        self._core_mbps = {k: sum(v) for k, v in core_flows.items()}

    # ------------------------------------------------------------------
    @property
    def core_names(self) -> List[str]:
        return list(self.cores)

    @property
    def total_bandwidth_mbps(self) -> float:
        return sum(f.bandwidth_mbps for f in self.flows)

    def bandwidth_between(self, a: str, b: str) -> float:
        """Undirected core-pair traffic (for partitioning), MB/s."""
        return self._pair_mbps.get(_pair(a, b), 0)

    def core_bandwidth(self, core: str) -> float:
        """Total MB/s a core sends and receives."""
        return self._core_mbps[core]

    def flows_from(self, core: str) -> List[FlowSpec]:
        return [f for f in self.flows if f.source == core]

    def flow_rates_flits_per_cycle(
        self, flit_width: int, frequency_hz: float
    ) -> Dict[Tuple[str, str], float]:
        """All flows converted to flits/cycle at an operating point."""
        rates: Dict[Tuple[str, str], float] = {}
        for f in self.flows:
            key = (f.source, f.destination)
            rates[key] = rates.get(key, 0.0) + f.flits_per_cycle(
                flit_width, frequency_hz
            )
        return rates

    # ------------------------------------------------------------------
    @staticmethod
    def from_workload(
        workload: ApplicationWorkload,
        core_dims_mm: float = 1.0,
        hard_realtime: bool = False,
    ) -> "CommunicationSpec":
        """Build a spec from a bundled application workload."""
        cores = [
            CoreSpec(name, width_mm=core_dims_mm, height_mm=core_dims_mm)
            for name in workload.cores
        ]
        flows = [
            FlowSpec(
                f.source,
                f.destination,
                f.mb_per_s,
                latency_constraint_ns=f.latency_ns,
                is_hard_realtime=hard_realtime,
            )
            for f in workload.flows
        ]
        return CommunicationSpec(cores, flows, name=workload.name)

    def __repr__(self) -> str:
        return (
            f"CommunicationSpec({self.name!r}, cores={len(self.cores)}, "
            f"flows={len(self.flows)}, total={self.total_bandwidth_mbps:.0f} MB/s)"
        )
