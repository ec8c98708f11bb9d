"""Traffic generation: synthetic patterns, flow graphs, traces.

Section 2 of the paper: "The communication between the various cores can
be statically analyzed for many SoCs, so that the NoC can be tailored
for the particular application behavior."  Two regimes follow:

* CMP-style *synthetic* patterns (uniform random, transpose,
  bit-complement, neighbour, hotspot, shuffle) exercised at a given
  injection rate — used for the Teraflops/Tilera-class experiments;
* SoC-style *flow-graph* traffic: a fixed set of (source, destination,
  bandwidth) flows from an application communication graph — the input
  the iNoCs tool flow profiles ("the average bandwidth of communication
  between the different cores").

All generators are deterministic under a seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Sequence, Tuple

from repro.arch.packet import MessageClass


class TrafficSource(Protocol):
    """Per-cycle injection callback used by the simulator.

    Generators may additionally implement the *lookahead protocol* used
    by the event kernel's ``EventScheduler.jump_target``::

        def next_injection_cycle(self, cycle, simulator, limit):
            '''Earliest cycle in [cycle, limit) with an injection, or
            None when the generator stays silent over that window.'''

    Implementations must preserve exact determinism: any random draws
    or credit arithmetic performed while looking ahead are buffered per
    cycle and replayed verbatim by the corresponding ``tick`` calls, so
    a run interleaving lookahead and ticks consumes the RNG stream (and
    accumulates floats) in exactly the same order as a run that only
    ever ticks.  Sources without the method simply disable skipping.
    """

    def tick(self, cycle: int, simulator) -> None: ...


def _core_index_maps(cores: Sequence[str]):
    ordered = sorted(cores)
    return ordered, {c: i for i, c in enumerate(ordered)}


def _coord_maps(topo, cores: Sequence[str]):
    """Mesh-coordinate lookups for the coordinate-based patterns.

    Returns ``(coord_of, at_coord, xs, ys)`` or ``None`` when any core
    lacks ``x``/``y`` attributes (non-mesh topologies).
    """
    coord_of = {}
    for c in cores:
        a = topo.node_attrs(c)
        if "x" not in a or "y" not in a:
            return None
        coord_of[c] = (a["x"], a["y"])
    at_coord = {xy: c for c, xy in coord_of.items()}
    xs = sorted({xy[0] for xy in coord_of.values()})
    ys = sorted({xy[1] for xy in coord_of.values()})
    return coord_of, at_coord, xs, ys


class SyntheticTraffic:
    """Rate-driven synthetic pattern over all cores.

    ``injection_rate`` is in flits/cycle/core (the standard NoC load
    axis); each core flips a Bernoulli coin of p = rate / packet_size
    each cycle, so offered load in flits matches the requested rate.
    """

    PATTERNS = (
        "uniform",
        "transpose",
        "bit-complement",
        "neighbor",
        "hotspot",
        "shuffle",
    )

    def __init__(
        self,
        pattern: str,
        injection_rate: float,
        packet_size_flits: int = 4,
        seed: int = 1,
        hotspot_core: Optional[str] = None,
        hotspot_fraction: float = 0.5,
    ):
        if pattern not in self.PATTERNS:
            raise ValueError(f"unknown pattern {pattern!r}; choose from {self.PATTERNS}")
        if not 0.0 <= injection_rate <= 1.0:
            raise ValueError("injection rate must be in [0, 1] flits/cycle/core")
        if packet_size_flits < 1:
            raise ValueError("packet size must be >= 1 flit")
        if not 0.0 < hotspot_fraction <= 1.0:
            raise ValueError("hotspot fraction must be in (0, 1]")
        self.pattern = pattern
        self.injection_rate = injection_rate
        self.packet_size_flits = packet_size_flits
        self.seed = seed
        self.hotspot_core = hotspot_core
        self.hotspot_fraction = hotspot_fraction
        self._rng = random.Random(seed)
        self.packets_offered = 0
        # Lookahead state: draws made ahead of the clock, keyed by the
        # cycle they belong to, replayed verbatim when tick() reaches it.
        self._pending: Dict[int, List[Tuple[str, str]]] = {}
        self._drawn_until = 0
        # Per-topology cache (keyed by object identity, dropped on
        # pickle): the sorted core list, and — for the RNG-free
        # deterministic patterns, whose destination is a pure function
        # of the source — the precomputed src -> dst map.
        self._topo_cache = None

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_topo_cache"] = None
        return state

    # ------------------------------------------------------------------
    def _destination(self, src: str, cores: List[str], index: Dict[str, int],
                     topo, coords=None) -> Optional[str]:
        n = len(cores)
        i = index[src]
        if self.pattern == "uniform":
            j = self._rng.randrange(n - 1)
            if j >= i:
                j += 1
            return cores[j]
        if self.pattern == "bit-complement":
            j = (n - 1) - i
            return cores[j] if j != i else None
        if self.pattern == "shuffle":
            bits = max(1, (n - 1).bit_length())
            j = ((i << 1) | (i >> (bits - 1))) & ((1 << bits) - 1)
            j %= n
            return cores[j] if j != i else None
        if self.pattern == "hotspot":
            hot = self.hotspot_core or cores[n // 2]
            if self._rng.random() < self.hotspot_fraction and src != hot:
                return hot
            j = self._rng.randrange(n - 1)
            if j >= i:
                j += 1
            return cores[j]
        # Coordinate-based patterns need mesh attributes.
        if coords is None:
            coords = _coord_maps(topo, cores)
        if coords is None or src not in coords[0]:
            raise ValueError(
                f"pattern {self.pattern!r} needs mesh coordinates on cores"
            )
        coord_of, at_coord, xs, ys = coords
        x, y = coord_of[src]
        if self.pattern == "transpose":
            tx, ty = y, x
            if tx not in xs or ty not in ys:
                return None
        elif self.pattern == "neighbor":
            tx, ty = (x + 1) % (max(xs) + 1), y
        else:  # pragma: no cover
            raise AssertionError(self.pattern)
        c = at_coord.get((tx, ty))
        return c if c is not None and c != src else None

    def _draw_cycle(self, simulator) -> List[Tuple[str, str]]:
        """One cycle's worth of Bernoulli draws, in sorted-core order."""
        topo = simulator.topology
        cache = self._topo_cache
        if cache is None or cache[0] is not topo:
            cores, index = _core_index_maps(topo.cores)
            dest = None
            if self.pattern in (
                "bit-complement", "shuffle", "transpose", "neighbor"
            ):
                coords = _coord_maps(topo, cores)
                dest = {
                    src: self._destination(src, cores, index, topo, coords)
                    for src in cores
                }
            cache = self._topo_cache = (topo, cores, index, dest)
        __, cores, index, dest = cache
        p = self.injection_rate / self.packet_size_flits
        drawn: List[Tuple[str, str]] = []
        rng_random = self._rng.random
        for src in cores:
            if rng_random() >= p:
                continue
            if dest is not None:
                dst = dest[src]
            else:
                dst = self._destination(src, cores, index, topo)
            if dst is None:
                continue
            drawn.append((src, dst))
        return drawn

    def tick(self, cycle: int, simulator) -> None:
        if cycle < self._drawn_until:
            drawn = self._pending.pop(cycle, ())
        else:
            drawn = self._draw_cycle(simulator)
            self._drawn_until = cycle + 1
        for src, dst in drawn:
            simulator.inject(src, dst, self.packet_size_flits, cycle)
            self.packets_offered += 1

    def next_injection_cycle(
        self, cycle: int, simulator, limit: int
    ) -> Optional[int]:
        """Earliest cycle in ``[cycle, limit)`` with an injection."""
        for t in range(cycle, limit):
            if t < self._drawn_until:
                if self._pending.get(t):
                    return t
                continue
            drawn = self._draw_cycle(simulator)
            self._drawn_until = t + 1
            if drawn:
                self._pending[t] = drawn
                return t
        return None


@dataclass(frozen=True)
class Flow:
    """One application flow: src -> dst at a sustained bandwidth."""

    source: str
    destination: str
    flits_per_cycle: float
    packet_size_flits: int = 4
    message_class: MessageClass = MessageClass.BEST_EFFORT
    connection_id: Optional[int] = None

    def __post_init__(self) -> None:
        if self.flits_per_cycle < 0:
            raise ValueError("flow bandwidth must be non-negative")
        if self.packet_size_flits < 1:
            raise ValueError("packet size must be >= 1")


class FlowGraphTraffic:
    """Deterministic rate-based injection from a flow list.

    Each flow accumulates ``flits_per_cycle`` of credit per cycle and
    emits a packet whenever a full packet's worth is available — a
    jitter-free model of streaming SoC traffic (video pipelines, modem
    chains) matching the tool-flow input spec.
    """

    def __init__(self, flows: Sequence[Flow]):
        self.flows = list(flows)
        self._credit = [0.0] * len(self.flows)
        self._accrual = [
            (f.flits_per_cycle, f.packet_size_flits) for f in self.flows
        ]
        self.packets_offered = 0
        self._pending: Dict[int, List[int]] = {}
        self._drawn_until = 0

    def _advance_cycle(self) -> List[int]:
        """Accrue one cycle of credit; returns emitting flow indices.

        The credit arithmetic happens *here*, never analytically over a
        window: repeated float addition is not associative, so skipping
        ahead must replay the exact per-cycle additions to stay
        byte-identical with the reference kernel.
        """
        emitted: List[int] = []
        credit = self._credit
        for i, (rate, size) in enumerate(self._accrual):
            c = credit[i] + rate
            if c >= size:
                while c >= size:
                    c -= size
                    emitted.append(i)
            credit[i] = c
        return emitted

    def tick(self, cycle: int, simulator) -> None:
        if cycle < self._drawn_until:
            emitted = self._pending.pop(cycle, ())
        else:
            emitted = self._advance_cycle()
            self._drawn_until = cycle + 1
        for i in emitted:
            flow = self.flows[i]
            simulator.inject(
                flow.source,
                flow.destination,
                flow.packet_size_flits,
                cycle,
                message_class=flow.message_class,
                connection_id=flow.connection_id,
            )
            self.packets_offered += 1

    def next_injection_cycle(
        self, cycle: int, simulator, limit: int
    ) -> Optional[int]:
        """Earliest cycle in ``[cycle, limit)`` with an injection."""
        for t in range(cycle, limit):
            if t < self._drawn_until:
                if self._pending.get(t):
                    return t
                continue
            emitted = self._advance_cycle()
            self._drawn_until = t + 1
            if emitted:
                self._pending[t] = emitted
                return t
        return None


@dataclass(frozen=True)
class TraceEvent:
    cycle: int
    source: str
    destination: str
    size_flits: int


class TraceTraffic:
    """Replay an explicit event list (must be sorted by cycle)."""

    def __init__(self, events: Sequence[TraceEvent]):
        self.events = sorted(events, key=lambda e: e.cycle)
        self._next = 0
        self.packets_offered = 0

    def tick(self, cycle: int, simulator) -> None:
        while self._next < len(self.events) and self.events[self._next].cycle <= cycle:
            ev = self.events[self._next]
            simulator.inject(ev.source, ev.destination, ev.size_flits, cycle)
            self.packets_offered += 1
            self._next += 1

    @property
    def exhausted(self) -> bool:
        return self._next >= len(self.events)

    def next_injection_cycle(
        self, cycle: int, simulator, limit: int
    ) -> Optional[int]:
        """Earliest cycle in ``[cycle, limit)`` with an injection."""
        if self._next >= len(self.events):
            return None
        nxt = self.events[self._next].cycle
        if nxt >= limit:
            return None
        # Events already due inject at the current cycle (tick drains
        # everything <= cycle), so clamp from below.
        return max(nxt, cycle)


class RequestResponseTraffic:
    """Masters issuing OCP transactions to shared slaves.

    The master/slave traffic regime of the paper's SoCs: processors
    read and write memory controllers, and every request produces a
    response (sized by the OCP layer).  The destination slaves must be
    armed with :meth:`repro.sim.NocSimulator.attach_memory` so responses
    flow back.  Deterministic under the seed.
    """

    def __init__(
        self,
        masters: Sequence[str],
        slaves: Sequence[str],
        request_rate: float,
        burst_bytes: int = 32,
        read_fraction: float = 0.7,
        seed: int = 1,
    ):
        if not masters or not slaves:
            raise ValueError("need at least one master and one slave")
        if not 0.0 <= request_rate <= 1.0:
            raise ValueError("request rate must be in [0, 1] per master/cycle")
        if burst_bytes < 1:
            raise ValueError("burst must be at least one byte")
        if not 0.0 <= read_fraction <= 1.0:
            raise ValueError("read fraction must be in [0, 1]")
        self.masters = list(masters)
        self.slaves = list(slaves)
        self.request_rate = request_rate
        self.burst_bytes = burst_bytes
        self.read_fraction = read_fraction
        self._rng = random.Random(seed)
        self._txn_ids = 0
        self.requests_offered = 0
        # Lookahead state: (master, slave, is_read) draws per cycle.
        # Transaction ids are deliberately NOT assigned at draw time —
        # tick() numbers them in replay order, so the ids a request run
        # sees are independent of how far ahead the kernel peeked.
        self._pending: Dict[int, List[Tuple[str, str, bool]]] = {}
        self._drawn_until = 0

    def _draw_cycle(self) -> List[Tuple[str, str, bool]]:
        drawn: List[Tuple[str, str, bool]] = []
        for master in self.masters:
            if self._rng.random() >= self.request_rate:
                continue
            slave = self.slaves[self._rng.randrange(len(self.slaves))]
            is_read = self._rng.random() < self.read_fraction
            drawn.append((master, slave, is_read))
        return drawn

    def tick(self, cycle: int, simulator) -> None:
        from repro.arch.ocp import (
            OcpCommand,
            OcpTransaction,
            request_packet_flits,
            split_transaction,
        )

        if cycle < self._drawn_until:
            drawn = self._pending.pop(cycle, ())
        else:
            drawn = self._draw_cycle()
            self._drawn_until = cycle + 1
        for master, slave, is_read in drawn:
            command = OcpCommand.READ if is_read else OcpCommand.WRITE
            txn = OcpTransaction(
                command=command,
                master=master,
                slave=slave,
                address=self._txn_ids * self.burst_bytes,
                burst_bytes=self.burst_bytes,
                transaction_id=self._txn_ids,
            )
            self._txn_ids += 1
            # Bursts beyond the packet-size cap travel as several
            # maximum-length packets (no silent truncation).
            for sub in split_transaction(txn, simulator.params):
                size = request_packet_flits(sub, simulator.params)
                simulator.inject(
                    master,
                    slave,
                    size,
                    cycle,
                    message_class=MessageClass.REQUEST,
                    payload=sub,
                )
                self.requests_offered += 1

    def next_injection_cycle(
        self, cycle: int, simulator, limit: int
    ) -> Optional[int]:
        """Earliest cycle in ``[cycle, limit)`` with an injection."""
        for t in range(cycle, limit):
            if t < self._drawn_until:
                if self._pending.get(t):
                    return t
                continue
            drawn = self._draw_cycle()
            self._drawn_until = t + 1
            if drawn:
                self._pending[t] = drawn
                return t
        return None


class CompositeTraffic:
    """Drive several traffic sources together (e.g. GT flows + BE noise)."""

    def __init__(self, sources: Sequence[TrafficSource]):
        if not sources:
            raise ValueError("need at least one source")
        self.sources = list(sources)

    def tick(self, cycle: int, simulator) -> None:
        for source in self.sources:
            source.tick(cycle, simulator)

    def next_injection_cycle(
        self, cycle: int, simulator, limit: int
    ) -> Optional[int]:
        """Min over the member sources' next injections.

        Any member without the lookahead protocol makes the composite
        opaque: report "may inject now" so the kernel never skips.
        """
        horizon = limit
        found = False
        for source in self.sources:
            probe = getattr(source, "next_injection_cycle", None)
            if probe is None:
                return cycle
            nxt = probe(cycle, simulator, horizon)
            if nxt is not None:
                found = True
                if nxt <= cycle:
                    return cycle
                horizon = nxt
        return horizon if found else None
