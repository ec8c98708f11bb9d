"""Live fault injection and online recovery.

The paper's dependability claim — "reconfigurable NoCs can support
component redundancy in a transparent fashion" — is only meaningful if
the reconfiguration works *while the chip is running*.  This module
closes the loop that :mod:`repro.reliability.faults` leaves open at
design time:

* :class:`FaultSchedule` — a seeded, sorted list of timed fault events
  (hard link/switch death, optional repair, transient corruption
  bursts) that :class:`repro.sim.NocSimulator` consumes mid-run;
* :class:`RecoveryController` — an online controller that *detects*
  failures from NI retransmission timeouts alone (no oracle knowledge
  of the schedule), localizes the blame to the components shared by the
  suffering flows, asks :func:`repro.reliability.faults.reconfigure_routing`
  for a deadlock-free degraded table, and has the simulator purge doomed
  packets and hot-swap every NI LUT live.

Lost packets are replayed by the NI-level end-to-end retransmission
layer (:class:`repro.arch.network_interface.RetransmissionPolicy`), so
after recovery every packet whose endpoints survive is still delivered.

Everything draws from explicit seeds: two runs with the same schedule
seed and traffic seed produce byte-identical fault, recovery and
survival statistics.
"""

from __future__ import annotations

import random
import weakref
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.arch.network_interface import RetransmissionPolicy
from repro.reliability.faults import (
    FaultScenario,
    UnrecoverableFaultError,
    reconfigure_routing,
)
from repro.topology.graph import NodeKind, Topology

__all__ = [
    "FaultKind",
    "FaultEvent",
    "FaultSchedule",
    "RecoveryController",
    "RetransmissionPolicy",
]


class FaultKind(Enum):
    LINK_DOWN = "link_down"          # hard failure of one (or both) directions
    LINK_UP = "link_up"              # repair of a previously failed link
    SWITCH_DOWN = "switch_down"      # switch death (adjacent links die too)
    SWITCH_UP = "switch_up"          # switch repair (adjacent links revive)
    TRANSIENT_BURST = "transient_burst"  # window of per-flit corruption


# A component is a switch name or a directed (src, dst) link pair.
Component = Union[str, Tuple[str, str]]


@dataclass(frozen=True)
class FaultEvent:
    """One timed fault to apply at the start of ``cycle``."""

    cycle: int
    kind: FaultKind
    component: Component
    duration: int = 0           # burst length in cycles (TRANSIENT_BURST)
    # Corruption chance during a burst, sampled at each packet's head
    # flit (a hit kills the whole packet on that link) — per-flit
    # corruption would orphan wormhole body flits.  ACK/NACK links
    # instead corrupt and replay per flit via their own CRC path.
    probability: float = 0.0
    both_directions: bool = True  # link events also hit the reverse link

    def __post_init__(self) -> None:
        if self.cycle < 0:
            raise ValueError("fault cycle must be non-negative")
        if self.kind in (FaultKind.SWITCH_DOWN, FaultKind.SWITCH_UP):
            if not isinstance(self.component, str):
                raise ValueError("switch events take a switch name")
        else:
            if not (isinstance(self.component, tuple) and len(self.component) == 2):
                raise ValueError("link events take a (src, dst) pair")
        if self.kind is FaultKind.TRANSIENT_BURST:
            if self.duration < 1:
                raise ValueError("burst duration must be >= 1 cycle")
            if not 0.0 < self.probability <= 1.0:
                raise ValueError("burst probability must be in (0, 1]")

    def describe(self) -> str:
        if isinstance(self.component, tuple):
            where = "->".join(self.component)
        else:
            where = self.component
        if self.kind is FaultKind.TRANSIENT_BURST:
            return (
                f"{self.kind.value} {where} for {self.duration} cycles "
                f"(p={self.probability:g})"
            )
        return f"{self.kind.value} {where}"


class FaultSchedule:
    """An ordered, replayable list of fault events.

    The schedule is stateful during a run (a cursor tracks delivered
    events) but :meth:`reset` rewinds it, and the event list itself is
    immutable once attached, so the same object can drive two identical
    runs for determinism checks.
    """

    def __init__(
        self,
        events: Sequence[FaultEvent] = (),
        corruption_seed: int = 0,
    ):
        self._events: List[FaultEvent] = sorted(
            events, key=lambda e: (e.cycle, e.kind.value, str(e.component))
        )
        self.corruption_seed = corruption_seed
        self._cursor = 0

    @property
    def events(self) -> List[FaultEvent]:
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def reset(self) -> None:
        self._cursor = 0

    def due(self, cycle: int) -> List[FaultEvent]:
        """Events scheduled at or before ``cycle`` not yet delivered."""
        out: List[FaultEvent] = []
        while self._cursor < len(self._events) and (
            self._events[self._cursor].cycle <= cycle
        ):
            out.append(self._events[self._cursor])
            self._cursor += 1
        return out

    def next_cycle(self) -> Optional[int]:
        """Cycle of the next undelivered event, or None when exhausted.

        A term of the event kernel's ``EventScheduler.jump_target``: the
        clock must never jump past a scheduled fault.
        """
        if self._cursor >= len(self._events):
            return None
        return self._events[self._cursor].cycle

    # ------------------------------------------------------------------
    @classmethod
    def random(
        cls,
        topology: Topology,
        *,
        seed: int,
        link_faults: int = 0,
        switch_faults: int = 0,
        transient_bursts: int = 0,
        window: Tuple[int, int] = (1000, 5000),
        burst_duration: int = 64,
        burst_probability: float = 0.05,
        repair_after: Optional[int] = None,
    ) -> "FaultSchedule":
        """Seeded random campaign over a topology's fabric components.

        Hard faults target distinct switch-to-switch connections (both
        directions) and distinct switches; bursts target links drawn
        with replacement.  All draws come from ``random.Random(seed)``
        over *sorted* candidate lists, so a (topology, seed) pair always
        yields the same schedule.
        """
        start, end = window
        if not 0 <= start < end:
            raise ValueError("fault window must satisfy 0 <= start < end")
        rng = random.Random(seed)
        fabric_pairs = sorted(
            (a, b)
            for a, b in topology.links
            if a < b
            and topology.kind(a) is NodeKind.SWITCH
            and topology.kind(b) is NodeKind.SWITCH
        )
        switches = sorted(topology.switches)
        if link_faults > len(fabric_pairs):
            raise ValueError(
                f"{link_faults} link faults requested but the fabric has "
                f"only {len(fabric_pairs)} switch-to-switch connections"
            )
        if switch_faults > len(switches):
            raise ValueError("more switch faults than switches")
        events: List[FaultEvent] = []
        for pair in rng.sample(fabric_pairs, link_faults):
            at = rng.randrange(start, end)
            events.append(FaultEvent(at, FaultKind.LINK_DOWN, pair))
            if repair_after is not None:
                events.append(
                    FaultEvent(at + repair_after, FaultKind.LINK_UP, pair)
                )
        for sw in rng.sample(switches, switch_faults):
            at = rng.randrange(start, end)
            events.append(FaultEvent(at, FaultKind.SWITCH_DOWN, sw))
            if repair_after is not None:
                events.append(
                    FaultEvent(at + repair_after, FaultKind.SWITCH_UP, sw)
                )
        for __ in range(transient_bursts):
            pair = rng.choice(fabric_pairs)
            events.append(
                FaultEvent(
                    rng.randrange(start, end),
                    FaultKind.TRANSIENT_BURST,
                    pair,
                    duration=burst_duration,
                    probability=burst_probability,
                )
            )
        return cls(events, corruption_seed=rng.randrange(2**32))


# ----------------------------------------------------------------------
# Online recovery
# ----------------------------------------------------------------------
# Internal blame tags: ("link", src, dst) or ("switch", name).
_BlameTag = Tuple[str, ...]


class RecoveryController:
    """Detects failures from NI timeouts and drives live reconfiguration.

    The controller is deliberately *not* an oracle: it never reads the
    fault schedule.  Its only inputs are the per-flow timeout and ack
    callbacks of the initiator NIs.  When some flow accumulates
    ``min_timeouts`` unanswered retransmissions, the controller blames
    the components every suffering flow has in common (a NACK-storm
    triangulation: a dead switch sits on all its victims' routes, while
    their entry and exit links differ), waits ``reconfiguration_delay``
    cycles — the modelled cost of computing and distributing new LUT
    images — then has the simulator purge doomed packets, install a
    deadlock-free degraded table, and let the transport layer replay
    what was lost.

    Blamed faults accumulate across recoveries in one
    :class:`~repro.reliability.faults.FaultScenario`; when reconfiguration
    becomes impossible even partially, the controller gives up and the
    run degrades to best-effort loss.

    The simulator holds its controller (and the NIs its callbacks), so
    the controller holds the simulator it is bound to weakly, and a
    capsule carries it unbound: the restored simulator binds it again.
    """

    def __init__(
        self,
        *,
        min_timeouts: int = 2,
        reconfiguration_delay: int = 32,
        cooldown_cycles: int = 512,
        max_recoveries: int = 8,
        exoneration_window_cycles: int = 512,
    ):
        if min_timeouts < 1:
            raise ValueError("need at least one timeout to suspect a flow")
        if reconfiguration_delay < 1:
            raise ValueError("reconfiguration delay must be >= 1 cycle")
        if cooldown_cycles < 0:
            raise ValueError("cooldown must be non-negative")
        if max_recoveries < 1:
            raise ValueError("must allow at least one recovery")
        if exoneration_window_cycles < 1:
            raise ValueError("exoneration window must be >= 1 cycle")
        self.min_timeouts = min_timeouts
        self.reconfiguration_delay = reconfiguration_delay
        self.cooldown_cycles = cooldown_cycles
        self.max_recoveries = max_recoveries
        self.exoneration_window_cycles = exoneration_window_cycles

        self._simulator: Optional[weakref.ref] = None
        self.scenario = FaultScenario()  # cumulative blame across recoveries
        self.recoveries = 0
        self.gave_up = False

        self._timeouts: Dict[Tuple[str, str], int] = {}
        self._first_timeout: Dict[Tuple[str, str], int] = {}
        self._last_ack: Dict[Tuple[str, str], int] = {}
        self._pending_links: Set[Tuple[str, str]] = set()
        self._pending_switches: Set[str] = set()
        self._detected_cycle: Optional[int] = None
        self._execute_at: Optional[int] = None
        self._cooldown_until = -1

    # ------------------------------------------------------------------
    def bind(self, simulator) -> None:
        self._simulator = weakref.ref(simulator)

    @property
    def simulator(self):
        """The bound simulator, or None."""
        ref = self._simulator
        return ref() if ref is not None else None

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_simulator"] = None
        return state

    def note_timeout(self, source: str, destination: str, cycle: int) -> None:
        """An NI transfer missed its ack deadline (wired to ``on_timeout``)."""
        if self.gave_up:
            return
        flow = (source, destination)
        self._timeouts[flow] = self._timeouts.get(flow, 0) + 1
        self._first_timeout.setdefault(flow, cycle)

    def note_ack(self, source: str, destination: str, cycle: int) -> None:
        """An end-to-end ack arrived: the flow's path demonstrably works."""
        flow = (source, destination)
        self._timeouts.pop(flow, None)
        self._first_timeout.pop(flow, None)
        self._last_ack[flow] = cycle

    def next_wakeup(self, cycle: int) -> Optional[int]:
        """Earliest future cycle at which tick() could change state.

        A term of the event kernel's ``EventScheduler.jump_target``.
        Between executed cycles the controller's only inputs (timeout
        and ack callbacks) cannot fire, so its next action is fully
        determined by pending blame, the cooldown, and the current
        suspect counts.  Returning
        ``cycle`` means "may act right now — do not skip": blame
        localization reads the clock (the exoneration window), so any
        cycle with an over-threshold suspect must be executed.
        """
        if self.gave_up or self.simulator is None:
            return None
        if self._execute_at is not None:
            return max(self._execute_at, cycle)
        if all(c < self.min_timeouts for c in self._timeouts.values()):
            return None
        if cycle < self._cooldown_until:
            return self._cooldown_until
        return cycle

    # ------------------------------------------------------------------
    def tick(self, cycle: int) -> None:
        """Once per simulated cycle: detect, then (after the delay) act."""
        if self.gave_up or self.simulator is None:
            return
        if self._execute_at is not None:
            if cycle >= self._execute_at:
                self._execute(cycle)
            return
        if cycle < self._cooldown_until:
            return
        suspects = sorted(
            flow
            for flow, count in self._timeouts.items()
            if count >= self.min_timeouts
        )
        if not suspects:
            return
        links, switches = self._blame(suspects, cycle)
        if not links and not switches:
            return  # cannot localize yet; wait for more evidence
        self._pending_links = links
        self._pending_switches = switches
        self._detected_cycle = cycle
        self._execute_at = cycle + self.reconfiguration_delay

    # ------------------------------------------------------------------
    def _route_components(self, flow: Tuple[str, str]) -> Set[_BlameTag]:
        """Blameable components on a flow's *current* LUT route."""
        source, destination = flow
        ni = self.simulator.initiators.get(source)
        if ni is None or destination not in ni.lut:
            return set()
        route, __ = ni.lut.lookup(destination)
        tags: Set[_BlameTag] = set()
        for a, b in zip(route, route[1:]):
            tags.add(("link", a, b))
        for node in route[1:-1]:  # interior nodes are switches, never cores
            tags.add(("switch", node))
        return tags

    def _already_blamed(self, tag: _BlameTag) -> bool:
        if tag[0] == "switch":
            return tag[1] in self.scenario.failed_switches
        return (tag[1], tag[2]) in self.scenario.failed_links

    def _blame(
        self, suspects: List[Tuple[str, str]], cycle: int
    ) -> Tuple[Set[Tuple[str, str]], Set[str]]:
        """Localize the fault shared by the suspect flows.

        The suspects are first *clustered*: starting from the flow with
        the most unanswered timeouts — congestion victims eventually get
        acked and reset, so runaway counts single out flows crossing a
        genuinely dead component — every other suspect whose route
        shares a component with the running intersection joins the
        cluster and narrows it.  Victims of one dead component always
        end up in one cluster, while unrelated slow flows (congestion,
        a second independent fault) stay out instead of emptying the
        intersection — a second fault is simply localized on a later
        detection round.

        From the cluster's intersection, components on *freshly acked*
        routes are exonerated: an end-to-end ack that arrived after the
        cluster started suffering (and within the exoneration window)
        proves every component it crossed still works, which screens
        off shared-bottleneck congestion from being mistaken for a
        fault.  The survivors are ranked:

        1. switch-to-switch links — the most specific blame;
        2. interior switches;
        3. core attachment links — last, because blaming one orphans
           the core.

        A dead link is shared by all its victims along with its two
        endpoint switches, but preferring links avoids killing those
        healthy switches; a dead switch is the *only* component all its
        victims share (their entry and exit links differ), so blame
        correctly falls through to the switch tier.  If nothing
        survives the exoneration, the controller blames nothing and
        waits for more evidence — there is deliberately no
        blame-everything fallback.
        """
        with_routes = [
            (flow, comps)
            for flow, comps in (
                (flow, self._route_components(flow)) for flow in suspects
            )
            if comps
        ]
        if not with_routes:
            return set(), set()
        with_routes.sort(
            key=lambda fc: (
                -self._timeouts[fc[0]],
                self._first_timeout[fc[0]],
                fc[0],
            )
        )

        cluster_start = self._first_timeout[with_routes[0][0]]
        intersection = set(with_routes[0][1])
        for flow, comps in with_routes[1:]:
            if intersection & comps:
                intersection &= comps
                cluster_start = min(cluster_start, self._first_timeout[flow])

        exonerated: Set[_BlameTag] = set()
        horizon = max(cluster_start, cycle - self.exoneration_window_cycles)
        suspect_set = set(self._timeouts)
        for flow, acked_at in sorted(self._last_ack.items()):
            if acked_at >= horizon and flow not in suspect_set:
                exonerated |= self._route_components(flow)

        fresh = {
            t
            for t in intersection - exonerated
            if not self._already_blamed(t)
        }
        topo = self.simulator.topology

        def is_fabric_link(tag: _BlameTag) -> bool:
            return (
                tag[0] == "link"
                and topo.kind(tag[1]) is NodeKind.SWITCH
                and topo.kind(tag[2]) is NodeKind.SWITCH
            )

        fabric = {(t[1], t[2]) for t in fresh if is_fabric_link(t)}
        if fabric:
            return fabric, set()
        switches = {t[1] for t in fresh if t[0] == "switch"}
        if switches:
            return set(), switches
        edges = {(t[1], t[2]) for t in fresh if t[0] == "link"}
        return edges, set()

    # ------------------------------------------------------------------
    def _execute(self, cycle: int) -> None:
        """Apply the pending blame: reconfigure, purge, hot-swap."""
        for a, b in sorted(self._pending_links):
            self.scenario.add_link(a, b, both_directions=True)
        for sw in sorted(self._pending_switches):
            self.scenario.add_switch(sw)
        detected = self._detected_cycle
        blamed_links = sorted(self._pending_links)
        blamed_switches = sorted(self._pending_switches)
        self._pending_links = set()
        self._pending_switches = set()
        self._detected_cycle = None
        self._execute_at = None
        try:
            outcome = self.simulator.recover_from(self.scenario, cycle)
        except UnrecoverableFaultError:
            # Nothing routable survives: stop reconfiguring and let the
            # transport layer exhaust its retries (bounded loss).
            self.gave_up = True
            return
        self.recoveries += 1
        self.simulator.stats.record_recovery(
            detected_cycle=detected,
            completed_cycle=cycle,
            blamed_links=blamed_links,
            blamed_switches=blamed_switches,
            routes_changed=outcome.routes_changed,
            packets_purged=outcome.packets_purged,
            transfers_abandoned=outcome.transfers_abandoned,
        )
        # Timeout evidence is stale after the reroute, but ack history is
        # kept: the freshness window already ages it out, and wiping it
        # would leave the next detection round with no exoneration data
        # right when the post-recovery retransmission burst causes the
        # most congestion false alarms.
        self._timeouts.clear()
        self._first_timeout.clear()
        self._cooldown_until = cycle + self.cooldown_cycles
        if self.recoveries >= self.max_recoveries:
            self.gave_up = True
