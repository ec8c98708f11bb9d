"""Network interfaces: the protocol boundary of the NoC.

"The main role of the Network Interfaces is to convert the bus protocol
that is used by the Processing Elements to the network protocol used by
the switches ... In xpipes, two separate NIs are defined, an initiator
and a target one, respectively associated with system masters and system
slaves." (Section 3)

* :class:`InitiatorNI` — packetizes outbound transactions, reads the
  source route from its LUT, serializes flits into the injection link
  (one flit per cycle), optionally gated by a TDMA slot table for
  guaranteed-throughput connections.
* :class:`TargetNI` — the sink: reassembles packets and (for
  request-class packets) can produce responses after a service latency,
  modelling a memory/slave core.  It always consumes arriving flits,
  the consumption guarantee underpinning message-dependent deadlock
  freedom.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Callable, Deque, Dict, List, Mapping, Optional, Set, Tuple,
)

from repro.arch.link import AckNackLink, Link
from repro.arch.packet import EndToEndAck, Flit, MessageClass, Packet
from repro.arch.parameters import NocParameters
from repro.arch.slots import Slotted

if TYPE_CHECKING:  # repro.sim imports this module
    from repro.sim.stats import PacketRecord, StatsCollector

#: One LUT entry: the node path and its per-hop VC indices (or None).
LutEntry = Tuple[Tuple[str, ...], Optional[Tuple[int, ...]]]


class RoutingLut:
    """The NI look-up table: destination core -> (route, vc path).

    The LUT is the hardware the paper's reconfigurable-NoC claims hinge
    on: recovery from hard faults is a LUT rewrite, so entries can be
    replaced or removed at run time (:meth:`set` / :meth:`remove`).

    ``fill(destination)`` loads a missing entry on first use (or returns
    None when there is no route); the simulator passes one that reads its
    current routing table, so a LUT holds only the destinations its core
    has used.  A hit is one dict lookup.
    """

    __slots__ = ("_entries", "_fill")

    def __init__(self, fill: Optional[Callable[[str], Optional[LutEntry]]] = None):
        self._entries: Dict[str, LutEntry] = {}
        self._fill = fill

    def set(self, destination: str, route: Tuple[str, ...],
            vc_path: Optional[Tuple[int, ...]] = None) -> None:
        self._entries[destination] = (route, vc_path)

    def remove(self, destination: str) -> None:
        """Drop the entry (the destination became unreachable)."""
        self._entries.pop(destination, None)

    def destinations(self) -> List[str]:
        """The destinations loaded so far."""
        return sorted(self._entries)

    def lookup(self, destination: str) -> LutEntry:
        try:
            return self._entries[destination]
        except KeyError:
            pass
        entry = self._load(destination)
        if entry is None:
            raise KeyError(f"NI LUT has no route to {destination!r}")
        return entry

    def __contains__(self, destination: str) -> bool:
        return destination in self._entries or self._load(destination) is not None

    def _load(self, destination: str) -> Optional[LutEntry]:
        if self._fill is None:
            return None
        entry = self._fill(destination)
        if entry is not None:
            self._entries[destination] = entry
        return entry

    def __len__(self) -> int:
        return len(self._entries)


@dataclass(frozen=True)
class RetransmissionPolicy:
    """End-to-end NI retransmission: timeout, bounded retries, backoff.

    The link-level ACK/NACK scheme recovers single-hop losses; this is
    the NI-level transport that survives *component* loss: every
    best-effort/request packet carries a transfer id, the target NI
    acks completed packets, and an unacknowledged transfer is re-sent
    over whatever route the (possibly hot-swapped) LUT currently holds.
    """

    timeout_cycles: int = 256
    max_retries: int = 12
    backoff: float = 2.0
    max_timeout_cycles: int = 4096

    def __post_init__(self) -> None:
        if self.timeout_cycles < 1:
            raise ValueError("retransmission timeout must be >= 1 cycle")
        if self.max_retries < 0:
            raise ValueError("max retries must be non-negative")
        if self.backoff < 1.0:
            raise ValueError("backoff factor must be >= 1")
        if self.max_timeout_cycles < self.timeout_cycles:
            raise ValueError("timeout cap must be >= the base timeout")

    def timeout_after(self, retries: int) -> int:
        """Deadline distance for the (retries+1)-th attempt."""
        return min(
            self.max_timeout_cycles,
            int(self.timeout_cycles * self.backoff ** retries),
        )


@dataclass
class _PendingTransfer:
    """Book-keeping for one unacknowledged logical transfer."""

    transfer_id: Tuple[str, int]
    destination: str
    size_flits: int
    message_class: MessageClass
    connection_id: Optional[int]
    payload: Optional[object]
    injection_cycle: int
    deadline: int
    retries: int = 0


class InitiatorNI(Slotted):
    """Master-side NI: packetize and inject.

    Guaranteed and best-effort packets wait in *separate* queues (the
    Aethereal NI structure): GT flits inject only in their owned TDMA
    slots and preempt BE serialization in those cycles, so best-effort
    backlog can never push guaranteed traffic off its reservation.

    ``injection_links`` maps each switch the core attaches to onto the
    link toward it; a flit leaves on the link to its route's first
    switch, so a multi-homed core (BONE's dual-port SRAMs) injects on
    whichever port its route starts from.

    The source queues are deques: past saturation they grow without
    bound, where a list's ``pop(0)`` would cost their length.
    """

    __slots__ = (
        "core", "params", "lut", "injection_links", "_be_queue",
        "_gt_queues", "_current_be", "_current_gt", "slot_table", "gt_vc",
        "trace", "packets_injected", "flits_injected",
        "injection_stall_cycles", "retransmission", "_pending",
        "_next_transfer_seq", "packets_retransmitted", "packets_recovered",
        "packets_lost", "packets_abandoned_unreachable", "on_timeout",
        "on_ack", "wakeup",
    )
    # ``trace`` closes over a recorder and ``on_timeout``/``on_ack`` are
    # controller bindings; the owning simulator re-wires them on restore.
    _unpickled = ("trace", "on_timeout", "on_ack", "wakeup")

    def __init__(self, core: str, params: NocParameters, lut: RoutingLut,
                 injection_links: Mapping[str, Link]):
        self.core = core
        self.params = params
        self.lut = lut
        self.injection_links: Dict[str, Link] = dict(injection_links)
        self._be_queue: Deque[Packet] = deque()
        # One queue per GT connection (the Aethereal NI structure): a
        # connection waiting for its slot must never block another
        # connection whose slot is open.
        self._gt_queues: Dict[Optional[int], Deque[Packet]] = {}
        self._current_be: Optional[List[Flit]] = None  # flits left of head packet
        self._current_gt: Dict[Optional[int], List[Flit]] = {}
        self.slot_table: Optional[List[Optional[int]]] = None  # TDMA injection gate
        self.gt_vc: Optional[int] = None  # dedicated VC for guaranteed traffic
        self.trace = None  # optional callback(cycle, flit) on injection
        self.packets_injected = 0
        self.flits_injected = 0
        self.injection_stall_cycles = 0  # flit ready but link refused (obs)
        # End-to-end retransmission (None = disabled, the default).
        self.retransmission: Optional[RetransmissionPolicy] = None
        self._pending: Dict[Tuple[str, int], _PendingTransfer] = {}
        self._next_transfer_seq = 0
        self.packets_retransmitted = 0
        self.packets_recovered = 0     # delivered after >= 1 retransmission
        self.packets_lost = 0          # retries exhausted
        self.packets_abandoned_unreachable = 0  # destination left the LUT
        self.on_timeout: Optional[Callable[[str, str, int], None]] = None
        self.on_ack: Optional[Callable[[str, str, int], None]] = None
        # Event-kernel wakeup hook: fired on enqueue() — the single
        # entry point for all backlog gains (sends, responses, acks,
        # retransmission copies).  None outside the event kernel.
        self.wakeup: Optional[Callable[[], None]] = None

    # ------------------------------------------------------------------
    def send(self, destination: str, size_flits: int, cycle: int,
             message_class: MessageClass = MessageClass.BEST_EFFORT,
             connection_id: Optional[int] = None,
             payload: Optional[object] = None) -> Packet:
        """Queue one packet toward ``destination``; returns it."""
        route, vc_path = self.lut.lookup(destination)
        if message_class is MessageClass.GUARANTEED and self.gt_vc is not None:
            vc_path = tuple([self.gt_vc] * (len(route) - 1))
        transfer_id = None
        if self.retransmission is not None and message_class in (
            MessageClass.BEST_EFFORT,
            MessageClass.REQUEST,
        ):
            transfer_id = (self.core, self._next_transfer_seq)
            self._next_transfer_seq += 1
            self._pending[transfer_id] = _PendingTransfer(
                transfer_id=transfer_id,
                destination=destination,
                size_flits=size_flits,
                message_class=message_class,
                connection_id=connection_id,
                payload=payload,
                injection_cycle=cycle,
                deadline=cycle + self.retransmission.timeout_after(0),
            )
        packet = Packet(
            source=self.core,
            destination=destination,
            size_flits=size_flits,
            route=route,
            injection_cycle=cycle,
            message_class=message_class,
            connection_id=connection_id,
            vc_path=vc_path,
            payload=payload,
            transfer_id=transfer_id,
        )
        self.enqueue(packet)
        return packet

    def enqueue(self, packet: Packet) -> None:
        """Queue a pre-built packet (responses, traces)."""
        if packet.message_class is MessageClass.GUARANTEED:
            queue = self._gt_queues.get(packet.connection_id)
            if queue is None:
                queue = self._gt_queues[packet.connection_id] = deque()
            queue.append(packet)
        else:
            self._be_queue.append(packet)
        if self.wakeup is not None:
            self.wakeup()

    @property
    def backlog(self) -> int:
        """Packets waiting (including those being serialized)."""
        n = len(self._be_queue)
        if self._current_be:
            n += 1
        if self._gt_queues:
            n += sum(len(q) for q in self._gt_queues.values())
        if self._current_gt:
            n += sum(1 for flits in self._current_gt.values() if flits)
        return n

    def tick(self, cycle: int) -> None:
        """Inject at most one flit into the NoC (GT first in its slots)."""
        # _current_gt never holds an emptied stream (its entry is
        # deleted with the last flit), so its truth value is the test.
        if (self._gt_queues or self._current_gt) and self._try_inject_gt(
            cycle
        ):
            return
        self._try_inject_be(cycle)

    def _gt_head_flit(self, connection_id: Optional[int]):
        """Head flit of one connection's serialization stream, if any."""
        current = self._current_gt.get(connection_id)
        if not current:
            queue = self._gt_queues.get(connection_id)
            if not queue:
                return None
            packet = queue.popleft()
            current = packet.flits()
            self._current_gt[connection_id] = current
            self.packets_injected += 1
        return current[0]

    def _try_inject_gt(self, cycle: int) -> bool:
        # Only the owner of the current slot may inject: look up whose
        # turn it is rather than serializing connections through a FIFO.
        if self.slot_table is not None:
            owner = self.slot_table[cycle % len(self.slot_table)]
            if owner is None:
                return False
            candidates = [owner]
        else:
            # No table installed (direct use): fixed priority over ids.
            ids = set(self._gt_queues) | {
                cid for cid, flits in self._current_gt.items() if flits
            }
            candidates = sorted(
                ids, key=lambda c: (c is None, c if c is not None else 0)
            )
        for connection_id in candidates:
            flit = self._gt_head_flit(connection_id)
            if flit is None:
                continue
            flit.vc = flit.packet.vc_on_link(0)
            link = self._link_for(flit)
            if not link.can_send(flit.vc, cycle):
                self.injection_stall_cycles += 1
                return False
            self._current_gt[connection_id].pop(0)
            self._transmit(link, flit, cycle)
            if not self._current_gt[connection_id]:
                del self._current_gt[connection_id]
            return True
        return False

    def _try_inject_be(self, cycle: int) -> None:
        if self._current_be is None:
            if not self._be_queue:
                return
            self._current_be = self._be_queue.popleft().flits()
            self.packets_injected += 1
        flit = self._current_be[0]
        vc_path = flit.packet.vc_path
        flit.vc = vc_path[0] if vc_path is not None else 0
        link = self._link_for(flit)
        if not link.can_send(flit.vc, cycle):
            self.injection_stall_cycles += 1
            return
        self._current_be.pop(0)
        self._transmit(link, flit, cycle)
        if not self._current_be:
            self._current_be = None

    def _link_for(self, flit: Flit) -> Link:
        """The injection link toward the first switch of the flit's route."""
        first_switch = flit.packet.route[1]
        try:
            return self.injection_links[first_switch]
        except KeyError:
            raise RuntimeError(
                f"initiator NI {self.core!r}: route enters via "
                f"{first_switch!r} but no injection link reaches it"
            ) from None

    def _transmit(self, link: Link, flit: Flit, cycle: int) -> None:
        link.send(flit, cycle)
        flit.hop += 1  # the flit now travels toward route[1]
        self.flits_injected += 1
        if self.trace is not None:
            self.trace(cycle, flit)

    # ------------------------------------------------------------------
    # End-to-end retransmission (transport layer)
    # ------------------------------------------------------------------
    @property
    def pending_transfers(self) -> int:
        """Transfers sent but not yet acknowledged end to end."""
        return len(self._pending)

    def next_timeout_cycle(self) -> Optional[int]:
        """Earliest retransmission deadline among pending transfers.

        A term of the event kernel's ``EventScheduler.jump_target``:
        :meth:`check_timeouts` is a no-op strictly before this cycle,
        because deadlines only move when a timeout fires or an ack
        lands — both of which happen on executed cycles.
        """
        if not self._pending:
            return None
        return min(t.deadline for t in self._pending.values())

    def confirm_delivery(self, transfer_id: Tuple[str, int], cycle: int) -> None:
        """An end-to-end ack arrived: the transfer is complete."""
        transfer = self._pending.pop(transfer_id, None)
        if transfer is None:
            return  # duplicate ack, or the transfer was already abandoned
        if transfer.retries > 0:
            self.packets_recovered += 1
        if self.on_ack is not None:
            self.on_ack(self.core, transfer.destination, cycle)

    def check_timeouts(self, cycle: int) -> None:
        """Retransmit transfers whose ack deadline passed (with backoff)."""
        policy = self.retransmission
        if policy is None or not self._pending:
            return
        for transfer in list(self._pending.values()):
            if cycle < transfer.deadline:
                continue
            transfer.retries += 1
            if self.on_timeout is not None:
                self.on_timeout(self.core, transfer.destination, cycle)
            if transfer.retries > policy.max_retries:
                del self._pending[transfer.transfer_id]
                self.packets_lost += 1
                continue
            transfer.deadline = cycle + policy.timeout_after(transfer.retries)
            if self._is_queued(transfer.transfer_id):
                # A copy is still waiting to serialize (the NI may be
                # head-of-line blocked toward the fault); re-queueing
                # another would only duplicate backlog.
                continue
            if transfer.destination not in self.lut:
                del self._pending[transfer.transfer_id]
                self.packets_abandoned_unreachable += 1
                continue
            route, vc_path = self.lut.lookup(transfer.destination)
            copy = Packet(
                source=self.core,
                destination=transfer.destination,
                size_flits=transfer.size_flits,
                route=route,
                injection_cycle=transfer.injection_cycle,
                message_class=transfer.message_class,
                connection_id=transfer.connection_id,
                vc_path=vc_path,
                payload=transfer.payload,
                transfer_id=transfer.transfer_id,
            )
            self.enqueue(copy)
            self.packets_retransmitted += 1

    def abandon_unreachable(self, cycle: int) -> int:
        """Give up on transfers whose destination left the LUT.

        Called after a routing hot-swap: destinations severed by the
        fault have no entry in the reconfigured table, so waiting for
        their acks (or retransmitting toward them) is futile.
        """
        abandoned = 0
        for transfer_id in sorted(self._pending):
            if self._pending[transfer_id].destination not in self.lut:
                del self._pending[transfer_id]
                self.packets_abandoned_unreachable += 1
                abandoned += 1
        return abandoned

    def _is_queued(self, transfer_id: Tuple[str, int]) -> bool:
        if self._current_be and self._current_be[0].packet.transfer_id == transfer_id:
            return True
        if any(p.transfer_id == transfer_id for p in self._be_queue):
            return True
        for flits in self._current_gt.values():
            if flits and flits[0].packet.transfer_id == transfer_id:
                return True
        return any(
            p.transfer_id == transfer_id
            for queue in self._gt_queues.values()
            for p in queue
        )

    def purge_queued(self, predicate, cycle: int) -> int:
        """Drop queued/serializing packets matching ``predicate``.

        The flits already injected are purged from the network by the
        simulator; the pending-transfer entry survives, so the transfer
        retransmits over the post-recovery route at its next timeout.
        """
        purged = 0
        kept = deque(p for p in self._be_queue if not predicate(p))
        purged += len(self._be_queue) - len(kept)
        self._be_queue = kept
        if self._current_be and predicate(self._current_be[0].packet):
            self._current_be = None
            purged += 1
        for cid in list(self._gt_queues):
            kept = deque(p for p in self._gt_queues[cid] if not predicate(p))
            purged += len(self._gt_queues[cid]) - len(kept)
            if kept:
                self._gt_queues[cid] = kept
            else:
                del self._gt_queues[cid]
        for cid in list(self._current_gt):
            flits = self._current_gt[cid]
            if flits and predicate(flits[0].packet):
                del self._current_gt[cid]
                purged += 1
        return purged


class EjectionPort(Slotted):
    """A target's ejection buffer (at most ``depth`` flits of any VC),
    which its ejection links deliver into.  ``wakeup`` (the event
    kernel's hook) lets the target drain from the cycle a flit is
    delivered through ``accept`` (by an ACK/NACK link, or ``step()``)."""

    __slots__ = ("buffer", "depth", "wakeup")
    _unpickled = ("wakeup",)

    def __init__(self, depth: int):
        self.buffer: List[Flit] = []
        self.depth = depth
        self.wakeup: Optional[Callable[[], None]] = None

    def accept(self, flit: Flit, cycle: int) -> bool:
        if len(self.buffer) >= self.depth:
            return False
        self.buffer.append(flit)
        if self.wakeup is not None:
            self.wakeup()
        return True


class TargetNI(Slotted):
    """Slave-side NI: sink, reassembly, optional response generation.

    A small ejection buffer (``port``, drained at one flit per cycle)
    keeps the consumption guarantee honest while still exerting
    realistic backpressure: a core attached to several switches takes
    up to one flit per ejection link per cycle.  Every VC shares it.

    ``ejection_links`` maps each upstream switch onto the link arriving
    from it, which delivers into the port.  Each link gets its own
    share, ``ejection_depth // len(ejection_links)`` slots, so the links
    never overflow the buffer together; a drain returns the slot to the
    link the flit arrived on.  A link that cannot work within its share
    is refused.  Each tick first takes the flits landed on its credit
    and ON/OFF links by then, in upstream-name order (the reference
    kernel's link order; there the links have delivered them already).
    The pending-response queue and the set of seen transfers are
    created on first use: most targets never need them.

    A completed packet is logged in ``stats`` (the simulator's
    collector, or one of the target's own) and let go.
    """

    __slots__ = (
        "core", "params", "port", "_responder", "trace", "_service_cycles",
        "_pending_responses", "response_ni", "stats", "flits_received",
        "_seen_transfers", "duplicates_discarded", "acks_sent",
        "ejection_links", "_wires",
    )
    # A recorder's and the memory model's callbacks: the simulator
    # re-wires both on restore (the pending responses are data).
    _unpickled = ("trace", "_responder")

    def __init__(self, core: str, params: NocParameters,
                 ejection_links: Mapping[str, Link], ejection_depth: int = 8,
                 stats: Optional[StatsCollector] = None):
        if stats is None:  # a target on its own (repro.sim imports us)
            from repro.sim.stats import StatsCollector
            stats = StatsCollector()
        self.stats = stats
        self.core = core
        self.params = params
        self.port = EjectionPort(ejection_depth)
        self._responder: Optional[Callable[[Packet, int], Optional[Packet]]] = None
        self.trace = None  # optional callback(cycle, flit) on drain
        self._service_cycles = 0
        self._pending_responses: Optional[Deque[Tuple[int, Packet]]] = None
        self.response_ni: Optional[InitiatorNI] = None
        self.flits_received = 0
        # Transport-layer state (end-to-end retransmission).
        self._seen_transfers: Optional[Set[Tuple[str, int]]] = None
        self.duplicates_discarded = 0
        self.acks_sent = 0

        #: upstream node -> the ejection link arriving from it
        self.ejection_links: Dict[str, Link] = dict(ejection_links)
        for link in self.ejection_links.values():
            link.connect(self.port, share=ejection_depth // len(ejection_links))
        #: the credit and ON/OFF links' ``_in_flight`` lists, in the
        #: order the link phase delivers
        self._wires = [
            self.ejection_links[up]._in_flight
            for up in sorted(self.ejection_links)
            if not isinstance(self.ejection_links[up], AckNackLink)
        ]

    @property
    def idle(self) -> bool:
        """Nothing buffered and no response awaiting its service latency."""
        return not self.port.buffer and not self._pending_responses

    @property
    def backlog(self) -> int:
        """Flits waiting in the ejection buffer (drain census)."""
        return len(self.port.buffer)

    @property
    def packets_received(self) -> Tuple[Tuple[PacketRecord, int], ...]:
        """``(record, arrival)`` per packet logged here (warm-up too)."""
        return tuple((r, r.arrival_cycle) for r in self.stats.log
                     if r.destination == self.core)

    def set_responder(
        self,
        responder: Callable[[Packet, int], Optional[Packet]],
        service_cycles: int = 0,
    ) -> None:
        """Install a callback building a response packet for request
        packets (memory model); needs ``response_ni`` to inject it.

        ``service_cycles`` models the slave's access latency: the
        response enters the injection queue that many cycles after the
        request's tail arrives.
        """
        if service_cycles < 0:
            raise ValueError("service latency must be non-negative")
        self._responder = responder
        self._service_cycles = service_cycles

    # ------------------------------------------------------------------
    def tick(self, cycle: int) -> None:
        """Take landed flits, drain one, and complete packets at their
        tail flit."""
        buffer = self.port.buffer
        for wire in self._wires:
            while wire and wire[0][0] <= cycle:
                if len(buffer) >= self.port.depth:  # pragma: no cover - flow control prevents this
                    raise RuntimeError(f"target NI {self.core!r}: receiver overflow")
                buffer.append(wire.pop(0)[1])
        # Release responses whose service latency has elapsed.
        pending = self._pending_responses
        while pending and pending[0][0] <= cycle:
            __, response = pending.popleft()
            if self.response_ni is None:
                raise RuntimeError(
                    f"target NI {self.core!r} has a responder but no "
                    "response initiator NI"
                )
            self.response_ni.enqueue(response)
        if not buffer:
            return
        flit = buffer.pop(0)
        link = self.ejection_links.get(flit.packet.route[flit.hop - 1])
        if link is not None:
            link.return_credit(flit.vc, cycle, after_links=True)
        self.flits_received += 1
        flit.arrival_cycle = cycle
        if self.trace is not None:
            self.trace(cycle, flit)
        if flit.is_tail:
            packet = flit.packet
            if isinstance(packet.payload, EndToEndAck):
                # Transport control: confirm the transfer on the
                # co-located initiator NI; acks never enter statistics.
                if self.response_ni is not None:
                    self.response_ni.confirm_delivery(
                        packet.payload.transfer_id, cycle
                    )
                return
            if packet.transfer_id is not None:
                seen = self._seen_transfers
                if seen is None:
                    self._seen_transfers = seen = set()
                duplicate = packet.transfer_id in seen
                seen.add(packet.transfer_id)
                self._acknowledge(packet, cycle)
                if duplicate:
                    # A retransmitted copy of an already-delivered
                    # packet (its ack was lost or slow): re-ack above,
                    # but never double-count the delivery.
                    self.duplicates_discarded += 1
                    return
            self.stats.record_packet(packet, cycle)
            if (
                self._responder is not None
                and packet.message_class is MessageClass.REQUEST
            ):
                response = self._responder(packet, cycle)
                if response is not None:
                    if self.response_ni is None:
                        raise RuntimeError(
                            f"target NI {self.core!r} has a responder but no "
                            "response initiator NI"
                        )
                    if self._service_cycles == 0:
                        self.response_ni.enqueue(response)
                    else:
                        if self._pending_responses is None:
                            self._pending_responses = deque()
                        self._pending_responses.append(
                            (cycle + self._service_cycles, response)
                        )

    def _acknowledge(self, packet: Packet, cycle: int) -> None:
        """Send the one-flit end-to-end ack back to the packet source."""
        if self.response_ni is None or packet.source not in self.response_ni.lut:
            return  # source unreachable (severed by a fault): it will give up
        route, vc_path = self.response_ni.lut.lookup(packet.source)
        ack = Packet(
            source=self.core,
            destination=packet.source,
            size_flits=1,
            route=route,
            injection_cycle=cycle,
            message_class=MessageClass.RESPONSE,
            vc_path=vc_path,
            payload=EndToEndAck(packet.transfer_id),
        )
        self.response_ni.enqueue(ack)
        self.acks_sent += 1
