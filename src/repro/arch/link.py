"""Link models: pipelined transport plus link-level flow control.

"Links abstract the connectivity between NIs and switches and between
the switches themselves ... they can provide pipelining in order to
achieve the required timing." (Section 3)

Three concrete links implement the flow controls of Fig. 1:

* :class:`CreditLink` — exact credit bookkeeping; the reference.
* :class:`OnOffLink` — ON/OFF backpressure: the sender observes the
  downstream buffer state *delayed by the link traversal* and therefore
  throttles conservatively; no output buffers needed, but long/pipelined
  links lose throughput when buffers are shallow.
* :class:`AckNackLink` — go-back-N retransmission: flits transmit
  speculatively, a full receiver NACKs, and the sender replays from its
  output (retransmission) buffer — "output buffers are required, as
  flits have to be retransmitted until the downstream router has
  sufficient capacity" (Section 3).

All links carry at most one flit per cycle, regardless of VC count, and
deliver after ``delay_cycles`` (1 + pipeline stages).

The receiver contract: a link delivers into a port (a switch input
port, a target's ejection port) that exposes ``accept(flit, cycle)``,
where ``cycle`` is the delivery cycle.  The port holds no reference
back; the component that owns it holds the links arriving at it, and
hands every slot it frees back to the link the flit came in on with
``link.return_credit(vc, cycle)`` (``after_links=True`` when the slot
is freed after the cycle's link phase).  Credit and ON/OFF links never
call ``accept`` unless their count guarantees space; the ACK/NACK link
probes with ``try_accept`` semantics (accept returns False when full)
and ignores returned slots.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Protocol, Set, Tuple

from repro.arch.packet import Flit
from repro.arch.parameters import FlowControlKind, NocParameters
from repro.arch.slots import Slotted


class Receiver(Protocol):
    """Downstream endpoint of a link (switch input or ejection port)."""

    def accept(self, flit: Flit, cycle: int) -> bool: ...


class Link(Slotted):
    """Base link: delay pipeline and per-cycle bandwidth accounting.

    Links are slotted, and their queues are lists: one link per
    direction of every channel is built, and each queue holds at most
    a delay's, a window's or a buffer's worth of entries, so ``pop(0)``
    costs no more than ``deque.popleft`` while an empty list takes a
    fourteenth of an empty deque's memory.
    """

    __slots__ = (
        "name", "delay_cycles", "num_vcs", "receiver", "wheel", "token",
        "wakeup", "_in_flight", "_last_send_cycle", "flits_carried",
        "failed", "flits_dropped", "_burst_until", "_burst_probability",
        "_burst_rng", "_poisoned",
    )
    _unpickled = ("wheel", "wakeup")

    def __init__(self, name: str, delay_cycles: int, num_vcs: int):
        if delay_cycles < 1:
            raise ValueError("link delay must be >= 1 cycle")
        if num_vcs < 1:
            raise ValueError("need at least one VC")
        self.name = name
        self.delay_cycles = delay_cycles
        self.num_vcs = num_vcs
        self.receiver: Optional[Receiver] = None
        # Event-kernel hooks (see repro.sim.event_wheel); None outside
        # the event kernel and never pickled (the scheduler reinstalls
        # them).  A credit or ON/OFF link posts each flit's delivery
        # cycle from send(), under its ``token``, on the scheduler's
        # ``wheel`` of ``cycle -> [token]`` buckets (missing buckets
        # are created on first use); an ACK/NACK link, which has
        # per-cycle protocol work while busy, calls ``wakeup()``.
        self.wheel: Optional[Dict[int, List[int]]] = None
        self.token = -1
        self.wakeup: Optional[Callable[[], None]] = None
        self._in_flight: List[Tuple[int, Flit]] = []  # (deliver_at, flit)
        self._last_send_cycle = -1
        self.flits_carried = 0  # lifetime statistics (utilization, power)
        # Live fault state (see repro.sim.faults).  A hard-failed link is
        # a *blackhole*: it still grants sends but silently drops every
        # flit at the receiver boundary.  Refusing sends instead would
        # park the head flit at the upstream switch forever and head-of-
        # line-block healthy traffic through the same FIFO — the loss
        # must stay local so the recovery controller can localize it.  A
        # transient burst corrupts delivering flits with a seeded
        # probability until the burst window closes.
        self.failed = False
        self.flits_dropped = 0
        self._burst_until = -1
        self._burst_probability = 0.0
        self._burst_rng = None
        # Packets truncated by burst corruption: once a packet's head is
        # corrupted, its remaining flits die on this link too.  Wormhole
        # switches cannot digest a headless body (no lock is ever taken)
        # or a tailless head (the lock is never released), so corruption
        # is packet-granular — either a whole packet crosses or none of
        # it does.  Link-level retransmission (AckNackLink) recovers
        # per-flit instead and does not use this set.  Created by the
        # first truncation: most links never see one.
        self._poisoned: Optional[Set[int]] = None

    def connect(self, receiver: Receiver, share: Optional[int] = None) -> None:
        """Deliver to ``receiver``.

        ``share`` is set when the receiver gives this link ``share``
        slots of one buffer that serves every VC (a target NI splits
        its ejection buffer among its links); otherwise the receiver
        holds ``buffer_depth`` slots per VC.
        """
        self.receiver = receiver

    def return_credit(self, vc: int, cycle: int, after_links: bool = False) -> None:
        """The receiver freed a slot on ``vc`` in ``cycle``.

        ``after_links`` marks a slot freed after the cycle's link phase
        (a target drain, a purge).  Links without flow-control state
        ignore it.
        """

    # -- fault injection -------------------------------------------------
    def fail(self, cycle: int) -> int:
        """Hard-fail the link; returns the number of flits lost in flight."""
        self.failed = True
        lost = len(self._in_flight)
        self.flits_dropped += lost
        self._lose_in_flight(cycle)
        return lost

    def repair(self, cycle: int) -> None:
        """Bring a failed link back up; flits sent into it are gone."""
        self.failed = False
        self._lose_in_flight(cycle)
        self._poisoned = None
        self._on_repair(cycle)

    def _lose_in_flight(self, cycle: int) -> None:
        """Every flit on the wire vanishes (a fault, or its repair)."""
        self._in_flight.clear()

    def _on_repair(self, cycle: int) -> None:
        """Subclass hook: protocol state to restart after a repair."""

    def start_corruption_burst(
        self, until_cycle: int, probability: float, rng
    ) -> None:
        """Corrupt delivering packets with ``probability`` until ``until_cycle``.

        Corruption is sampled once per packet, at its head flit; a hit
        truncates the whole packet on this link (see ``_poisoned``).
        """
        if not 0.0 <= probability <= 1.0:
            raise ValueError("corruption probability must be in [0, 1]")
        self._burst_until = until_cycle
        self._burst_probability = probability
        self._burst_rng = rng

    def _burst_corrupts(self, cycle: int) -> bool:
        return (
            cycle < self._burst_until
            and self._burst_rng is not None
            and self._burst_rng.random() < self._burst_probability
        )

    def purge(self, predicate, cycle: int) -> int:
        """Drop in-flight flits whose packet matches ``predicate``.

        Used by the recovery controller to quiesce flows that can no
        longer reach their destination; flow-control state is repaired
        per subclass (credits returned, occupancy counters adjusted).
        """
        keep: List[Tuple[int, Flit]] = []
        purged = 0
        for at, flit in self._in_flight:
            if predicate(flit.packet):
                self._discard(flit, cycle)
                purged += 1
            else:
                keep.append((at, flit))
        self._in_flight = keep
        return purged

    def _discard(self, flit: Flit, cycle: int) -> None:
        """Drop one flit at the receiver boundary (CRC fail / dead sink)."""
        self.flits_dropped += 1

    # -- sender interface ------------------------------------------------
    def can_send(self, vc: int, cycle: int) -> bool:
        raise NotImplementedError

    def send(self, flit: Flit, cycle: int) -> None:
        """Put ``flit`` on the wire; the caller must hold a grant.

        Callers check ``can_send`` before sending (the
        switch gates candidates on it, the NIs gate transmission), so
        the base class does not re-verify the grant; an ungranted send
        surfaces one hop later as a receiver-overflow RuntimeError.
        CreditLink keeps an exact O(1) credit check because its grant
        state is a plain counter.
        """
        if self._last_send_cycle == cycle:
            raise RuntimeError(f"link {self.name}: second send in cycle {cycle}")
        self._last_send_cycle = cycle
        at = cycle + self.delay_cycles
        self._in_flight.append((at, flit))
        self.flits_carried += 1
        if self.wheel is not None:
            self.wheel[at].append(self.token)

    # -- per-cycle update -------------------------------------------------
    def _drops(self, flit: Flit, cycle: int) -> bool:
        """Discard a due ``flit`` if a fault kills it; returns whether it did."""
        packet_id = flit.packet.packet_id
        poisoned = self._poisoned
        if self.failed:
            self._discard(flit, cycle)
        elif poisoned and packet_id in poisoned:
            self._discard(flit, cycle)
            if flit.is_tail:
                poisoned.discard(packet_id)
        elif flit.is_head and self._burst_corrupts(cycle):
            self._discard(flit, cycle)
            if not flit.is_tail:
                if poisoned is None:
                    self._poisoned = poisoned = set()
                poisoned.add(packet_id)
        else:
            return False
        return True

    def tick(self, cycle: int) -> None:
        """Deliver flits whose traversal completes this cycle."""
        in_flight = self._in_flight
        if not in_flight:
            return
        # A clean link (the overwhelmingly common case) delivers every
        # due flit with no per-flit fault bookkeeping.  The test is
        # loop-invariant: nothing inside a clean delivery can fail the
        # link, poison a packet, or open a burst window.
        clean = not self.failed and not self._poisoned and cycle >= self._burst_until
        while in_flight and in_flight[0][0] <= cycle:
            flit = in_flight.pop(0)[1]
            if clean or not self._drops(flit, cycle):
                self._deliver(flit, cycle)

    def _deliver(self, flit: Flit, cycle: int) -> None:
        raise NotImplementedError

    @property
    def busy(self) -> bool:
        return bool(self._in_flight)


class CreditLink(Link):
    """Exact credit-based flow control with credit-return latency.

    Each flit put on the wire spends a credit of its VC and one of the
    link's pool; each slot the receiver frees, and each flit that dies
    on the wire, returns both ``delay_cycles`` later.  The pool is the
    receiver's whole buffer: the sum of the VCs' buffers, so that it
    never binds, or a share of one buffer that serves every VC (see
    :meth:`connect`).  A repair resets nothing: credits stay exact
    because every lost flit returns its own.
    """

    __slots__ = ("buffer_depth", "credits", "pool", "_returning")

    def __init__(self, name: str, delay_cycles: int, num_vcs: int, buffer_depth: int):
        super().__init__(name, delay_cycles, num_vcs)
        if buffer_depth < 1:
            raise ValueError("downstream buffer depth must be >= 1")
        self.buffer_depth = buffer_depth
        self.credits = [buffer_depth] * num_vcs
        self.pool = buffer_depth * num_vcs
        self._returning: List[Tuple[int, int]] = []  # (arrive_at, vc)

    def connect(self, receiver: Receiver, share: Optional[int] = None) -> None:
        super().connect(receiver)
        if share is not None:
            if share < 1:
                raise ValueError(f"link {self.name}: no ejection buffer slot left")
            self.credits = [min(self.buffer_depth, share)] * self.num_vcs
            self.pool = share

    def can_send(self, vc: int, cycle: int) -> bool:
        if self.failed:
            return True  # blackhole: the flit will be dropped on arrival
        self._collect_credits(cycle)
        return self.credits[vc] > 0 and self.pool > 0

    def send(self, flit: Flit, cycle: int) -> None:
        self._collect_credits(cycle)
        if not self.failed and (self.credits[flit.vc] <= 0 or self.pool <= 0):
            raise RuntimeError(
                f"link {self.name}: send without flow-control grant on vc "
                f"{flit.vc}"
            )
        super().send(flit, cycle)
        self.credits[flit.vc] -= 1
        self.pool -= 1

    def return_credit(self, vc: int, cycle: int, after_links: bool = False) -> None:
        # A credit is a token on its own wire: when in the cycle the
        # slot freed does not matter.
        self._returning.append((cycle + self.delay_cycles, vc))

    def _collect_credits(self, cycle: int) -> None:
        returning = self._returning
        while returning and returning[0][0] <= cycle:
            __, vc = returning.pop(0)
            self.credits[vc] += 1
            self.pool += 1

    def tick(self, cycle: int) -> None:
        self._collect_credits(cycle)
        super().tick(cycle)

    def _deliver(self, flit: Flit, cycle: int) -> None:
        accepted = self.receiver.accept(flit, cycle)
        if not accepted:  # pragma: no cover - credits prevent this
            raise RuntimeError(
                f"link {self.name}: receiver overflow under credit flow control"
            )

    def _discard(self, flit: Flit, cycle: int) -> None:
        # The flit dies at the receiver boundary without occupying a
        # buffer slot, so the credit the sender spent flows back (the
        # receiver's CRC check frees the reserved slot immediately).
        self.flits_dropped += 1
        self.return_credit(flit.vc, cycle)

    def _lose_in_flight(self, cycle: int) -> None:
        for __, flit in self._in_flight:
            self.return_credit(flit.vc, cycle)
        self._in_flight.clear()


class OnOffLink(Link):
    """ON/OFF backpressure: delayed buffer-state observation.

    The sender sees the downstream free-slot count as it was
    ``delay_cycles`` ago (the backpressure wire has the same latency as
    the data wires) and additionally accounts for its own in-flight
    flits, so the downstream buffer can never overflow.  The OFF
    threshold reserves slots to absorb flits already in the pipeline.

    The link works that count out itself: the receiver's capacity, less
    this link's deliveries, plus the slots the receiver returned
    (:meth:`return_credit`).  The wire carries the count as of each
    cycle's link phase, so a delivery or a slot freed before the phase
    (a switch pop, a switch death) counts from its own cycle, and a slot
    freed after it (a target drain, a purge) from the next; the sender
    sees either ``delay_cycles`` later.  Before the link's first cycle
    the sender sees ``buffer_depth`` (or its share, if smaller).  The
    count stays exact across a failure and its repair: flits lost on
    the wire never reached the receiver, and the slots it still holds
    come back as it frees them.  No receiver state is read, so the link
    has work only on its delivery cycles.
    """

    __slots__ = (
        "buffer_depth", "threshold", "share", "_off_floor", "_fresh",
        "_count_of", "_free", "_in_flight_count", "_changes",
    )

    def __init__(
        self,
        name: str,
        delay_cycles: int,
        num_vcs: int,
        buffer_depth: int,
        threshold: int = 1,
    ):
        super().__init__(name, delay_cycles, num_vcs)
        if not 1 <= threshold <= buffer_depth:
            raise ValueError("threshold must be within the buffer depth")
        self.buffer_depth = buffer_depth
        self.threshold = threshold
        #: Slots of a shared receiver buffer this link may fill (None:
        #: ``buffer_depth`` per VC).
        self.share: Optional[int] = None
        # can_send() runs once per hop per flit on both sides of the
        # grant; the OFF comparison point never changes after init.
        self._off_floor = threshold - 1
        self._fresh = buffer_depth  # what the sender reads before cycle 0
        # Per count (one per VC, or one for a shared buffer): the free
        # slots as of ``cycle - delay_cycles``, the flits in flight, and
        # the changes still to take effect, oldest first.
        self._count_of = list(range(num_vcs))
        self._free = [buffer_depth] * num_vcs
        self._in_flight_count = [0] * num_vcs
        self._changes: List[Tuple[int, int, int]] = []  # (stamp, count, +-1)

    def connect(self, receiver: Receiver, share: Optional[int] = None) -> None:
        super().connect(receiver)
        if share is not None:
            if share < self.threshold:
                raise ValueError(
                    f"link {self.name}: a {share}-slot share of the ejection "
                    f"buffer cannot hold the OFF threshold {self.threshold}"
                )
            self.share = share
            self._count_of = [0] * self.num_vcs
            self._free = [share]
            self._in_flight_count = [0]
            self._fresh = min(self.buffer_depth, share)

    def can_send(self, vc: int, cycle: int) -> bool:
        if self.failed:
            return True  # blackhole: the flit will be dropped on arrival
        at = cycle - self.delay_cycles
        i = self._count_of[vc]
        if at < 0:
            free = self._fresh
        else:
            changes = self._changes
            while changes and changes[0][0] <= at:
                __, j, delta = changes.pop(0)
                self._free[j] += delta
            free = self._free[i]
        return free - self._in_flight_count[i] > self._off_floor

    # send() and tick() run once per flit-hop, so each does its work in
    # one frame: Link.send and the wheel post inline, and each delivery
    # inline.
    def send(self, flit: Flit, cycle: int) -> None:
        if self._last_send_cycle == cycle:
            raise RuntimeError(f"link {self.name}: second send in cycle {cycle}")
        self._last_send_cycle = cycle
        at = cycle + self.delay_cycles
        self._in_flight.append((at, flit))
        self.flits_carried += 1
        self._in_flight_count[self._count_of[flit.vc]] += 1
        wheel = self.wheel
        if wheel is not None:
            wheel[at].append(self.token)

    def return_credit(self, vc: int, cycle: int, after_links: bool = False) -> None:
        self._changes.append((cycle + after_links, self._count_of[vc], 1))

    def tick(self, cycle: int) -> None:
        """Deliver due flits; each one leaves the sender's free count."""
        in_flight = self._in_flight
        if not in_flight or in_flight[0][0] > cycle:
            return
        clean = not self.failed and not self._poisoned and cycle >= self._burst_until
        accept = self.receiver.accept
        count_of = self._count_of
        in_flight_count = self._in_flight_count
        changes = self._changes
        while in_flight and in_flight[0][0] <= cycle:
            flit = in_flight.pop(0)[1]
            if not clean and self._drops(flit, cycle):
                continue
            i = count_of[flit.vc]
            in_flight_count[i] -= 1
            if not accept(flit, cycle):  # pragma: no cover - conservative gating prevents this
                raise RuntimeError(
                    f"link {self.name}: receiver overflow under ON/OFF flow control"
                )
            changes.append((cycle, i, -1))

    def _discard(self, flit: Flit, cycle: int) -> None:
        self._in_flight_count[self._count_of[flit.vc]] -= 1
        self.flits_dropped += 1

    def _lose_in_flight(self, cycle: int) -> None:
        super()._lose_in_flight(cycle)
        self._in_flight_count = [0] * len(self._in_flight_count)


class AckNackLink(Link):
    """Go-back-N retransmission (single VC).

    The output buffer holds every transmitted-but-unacknowledged flit.
    A full receiver NACKs; the sender rewinds and replays, consuming
    link cycles — the throughput cost of ACK/NACK under congestion that
    motivates ON/OFF in xpipes.

    ``flit_error_probability`` injects transmission errors: a corrupted
    flit fails its CRC at the receiver and is NACKed exactly like a
    buffer-refused one, so the same machinery provides the *run-time
    error correction* the paper's introduction claims for NoCs.  Errors
    are deterministic under ``error_seed``.
    """

    __slots__ = (
        "window", "flit_error_probability", "_error_rng", "flits_corrupted",
        "_buffer", "_base_seq", "_send_ptr", "_high_water", "_control",
        "_expected_seq", "_last_nacked", "_last_event_cycle", "_timeout",
        "retransmissions",
    )

    def __init__(
        self,
        name: str,
        delay_cycles: int,
        window: int,
        flit_error_probability: float = 0.0,
        error_seed: int = 1,
    ):
        super().__init__(name, delay_cycles, num_vcs=1)
        if window < 1:
            raise ValueError("retransmission window must be >= 1")
        if not 0.0 <= flit_error_probability < 1.0:
            raise ValueError("flit error probability must be in [0, 1)")
        import random as _random

        self.window = window
        self.flit_error_probability = flit_error_probability
        self._error_rng = _random.Random(error_seed)
        self.flits_corrupted = 0
        self._buffer: List[Flit] = []        # unacked flits, seq order
        self._base_seq = 0                   # seq of _buffer[0]
        self._send_ptr = 0                   # next index in _buffer to (re)transmit
        self._high_water = 0                 # furthest index ever transmitted
        self._control: List[Tuple[int, str, int]] = []  # (at, kind, seq)
        self._expected_seq = 0               # receiver side
        self._last_nacked: Optional[int] = None
        self._last_event_cycle = 0           # for the retransmission timeout
        self._timeout = max(6, 4 * delay_cycles)
        self.retransmissions = 0

    # -- sender ------------------------------------------------------------
    def can_send(self, vc: int, cycle: int) -> bool:
        # Accept a *new* flit only when the window has room; actual wire
        # transmission is scheduled by tick().
        if self.failed:
            return True  # blackhole: the flit will be dropped on arrival
        self._process_control(cycle)
        return len(self._buffer) < self.window

    def send(self, flit: Flit, cycle: int) -> None:
        if self.failed:
            # Blackhole: never buffered, never acknowledged, just gone.
            self.flits_dropped += 1
            return
        if not self.can_send(flit.vc, cycle):
            raise RuntimeError(f"link {self.name}: window full")
        self._buffer.append(flit)
        self.flits_carried += 1
        if self.wakeup is not None:
            self.wakeup()

    def fail(self, cycle: int) -> int:
        lost = len(self._in_flight) + len(self._buffer)
        self.failed = True
        self.flits_dropped += lost
        self._in_flight.clear()
        self._buffer.clear()
        self._control.clear()
        self._base_seq = self._expected_seq = 0
        self._send_ptr = self._high_water = 0
        self._last_nacked = None
        return lost

    def _on_repair(self, cycle: int) -> None:
        self._last_event_cycle = cycle

    def purge(self, predicate, cycle: int) -> int:
        # Go-back-N sequence numbering cannot tolerate holes in the
        # retransmission window, so quiescing leaves ACK/NACK links
        # alone; end-to-end retransmission still recovers the packets.
        return 0

    def tick(self, cycle: int) -> None:
        if self.failed:
            return
        self._process_control(cycle)
        # Timeout recovery: everything transmitted, nothing in flight, no
        # control responses pending, yet flits remain unacknowledged —
        # the NACK dedupe swallowed the replay request.  Resend the window.
        if (
            self._buffer
            and self._send_ptr >= len(self._buffer)
            and not self._in_flight
            and not self._control
            and cycle - self._last_event_cycle >= self._timeout
        ):
            self._send_ptr = 0
            self._last_nacked = None
            self._last_event_cycle = cycle
        # Transmit one flit per cycle from the send pointer.
        if self._send_ptr < len(self._buffer):
            flit = self._buffer[self._send_ptr]
            seq = self._base_seq + self._send_ptr
            self._in_flight.append((cycle + self.delay_cycles, (seq, flit)))
            if self._send_ptr < self._high_water:
                self.retransmissions += 1
            self._send_ptr += 1
            self._high_water = max(self._high_water, self._send_ptr)
            self._last_event_cycle = cycle
        # Deliveries.
        while self._in_flight and self._in_flight[0][0] <= cycle:
            __, (seq, flit) = self._in_flight.pop(0)
            self._receive(seq, flit, cycle)

    # -- receiver ------------------------------------------------------------
    def _receive(self, seq: int, flit: Flit, cycle: int) -> None:
        if self._burst_corrupts(cycle):
            # Injected burst corruption: same CRC-failure path as the
            # steady-state error model — discard and replay.
            self.flits_corrupted += 1
            self._nack(self._expected_seq, cycle)
            return
        if (
            self.flit_error_probability > 0.0
            and self._error_rng.random() < self.flit_error_probability
        ):
            # CRC failure: the corrupted flit is discarded and replayed.
            self.flits_corrupted += 1
            self._nack(self._expected_seq, cycle)
            return
        if seq != self._expected_seq:
            # Out-of-order (post-rewind duplicate or gap): request replay.
            self._nack(self._expected_seq, cycle)
            return
        if self.receiver.accept(flit, cycle):
            self._expected_seq += 1
            self._last_nacked = None
            self._control.append((cycle + self.delay_cycles, "ack", seq))
        else:
            self._nack(seq, cycle)

    def _nack(self, seq: int, cycle: int) -> None:
        if self._last_nacked == seq:
            return  # rate-limit duplicate NACKs for the same expected seq
        self._last_nacked = seq
        self._control.append((cycle + self.delay_cycles, "nack", seq))

    def _process_control(self, cycle: int) -> None:
        while self._control and self._control[0][0] <= cycle:
            __, kind, seq = self._control.pop(0)
            self._last_event_cycle = cycle
            if kind == "ack":
                while self._buffer and self._base_seq <= seq:
                    self._buffer.pop(0)
                    self._base_seq += 1
                    self._send_ptr = max(0, self._send_ptr - 1)
                    self._high_water = max(0, self._high_water - 1)
            else:  # nack: rewind to the requested sequence number
                rewind = seq - self._base_seq
                if 0 <= rewind < self._send_ptr:
                    self._send_ptr = rewind

    def _deliver(self, flit: Flit, cycle: int) -> None:  # pragma: no cover
        raise AssertionError("AckNackLink handles delivery in tick()")

    @property
    def busy(self) -> bool:
        return bool(self._in_flight) or bool(self._buffer) or bool(self._control)


def make_link(
    name: str,
    delay_cycles: int,
    params: NocParameters,
    flit_error_probability: float = 0.0,
) -> Link:
    """Factory: build the link matching ``params.flow_control``.

    ``flit_error_probability`` enables transmission-error injection; it
    requires the retransmitting (ACK/NACK) flow control, since the other
    schemes have no recovery path.

    An ON/OFF link's OFF threshold is ``params.onoff_threshold`` raised
    to the link's delay, within the buffer depth.  The sender reads a
    sample ``delay`` cycles old and subtracts only the flits still on
    the wire, so up to ``delay - 1`` flits delivered since the sample
    are counted nowhere; the threshold must absorb them.  A one-slot
    buffer behind a pipelined link overflows at any threshold and is
    refused.
    """
    if flit_error_probability > 0.0 and params.flow_control is not (
        FlowControlKind.ACK_NACK
    ):
        raise ValueError(
            "error injection requires ACK/NACK flow control (the only "
            "scheme with link-level recovery)"
        )
    if params.flow_control is FlowControlKind.CREDIT:
        return CreditLink(name, delay_cycles, params.num_vcs, params.buffer_depth)
    if params.flow_control is FlowControlKind.ON_OFF:
        depth = params.buffer_depth
        if depth < 2 and delay_cycles > 1:
            raise ValueError(
                f"link {name}: ON/OFF flow control cannot keep a "
                f"{delay_cycles}-cycle link from overflowing a "
                f"{depth}-flit buffer"
            )
        return OnOffLink(
            name,
            delay_cycles,
            params.num_vcs,
            depth,
            threshold=min(max(params.onoff_threshold, delay_cycles), depth),
        )
    if params.flow_control is FlowControlKind.ACK_NACK:
        if params.num_vcs != 1:
            raise ValueError("ACK/NACK links support a single VC")
        import zlib

        return AckNackLink(
            name,
            delay_cycles,
            params.ack_nack_window,
            flit_error_probability=flit_error_probability,
            error_seed=zlib.crc32(name.encode()),  # stable across runs
        )
    raise ValueError(f"unknown flow control {params.flow_control!r}")
