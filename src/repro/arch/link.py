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

A credit or ON/OFF link is a fixed-delay pipe, so the event kernel
never ticks a clean one: the owner of the port takes the flits that
have landed (``_in_flight`` entries due by then) when it next acts, and
a faulty link only decides the fate of each flit on its due cycle
(:meth:`Link.decide`).  The reference kernel ticks every link, and its
``tick`` hands landed flits to ``accept`` at once.
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
        "lag", "wakeup", "_in_flight", "_last_send_cycle", "flits_carried",
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
        # them).  A credit or ON/OFF link posts its receiver's
        # ``token`` from send() on the scheduler's ``wheel`` of
        # ``cycle -> [token]`` buckets (missing buckets are created on
        # first use), at the cycle the receiver can first act on the
        # flit: ``lag`` cycles after it lands.  ``wakeup()`` activates
        # the link itself: an ACK/NACK link has per-cycle protocol work
        # while busy, a faulty link decides each flit's fate.
        self.wheel: Optional[Dict[int, List[int]]] = None
        self.token = -1
        self.lag = 0
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
        for due, flit in self._in_flight:
            self._lost(flit, cycle, due)
        self._in_flight.clear()

    def _lost(self, flit: Flit, cycle: int, due: int) -> None:
        """Subclass hook: ``flit``, due in ``due``, died in ``cycle``."""

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

    def faulty(self, cycle: int) -> bool:
        """Whether a flit due in ``cycle`` may die here: the link is
        down, a packet is poisoned, or a burst window is open."""
        return self.failed or bool(self._poisoned) or cycle < self._burst_until

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
                self._discard(flit, cycle, at)
                purged += 1
            else:
                keep.append((at, flit))
        # In place: the receiving switch holds this list (it takes
        # landed flits off it).
        self._in_flight[:] = keep
        return purged

    def _discard(self, flit: Flit, cycle: int, due: int) -> None:
        """Drop one flit at the receiver boundary (CRC fail / dead sink)."""
        self.flits_dropped += 1
        self._lost(flit, cycle, due)

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
        wheel = self.wheel
        if wheel is not None:
            wheel[at + self.lag].append(self.token)
            if self.wakeup is not None:
                self.wakeup()

    # -- per-cycle update -------------------------------------------------
    def _drops(self, flit: Flit, cycle: int) -> bool:
        """Discard a due ``flit`` if a fault kills it; returns whether it did."""
        packet_id = flit.packet.packet_id
        poisoned = self._poisoned
        if self.failed:
            self._discard(flit, cycle, cycle)
        elif poisoned and packet_id in poisoned:
            self._discard(flit, cycle, cycle)
            if flit.is_tail:
                poisoned.discard(packet_id)
        elif flit.is_head and self._burst_corrupts(cycle):
            self._discard(flit, cycle, cycle)
            if not flit.is_tail:
                if poisoned is None:
                    self._poisoned = poisoned = set()
                poisoned.add(packet_id)
        else:
            return False
        return True

    def tick(self, cycle: int) -> None:
        """Deliver flits whose traversal completes this cycle (the
        reference kernel's link phase)."""
        in_flight = self._in_flight
        if not in_flight:
            return
        # A clean link (the overwhelmingly common case) delivers every
        # due flit with no per-flit fault bookkeeping.  The test is
        # loop-invariant: nothing inside a clean delivery can fail the
        # link, poison a packet, or open a burst window.
        clean = not self.faulty(cycle)
        while in_flight and in_flight[0][0] <= cycle:
            flit = in_flight.pop(0)[1]
            if clean or not self._drops(flit, cycle):
                self._deliver(flit, cycle)

    def _deliver(self, flit: Flit, cycle: int) -> None:
        # Flow control keeps the receiver from filling up.
        if not self.receiver.accept(flit, cycle):  # pragma: no cover
            raise RuntimeError(f"link {self.name}: receiver overflow")

    def decide(self, cycle: int) -> bool:
        """Decide the fate of the flit due in ``cycle`` (event kernel).

        A flit a fault kills leaves the wire; a survivor stays on it for
        the receiver to take.  Returns whether flits due later still
        wait for a decision here.
        """
        if not self.faulty(cycle):
            return False
        in_flight = self._in_flight
        for k, (at, flit) in enumerate(in_flight):
            if at >= cycle:
                if at == cycle and self._drops(flit, cycle):
                    del in_flight[k]
                break
        return (
            bool(in_flight) and in_flight[-1][0] > cycle
            and self.faulty(cycle + 1)
        )

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

    def _lost(self, flit: Flit, cycle: int, due: int) -> None:
        # The flit dies without occupying a buffer slot, so the credit
        # the sender spent flows back (the receiver's CRC check frees
        # the reserved slot immediately).
        self.return_credit(flit.vc, cycle)


class OnOffLink(Link):
    """ON/OFF backpressure: delayed buffer-state observation.

    The sender sees the downstream free-slot count as it was
    ``delay_cycles`` ago (the backpressure wire has the same latency as
    the data wires) and additionally accounts for its own in-flight
    flits, so the downstream buffer can never overflow.  The OFF
    threshold reserves slots to absorb flits already in the pipeline.

    The link works that count out from its own sends and the slots the
    receiver returns (:meth:`return_credit`), with no delivery events:
    a live flit lands exactly ``delay_cycles`` after it is sent.  So in
    cycle ``c`` the sender reads the capacity, plus the slots returned
    by ``c - delay_cycles``, less the live flits sent, plus the live
    flits that landed in ``(c - delay_cycles, c - 1]`` (at most
    ``delay_cycles - 1`` of them, so none for a one-cycle link).  The
    wire carries the count as of each cycle's link phase, so a slot
    freed before the phase (a switch pop, a switch death) counts from
    its own cycle, and one freed after it (a target drain, a purge) from
    the next.  A flit lost on the wire gives its slot back in the cycle
    it is lost.  Before the link's first cycle the sender sees
    ``buffer_depth`` (or its share, if smaller).  No receiver state is
    read, and the count stays exact across a failure and its repair.
    """

    __slots__ = (
        "buffer_depth", "threshold", "share", "_off_floor", "_early",
        "_count_of", "_free", "_changes", "_landing",
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
        # What the sender reads before cycle ``delay_cycles``, less the
        # capacity (nonzero only for a share above the buffer depth).
        self._early = 0
        # Per count (one per VC, or one for a shared buffer): the
        # capacity plus the slots returned so far as of ``cycle -
        # delay_cycles``, less the live flits sent; the returns still to
        # take effect, oldest first; and, on a pipelined link, the
        # landing cycle of every live flit not yet a delay past it.
        self._count_of = list(range(num_vcs))
        self._free = [buffer_depth] * num_vcs
        self._changes: List[Tuple[int, int]] = []  # (stamp, count)
        self._landing: List[Tuple[int, int]] = []  # (due, count)

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
            self._early = min(self.buffer_depth, share) - share

    def can_send(self, vc: int, cycle: int) -> bool:
        if self.failed:
            return True  # blackhole: the flit will be dropped on arrival
        at = cycle - self.delay_cycles
        free = self._free
        changes = self._changes
        while changes and changes[0][0] <= at:
            free[changes.pop(0)[1]] += 1
        i = self._count_of[vc]
        count = free[i]
        if at < 0:
            count += self._early
        landing = self._landing
        if landing:
            while landing and landing[0][0] <= at:
                landing.pop(0)
            for due, j in landing:
                if due >= cycle:
                    break
                if j == i:
                    count += 1
        return count > self._off_floor

    # send() runs once per flit-hop, so it does its work in one frame:
    # Link.send and the wheel post inline.
    def send(self, flit: Flit, cycle: int) -> None:
        if self._last_send_cycle == cycle:
            raise RuntimeError(f"link {self.name}: second send in cycle {cycle}")
        self._last_send_cycle = cycle
        at = cycle + self.delay_cycles
        self._in_flight.append((at, flit))
        self.flits_carried += 1
        i = self._count_of[flit.vc]
        self._free[i] -= 1
        if self.delay_cycles > 1:
            self._landing.append((at, i))
        wheel = self.wheel
        if wheel is not None:
            wheel[at + self.lag].append(self.token)
            if self.wakeup is not None:
                self.wakeup()

    def return_credit(self, vc: int, cycle: int, after_links: bool = False) -> None:
        self._changes.append((cycle + after_links, self._count_of[vc]))

    def _lost(self, flit: Flit, cycle: int, due: int) -> None:
        i = self._count_of[flit.vc]
        self._free[i] += 1
        if self.delay_cycles > 1:
            self._landing.remove((due, i))


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
