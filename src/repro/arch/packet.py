"""Packets and flits.

"NIs convert transaction requests/responses into packets and vice versa.
Packets are then serialized into a sequence of FLow control unITS
(flits) before transmission, to decrease the physical wire parallelism
requirements." (Section 3)

A packet's head flit carries the source route (the path read from the
NI LUT) plus header metadata; body flits carry pure payload; the tail
flit releases the wormhole.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Sequence, Tuple


class FlitType(Enum):
    HEAD = "head"
    BODY = "body"
    TAIL = "tail"
    SINGLE = "single"  # head and tail in one (single-flit packet)


# Hoisted members: an enum class attribute lookup costs a __getattr__.
_HEAD, _BODY, _TAIL, _SINGLE = (
    FlitType.HEAD, FlitType.BODY, FlitType.TAIL, FlitType.SINGLE
)


class MessageClass(Enum):
    """Traffic class, for QoS and message-dependent deadlock analysis."""

    BEST_EFFORT = "be"
    GUARANTEED = "gt"
    REQUEST = "request"
    RESPONSE = "response"


@dataclass(frozen=True)
class EndToEndAck:
    """Payload of a transport-level delivery acknowledgement.

    When NI end-to-end retransmission is enabled, the target NI answers
    every completed data packet with a one-flit packet carrying this
    marker back to the source; the source NI clears the matching entry
    from its retransmission queue.  Ack packets are pure transport
    control: they consume network bandwidth like any flit but never
    appear in delivery statistics.
    """

    transfer_id: Tuple[str, int]  # (source core, per-source sequence)


_packet_ids = itertools.count()


def reset_packet_ids() -> None:
    """Restart the global packet-id counter (test/determinism helper)."""
    global _packet_ids
    _packet_ids = itertools.count()


def packet_id_watermark() -> int:
    """The next packet id that would be assigned, without consuming it.

    ``itertools.count`` cannot be peeked, so the counter is read by
    advancing it once and rebuilding it at the same position — a net
    no-op observable only here.  Checkpoints capture this watermark so
    a restore in a fresh process continues the id sequence exactly
    where the interrupted run left it (duplicate-discard logic and
    trace fingerprints depend on ids never being reused).
    """
    global _packet_ids
    mark = next(_packet_ids)
    _packet_ids = itertools.count(mark)
    return mark


def set_packet_id_watermark(mark: int) -> None:
    """Continue the global packet-id sequence from ``mark`` (restore)."""
    global _packet_ids
    _packet_ids = itertools.count(mark)


@dataclass
class Packet:
    """One network packet: a routed payload between two cores.

    Slotted, like :class:`Flit`; a simulator holds it until delivered.
    The fields carry no class-level defaults (a slot and a default
    cannot share a name), so ``__init__`` is written out; it draws the
    next packet id unless one is given.
    """

    __slots__ = (
        "source", "destination", "size_flits", "route", "injection_cycle",
        "message_class", "connection_id", "vc_path", "packet_id", "payload",
        "transfer_id", "__weakref__",  # tests watch delivered ones go
    )

    source: str
    destination: str
    size_flits: int
    route: Tuple[str, ...]
    injection_cycle: int
    message_class: MessageClass
    connection_id: Optional[int]  # GT connection (TDMA slot owner)
    vc_path: Optional[Tuple[int, ...]]  # VC per link, len(route) - 1
    packet_id: int
    payload: Optional[object]
    #: Transport-level identity for end-to-end retransmission: all
    #: (re)transmissions of one logical transfer share this id, so the
    #: target NI can discard duplicates and ack the original.  ``None``
    #: when retransmission is disabled (the default).
    transfer_id: Optional[Tuple[str, int]]

    def __init__(
        self,
        source: str,
        destination: str,
        size_flits: int,
        route: Tuple[str, ...],
        injection_cycle: int = 0,
        message_class: MessageClass = MessageClass.BEST_EFFORT,
        connection_id: Optional[int] = None,
        vc_path: Optional[Tuple[int, ...]] = None,
        packet_id: Optional[int] = None,
        payload: Optional[object] = None,
        transfer_id: Optional[Tuple[str, int]] = None,
    ):
        self.source = source
        self.destination = destination
        self.size_flits = size_flits
        self.route = route
        self.injection_cycle = injection_cycle
        self.message_class = message_class
        self.connection_id = connection_id
        self.vc_path = vc_path
        self.packet_id = next(_packet_ids) if packet_id is None else packet_id
        self.payload = payload
        self.transfer_id = transfer_id
        if size_flits < 1:
            raise ValueError("packet needs at least one flit")
        if len(route) < 2:
            raise ValueError("packet route must span source to destination")
        if route[0] != source or route[-1] != destination:
            raise ValueError("route endpoints must match source/destination")
        if vc_path is not None and len(vc_path) != len(route) - 1:
            raise ValueError(
                f"vc_path needs {len(route) - 1} entries, got {len(vc_path)}"
            )

    def __reduce__(self):
        # Rebuilt from its fields in __init__ order, not by the slot
        # rule of repro.arch.slots: a checkpoint holds every packet in
        # flight, and one constructor call restores it fastest.
        return Packet, (
            self.source, self.destination, self.size_flits, self.route,
            self.injection_cycle, self.message_class, self.connection_id,
            self.vc_path, self.packet_id, self.payload, self.transfer_id,
        )

    def vc_on_link(self, hop: int) -> int:
        """VC used on the link route[hop] -> route[hop+1]."""
        if not 0 <= hop < len(self.route) - 1:
            raise IndexError(f"hop {hop} out of range for route {self.route}")
        return self.vc_path[hop] if self.vc_path is not None else 0

    def flits(self) -> List["Flit"]:
        """Serialize into head/body/tail flits."""
        last = self.size_flits - 1
        if last == 0:
            return [Flit(self, 0, _SINGLE)]
        out = [Flit(self, 0, _HEAD)]
        for i in range(1, last):
            out.append(Flit(self, i, _BODY))
        out.append(Flit(self, last, _TAIL))
        return out


@dataclass
class Flit:
    """One flow-control unit moving through the network."""

    # ``is_head`` and ``is_tail`` are derived from flit_type once at
    # construction: they are read on every hop (wormhole lock
    # take/release), so they are plain slots rather than properties,
    # and not dataclass fields (they take no part in eq).
    __slots__ = (
        "packet", "index", "flit_type", "hop", "vc", "arrival_cycle",
        "is_head", "is_tail",
    )

    packet: Packet
    index: int
    flit_type: FlitType
    hop: int              # position in packet.route: the node currently holding it
    vc: int               # virtual channel on the *next* link
    arrival_cycle: Optional[int]

    def __init__(
        self,
        packet: Packet,
        index: int,
        flit_type: FlitType,
        hop: int = 0,
        vc: int = 0,
        arrival_cycle: Optional[int] = None,
    ):
        # Hand-written (the dataclass keeps its repr and eq): one flit
        # is built per flit injected, and a generated __init__ plus
        # __post_init__ costs two calls.
        self.packet = packet
        self.index = index
        self.flit_type = flit_type
        self.hop = hop
        self.vc = vc
        self.arrival_cycle = arrival_cycle
        self.is_head = flit_type is _HEAD or flit_type is _SINGLE
        self.is_tail = flit_type is _TAIL or flit_type is _SINGLE

    def __reduce__(self):
        # As Packet.__reduce__; __init__ derives is_head and is_tail.
        return Flit, (
            self.packet, self.index, self.flit_type, self.hop, self.vc,
            self.arrival_cycle,
        )

    @property
    def route(self) -> Tuple[str, ...]:
        return self.packet.route

    def current_node(self) -> str:
        return self.packet.route[self.hop]

    def next_node(self) -> Optional[str]:
        if self.hop + 1 < len(self.packet.route):
            return self.packet.route[self.hop + 1]
        return None

    def __repr__(self) -> str:  # compact for debugging
        return (
            f"Flit(p{self.packet.packet_id}#{self.index} "
            f"{self.flit_type.value} @{self.current_node()})"
        )


def packet_size_flits(payload_bits: int, flit_width: int, header_bits: int) -> int:
    """Flits needed to carry ``payload_bits`` (header eats into flit 1).

    Mirrors the NI packetization datapath: the head flit carries
    ``flit_width - header_bits`` payload bits (never negative), the rest
    carry ``flit_width`` each.
    """
    if payload_bits < 0:
        raise ValueError("payload must be non-negative")
    if flit_width < 8:
        raise ValueError("flit width must be >= 8")
    if header_bits >= flit_width:
        raise ValueError("header must fit within one flit")
    head_payload = flit_width - header_bits
    if payload_bits <= head_payload:
        return 1
    remaining = payload_bits - head_payload
    return 1 + math.ceil(remaining / flit_width)
