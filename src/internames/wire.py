"""Wire messages, the length-prefixed codec, and CCN-side forwarding state.

The byte layout is fixed so independently written implementations can
exchange recorded message dumps: a 2-byte big-endian field count, then
per field a 1-byte tag, a 4-byte big-endian length and the raw bytes,
fields always in declared order.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import lru_cache

from .errors import MalformedMessage, NoFibMatch
from .names import Enum, Name, longest_prefix_hits, parse_name

HOP_LIMIT = 32
CONTENT_STORE_CAPACITY = 16
CCNX_SCHEME = "ccnx://"


class MessageKind(Enum):
    HTTP_GET = "HTTP_GET"
    HTTP_RESP = "HTTP_RESP"
    HTTP_PUSH = "HTTP_PUSH"
    CCN_INTEREST = "CCN_INTEREST"
    CCN_DATA = "CCN_DATA"
    ORS_QUERY = "ORS_QUERY"
    ORS_RESULT = "ORS_RESULT"
    NRS_QUERY = "NRS_QUERY"
    NRS_RESULT = "NRS_RESULT"
    SUB = "SUB"
    PUB = "PUB"


REQUEST_KINDS = frozenset({
    MessageKind.HTTP_GET,
    MessageKind.CCN_INTEREST,
    MessageKind.ORS_QUERY,
    MessageKind.NRS_QUERY,
    MessageKind.SUB,
    MessageKind.PUB,
})


@dataclass(frozen=True, slots=True, init=False)
class WireMessage:
    """One message on the wire; slotted, as a run builds thousands and the
    fabric keeps each one it mints, and __init__ sets each slot through its
    descriptor, past the frozen __setattr__."""

    msg_id: int
    kind: MessageKind
    target_fcn: str = ""
    target_name: Name | None = None
    source_name: Name | None = None
    body: bytes = b""
    hop_count: int = 0

    def __init__(self, msg_id: int, kind: MessageKind, target_fcn: str = "",
                 target_name: Name | None = None, source_name: Name | None = None,
                 body: bytes = b"", hop_count: int = 0):
        if source_name is None and kind in REQUEST_KINDS:
            raise ValueError(f"{kind.value} requires a source_name")
        if hop_count > HOP_LIMIT:
            raise ValueError(f"hop_count exceeds {HOP_LIMIT}")
        _set_msg_id(self, msg_id)
        _set_kind(self, kind)
        _set_target_fcn(self, target_fcn)
        _set_target_name(self, target_name)
        _set_source_name(self, source_name)
        _set_body(self, body)
        _set_hop_count(self, hop_count)

    def bumped(self) -> "WireMessage":
        return WireMessage(self.msg_id, self.kind, self.target_fcn, self.target_name,
                           self.source_name, self.body, self.hop_count + 1)


(_set_msg_id, _set_kind, _set_target_fcn, _set_target_name, _set_source_name, _set_body,
 _set_hop_count) = (WireMessage.__dict__[name].__set__ for name in (
    "msg_id", "kind", "target_fcn", "target_name", "source_name", "body", "hop_count"))


_FIELD_COUNT = 7
# The fixed-width runs between the variable payloads: the field count with
# fields 1 (msg_id) and 2's header, a tag and length, and field 7 (hop_count).
_HEAD = struct.Struct(">HBIQBI")
_FIELD = struct.Struct(">BI")
_TAIL = struct.Struct(">BIQ")


def encode(m: WireMessage) -> bytes:
    # Kind text is read as _value_, past Enum's Python-level value property.
    kind = m.kind._value_.encode()
    fcn = m.target_fcn.encode()
    target = m.target_name.uri.encode() if m.target_name is not None else b""
    source = m.source_name.uri.encode() if m.source_name is not None else b""
    body = m.body
    return b"".join((
        _HEAD.pack(_FIELD_COUNT, 1, 8, m.msg_id, 2, len(kind)), kind,
        _FIELD.pack(3, len(fcn)), fcn,
        _FIELD.pack(4, len(target)), target,
        _FIELD.pack(5, len(source)), source,
        _FIELD.pack(6, len(body)), body,
        _TAIL.pack(7, 8, m.hop_count),
    ))


def decode(b: bytes) -> WireMessage:
    if len(b) < 2:
        raise MalformedMessage("message too short")
    (count,) = struct.unpack_from(">H", b, 0)
    if count != _FIELD_COUNT:
        raise MalformedMessage(f"unexpected field count {count}")
    offset = 2
    payloads = []
    for tag in range(1, count + 1):
        if offset + 5 > len(b):
            raise MalformedMessage("truncated field header")
        got_tag, length = struct.unpack_from(">BI", b, offset)
        if got_tag != tag:
            raise MalformedMessage(f"field tag {got_tag} out of order")
        offset += 5
        if offset + length > len(b):
            raise MalformedMessage("field payload overruns message")
        payloads.append(b[offset : offset + length])
        offset += length
    if offset != len(b):
        raise MalformedMessage("trailing bytes after last field")
    try:
        msg_id = struct.unpack(">Q", payloads[0])[0]
        kind = MessageKind(payloads[1].decode())
        target_fcn = payloads[2].decode()
        target_name = parse_name(payloads[3].decode()) if payloads[3] else None
        source_name = parse_name(payloads[4].decode()) if payloads[4] else None
        hop_count = struct.unpack(">Q", payloads[6])[0]
        return WireMessage(
            msg_id=msg_id,
            kind=kind,
            target_fcn=target_fcn,
            target_name=target_name,
            source_name=source_name,
            body=payloads[5],
            hop_count=hop_count,
        )
    except MalformedMessage:
        raise
    except Exception as exc:
        raise MalformedMessage(str(exc)) from exc


@lru_cache(maxsize=65536)
def fcn_segments(fcn: str) -> tuple[str, ...]:
    if fcn.startswith(CCNX_SCHEME):
        fcn = fcn[len(CCNX_SCHEME):]
    return tuple(seg for seg in fcn.split("/") if seg)


@dataclass(frozen=True)
class FibEntry:
    prefix: str
    next_hop: str


class Fib:
    """A forwarding table: adverts (prefix, owner), read through a hop map.

    The index maps each advertised prefix's segments to its owners, and the
    hop map maps an owner to this table's next hop toward it.  A lookup
    takes the longest prefix with an owner in the hop map, then the smallest
    of those owners' next hops.  A table never changes once built; tables
    made by ``through`` share one adverts tuple and index, each with its own
    hops.
    """

    __slots__ = ("_adverts", "_index", "_hops")

    def __init__(self, adverts: Iterable[tuple[str, object]] = ()):
        self._adverts = tuple(adverts)
        self._index: dict[tuple[str, ...], list] = {}
        self._hops: dict[object, str] = {}
        for prefix, owner in self._adverts:
            owners = self._index.setdefault(fcn_segments(prefix), [])
            if owner not in owners:
                owners.append(owner)

    def through(self, hops: dict[object, str]) -> "Fib":
        """A table over this one's adverts and index, with hops as its hop map."""
        fib = Fib.__new__(Fib)
        fib._adverts, fib._index, fib._hops = self._adverts, self._index, hops
        return fib

    def __iter__(self) -> Iterator[FibEntry]:
        hops = self._hops
        for prefix, owner in self._adverts:
            hop = hops.get(owner)
            if hop is not None:
                yield FibEntry(prefix, hop)


def fib_lookup(table: Fib | Iterable[FibEntry], fcn: str) -> str:
    """Longest '/'-segment prefix match; length ties take the smallest next hop.

    ``table`` is a Fib, or any iterable of FibEntry, which is indexed first:
    each entry is an advert that owns itself, with its own next hop.
    A prefix matches only if one of its owners has a next hop.
    """
    if not isinstance(table, Fib):
        entries = tuple(table)
        table = Fib((e.prefix, e) for e in entries).through({e: e.next_hop for e in entries})
    hops = table._hops
    for owners in longest_prefix_hits(table._index, fcn_segments(fcn)):
        if len(owners) == 1:
            hop = hops.get(owners[0])
            if hop is not None:
                return hop
            continue
        reachable = [hops[owner] for owner in owners if owner in hops]
        if reachable:
            return min(reachable)
    raise NoFibMatch(fcn)


class ContentStore:
    """Capacity-bounded cache with least-recently-inserted eviction.

    The dict's insertion order is the eviction order; refreshing an entry
    keeps its place."""

    def __init__(self, capacity: int = CONTENT_STORE_CAPACITY):
        self.capacity = capacity
        self._bodies: dict[str, bytes] = {}

    def __len__(self) -> int:
        return len(self._bodies)

    def get(self, fcn: str) -> bytes | None:
        return self._bodies.get(fcn)

    def insert(self, fcn: str, body: bytes) -> None:
        if fcn not in self._bodies:
            while len(self._bodies) >= self.capacity:
                del self._bodies[next(iter(self._bodies))]
        self._bodies[fcn] = body

    def keys(self) -> list[str]:
        return list(self._bodies)


class CcnRouterState:
    """Per-node CCN forwarding state: a FIB, a content store, a repository.

    There is deliberately no pending-interest table; the return path is
    addressed to the requester's name, so no per-request state exists.
    """

    def __init__(self):
        self.fib = Fib()
        self.content_store = ContentStore()
        self.repo: dict[str, bytes] = {}

    def pending_request_records(self) -> tuple:
        # No backing storage exists for per-request state; always empty.
        return ()
