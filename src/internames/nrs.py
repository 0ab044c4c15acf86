"""Name Resolution Service: longest-prefix, context-aware name-to-SD mapping.

Resolution picks the records with the longest registered prefix of the
queried name whose predicate matches the caller's context, then orders
them by (priority, canonical text).  A small tick-based cache layer sits
on top; registration is restricted to administrators and name-routers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DuplicateRecord, NotFound, NotResolvable, Unauthorized
from .names import Enum, Name, format_name, longest_prefix_hits

DEFAULT_TTL_TICKS = 100


class Protocol(Enum):
    HTTPISH = "HTTPISH"
    CCNISH_OVER_UDPISH = "CCNISH_OVER_UDPISH"


class NextHopTech(Enum):
    IPISH = "IPISH"
    CCNISH = "CCNISH"


class Service(Enum):
    UNICAST = "unicast"
    MULTICAST = "multicast"
    ANYCAST = "anycast"
    BROADCAST = "broadcast"


class CallerRole(Enum):
    ADMINISTRATOR = "administrator"
    NAME_ROUTER = "name_router"
    END_USER = "end_user"


_WRITER_ROLES = frozenset({CallerRole.ADMINISTRATOR, CallerRole.NAME_ROUTER})


@dataclass(frozen=True, slots=True, init=False)
class ServiceDescriptor:
    """How to relay a request toward a named-entity: protocol + next hop.
    Slotted, as set-up builds one per NRS record, and __init__ sets each
    slot through its descriptor, past the frozen __setattr__."""

    protocol: Protocol
    fcn: str
    next_hop_tech: NextHopTech
    next_hop_address: str
    priority: int = 0
    ttl_ticks: int = DEFAULT_TTL_TICKS
    scope: str | None = None
    # canonical_text(), set on its first call and left out of ==, hash,
    # repr and pickle; construction does not touch it.
    _text: str = field(init=False, compare=False, repr=False)

    def __init__(self, protocol: Protocol, fcn: str, next_hop_tech: NextHopTech,
                 next_hop_address: str, priority: int = 0,
                 ttl_ticks: int = DEFAULT_TTL_TICKS, scope: str | None = None):
        if protocol is Protocol.CCNISH_OVER_UDPISH and not fcn:
            raise ValueError("CCNISH_OVER_UDPISH descriptors need a non-empty fcn")
        if priority < 0 or ttl_ticks < 0:
            raise ValueError("priority and ttl_ticks must be >= 0")
        _set_protocol(self, protocol)
        _set_fcn(self, fcn)
        _set_next_hop_tech(self, next_hop_tech)
        _set_next_hop_address(self, next_hop_address)
        _set_priority(self, priority)
        _set_ttl_ticks(self, ttl_ticks)
        _set_scope(self, scope)

    def __reduce__(self):
        # Rebuilt from its fields: the frozen-slots pickle state would read
        # _text, which may be unset.
        return ServiceDescriptor, (self.protocol, self.fcn, self.next_hop_tech,
                                   self.next_hop_address, self.priority, self.ttl_ticks,
                                   self.scope)

    def canonical_text(self) -> str:
        try:
            return self._text
        except AttributeError:
            pass
        text = (
            f"protocol={self.protocol._value_} fcn={self.fcn or '-'}"
            f" next_hop={self.next_hop_address} tech={self.next_hop_tech._value_}"
            f" priority={self.priority} ttl={self.ttl_ticks}"
        )
        if self.scope is not None:
            text += f" scope={self.scope}"
        _set_text(self, text)
        return text


(_set_protocol, _set_fcn, _set_next_hop_tech, _set_next_hop_address, _set_priority,
 _set_ttl_ticks, _set_scope, _set_text) = (ServiceDescriptor.__dict__[name].__set__ for name in (
    "protocol", "fcn", "next_hop_tech", "next_hop_address", "priority", "ttl_ticks", "scope",
    "_text"))


def sd_list_text(sds: list[ServiceDescriptor]) -> str:
    return " | ".join(sd.canonical_text() for sd in sds)


@dataclass(frozen=True)
class ContextPredicate:
    """Condition under which a record applies; the empty predicate matches all."""

    time_window: tuple[int, int] | None = None  # [start, end)
    location_tags: frozenset[str] = frozenset()
    context_tags: frozenset[str] = frozenset()
    service: Service | None = None

    def __post_init__(self):
        object.__setattr__(self, "location_tags", frozenset(self.location_tags))
        object.__setattr__(self, "context_tags", frozenset(self.context_tags))

    def matches(self, ctx: "ResolutionContext") -> bool:
        if self.time_window is not None:
            start, end = self.time_window
            if not (start <= ctx.now_tick < end):
                return False
        if self.location_tags and ctx.location_tag not in self.location_tags:
            return False
        if not self.context_tags <= ctx.context_tags:
            return False
        if self.service is not None and self.service is not ctx.requested_service:
            return False
        return True


@dataclass(frozen=True, slots=True, init=False)
class ResolutionContext:
    """The caller's side of a resolve; the fabric builds one per cache lookup
    and resolve, so __init__ sets each slot through its descriptor, past the
    frozen __setattr__, and keeps tags that are already a frozenset."""

    now_tick: int
    location_tag: str = ""
    context_tags: frozenset[str] = frozenset()
    requested_service: Service = Service.UNICAST

    def __init__(self, now_tick: int, location_tag: str = "",
                 context_tags: frozenset[str] = frozenset(),
                 requested_service: Service = Service.UNICAST):
        if now_tick < 0:
            raise ValueError("now_tick must be >= 0")
        _set_now_tick(self, now_tick)
        _set_location_tag(self, location_tag)
        _set_context_tags(self, context_tags if type(context_tags) is frozenset
                          else frozenset(context_tags))
        _set_requested_service(self, requested_service)

    def cache_key_part(self) -> tuple:
        # now_tick deliberately excluded: expiry is handled by the TTL,
        # everything else keys the entry so contexts never cross-contaminate.
        return (self.location_tag, self.context_tags, self.requested_service)


_set_now_tick, _set_location_tag, _set_context_tags, _set_requested_service = (
    ResolutionContext.__dict__[name].__set__
    for name in ("now_tick", "location_tag", "context_tags", "requested_service"))


# The predicate every record without one holds: it matches every context.
_ANYWHERE = ContextPredicate()


@dataclass(frozen=True, slots=True, init=False)
class NrsRecord:
    """One NRS entry; slotted, as set-up builds one per record, and
    __init__ sets each slot through its descriptor."""

    prefix: Name
    sd: ServiceDescriptor
    predicate: ContextPredicate = _ANYWHERE

    def __init__(self, prefix: Name, sd: ServiceDescriptor,
                 predicate: ContextPredicate = _ANYWHERE):
        _set_prefix(self, prefix)
        _set_sd(self, sd)
        _set_predicate(self, predicate)

    def key(self) -> tuple:
        return (self.prefix, self.sd.protocol, self.sd.next_hop_address, self.predicate)


_set_prefix, _set_sd, _set_predicate = (
    NrsRecord.__dict__[name].__set__ for name in ("prefix", "sd", "predicate"))


class NameResolutionService:
    """The record store plus prefix-walk resolution."""

    def __init__(self):
        # Records in registration order, keyed by NrsRecord.key(), and the
        # same records bucketed per realm by prefix segments.
        self._records: dict[tuple, NrsRecord] = {}
        self._by_prefix: dict[str, dict[tuple[str, ...], list[NrsRecord]]] = {}

    def records(self) -> tuple[NrsRecord, ...]:
        return tuple(self._records.values())

    def register(self, record: NrsRecord, role: CallerRole) -> None:
        if role not in _WRITER_ROLES:
            raise Unauthorized(f"role {role.value} may not register records")
        n = len(self._records)
        first = self._records.setdefault(record.key(), record)
        if len(self._records) == n:
            raise DuplicateRecord(first)
        realm = self._by_prefix.setdefault(record.prefix.realm_id, {})
        realm.setdefault(record.prefix.segments, []).append(record)

    def withdraw(self, prefix: Name, next_hop_address: str, role: CallerRole = CallerRole.ADMINISTRATOR) -> None:
        if role not in _WRITER_ROLES:
            raise Unauthorized(f"role {role.value} may not withdraw records")
        bucket = self._by_prefix.get(prefix.realm_id, {}).get(prefix.segments, ())
        gone = [r for r in bucket if r.sd.next_hop_address == next_hop_address]
        if not gone:
            raise NotFound(f"{format_name(prefix)} via {next_hop_address}")
        for r in gone:
            self.withdraw_record(r)

    def withdraw_record(self, record: NrsRecord) -> None:
        """Withdraw the one record held under record's key; NotFound if none is."""
        held = self._records.pop(record.key(), None)
        if held is None:
            raise NotFound(f"{format_name(record.prefix)} via {record.sd.next_hop_address}")
        realm = self._by_prefix[held.prefix.realm_id]
        bucket = realm[held.prefix.segments]
        bucket.remove(held)
        if not bucket:
            del realm[held.prefix.segments]

    def resolve(self, name: Name, ctx: ResolutionContext) -> list[ServiceDescriptor]:
        for bucket in longest_prefix_hits(self._by_prefix.get(name.realm_id, {}), name.segments):
            hits = [r for r in bucket if r.predicate.matches(ctx)]
            if not hits:
                continue
            sds = sorted(
                (r.sd for r in hits),
                key=lambda sd: (sd.priority, sd.canonical_text()),
            )
            if ctx.requested_service is Service.ANYCAST:
                return sds[:1]
            return sds
        raise NotResolvable(format_name(name))


class CacheStore:
    """Per-consumer cache of resolved descriptor lists, keyed by name + context.

    Each entry is a (descriptors, expiry tick) pair, live before that tick.
    No expired entry outlives the next store: an expired entry is evicted
    when it is looked up, and a store sweeps out every expired entry once
    the earliest expiry has passed."""

    def __init__(self):
        self._entries: dict[tuple, tuple[list[ServiceDescriptor], int]] = {}
        self._next_expiry: float = float("inf")  # no entry expires before this tick
        self.hits = 0
        self.misses = 0

    @staticmethod
    def _key(name: Name, ctx: ResolutionContext) -> tuple:
        return (name,) + ctx.cache_key_part()

    def lookup(self, name: Name, ctx: ResolutionContext) -> list[ServiceDescriptor] | None:
        """The live entry for name in ctx; an expired one is evicted and misses."""
        key = self._key(name, ctx)
        entry = self._entries.get(key)
        if entry is not None:
            sds, expiry = entry
            if ctx.now_tick < expiry:
                self.hits += 1
                return list(sds)
            del self._entries[key]
        self.misses += 1
        return None

    def store(self, name: Name, ctx: ResolutionContext, sds: list[ServiceDescriptor]) -> None:
        """Cache sds for name in ctx; sds that expire at once (ttl 0) only
        replace what the key held."""
        now = ctx.now_tick
        if now >= self._next_expiry:
            self._entries = {k: e for k, e in self._entries.items() if now < e[1]}
            self._next_expiry = min((e[1] for e in self._entries.values()),
                                    default=float("inf"))
        key = self._key(name, ctx)
        expiry = now + min((sd.ttl_ticks for sd in sds), default=DEFAULT_TTL_TICKS)
        if now < expiry:
            self._entries[key] = (list(sds), expiry)
            self._next_expiry = min(self._next_expiry, expiry)
        else:
            self._entries.pop(key, None)
