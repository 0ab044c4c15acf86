"""Realm-qualified names, name-realms, named-entities and the n2n:// URI grammar.

A name looks like ``n2n://<realm>:<seg>/<seg>/...``.  Comparison is
byte-wise and case-sensitive; percent-escapes are rejected outright so
that canonical text stays bit-exact in traces and config files.
"""

from __future__ import annotations

import enum
import re
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from typing import TypeVar

from .errors import MalformedUri

SCHEME = "n2n://"
MAX_SEGMENTS = 64
MAX_SEGMENT_BYTES = 255

_REALM_RE = re.compile(r"[A-Za-z0-9.\-]+\Z")
_SEGMENT_RE = re.compile(r"[A-Za-z0-9._\-]+\Z")

_V = TypeVar("_V")


class _CanonicalUri:
    """Name.uri: the canonical text, worked out on a Name's first read and
    stored in the instance, where every later read finds it before this
    descriptor (which has no __set__).  It takes no part in equality, order,
    hash or repr.  Unlike functools.cached_property it takes no lock and
    leaves the instance without a materialised __dict__, which keeps Name
    construction and attribute reads as cheap as before."""

    def __get__(self, name, owner=None):
        if name is None:
            return self
        uri = SCHEME + name.realm_id + ":" + "/".join(name.segments)
        object.__setattr__(name, "uri", uri)
        return uri


@dataclass(frozen=True, order=True)
class Name:
    """A realm-qualified hierarchical identifier."""

    realm_id: str
    segments: tuple[str, ...]

    def __post_init__(self):
        if not self.realm_id or not _REALM_RE.match(self.realm_id):
            raise MalformedUri(f"bad realm id: {self.realm_id!r}")
        if not isinstance(self.segments, tuple):
            object.__setattr__(self, "segments", tuple(self.segments))
        if not self.segments:
            raise MalformedUri("a name needs at least one segment")
        if len(self.segments) > MAX_SEGMENTS:
            raise MalformedUri(f"too many segments ({len(self.segments)} > {MAX_SEGMENTS})")
        for seg in self.segments:
            if not seg or not _SEGMENT_RE.match(seg):
                raise MalformedUri(f"bad segment: {seg!r}")
            if len(seg.encode()) > MAX_SEGMENT_BYTES:
                raise MalformedUri(f"segment longer than {MAX_SEGMENT_BYTES} bytes")

    uri = _CanonicalUri()

    def __str__(self) -> str:
        return self.uri


def parse_name(uri: str) -> Name:
    """Parse a canonical ``n2n://`` URI into a Name.

    Raises MalformedUri on a bad scheme, empty realm, empty segment,
    illegal character or an exceeded length limit.
    """
    if not isinstance(uri, str):
        raise MalformedUri("uri must be text")
    if not uri.startswith(SCHEME):
        raise MalformedUri(f"scheme must be n2n: {uri!r}")
    rest = uri[len(SCHEME):]
    realm, sep, local = rest.partition(":")
    if not sep:
        raise MalformedUri(f"missing ':' between realm and local name: {uri!r}")
    if not local:
        raise MalformedUri(f"empty local name: {uri!r}")
    return Name(realm, tuple(local.split("/")))


def format_name(n: Name) -> str:
    """Render the canonical URI; inverse of parse_name."""
    return n.uri


def is_prefix_of(p: Name, n: Name) -> bool:
    """True iff p and n share a realm and p's segments lead n's."""
    return (
        p.realm_id == n.realm_id
        and len(p.segments) <= len(n.segments)
        and n.segments[: len(p.segments)] == p.segments
    )


def longest_prefix_hits(table: Mapping[tuple[str, ...], _V], segments: tuple[str, ...]) -> Iterator[_V]:
    """Yield the values ``table`` holds for prefixes of ``segments``, longest first.

    One dict probe per prefix length, down to the empty prefix, so the
    walk costs O(len(segments)) whatever the size of the table.
    """
    for n in range(len(segments), -1, -1):
        hit = table.get(segments[:n])
        if hit is not None:
            yield hit


class Enum(enum.Enum):
    """The base of every enum in the package: a member hashes by identity.

    enum.Enum's own __hash__ hashes the member's name in Python, and the
    engine keys its per-message tables and store keys by members.  Members
    are singletons that compare by identity, so the hash agrees with ==; a
    set of members iterates in an order that can differ between processes."""

    __hash__ = object.__hash__


class NamingScheme(Enum):
    HIERARCHICAL = "hierarchical"
    FLAT = "flat"


@dataclass(frozen=True)
class NameRealm:
    """An administrative container of names; realm ids are globally unique."""

    id: str
    naming_scheme: NamingScheme = NamingScheme.HIERARCHICAL
    description: str = ""

    def admits(self, name: Name) -> bool:
        if name.realm_id != self.id:
            return False
        if self.naming_scheme is NamingScheme.FLAT:
            return len(name.segments) == 1
        return True


class EntityKind(Enum):
    CONTENT = "content"
    SERVICE_ACCESS_POINT = "service_access_point"


@dataclass(frozen=True, slots=True, init=False)
class NamedEntity:
    """Binding of a Name to content bytes or a service access point;
    slotted, as set-up builds one per entity, and __init__ sets each slot
    through its descriptor, past the frozen __setattr__."""

    name: Name
    kind: EntityKind
    payload: bytes = b""
    metadata: dict = field(default_factory=dict)

    def __init__(self, name: Name, kind: EntityKind, payload: bytes = b"",
                 metadata: dict | None = None):
        if kind is EntityKind.SERVICE_ACCESS_POINT and payload:
            raise ValueError("a service access point carries no payload")
        _set_name(self, name)
        _set_kind(self, kind)
        _set_payload(self, payload)
        _set_metadata(self, {} if metadata is None else metadata)


_set_name, _set_kind, _set_payload, _set_metadata = (
    NamedEntity.__dict__[attr].__set__ for attr in ("name", "kind", "payload", "metadata"))
