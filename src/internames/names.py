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

# A URI parse_name accepts as it stands: a realm, then segments of 1-255
# allowed characters, each one byte; MAX_SEGMENTS is checked after the split.
_URI_RE = re.compile(
    r"n2n://([A-Za-z0-9.\-]+):([A-Za-z0-9._\-]{1,255}(?:/[A-Za-z0-9._\-]{1,255})*)\Z")

_V = TypeVar("_V")


@dataclass(frozen=True, order=True, init=False)
class Name:
    """A realm-qualified hierarchical identifier.  Its canonical URI is a
    slot but not a field: it keys the hash, as CPython caches a str's hash,
    and ==, order and repr are those of the fields."""

    __slots__ = ("realm_id", "segments", "uri")
    realm_id: str
    segments: tuple[str, ...]

    def __init__(self, realm_id: str, segments: tuple[str, ...]):
        if not realm_id or not _REALM_RE.match(realm_id):
            raise MalformedUri(f"bad realm id: {realm_id!r}")
        if not isinstance(segments, tuple):
            segments = tuple(segments)
        if not segments:
            raise MalformedUri("a name needs at least one segment")
        if len(segments) > MAX_SEGMENTS:
            raise MalformedUri(f"too many segments ({len(segments)} > {MAX_SEGMENTS})")
        for seg in segments:
            if not seg or not _SEGMENT_RE.match(seg):
                raise MalformedUri(f"bad segment: {seg!r}")
            if len(seg.encode()) > MAX_SEGMENT_BYTES:
                raise MalformedUri(f"segment longer than {MAX_SEGMENT_BYTES} bytes")
        _set_realm_id(self, realm_id)
        _set_segments(self, segments)
        _set_uri(self, SCHEME + realm_id + ":" + "/".join(segments))

    def __hash__(self) -> int:
        return hash(self.uri)

    def __reduce__(self):  # a frozen slotted instance cannot take its state back
        return Name, (self.realm_id, self.segments)

    def __str__(self) -> str:
        return self.uri


_set_realm_id, _set_segments, _set_uri = (Name.__dict__[slot].__set__ for slot in Name.__slots__)


def parse_name(uri: str) -> Name:
    """Parse a canonical ``n2n://`` URI into a Name.

    Raises MalformedUri on a bad scheme, empty realm, empty segment,
    illegal character or an exceeded length limit.
    """
    match = _URI_RE.match(uri) if type(uri) is str else None
    if match is not None and uri.count("/") - 1 <= MAX_SEGMENTS:  # n2n:// has two '/'
        name = Name.__new__(Name)
        _set_realm_id(name, match[1])
        _set_segments(name, tuple(match[2].split("/")))
        _set_uri(name, uri)
        return name
    # Anything else: these checks, and Name's, accept it or say why not.
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
