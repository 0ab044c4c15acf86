import copy
import enum
import importlib
import pickle
import pkgutil
from dataclasses import FrozenInstanceError, fields, replace

import pytest
from hypothesis import given, strategies as st

import internames
from internames.errors import MalformedUri
from internames.names import (
    MAX_SEGMENT_BYTES,
    MAX_SEGMENTS,
    EntityKind,
    Name,
    NamedEntity,
    NameRealm,
    NamingScheme,
    format_name,
    is_prefix_of,
    parse_name,
)

realm_ids = st.text(alphabet="abcXYZ09.-", min_size=1, max_size=12)
segments = st.text(alphabet="abcXYZ09._-", min_size=1, max_size=12)
names = st.builds(
    Name,
    realm_id=realm_ids,
    segments=st.lists(segments, min_size=1, max_size=6).map(tuple),
)


def test_parse_two_segment_name():
    n = parse_name("n2n://nriA:Alice.com/cell")
    assert n.realm_id == "nriA"
    assert n.segments == ("Alice.com", "cell")


def test_parse_three_segments():
    n = parse_name("n2n://nrX:a/b/c")
    assert n.segments == ("a", "b", "c")


def test_format_single_segment():
    assert format_name(Name("r", ("x",))) == "n2n://r:x"


def test_format_paper_style_name():
    assert format_name(Name("nriA", ("Alice.com", "cell"))) == "n2n://nriA:Alice.com/cell"


@pytest.mark.parametrize("bad", [
    "n2n://r1:",                 # empty local name
    "n2n://:a/b",                # empty realm
    "http://r:a",                # wrong scheme
    "n2n://r",                   # missing separator
    "n2n://r:a//b",              # empty segment
    "n2n://r:a/b%20c",           # percent escapes rejected
    "n2n://r:a b",               # whitespace
    "n2n://r!x:a",               # illegal realm char
])
def test_parse_rejects_malformed(bad):
    with pytest.raises(MalformedUri):
        parse_name(bad)


def test_parse_rejects_non_text():
    with pytest.raises(MalformedUri):
        parse_name(b"n2n://r:a")


def test_too_many_segments():
    ok = "n2n://r:" + "/".join("s" for _ in range(MAX_SEGMENTS))
    assert len(parse_name(ok).segments) == MAX_SEGMENTS
    with pytest.raises(MalformedUri):
        parse_name(ok + "/s")


def test_segment_byte_limit():
    assert parse_name("n2n://r:" + "a" * MAX_SEGMENT_BYTES)
    with pytest.raises(MalformedUri):
        parse_name("n2n://r:" + "a" * (MAX_SEGMENT_BYTES + 1))


def test_names_are_case_sensitive():
    assert parse_name("n2n://r:Alice") != parse_name("n2n://r:alice")
    assert parse_name("n2n://R:a") != parse_name("n2n://r:a")


@given(names)
def test_round_trip(n):
    assert parse_name(format_name(n)) == n


@given(names, names)
def test_name_identity_is_that_of_its_fields(a, b):
    # Equality, order and repr are those of the (realm_id, segments) fields;
    # the uri, set at construction, keys only the hash, which agrees with ==.
    assert [f.name for f in fields(Name)] == ["realm_id", "segments"]
    text = f"n2n://{a.realm_id}:{'/'.join(a.segments)}"
    parsed = parse_name(text)
    fresh = Name(a.realm_id, list(a.segments))
    key_a, key_b = (a.realm_id, a.segments), (b.realm_id, b.segments)
    for n in (a, parsed, fresh):
        assert not hasattr(n, "__dict__")
        assert repr(n) == f"Name(realm_id={a.realm_id!r}, segments={a.segments!r})"
        assert n.uri == str(n) == format_name(n) == text
        assert n == a and n != key_a and hash(n) == hash(a) == hash(text)
        assert (n == b) == (key_a == key_b)
        if n == b:
            assert hash(n) == hash(b)
        assert (n < b) == (key_a < key_b)
        assert (n <= b) == (key_a <= key_b)
        assert (n > b) == (key_a > key_b)
    assert parsed.uri is text  # parse_name keeps the text it accepted


@given(names)
def test_name_is_frozen_and_round_trips(n):
    for attr in ("realm_id", "segments", "uri"):
        with pytest.raises(FrozenInstanceError):
            setattr(n, attr, None)
    moved = replace(n, segments=n.segments + ("x",))
    assert moved == Name(n.realm_id, n.segments + ("x",)) and moved.uri == n.uri + "/x"
    for twin in (pickle.loads(pickle.dumps(n)), copy.copy(n), copy.deepcopy(n), replace(n)):
        assert twin == n and twin.uri == n.uri and repr(twin) == repr(n)
        assert hash(twin) == hash(n)


def field_by_field_parse_name(uri):
    """parse_name as it was before its pattern: each field checked in turn,
    then Name's own checks.  The reference for which texts parse_name
    accepts and for the message of each MalformedUri it raises."""
    if not isinstance(uri, str):
        raise MalformedUri("uri must be text")
    if not uri.startswith("n2n://"):
        raise MalformedUri(f"scheme must be n2n: {uri!r}")
    realm, sep, local = uri[len("n2n://"):].partition(":")
    if not sep:
        raise MalformedUri(f"missing ':' between realm and local name: {uri!r}")
    if not local:
        raise MalformedUri(f"empty local name: {uri!r}")
    return Name(realm, tuple(local.split("/")))


@st.composite
def uri_texts(draw):
    """The URI of a Name from the names strategy, as it is or spoiled in
    one way, or any text at all."""
    n = draw(names)
    scheme, segs = "n2n://", list(n.segments)
    sep = ":"
    spoil = draw(st.sampled_from(
        ["none", "scheme", "colon", "empty", "long", "many", "char", "text"]))
    if spoil == "scheme":
        scheme = draw(st.sampled_from(["", "n2n:/", "N2N://", "http://", "n2n//", "n2n:///"]))
    elif spoil == "colon":
        sep = draw(st.sampled_from(["", "/", "::"]))
    elif spoil == "empty":
        segs.insert(draw(st.integers(0, len(segs))), "")
    elif spoil == "long":
        # MAX_SEGMENT_BYTES is still accepted; one byte more is not.
        at = draw(st.integers(0, len(segs) - 1))
        segs[at] = "a" * draw(st.sampled_from([MAX_SEGMENT_BYTES, MAX_SEGMENT_BYTES + 1]))
    elif spoil == "many":
        segs += ["s"] * (draw(st.sampled_from([MAX_SEGMENTS, MAX_SEGMENTS + 1])) - len(segs))
    elif spoil == "char":
        at = draw(st.integers(0, len(segs) - 1))
        cut = draw(st.integers(0, len(segs[at])))
        bad = draw(st.sampled_from([":", "\u00e9", "\u540d", "\u00a0", "\n", " ", "%20"]))
        segs[at] = segs[at][:cut] + bad + segs[at][cut:]
    elif spoil == "text":
        return draw(st.sampled_from(["", "n2n://"])) + draw(st.text(max_size=20))
    return scheme + n.realm_id + sep + "/".join(segs)


@given(uri_texts())
def test_parse_name_agrees_with_the_field_by_field_oracle(text):
    try:
        expected = field_by_field_parse_name(text)
    except MalformedUri as exc:
        with pytest.raises(MalformedUri) as caught:
            parse_name(text)
        assert str(caught.value) == str(exc)
        return
    n = parse_name(text)
    assert n == expected and repr(n) == repr(expected)
    assert n.uri == expected.uri == text


def test_prefix_basic():
    p = parse_name("n2n://r:a/b")
    assert is_prefix_of(p, parse_name("n2n://r:a/b/c"))
    assert is_prefix_of(p, p)
    assert not is_prefix_of(p, parse_name("n2n://s:a/b/c"))
    assert not is_prefix_of(parse_name("n2n://r:a/b/c"), p)


def test_prefix_exhaustive_against_brute_force():
    # All segment lists of length <= 3 from {a, b}, both sides.
    pool = []
    for k in (1, 2, 3):
        stack = [()]
        for _ in range(k):
            stack = [s + (c,) for s in stack for c in "ab"]
        pool.extend(stack)
    for ps in pool:
        for ns in pool:
            expected = list(ns[: len(ps)]) == list(ps)
            assert is_prefix_of(Name("r", ps), Name("r", ns)) is expected


@given(names, names)
def test_prefix_respects_realm_disjointness(p, n):
    if p.realm_id != n.realm_id:
        assert not is_prefix_of(p, n)


@given(names, names)
def test_prefix_antisymmetry(p, n):
    if is_prefix_of(p, n) and is_prefix_of(n, p):
        assert p == n


def test_flat_realm_admits_single_segment_only():
    flat = NameRealm("epc", NamingScheme.FLAT)
    assert flat.admits(Name("epc", ("tag1",)))
    assert not flat.admits(Name("epc", ("a", "b")))
    assert not flat.admits(Name("other", ("tag1",)))


def test_hierarchical_realm_admits_depth():
    r = NameRealm("deep")
    assert r.admits(Name("deep", ("a", "b", "c")))


def test_service_access_point_has_no_payload():
    name = Name("r", ("svc",))
    NamedEntity(name, EntityKind.SERVICE_ACCESS_POINT)
    with pytest.raises(ValueError):
        NamedEntity(name, EntityKind.SERVICE_ACCESS_POINT, payload=b"x")
    assert NamedEntity(name, EntityKind.CONTENT, payload=b"x").payload == b"x"


def test_entity_is_frozen_and_slotted():
    e = NamedEntity(Name("r", ("doc",)), EntityKind.CONTENT, b"x", {"keywords": "a,b"})
    for name in ("name", "kind", "payload", "metadata"):
        with pytest.raises(FrozenInstanceError):
            setattr(e, name, None)
    assert not hasattr(e, "__dict__")
    assert [f.name for f in fields(e)] == ["name", "kind", "payload", "metadata"]
    assert repr(e) == ("NamedEntity(name=Name(realm_id='r', segments=('doc',)),"
                       " kind=<EntityKind.CONTENT: 'content'>, payload=b'x',"
                       " metadata={'keywords': 'a,b'})")
    moved = replace(e, payload=b"y")
    assert (moved.name, moved.kind, moved.payload) == (e.name, e.kind, b"y")
    assert moved.metadata is e.metadata and e.payload == b"x" and moved != e
    assert e == NamedEntity(name=Name("r", ("doc",)), kind=EntityKind.CONTENT, payload=b"x",
                            metadata={"keywords": "a,b"})
    assert e != replace(e, metadata={})
    # Its metadata is a dict, so an entity has no hash.
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(e)
    for twin in (pickle.loads(pickle.dumps(e)), copy.copy(e), copy.deepcopy(e)):
        assert twin == e and repr(twin) == repr(e)


def test_entity_metadata_defaults_to_a_fresh_dict():
    name = Name("r", ("doc",))
    first, second = NamedEntity(name, EntityKind.CONTENT), NamedEntity(name, EntityKind.CONTENT)
    assert first.metadata == {} and first.metadata is not second.metadata
    assert first.payload == b""
    given_dict = {}  # a dict passed in is kept, not copied, even an empty one
    assert NamedEntity(name, EntityKind.CONTENT, metadata=given_dict).metadata is given_dict


@given(names, st.sampled_from(list(EntityKind)), st.sampled_from([b"", b"x"]))
def test_entity_checks_then_keeps_every_field(name, kind, payload):
    if kind is EntityKind.SERVICE_ACCESS_POINT and payload:
        with pytest.raises(ValueError, match="^a service access point carries no payload$"):
            NamedEntity(name, kind, payload)
        return
    e = NamedEntity(name, kind, payload, {"k": "v"})
    assert (e.name, e.kind, e.payload, e.metadata) == (name, kind, payload, {"k": "v"})


def test_package_enums_hash_by_identity():
    # Every enum the package defines derives from names.Enum, so its members
    # key the engine's tables at C cost; a new enum on enum.Enum fails here.
    for mod in pkgutil.walk_packages(internames.__path__, "internames."):
        importlib.import_module(mod.name)
    pending, package_enums = [enum.Enum], []
    while pending:
        for sub in pending.pop().__subclasses__():
            pending.append(sub)
            if sub.__module__.startswith("internames.") and len(sub):
                package_enums.append(sub)
    assert {"NodeKind", "MessageKind", "Protocol", "Service"} <= {k.__name__ for k in package_enums}
    for kind in package_enums:
        for member in kind:
            assert type(member).__hash__ is object.__hash__, kind
            assert kind(member.value) is member and pickle.loads(pickle.dumps(member)) is member
