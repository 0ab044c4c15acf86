import copy
import dataclasses
import pickle
import random
import struct

import pytest
from hypothesis import given, strategies as st

from internames.errors import MalformedMessage, NoFibMatch
from internames.names import Name
from internames.wire import (
    CONTENT_STORE_CAPACITY,
    HOP_LIMIT,
    REQUEST_KINDS,
    CcnRouterState,
    ContentStore,
    Fib,
    FibEntry,
    MessageKind,
    WireMessage,
    decode,
    encode,
    fcn_segments,
    fib_lookup,
)

RESPONSE_KINDS = [MessageKind.HTTP_RESP, MessageKind.CCN_DATA, MessageKind.HTTP_PUSH,
                  MessageKind.ORS_RESULT, MessageKind.NRS_RESULT]

segments = st.text(alphabet="abcXYZ09._-", min_size=1, max_size=8)
names = st.builds(Name, realm_id=st.text(alphabet="abc09.-", min_size=1, max_size=6),
                  segments=st.lists(segments, min_size=1, max_size=4).map(tuple))
# Every kind, any source: requests are built with a source name.
any_messages = st.builds(
    WireMessage,
    msg_id=st.integers(min_value=0, max_value=2**64 - 1),
    kind=st.sampled_from(list(MessageKind)),
    target_fcn=st.text(max_size=16),
    target_name=st.none() | names,
    source_name=names,
    body=st.binary(max_size=300),
    hop_count=st.integers(min_value=0, max_value=HOP_LIMIT),
)
messages = st.builds(
    WireMessage,
    msg_id=st.integers(min_value=0, max_value=2**63),
    kind=st.sampled_from(RESPONSE_KINDS),
    target_fcn=st.text(alphabet="abc/:.x", max_size=16),
    target_name=st.none() | names,
    source_name=st.none() | names,
    body=st.binary(max_size=64),
    hop_count=st.integers(min_value=0, max_value=HOP_LIMIT),
)


def interest(fcn="ccnx://ccn.com/article.pdf", hops=0):
    return WireMessage(
        msg_id=1,
        kind=MessageKind.CCN_INTEREST,
        target_fcn=fcn,
        target_name=Name("ccn.com", ("article.pdf",)),
        source_name=Name("users", ("alice",)),
        hop_count=hops,
    )


def test_request_kinds_require_source_name():
    with pytest.raises(ValueError):
        WireMessage(1, MessageKind.HTTP_GET, target_name=Name("r", ("a",)))
    WireMessage(1, MessageKind.HTTP_RESP, target_name=Name("r", ("a",)))


def test_hop_count_bounded():
    with pytest.raises(ValueError):
        WireMessage(1, MessageKind.HTTP_RESP, hop_count=HOP_LIMIT + 1)
    assert interest(hops=3).bumped().hop_count == 4


def test_message_is_frozen_and_slotted():
    m = interest()
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.hop_count = 5
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.target_fcn = "ccnx://elsewhere"
    assert [f.name for f in dataclasses.fields(m)] == [
        "msg_id", "kind", "target_fcn", "target_name", "source_name", "body", "hop_count"]
    moved = dataclasses.replace(m, target_fcn="ccnx://ccn.com/other", hop_count=2)
    assert (moved.target_fcn, moved.hop_count, moved.source_name) == (
        "ccnx://ccn.com/other", 2, m.source_name)
    assert m.hop_count == 0
    assert not hasattr(m, "__dict__")
    for twin in (pickle.loads(pickle.dumps(m)), copy.copy(m), copy.deepcopy(m)):
        assert twin == m and hash(twin) == hash(m) and repr(twin) == repr(m)


@given(kind=st.sampled_from(list(MessageKind)), source=st.none() | names,
       hop_count=st.integers(min_value=HOP_LIMIT - 2, max_value=HOP_LIMIT + 2),
       target=st.none() | names, body=st.binary(max_size=8))
def test_construction_checks_then_keeps_every_field(kind, source, hop_count, target, body):
    fields = (9, kind, "ccnx://a", target, source, body, hop_count)
    if source is None and kind in REQUEST_KINDS:
        refusal = f"{kind.value} requires a source_name"
    elif hop_count > HOP_LIMIT:
        refusal = f"hop_count exceeds {HOP_LIMIT}"
    else:
        refusal = None
    if refusal is not None:
        with pytest.raises(ValueError, match=f"^{refusal}$"):
            WireMessage(*fields)
        return
    m = WireMessage(*fields)
    assert tuple(getattr(m, f.name) for f in dataclasses.fields(m)) == fields
    assert decode(encode(m)) == m


def test_round_trip_interest():
    m = interest()
    assert decode(encode(m)) == m


@given(messages)
def test_round_trip_property(m):
    assert decode(encode(m)) == m


def oracle_encode(m):
    """The codec's layout spelled out field by field: a 2-byte field count,
    then per field a 1-byte tag, a 4-byte length and the payload."""
    def name_bytes(n):
        return f"n2n://{n.realm_id}:{'/'.join(n.segments)}".encode() if n is not None else b""

    fields = [
        struct.pack(">Q", m.msg_id),
        m.kind.value.encode(),
        m.target_fcn.encode(),
        name_bytes(m.target_name),
        name_bytes(m.source_name),
        m.body,
        struct.pack(">Q", m.hop_count),
    ]
    out = [struct.pack(">H", len(fields))]
    for tag, payload in enumerate(fields, start=1):
        out.append(struct.pack(">BI", tag, len(payload)))
        out.append(payload)
    return b"".join(out)


@given(messages | any_messages)
def test_encode_matches_field_by_field_oracle(m):
    assert encode(m) == oracle_encode(m)
    assert decode(encode(m)) == m


@pytest.mark.parametrize("m", [
    WireMessage(0, MessageKind.HTTP_RESP),  # every optional field empty or None
    WireMessage(2**64 - 1, MessageKind.CCN_DATA, "ccnx://a/b", Name("r", ("a",)),
                Name("s", ("b", "c")), bytes(range(256)), HOP_LIMIT),
    WireMessage(7, MessageKind.HTTP_PUSH, body=b"\x00\xff\n"),
    interest(hops=HOP_LIMIT),
], ids=["empty", "extremes", "binary-body", "hop-limit"])
def test_encode_edge_cases_match_oracle(m):
    assert encode(m) == oracle_encode(m)
    assert decode(encode(m)) == m


def test_encode_refuses_out_of_range_integers():
    with pytest.raises(struct.error):
        encode(WireMessage(2**64, MessageKind.HTTP_RESP))


def test_decode_empty_and_short():
    with pytest.raises(MalformedMessage):
        decode(b"")
    with pytest.raises(MalformedMessage):
        decode(b"\x00")


def test_decode_bad_field_count():
    with pytest.raises(MalformedMessage):
        decode(struct.pack(">H", 3))


def test_decode_trailing_bytes():
    b = encode(interest()) + b"\x00"
    with pytest.raises(MalformedMessage):
        decode(b)


def test_decode_truncated_payload():
    b = encode(interest())
    with pytest.raises(MalformedMessage):
        decode(b[:-1])


def test_decode_out_of_order_tag():
    b = bytearray(encode(interest()))
    b[2] = 9  # corrupt the first field tag
    with pytest.raises(MalformedMessage):
        decode(bytes(b))


def test_decode_bad_kind_text():
    m = interest()
    raw = encode(m)
    bad = raw.replace(b"CCN_INTEREST", b"CCN_INVENTED")
    with pytest.raises(MalformedMessage):
        decode(bad)


def test_fcn_segments_strip_scheme():
    assert fcn_segments("ccnx://ccn.com/article.pdf") == ("ccn.com", "article.pdf")
    assert fcn_segments("ccn.com/article.pdf") == ("ccn.com", "article.pdf")
    assert fcn_segments("FCN1") == ("FCN1",)


def test_fib_lookup_basic():
    table = [FibEntry("ccn.com", "RN1-core")]
    assert fib_lookup(table, "ccn.com/article.pdf") == "RN1-core"


def test_fib_lookup_empty_table():
    with pytest.raises(NoFibMatch):
        fib_lookup([], "ccn.com/a")


def test_fib_lookup_longest_and_tie_break():
    table = [
        FibEntry("a", "z-hop"),
        FibEntry("a/b", "m-hop"),
        FibEntry("a/b", "b-hop"),
    ]
    assert fib_lookup(table, "a/b/c") == "b-hop"  # longest, then smallest next hop
    assert fib_lookup(table, "a/x") == "z-hop"


def test_fib_random_tables_match_brute_force():
    rng = random.Random(5)
    for _ in range(100):
        table = [
            FibEntry("/".join(rng.choice("abc") for _ in range(rng.randint(1, 4))),
                     "hop" + str(rng.randint(0, 9)))
            for _ in range(rng.randint(1, 12))
        ]
        for _ in range(50):
            fcn = "/".join(rng.choice("abc") for _ in range(rng.randint(1, 5)))
            target = fcn.split("/")
            best = None
            for e in table:
                p = e.prefix.split("/")
                if len(p) <= len(target) and target[: len(p)] == p:
                    cand = (-len(p), e.next_hop)
                    if best is None or cand < best:
                        best = cand
            if best is None:
                with pytest.raises(NoFibMatch):
                    fib_lookup(table, fcn)
            else:
                assert fib_lookup(table, fcn) == best[1]


def test_fib_index_edge_cases():
    entries = [
        FibEntry("a/b", "m-hop"),
        FibEntry("ccnx://", "default-hop"),  # zero segments: matches every fcn
        FibEntry("ccnx://a/b", "k-hop"),     # same segments as "a/b"
        FibEntry("a/b", "m-hop"),            # repeated (prefix, hop)
        FibEntry("ccnx://a", "z-hop"),
    ]
    fib = Fib((e.prefix, e) for e in entries).through({e: e.next_hop for e in entries})
    assert list(fib) == entries
    for fcn, hop in [
        ("a/b/c", "k-hop"),
        ("ccnx://a/b", "k-hop"),
        ("a/x", "z-hop"),
        ("q", "default-hop"),
        ("", "default-hop"),
        ("ccnx://", "default-hop"),
    ]:
        assert fib_lookup(fib, fcn) == hop
        assert fib_lookup(entries, fcn) == hop
        assert fib_lookup(reversed(entries), fcn) == hop
    with pytest.raises(NoFibMatch):
        fib_lookup(entries[:1], "a")


def test_fib_tables_through_one_index_keep_their_own_hops():
    # Owner o1 advertises a and a/b, o2 a/b, o3 c: one index, two hop maps.
    shared = Fib([("a", "o1"), ("a/b", "o2"), ("a/b", "o1"), ("c", "o3")])
    near = shared.through({"o1": "h2", "o2": "h1"})
    far = shared.through({"o3": "h3"})
    assert list(shared) == [] and list(Fib()) == []
    assert list(near) == [FibEntry("a", "h2"), FibEntry("a/b", "h1"), FibEntry("a/b", "h2")]
    assert list(far) == [FibEntry("c", "h3")]
    assert fib_lookup(near, "a/b/x") == "h1"  # the smallest hop of a/b's owners
    assert fib_lookup(near, "a/x") == "h2"
    assert fib_lookup(far, "c/x") == "h3"
    for fib, fcn in ((near, "c"), (far, "a/b"), (shared, "a")):
        with pytest.raises(NoFibMatch):  # no owner of a matching prefix has a hop
            fib_lookup(fib, fcn)


def test_content_store_capacity_and_eviction_order():
    cs = ContentStore()
    for i in range(CONTENT_STORE_CAPACITY + 4):
        cs.insert(f"fcn{i}", b"x")
    assert len(cs) == CONTENT_STORE_CAPACITY
    assert cs.get("fcn0") is None
    assert cs.get("fcn3") is None
    assert cs.get("fcn4") == b"x"
    assert cs.keys() == [f"fcn{i}" for i in range(4, CONTENT_STORE_CAPACITY + 4)]


def test_content_store_reinsert_keeps_position():
    cs = ContentStore(capacity=2)
    cs.insert("a", b"1")
    cs.insert("b", b"2")
    cs.insert("a", b"3")  # refresh, no eviction
    assert cs.get("a") == b"3"
    cs.insert("c", b"4")
    assert cs.get("a") is None  # "a" was still oldest by insertion


def test_router_state_has_no_pending_request_table():
    state = CcnRouterState()
    assert state.pending_request_records() == ()
    assert not hasattr(state, "pit")
