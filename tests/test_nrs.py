import copy
import pickle
import random
from dataclasses import FrozenInstanceError, fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from internames.errors import DuplicateRecord, NotFound, NotResolvable, Unauthorized
from internames.names import Name, is_prefix_of, parse_name
from internames.nrs import (
    CacheStore,
    CallerRole,
    ContextPredicate,
    NameResolutionService,
    NextHopTech,
    NrsRecord,
    Protocol,
    ResolutionContext,
    Service,
    ServiceDescriptor,
    sd_list_text,
)

ADMIN = CallerRole.ADMINISTRATOR


def sd(next_hop, protocol=Protocol.HTTPISH, fcn="", priority=0, ttl=100, scope=None):
    tech = NextHopTech.CCNISH if protocol is Protocol.CCNISH_OVER_UDPISH else NextHopTech.IPISH
    return ServiceDescriptor(protocol, fcn, tech, next_hop, priority, ttl, scope)


def record(prefix_uri, next_hop, predicate=ContextPredicate(), **kw):
    return NrsRecord(parse_name(prefix_uri), sd(next_hop, **kw), predicate)


def ctx(tick=0, loc="", tags=(), service=Service.UNICAST):
    return ResolutionContext(tick, loc, frozenset(tags), service)


def test_ccnish_descriptor_requires_fcn():
    with pytest.raises(ValueError):
        ServiceDescriptor(Protocol.CCNISH_OVER_UDPISH, "", NextHopTech.IPISH, "RN1")
    ok = ServiceDescriptor(Protocol.CCNISH_OVER_UDPISH, "FCN1", NextHopTech.IPISH, "RN1")
    assert ok.fcn == "FCN1"


def test_negative_attributes_rejected():
    with pytest.raises(ValueError):
        sd("a", priority=-1)
    with pytest.raises(ValueError):
        sd("a", ttl=-1)


def test_canonical_text_layout():
    text = sd("RN1", Protocol.CCNISH_OVER_UDPISH, fcn="FCN1").canonical_text()
    assert text == "protocol=CCNISH_OVER_UDPISH fcn=FCN1 next_hop=RN1 tech=CCNISH priority=0 ttl=100"
    scoped = sd("a", scope="town").canonical_text()
    assert scoped.endswith(" scope=town")
    assert sd_list_text([sd("a"), sd("b")]).count(" | ") == 1


def test_canonical_text_kept_out_of_equality_hash_and_repr():
    built, fresh = sd("a", scope="town"), sd("a", scope="town")
    text = built.canonical_text()
    assert built.canonical_text() is text  # built once
    assert built == fresh and hash(built) == hash(fresh) and repr(built) == repr(fresh)
    assert replace(built, priority=2).canonical_text() == text.replace("priority=0", "priority=2")


SD_FIELDS = ["protocol", "fcn", "next_hop_tech", "next_hop_address", "priority", "ttl_ticks",
             "scope"]
SD_REPR = ("ServiceDescriptor(protocol=<Protocol.CCNISH_OVER_UDPISH: 'CCNISH_OVER_UDPISH'>,"
           " fcn='FCN1', next_hop_tech=<NextHopTech.CCNISH: 'CCNISH'>, next_hop_address='RN1',"
           " priority=2, ttl_ticks=7, scope='town')")


def test_descriptor_and_record_are_frozen_and_slotted():
    d = sd("RN1", Protocol.CCNISH_OVER_UDPISH, fcn="FCN1", priority=2, ttl=7, scope="town")
    r = NrsRecord(parse_name("n2n://r:a"), d, ContextPredicate(context_tags={"t"}))
    for value, names in ((d, SD_FIELDS + ["_text"]), (r, ["prefix", "sd", "predicate"])):
        for name in names:
            with pytest.raises(FrozenInstanceError):
                setattr(value, name, None)
        assert not hasattr(value, "__dict__")
        assert [f.name for f in fields(value)] == names
    assert repr(d) == SD_REPR
    assert repr(r) == ("NrsRecord(prefix=Name(realm_id='r', segments=('a',)), sd=" + SD_REPR
                       + ", predicate=ContextPredicate(time_window=None,"
                       " location_tags=frozenset(), context_tags=frozenset({'t'}), service=None))")
    assert NrsRecord(r.prefix, d).predicate == ContextPredicate()
    moved = replace(r, sd=replace(d, priority=5, scope=None))
    assert (moved.prefix, moved.predicate, moved.sd.priority, moved.sd.scope, moved.sd.fcn) == (
        r.prefix, r.predicate, 5, None, "FCN1")
    assert r.sd.priority == 2 and r != moved and r.key() == moved.key()
    # Twins made before and after canonical_text() keeps the text equal the original.
    for _ in range(2):
        for value in (d, r):
            for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                         copy.deepcopy(value)):
                assert twin == value and hash(twin) == hash(value) and repr(twin) == repr(value)
        assert pickle.loads(pickle.dumps(d)).canonical_text() == d.canonical_text()


@given(protocol=st.sampled_from(list(Protocol)), fcn=st.sampled_from(["", "FCN1"]),
       priority=st.integers(-2, 2), ttl=st.integers(-2, 2), scope=st.none() | st.just("town"))
def test_descriptor_checks_then_keeps_every_field(protocol, fcn, priority, ttl, scope):
    values = (protocol, fcn, NextHopTech.IPISH, "RN1", priority, ttl, scope)
    if protocol is Protocol.CCNISH_OVER_UDPISH and not fcn:
        refusal = "CCNISH_OVER_UDPISH descriptors need a non-empty fcn"
    elif priority < 0 or ttl < 0:
        refusal = "priority and ttl_ticks must be >= 0"
    else:
        refusal = None
    if refusal is not None:
        with pytest.raises(ValueError, match=f"^{refusal}$"):
            ServiceDescriptor(*values)
        return
    d = ServiceDescriptor(*values)
    assert tuple(getattr(d, name) for name in SD_FIELDS) == values
    assert d == ServiceDescriptor(**dict(zip(SD_FIELDS, values)))
    assert d != replace(d, next_hop_address="RN2")


def test_context_is_frozen_and_slotted():
    # One tag: a copied frozenset of several may list them in another order.
    c = ctx(5, "net", ("a",), Service.ANYCAST)
    with pytest.raises(FrozenInstanceError):
        c.now_tick = 6
    with pytest.raises(FrozenInstanceError):
        c.context_tags = frozenset()
    assert not hasattr(c, "__dict__")
    assert [f.name for f in fields(c)] == [
        "now_tick", "location_tag", "context_tags", "requested_service"]
    later = replace(c, now_tick=9, context_tags=["z"])
    assert (later.now_tick, later.location_tag, later.context_tags) == (9, "net", frozenset({"z"}))
    for twin in (pickle.loads(pickle.dumps(c)), copy.copy(c), copy.deepcopy(c)):
        assert twin == c and hash(twin) == hash(c) and repr(twin) == repr(c)


@pytest.mark.parametrize("tags", [{"a", "b"}, ["b", "a", "a"], ("a", "b")],
                         ids=["set", "list", "tuple"])
def test_context_tags_come_out_a_frozenset(tags):
    c = ResolutionContext(0, "net", tags)
    assert type(c.context_tags) is frozenset and c.context_tags == {"a", "b"}
    kept = frozenset(tags)
    assert ResolutionContext(0, "net", kept).context_tags is kept


@given(tick=st.integers(min_value=-3, max_value=3), loc=st.sampled_from(["", "net"]),
       tags=st.frozensets(st.sampled_from("abc")),
       service=st.sampled_from(list(Service)))
def test_context_checks_then_keeps_every_field(tick, loc, tags, service):
    if tick < 0:
        with pytest.raises(ValueError, match="^now_tick must be >= 0$"):
            ResolutionContext(tick, loc, tags, service)
        return
    c = ResolutionContext(tick, loc, tags, service)
    assert (c.now_tick, c.location_tag, c.context_tags, c.requested_service) == (
        tick, loc, tags, service)
    assert c == ResolutionContext(now_tick=tick, location_tag=loc, context_tags=set(tags),
                                  requested_service=service)


def test_end_user_cannot_register_or_withdraw():
    nrs = NameResolutionService()
    r = record("n2n://r:a", "hop1")
    with pytest.raises(Unauthorized):
        nrs.register(r, CallerRole.END_USER)
    nrs.register(r, ADMIN)
    with pytest.raises(Unauthorized):
        nrs.withdraw(r.prefix, "hop1", CallerRole.END_USER)
    assert len(nrs.records()) == 1


def test_duplicate_record_rejected():
    nrs = NameResolutionService()
    nrs.register(record("n2n://r:a", "hop1"), ADMIN)
    with pytest.raises(DuplicateRecord):
        nrs.register(record("n2n://r:a", "hop1"), ADMIN)
    # same prefix, different next hop is a distinct record
    nrs.register(record("n2n://r:a", "hop2"), ADMIN)


def test_withdraw_missing_record():
    nrs = NameResolutionService()
    with pytest.raises(NotFound):
        nrs.withdraw(parse_name("n2n://r:a"), "hop1")


def test_withdraw_leaves_other_record():
    nrs = NameResolutionService()
    nrs.register(record("n2n://r:a", "hop1"), ADMIN)
    nrs.register(record("n2n://r:a", "hop2"), ADMIN)
    nrs.withdraw(parse_name("n2n://r:a"), "hop1")
    sds = nrs.resolve(parse_name("n2n://r:a"), ctx())
    assert [s.next_hop_address for s in sds] == ["hop2"]
    nrs.withdraw(parse_name("n2n://r:a"), "hop2")
    with pytest.raises(NotResolvable):
        nrs.resolve(parse_name("n2n://r:a"), ctx())


def test_longest_prefix_wins():
    nrs = NameResolutionService()
    nrs.register(record("n2n://r:a", "short"), ADMIN)
    nrs.register(record("n2n://r:a/b", "mid"), ADMIN)
    nrs.register(record("n2n://r:a/b/c/d", "deep"), ADMIN)
    got = nrs.resolve(parse_name("n2n://r:a/b/c"), ctx())
    assert [s.next_hop_address for s in got] == ["mid"]


def test_resolve_unknown_name():
    nrs = NameResolutionService()
    with pytest.raises(NotResolvable):
        nrs.resolve(parse_name("n2n://r:never"), ctx())


def test_priority_ordering():
    nrs = NameResolutionService()
    nrs.register(record("n2n://r:a", "second", priority=1), ADMIN)
    nrs.register(record("n2n://r:a", "first", priority=0), ADMIN)
    got = nrs.resolve(parse_name("n2n://r:a"), ctx())
    assert [s.next_hop_address for s in got] == ["first", "second"]


def test_anycast_truncates_to_one():
    nrs = NameResolutionService()
    nrs.register(record("n2n://r:a", "h1"), ADMIN)
    nrs.register(record("n2n://r:a", "h2"), ADMIN)
    got = nrs.resolve(parse_name("n2n://r:a"), ctx(service=Service.ANYCAST))
    assert len(got) == 1
    assert got[0].next_hop_address == "h1"


def test_context_tag_soundness():
    nrs = NameResolutionService()
    nrs.register(record("n2n://r:a", "normal-hop",
                        ContextPredicate(context_tags=frozenset({"normal"}))), ADMIN)
    nrs.register(record("n2n://r:a", "disaster-hop",
                        ContextPredicate(context_tags=frozenset({"disaster"}))), ADMIN)
    normal = nrs.resolve(parse_name("n2n://r:a"), ctx(tags={"normal"}))
    assert [s.next_hop_address for s in normal] == ["normal-hop"]
    disaster = nrs.resolve(parse_name("n2n://r:a"), ctx(tags={"disaster"}))
    assert [s.next_hop_address for s in disaster] == ["disaster-hop"]


def test_time_window_half_open():
    pred = ContextPredicate(time_window=(10, 20))
    assert not pred.matches(ctx(9))
    assert pred.matches(ctx(10))
    assert pred.matches(ctx(19))
    assert not pred.matches(ctx(20))


def test_location_and_service_predicates():
    pred = ContextPredicate(location_tags=frozenset({"town"}), service=Service.MULTICAST)
    assert pred.matches(ctx(loc="town", service=Service.MULTICAST))
    assert not pred.matches(ctx(loc="city", service=Service.MULTICAST))
    assert not pred.matches(ctx(loc="town", service=Service.UNICAST))
    assert ContextPredicate().matches(ctx(loc="anywhere", tags={"x"}))


def test_add_withdraw_sequence_matches_replay_oracle():
    rng = random.Random(3)
    nrs = NameResolutionService()
    shadow = {}
    for _ in range(300):
        prefix = "n2n://r:" + "/".join(rng.choice("ab") for _ in range(rng.randint(1, 3)))
        hop = "hop" + str(rng.randint(0, 4))
        key = (prefix, hop)
        if key in shadow and rng.random() < 0.5:
            nrs.withdraw(parse_name(prefix), hop)
            del shadow[key]
        elif key not in shadow:
            rec = record(prefix, hop)
            nrs.register(rec, ADMIN)
            shadow[key] = rec
    got = {(str(r.prefix), r.sd.next_hop_address) for r in nrs.records()}
    assert got == set(shadow)


NRS_PREFIX = st.builds(
    Name,
    realm_id=st.sampled_from(["r", "s"]),
    segments=st.lists(st.sampled_from("ab"), min_size=1, max_size=3).map(tuple),
)
NRS_PREDICATE = st.sampled_from([ContextPredicate(), ContextPredicate(context_tags=frozenset({"x"}))])
NRS_RECORD = st.builds(
    NrsRecord,
    prefix=NRS_PREFIX,
    sd=st.builds(sd, next_hop=st.sampled_from(["h0", "h1", "h2"]),
                 priority=st.integers(min_value=0, max_value=1)),
    predicate=NRS_PREDICATE,
)
NRS_STEP = st.one_of(
    st.tuples(st.just("register"), NRS_RECORD),
    st.tuples(st.just("withdraw"), st.tuples(NRS_PREFIX, st.sampled_from(["h0", "h1", "h2"]))),
    st.tuples(st.just("resolve"), st.tuples(
        NRS_PREFIX | NRS_PREFIX.map(lambda n: Name(n.realm_id, n.segments + ("c",))),
        st.builds(ctx, tags=st.sampled_from([(), ("x",)]),
                  service=st.sampled_from([Service.UNICAST, Service.ANYCAST])),
    )),
)


def _replay_resolve(replayed, name, c):
    """Linear scan: the longest prefix with a matching record, then priority order."""
    matching = [r for r in replayed if is_prefix_of(r.prefix, name) and r.predicate.matches(c)]
    if not matching:
        raise NotResolvable(str(name))
    longest = max(len(r.prefix.segments) for r in matching)
    sds = sorted((r.sd for r in matching if len(r.prefix.segments) == longest),
                 key=lambda d: (d.priority, d.canonical_text()))
    return sds[:1] if c.requested_service is Service.ANYCAST else sds


@settings(deadline=None)
@given(st.lists(NRS_STEP, max_size=40))
def test_nrs_index_matches_list_replay_oracle(steps):
    nrs = NameResolutionService()
    replayed: list[NrsRecord] = []
    for op, arg in steps:
        if op == "register":
            if any(r.key() == arg.key() for r in replayed):
                with pytest.raises(DuplicateRecord):
                    nrs.register(arg, ADMIN)
            else:
                nrs.register(arg, ADMIN)
                replayed.append(arg)
        elif op == "withdraw":
            prefix, hop = arg
            victims = [r for r in replayed if r.prefix == prefix and r.sd.next_hop_address == hop]
            if not victims:
                with pytest.raises(NotFound):
                    nrs.withdraw(prefix, hop)
            else:
                nrs.withdraw(prefix, hop)
                replayed = [r for r in replayed if r not in victims]
        else:
            name, c = arg
            try:
                want = _replay_resolve(replayed, name, c)
            except NotResolvable:
                with pytest.raises(NotResolvable):
                    nrs.resolve(name, c)
            else:
                assert nrs.resolve(name, c) == want
        assert nrs.records() == tuple(replayed)


def test_records_order_after_withdraw_and_reregister():
    nrs = NameResolutionService()
    first, second = record("n2n://r:a", "h1"), record("n2n://r:b", "h2")
    nrs.register(first, ADMIN)
    nrs.register(second, ADMIN)
    nrs.withdraw(first.prefix, "h1")
    nrs.register(first, ADMIN)
    assert nrs.records() == (second, first)


def test_cache_hit_within_ttl_miss_at_boundary():
    cache = CacheStore()
    name = parse_name("n2n://r:a")
    assert cache.lookup(name, ctx(0)) is None
    cache.store(name, ctx(0), [sd("h1", ttl=10)])
    assert cache.misses == 1
    assert cache.lookup(name, ctx(5)) == [sd("h1", ttl=10)]
    assert cache.hits == 1
    assert cache.lookup(name, ctx(9)) == [sd("h1", ttl=10)]
    assert cache.hits == 2
    assert cache.lookup(name, ctx(10)) is None  # boundary: expired
    assert cache.misses == 2


def test_expired_cache_entry_is_evicted_on_lookup():
    cache = CacheStore()
    name = parse_name("n2n://r:a")
    cache.store(name, ctx(0), [sd("h1", ttl=10)])
    assert cache.lookup(name, ctx(9)) is not None
    assert cache.lookup(name, ctx(10)) is None
    assert (cache.hits, cache.misses) == (1, 1)
    assert cache._entries == {}


def test_cached_entry_survives_withdraw_until_expiry():
    nrs = NameResolutionService()
    nrs.register(record("n2n://r:a", "h1", ttl=10), ADMIN)
    cache = CacheStore()
    name = parse_name("n2n://r:a")
    cache.store(name, ctx(0), nrs.resolve(name, ctx(0)))
    nrs.withdraw(name, "h1")
    still = cache.lookup(name, ctx(9))
    assert [s.next_hop_address for s in still] == ["h1"]
    assert cache.lookup(name, ctx(10)) is None
    with pytest.raises(NotResolvable):
        nrs.resolve(name, ctx(10))


def test_cache_key_separates_contexts_not_time():
    cache = CacheStore()
    name = parse_name("n2n://r:a")
    cache.store(name, ctx(0, tags={"normal"}), [sd("h1")])
    # different tick, same context parts: a hit
    assert cache.lookup(name, ctx(3, tags={"normal"})) is not None
    assert cache.hits == 1
    # different context tags: a miss
    assert cache.lookup(name, ctx(3, tags={"disaster"})) is None
    assert cache.misses == 1


def test_cache_ttl_is_min_over_descriptors():
    nrs = NameResolutionService()
    nrs.register(record("n2n://r:a", "h1", ttl=5), ADMIN)
    nrs.register(record("n2n://r:a", "h2", ttl=50), ADMIN)
    cache = CacheStore()
    name = parse_name("n2n://r:a")
    cache.store(name, ctx(0), nrs.resolve(name, ctx(0)))
    assert cache.lookup(name, ctx(4)) is not None
    assert cache.lookup(name, ctx(5)) is None


def test_store_sweeps_out_expired_entries():
    cache = CacheStore()
    first, second = parse_name("n2n://r:a"), parse_name("n2n://r:b")
    cache.store(first, ctx(0), [sd("h1", ttl=10)])
    cache.store(second, ctx(10), [sd("h1", ttl=10)])  # first expired at tick 10
    assert list(cache._entries) == [CacheStore._key(second, ctx(10))]
    cache.store(first, ctx(12), [sd("h1", ttl=0)])  # expired as it is stored
    assert list(cache._entries) == [CacheStore._key(second, ctx(10))]
    cache.store(second, ctx(12), [sd("h1", ttl=0)])  # still replaces a live entry
    assert cache._entries == {}
    assert (cache.hits, cache.misses) == (0, 0)


# (store?, which name, ticks to advance, ttl)
CACHE_STEPS = st.lists(st.tuples(st.booleans(), st.integers(0, 3), st.integers(0, 4),
                                 st.integers(0, 12)), max_size=40)


@given(CACHE_STEPS)
def test_cache_sweep_keeps_hits_and_misses(steps):
    # The model keeps every stored expiry forever; the cache may forget an
    # entry only once no lookup could hit it.
    cache, stored = CacheStore(), {}  # name -> (expiry tick, ttl)
    hits = misses = now = 0
    for is_store, which, advance, ttl in steps:
        now += advance
        name = parse_name(f"n2n://r:n{which}")
        if is_store:
            cache.store(name, ctx(now), [sd("h1", ttl=ttl)])
            stored[name] = (now + ttl, ttl)
            assert all(now < expiry for _, expiry in cache._entries.values())
        elif now < stored.get(name, (now, 0))[0]:
            hits += 1
            assert cache.lookup(name, ctx(now)) == [sd("h1", ttl=stored[name][1])]
        else:
            misses += 1
            assert cache.lookup(name, ctx(now)) is None
        assert (cache.hits, cache.misses) == (hits, misses)


def test_resolution_output_deterministic():
    def build():
        nrs = NameResolutionService()
        nrs.register(record("n2n://r:a", "h2", priority=1), ADMIN)
        nrs.register(record("n2n://r:a", "h1"), ADMIN)
        return sd_list_text(nrs.resolve(parse_name("n2n://r:a"), ctx()))

    assert build() == build()
