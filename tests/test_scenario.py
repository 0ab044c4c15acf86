from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import internames
from internames.cli import main
from internames.errors import InvalidStep, ParseError, ValidationError
from internames import fabric as fabric_module
from internames import names as names_module
from internames.fabric import EventKind, Fabric, NodeKind, RealmTech
from internames.name_router import BridgeRule
from internames.names import Name, parse_name
from internames.nrs import ContextPredicate, ServiceDescriptor
from internames.scenario import (
    BUILTIN_NAMES,
    SECTIONS,
    TIMELINE_OPS,
    ActionSpec,
    BindingSpec,
    EntitySpec,
    LinkSpec,
    MigrationPlan,
    NameRealmSpec,
    NodeSpec,
    PolicySpec,
    RealmSpec,
    RecordSpec,
    Scenario,
    TopicSpec,
    _NRS,
    _schedule_action,
    apply_migration,
    build_fabric,
    diff_trace,
    golden_trace,
    load_builtin,
    parse_plan,
    parse_scenario,
    run_scenario,
    save_scenario,
)

from conftest import CROSS_REALM, UNFIRABLE_OPS, fig3_and, run_checked

ALL_SOURCES = ("fig3", "mobility-return", "reverse-multicast", "disaster", "cdn")

MINIMAL = """
[realms]
net,IPISH,-

[nodes]
a,host,net
b,host,net

[links]
a,b,net,1

[bindings]
n2n://users:x,a.net
"""


def test_builtins_load():
    fig3 = load_builtin("fig3")
    ip = [r for r in fig3.realms if r.technology == "IPISH"]
    ccn = [r for r in fig3.realms if r.technology == "CCNISH"]
    assert len(ip) == 1 and len(ccn) == 1
    kinds = {n.id: n.kind for n in fig3.nodes}
    assert kinds["RN1"] == "name_router"
    assert "ors" in kinds.values() and "nrs" in kinds.values()
    assert set(BUILTIN_NAMES) == {
        "fig3", "mobility-return", "reverse-multicast", "disaster", "migration",
    }


def test_unknown_builtin():
    with pytest.raises(ParseError):
        load_builtin("nope")


def test_load_save_load_fixpoint_on_all_builtins():
    for name in ALL_SOURCES + ("migration",):
        s = load_builtin(name)
        assert parse_scenario(save_scenario(s), name=s.name) == s


# Values the format can carry: no commas, line breaks or edge whitespace in
# a field, no '+' inside a multi-valued field, no field that is '-' alone
# where '-' marks an empty one, and no line that starts with '#' or '['.
TOKEN = st.text(st.characters(whitelist_categories=("L", "N"), whitelist_characters="._:/-"),
                min_size=1, max_size=6).filter(lambda t: t != "-")
PHRASE = st.lists(TOKEN, min_size=1, max_size=3).map(" ".join)
BLANK_OR_PHRASE = st.just("") | PHRASE
TOKENS = st.lists(TOKEN, max_size=3).map(tuple)
INTS = st.integers(-10**6, 10**6)


def _records(spec, *fields):
    return st.lists(st.builds(spec, *fields), max_size=2).map(tuple)


def _action(op):
    kinds = TIMELINE_OPS[op].kinds
    arity = st.integers(11, 12) if kinds is None else st.just(len(kinds))
    arg = st.just("") | st.just("-") | PHRASE
    return arity.flatmap(lambda n: st.tuples(INTS, st.just(op), st.tuples(*[arg] * n)))


SCENARIOS = st.builds(
    Scenario,
    realms=_records(RealmSpec, TOKEN, TOKEN, st.none() | TOKEN),
    # A description may hold commas, trail one, or be left out.
    name_realms=_records(NameRealmSpec, TOKEN, TOKEN,
                         st.lists(BLANK_OR_PHRASE, max_size=3).map(",".join)),
    nodes=_records(NodeSpec, TOKEN, TOKEN, TOKENS),
    links=_records(LinkSpec, TOKEN, TOKEN, TOKEN, INTS),
    entities=_records(EntitySpec, TOKEN, TOKEN, TOKENS, BLANK_OR_PHRASE,
                      BLANK_OR_PHRASE.map(str.encode), TOKENS, BLANK_OR_PHRASE),
    bindings=_records(BindingSpec, TOKEN, TOKEN),
    nrs_records=_records(RecordSpec, TOKEN, TOKEN, BLANK_OR_PHRASE, TOKEN, TOKEN, INTS, INTS,
                         TOKENS, TOKENS, st.none() | st.tuples(INTS, INTS),
                         st.none() | TOKEN, st.none() | st.just("") | TOKEN),
    policies=_records(PolicySpec, TOKEN, TOKEN, TOKEN, TOKEN),
    topics=_records(TopicSpec, TOKEN, TOKEN),
    timeline=st.lists(st.sampled_from(sorted(TIMELINE_OPS)).flatmap(_action), max_size=4)
    .map(lambda actions: tuple(ActionSpec(*a) for a in actions)),
)


# One record in every section, each optional field away from its default.
ONE_OF_EACH = Scenario(
    realms=(RealmSpec("net", "IPISH", "top"),),
    name_realms=(NameRealmSpec("users", "flat", "people,all"),),
    nodes=(NodeSpec("a", "host", ("net", "side")),),
    links=(LinkSpec("a", "b", "net", 2),),
    entities=(EntitySpec("n2n://u:x", "content", ("a",), "ccnx://x", b"bytes", ("k1", "k2"),
                         "a thing"),),
    bindings=(BindingSpec("n2n://u:x", "a.net"),),
    nrs_records=(RecordSpec("n2n://u:x", "HTTPISH", "", "IPISH", "a", 1, 50, ("t",), ("loc",),
                            (0, 9), "anycast", "net"),),
    policies=(PolicySpec("r", "n2n://u:x", "deny", "pull"),),
    topics=(TopicSpec("news", "rv"),),
    timeline=(ActionSpec(1, "pull", ("n2n://u:a", "n2n://u:x")),),
)


@given(SCENARIOS)
@example(Scenario(name_realms=(NameRealmSpec("users", "flat", "people,"),)))
@example(ONE_OF_EACH)
def test_parse_inverts_save_on_every_section_and_op(s):
    # build_fabric would refuse most drawn records; the format does not.
    assert parse_scenario(save_scenario(s), name=s.name) == s


@given(SCENARIOS)
@example(ONE_OF_EACH)
def test_every_section_reads_back_the_spec_it_formats(s):
    # Specs compare as tuples, so == alone would pass a record read back
    # into another section's spec class.
    for section in SECTIONS:
        for spec in getattr(s, section.attr):
            line_fields = [f.strip() for f in section.format(spec).split(",")]
            back = section.parse(line_fields, f"[{section.name}]")
            assert type(back) is type(spec) and back == spec


HOST_RECORD = "n2n://users:x,HTTPISH,-,IPISH,a.net,0,100,-,-,-,-"


@pytest.mark.parametrize("nrs_lines,repeats", [
    ([HOST_RECORD], "the host record of [bindings] line n2n://users:x,a.net"),
    # The store keys a record by prefix, protocol, next hop and predicate.
    (["n2n://users:x,HTTPISH,-,IPISH,a.net,3,50,-,-,-,-,net"],
     "the host record of [bindings] line n2n://users:x,a.net"),
    (["n2n://users:y,HTTPISH,-,IPISH,b,0,100,t1+t2,-,-,-",
      "n2n://users:y,HTTPISH,-,IPISH,b,5,100,t2+t1,-,-,-"],
     "[nrs] line n2n://users:y,HTTPISH,-,IPISH,b,0,100,t1+t2,-,-,-"),
])
def test_duplicate_nrs_records_rejected(nrs_lines, repeats):
    with pytest.raises(ValidationError) as info:
        build_fabric(parse_scenario(MINIMAL + "[nrs]\n" + "\n".join(nrs_lines) + "\n"))
    assert str(info.value).endswith(f": repeats {repeats}")
    assert str(info.value).startswith(f"nrs record {nrs_lines[-1]}")


# The rule scenario validation applied before records were keyed by
# NrsRecord.key(), kept as the reference: an [nrs] line repeats the first earlier [nrs] line,
# or host record of a binding, with the same prefix, protocol, next hop,
# window, location tags, context tags and service.
FORMAT = {s.name: s.format for s in SECTIONS}
HOST_PROTOCOL = {"IPISH": "HTTPISH", "CCNISH": "CCNISH_OVER_UDPISH"}
NO_TAGS = frozenset()


def oracle_repeat(s):
    """The refusal of the first [nrs] line that repeats a record, or None."""
    techs = {r.id: r.technology for r in s.realms}
    nap_realm = {f"{n.id}.{rid}": rid for n in s.nodes for rid in n.realms}
    registered = {}
    for b in s.bindings:
        protocol = HOST_PROTOCOL[techs[nap_realm[b.nap]]]
        registered.setdefault((b.uri, protocol, b.nap, None, NO_TAGS, NO_TAGS, None), b)
    for r in s.nrs_records:
        key = (r.prefix, r.protocol, r.next_hop, r.window, frozenset(r.location_tags),
               frozenset(r.context_tags), r.service)
        first = registered.get(key)
        if first is not None:
            repeats = (f"the host record of [bindings] line {FORMAT['bindings'](first)}"
                       if isinstance(first, BindingSpec) else f"[nrs] line {FORMAT['nrs'](first)}")
            return f"nrs record {FORMAT['nrs'](r)}: repeats {repeats}"
        registered[key] = r
    return None


# Small pools, so that drawn records often share a key: a host has a NAP in
# an IPISH and a CCNISH realm, and records vary in fields inside and outside
# the key.
TWO_REALMS = dict(realms=(RealmSpec("net", "IPISH"), RealmSpec("ccn", "CCNISH")),
                  nodes=(NodeSpec("a", "host", ("net",)), NodeSpec("b", "host", ("net", "ccn"))))
URIS = st.sampled_from(["n2n://users:x", "n2n://shop:item"])
TAG_LISTS = st.sampled_from([(), ("t1",), ("t1", "t2"), ("t2", "t1")])
RECORDS = st.builds(
    RecordSpec, prefix=URIS, protocol=st.sampled_from(sorted(HOST_PROTOCOL.values())),
    fcn=st.just("f"), tech=st.sampled_from(sorted(HOST_PROTOCOL)),
    next_hop=st.sampled_from(["b", "a.net", "b.ccn"]), priority=st.integers(0, 1),
    ttl=st.integers(0, 1), context_tags=TAG_LISTS, location_tags=TAG_LISTS,
    window=st.none() | st.just((0, 5)), service=st.none() | st.just("anycast"),
    scope=st.none() | st.just("net"))


@given(st.lists(st.builds(BindingSpec, URIS, st.sampled_from(["a.net", "b.ccn"])), max_size=3),
       st.lists(RECORDS, max_size=4))
@example([BindingSpec("n2n://shop:item", "b.ccn")],
         [RecordSpec("n2n://shop:item", "CCNISH_OVER_UDPISH", "f", "CCNISH", "b.ccn", 1)])
@example([], [RecordSpec("n2n://users:x", "HTTPISH", "f", "IPISH", "b", context_tags=tags)
              for tags in (("t1", "t2"), ("t2", "t1"))])
def test_repeated_records_refused_as_the_seven_field_rule_finds(bindings, records):
    s = Scenario(**TWO_REALMS, bindings=tuple(bindings), nrs_records=tuple(records))
    refusal = oracle_repeat(s)
    if refusal is None:
        # One host record per distinct binding, then every [nrs] record.
        assert len(build_fabric(s).nrs.records()) == len(set(bindings)) + len(records)
    else:
        with pytest.raises(ValidationError) as info:
            build_fabric(s)
        assert str(info.value) == refusal


def test_nrs_record_beside_host_record_builds():
    text = MINIMAL + "[nrs]\n" + HOST_RECORD.replace(",-,-,-,-", ",lab,-,-,-") + "\n"
    assert len(build_fabric(parse_scenario(text)).nrs.records()) == 2


def test_unbind_withdraws_only_the_host_record():
    text = MINIMAL + "[nrs]\n" + HOST_RECORD.replace(",-,-,-,-", ",lab,-,-,-") + "\n"
    fabric = build_fabric(parse_scenario(text))
    x = parse_name("n2n://users:x")
    (lab,) = [r for r in fabric.nrs.records() if r.predicate.context_tags]
    fabric.unbind(x, "a.net")
    assert fabric.nrs.records() == (lab,)
    fabric.bind(x, "a.net")
    assert len(fabric.nrs.records()) == 2


def test_parsing_reads_the_format_and_building_refuses():
    s = parse_scenario("[nodes]\nn1,host,nowhere\n")
    assert s.nodes == (NodeSpec("n1", "host", ("nowhere",)),)
    with pytest.raises(ValidationError, match="^node n1: undefined realm nowhere$"):
        build_fabric(s)


# Each object's URI appears in an entity, an [nrs] record, a binding and
# the timeline; the two records share one predicate but not a descriptor.
NAMED_OFTEN = MINIMAL + """
[entities]
n2n://shop:item/1,content,b,-,one,item,first
n2n://shop:item/2,content,b,-,two,item,second

[bindings]
n2n://shop:item/1,b.net
n2n://shop:item/2,b.net

[nrs]
n2n://shop:item/1,HTTPISH,-,IPISH,b,0,100,lab,-,-,-
n2n://shop:item/2,HTTPISH,-,IPISH,b,1,100,lab,-,-,-

[timeline]
1,pull,n2n://users:x,n2n://shop:item/1
2,pull,n2n://users:x,n2n://shop:item/2
"""


def counted_names(monkeypatch):
    """Patch the setter of Name's uri slot, which both Name() and parse_name
    call once per Name they make, to keep each Name made; returns the list
    it appends them to."""
    made = []
    set_uri = names_module._set_uri

    def counted(name, uri):
        set_uri(name, uri)
        made.append(name)

    monkeypatch.setattr(names_module, "_set_uri", counted)
    return made


def test_set_up_builds_each_name_and_record_once(monkeypatch):
    sds = Counter()
    sd_init = ServiceDescriptor.__init__
    made = counted_names(monkeypatch)

    def counted_sd(sd, *args, **kwargs):
        sd_init(sd, *args, **kwargs)
        sds[sd.canonical_text()] += 1

    monkeypatch.setattr(ServiceDescriptor, "__init__", counted_sd)
    once = Counter(["n2n://users:x", "n2n://shop:item/1", "n2n://shop:item/2"])
    nrs_lines = Counter(f"protocol=HTTPISH fcn=- next_hop=b tech=IPISH priority={p} ttl=100"
                        for p in (0, 1))
    # The fabric registers a host record for each binding as it binds.
    host_records = Counter(f"protocol=HTTPISH fcn=- next_hop={nap} tech=IPISH priority=0"
                           " ttl=100 scope=net" for nap in ("a.net", "b.net", "b.net"))

    def counts(make):
        made.clear()
        sds.clear()
        return make(), Counter(name.uri for name in made), sds.copy()

    # Parsing builds no Name and no record; the second round must count the
    # same, as nothing is memoised across calls.
    for _ in range(2):
        s, built_names, built_sds = counts(lambda: parse_scenario(NAMED_OFTEN))
        assert (built_names, built_sds) == (Counter(), Counter())
        fabric, built_names, built_sds = counts(lambda: build_fabric(s))
        assert (built_names, built_sds) == (once, nrs_lines + host_records)
        item1, item2 = [r for r in fabric.nrs.records() if r.prefix.realm_id == "shop"
                        and r.sd.next_hop_address == "b"]
        assert item1.predicate is item2.predicate


# Every op that takes a name fires on CROSS_REALM; the last pull's caller
# is no longer bound, so it fires down the abort path.
NAMED_OPS = CROSS_REALM + """
[timeline]
1,pull,n2n://users:u1,n2n://ccn.com:doc
2,push,n2n://users:u1,n2n://users:u2,hello
3,bind,n2n://users:u4,host3b.internet
4,nrs_register,n2n://ccn.com:more,HTTPISH,-,IPISH,host3a,0,100,-,-,-,-
5,subscribe,n2n://users:u3,sports/news
6,pull,n2n://users:u4,n2n://ccn.com:doc
10,publish,n2n://users:u1,sports/news,goal
12,fetch,n2n://users:u1,doc
14,search,n2n://users:u3,paper
40,unbind,n2n://users:u4,host3b.internet
41,nrs_withdraw,n2n://ccn.com:more,host3a
42,pull,n2n://users:u4,n2n://ccn.com:doc
"""


def _run_timeline(fabric, timeline):
    calls = []
    for a in timeline:
        _schedule_action(fabric, a, calls)
    fabric.run()
    return calls


def test_timeline_ops_fire_with_the_names_set_up_built(monkeypatch):
    built = Counter()
    made = counted_names(monkeypatch)
    sd_init, predicate_init = ServiceDescriptor.__init__, ContextPredicate.__post_init__

    def counted_sd(sd, *args, **kwargs):
        sd_init(sd, *args, **kwargs)
        built[f"sd {sd.next_hop_address}"] += 1

    def counted_predicate(predicate):
        predicate_init(predicate)
        built["predicate"] += 1

    monkeypatch.setattr(ServiceDescriptor, "__init__", counted_sd)
    monkeypatch.setattr(ContextPredicate, "__post_init__", counted_predicate)
    s = parse_scenario(NAMED_OPS, name="named-ops")
    fabric = build_fabric(s)
    registered = []
    register = fabric.nrs.register
    fabric.nrs.register = lambda record, role: registered.append(record) or register(record, role)
    built.clear()
    made.clear()
    calls = _run_timeline(fabric, s.timeline)
    built.update(name.uri for name in made)
    # The bind and the unbind build the host record of their nap, and the
    # nrs_register op builds its record when it fires; no op makes a Name.
    assert built == Counter({"sd host3b.internet": 2, "sd host3a": 1, "predicate": 1})
    assert registered[-1].prefix is fabric.name_of("n2n://ccn.com:more")
    outcomes = [(c.kind, c.caller.uri, c.result, c.error) for c in calls]
    assert outcomes == [
        ("pull", "n2n://users:u1", b"doc-bytes", None),
        ("push", "n2n://users:u1", None, None),
        ("subscribe", "n2n://users:u3", b"subscribed", None),
        ("pull", "n2n://users:u4", b"doc-bytes", None),
        ("publish", "n2n://users:u1", None, None),
        ("fetch", "n2n://users:u1", b"doc-bytes", None),
        ("search", "n2n://users:u3", None, None),
        ("pull", "n2n://users:u4", None, "not-bound"),
    ]
    for call in calls:
        if call.kind == "pull":
            key = next(k for k in fabric.bindings if k == call.caller)
            assert call.caller is key
    # The same ops parsing each name as they fire give the same run.
    again = build_fabric(s)
    again.name_of = parse_name
    built.clear()
    assert [(c.kind, c.result, c.error) for c in _run_timeline(again, s.timeline)] == [
        (kind, result, error) for kind, _, result, error in outcomes]
    assert built
    assert again.trace_text() == fabric.trace_text()
    assert [n.uri for n in calls[-2].search_result.names] == ["n2n://ccn.com:doc"]


def test_each_nrs_register_op_is_read_once_per_round(monkeypatch):
    # build_fabric reads each distinct op's record once and keeps the spec;
    # the op fires with that spec, so the run reads none.
    reads = []
    read_rows = _NRS.read_rows
    monkeypatch.setattr(_NRS, "read_rows", lambda rows: reads.append(rows) or read_rows(rows))
    again = "43,nrs_register,n2n://ccn.com:more,HTTPISH,-,IPISH,host3a,0,100,-,-,-,-\n"
    s = parse_scenario(NAMED_OPS + again)
    reads.clear()
    fabric = build_fabric(s)
    (args, spec), = fabric.record_specs.items()
    assert reads == [[args]]
    assert spec == _NRS.parse(args, "op")
    reads.clear()
    registered = []
    register = fabric.nrs.register
    fabric.nrs.register = lambda record, role: registered.append(record) or register(record, role)
    _run_timeline(fabric, s.timeline)
    assert reads == []
    assert [r.prefix.uri for r in registered] == ["n2n://users:u4", "n2n://ccn.com:more",
                                                  "n2n://ccn.com:more"]


def test_timeline_ops_fire_on_a_fabric_built_by_hand():
    fabric = Fabric()
    fabric.add_realm("net", RealmTech.IPISH)
    for node, kind in (("a", NodeKind.HOST), ("b", NodeKind.HOST), ("s", NodeKind.NRS)):
        fabric.add_node(node, kind, ["net"])
    fabric.add_link("a", "b", "net")
    fabric.add_link("b", "s", "net")
    item = parse_name("n2n://shop:item")
    fabric.host_content("b", item, b"item-bytes")
    fabric.known_names.add(parse_name("n2n://users:x"))
    assert fabric.name_of is parse_name
    timeline = [
        ActionSpec(1, "bind", ("n2n://users:x", "a.net")),
        ActionSpec(2, "nrs_register", ("n2n://shop:item", "HTTPISH", "-", "IPISH", "b",
                                       "0", "100", "-", "-", "-", "-")),
        ActionSpec(3, "pull", ("n2n://users:x", "n2n://shop:item")),
        ActionSpec(20, "unbind", ("n2n://users:x", "a.net")),
        ActionSpec(21, "pull", ("n2n://users:x", "n2n://shop:item")),
    ]
    calls = _run_timeline(fabric, timeline)
    assert [(c.kind, c.caller, c.result, c.error) for c in calls] == [
        ("pull", parse_name("n2n://users:x"), b"item-bytes", None),
        ("pull", parse_name("n2n://users:x"), None, "not-bound"),
    ]
    assert [r.prefix for r in fabric.nrs.records()] == [item]


def test_a_run_builds_one_bridge_rule_per_realm_pair(monkeypatch):
    rules, pairs = [], []
    rule_init, bridge = BridgeRule.__post_init__, fabric_module.bridge

    def counted_rule(rule):
        rule_init(rule)
        rules.append((rule.realm_in, rule.realm_out))

    def counted_bridge(m, rule, sd):
        pairs.append((rule.realm_in, rule.realm_out))
        return bridge(m, rule, sd)

    monkeypatch.setattr(BridgeRule, "__post_init__", counted_rule)
    monkeypatch.setattr(fabric_module, "bridge", counted_bridge)
    # The migration, with its one pull made three times.
    text = save_scenario(load_builtin("migration")) + "".join(
        f"{tick},pull,n2n://users:dave,n2n://cp.com:video\n" for tick in (40, 80))
    result = run_scenario(parse_scenario(text, name="migration-again"))
    assert [c.result for c in result.calls] == [b"video-bytes"] * 3
    assert len(pairs) == 6
    assert sorted(rules) == sorted(set(pairs))


@pytest.mark.parametrize("section,line,message", [
    ("nrs", "n2n://users:y,CCNISH_OVER_UDPISH,-,IPISH,b,0,100,-,-,-,-",
     "nrs record n2n://users:y: CCNISH_OVER_UDPISH descriptors need a non-empty fcn in line "
     "n2n://users:y,CCNISH_OVER_UDPISH,-,IPISH,b,0,100,-,-,-,-"),
    ("nrs", "n2n://users:y,HTTPISH,-,IPISH,b,-1,100,-,-,-,-",
     "nrs record n2n://users:y: priority and ttl_ticks must be >= 0 in line "
     "n2n://users:y,HTTPISH,-,IPISH,b,-1,100,-,-,-,-"),
    ("timeline", "1,nrs_register,n2n://users:y,TELEPATHY,-,IPISH,nowhere,0,100,-,-,-,-",
     "timeline t=1 nrs_register: unknown protocol TELEPATHY"),
], ids=["ccn-without-fcn", "negative-priority", "op-unknown-protocol"])
def test_records_the_nrs_cannot_hold_are_rejected(section, line, message):
    # An [nrs] line and an nrs_register op pass the same record checks.
    with pytest.raises(ValidationError) as info:
        build_fabric(parse_scenario(MINIMAL + f"[{section}]\n{line}\n"))
    assert str(info.value) == message


@pytest.mark.parametrize("timeline,message", [
    ("-1,partition,net\n", "timeline t=-1 partition: tick must be >= 0"),
    ("-2,partition,net\n-1,heal,net\n", "timeline t=-2 partition: tick must be >= 0"),
    # Tick order is checked first, so an op below its predecessor is out of
    # order even when its tick is negative.
    ("0,partition,net\n-1,heal,net\n", "timeline must be sorted by tick"),
    ("-1,partition,ghost\n", "timeline t=-1 partition: tick must be >= 0"),
], ids=["negative", "negative-first", "negative-after-zero", "before-its-arguments"])
def test_timeline_ticks_are_sorted_and_not_negative(timeline, message):
    with pytest.raises(ValidationError) as info:
        build_fabric(parse_scenario(MINIMAL + "[timeline]\n" + timeline))
    assert str(info.value) == message


@pytest.mark.parametrize("text,error", [
    ("[nodes]\nn1,host,nowhere\n", ValidationError),
    ("[realms]\nnet,IPISH,-\n[links]\na,b,net,1\n", ValidationError),
    ("[realms]\nnet,WIFI,-\n", ValidationError),
    ("[realms]\nnet,IPISH,-\nnet,IPISH,-\n", ValidationError),
    ("[whatever]\nx\n", ParseError),
    ("stray line\n", ParseError),
    ("[realms]\nnet,IPISH\n", ParseError),
    ("[timeline]\n5,pull,n2n://u:a,n2n://u:b\n1,pull,n2n://u:a,n2n://u:b\n", ValidationError),
    ("[timeline]\n0,teleport,x\n", ValidationError),
    ("[timeline]\n5,pull,n2n://u:a\n", ValidationError),
    ("[bindings]\nn2n://u:x,ghost.net\n", ValidationError),
])
def test_invalid_scenarios_rejected(text, error):
    with pytest.raises(error):
        build_fabric(parse_scenario(text))


@pytest.mark.parametrize("text,message", [
    ("[realms]\nnet,IPISH\n", "line 2: [realms] line needs id,technology,parent, got 2 fields"),
    ("[realms]\nnet,IPISH,-\n\n[links]\na,b,net,x\n",
     "line 5: invalid literal for int() with base 10: 'x'"),
    ("[nrs]\nn2n://u:x,HTTPISH\n",
     "line 2: [nrs] line needs prefix,protocol,fcn,tech,next_hop,priority,ttl,context_tags,"
     "location_tags,window,service[,scope], got 2 fields"),
    ("[timeline]\n5\n", "line 2: [timeline] line needs tick,op[,args], got 1 fields"),
    # A block is read a column at a time; the first line in file order that
    # fails is the one named, whichever fault the columns meet first.
    ("[links]\na,b,net,1\na,b,net,x\na,b\n",
     "line 3: invalid literal for int() with base 10: 'x'"),
    ("[links]\na,b,net,1\na,b\na,b,net,x\n",
     "line 3: [links] line needs a,b,realm,delay, got 2 fields"),
    (f"[nrs]\n{HOST_RECORD}\n\n[realms]\nnet,IPISH,-\n# again\n[nrs]\n{HOST_RECORD},net\n"
     f"{HOST_RECORD.replace(',0,', ',x,')},net\n{HOST_RECORD.replace(',100,', ',y,')}\n"
     "[whatever]\n", "line 9: invalid literal for int() with base 10: 'x'"),
], ids=["too-few-fields", "bad-int", "nrs-usage", "timeline-usage",
        "bad-int-before-short-line", "short-line-before-bad-int", "second-nrs-block"])
def test_parse_errors_name_the_line_that_fails(text, message):
    with pytest.raises(ParseError) as info:
        parse_scenario(text)
    assert str(info.value) == message
    assert str(info.value.__cause__) == message.split(": ", 1)[1]


# The format does not know the ops: a line naming an unknown op, or with
# the wrong number of arguments, parses, and build_fabric refuses it in file
# order with the timeline's other checks.
@pytest.mark.parametrize("timeline,message", [
    ("0,teleport,x\n", "timeline t=0 teleport: unknown timeline op 'teleport'"),
    ("5,pull,n2n://u:a\n", "timeline t=5 pull: op pull takes 2 args, got 1"),
    ("5,heal,net,net\n", "timeline t=5 heal: op heal takes 1 args, got 2"),
    ("0,partition,ghost\n1,teleport\n", "timeline t=0 partition: undefined realm ghost"),
    ("2,teleport\n1,partition,ghost\n", "timeline t=2 teleport: unknown timeline op 'teleport'"),
    ("2,partition,net\n1,teleport\n", "timeline must be sorted by tick"),
], ids=["unknown-op", "too-few-args", "too-many-args", "after-a-bad-reference",
        "before-a-bad-reference", "after-the-tick-order"])
def test_timeline_ops_and_argument_counts_are_build_errors(timeline, message):
    s = parse_scenario(MINIMAL + "[timeline]\n" + timeline)
    with pytest.raises(ValidationError) as info:
        build_fabric(s)
    assert str(info.value) == message


def test_topic_rendezvous_must_be_a_rendezvous_node():
    text = CROSS_REALM.replace("sports/news,rvX", "sports/news,host3a")
    with pytest.raises(ValidationError, match="host3a is not a rendezvous node"):
        build_fabric(parse_scenario(text))


def test_empty_timeline_trace_has_only_rebinds():
    result = run_scenario(parse_scenario(MINIMAL, name="minimal"))
    assert {e.event for e in result.fabric.trace} == {EventKind.REBIND}


def test_scenario_runs_are_deterministic():
    for name in ALL_SOURCES:
        s = load_builtin(name)
        assert run_scenario(s).trace_text == run_scenario(s).trace_text


def test_diff_trace_identical_and_perturbed():
    trace = run_scenario(load_builtin("fig3")).trace_text + "\n"
    assert diff_trace(trace, trace) == (0, "traces identical")
    lines = trace.splitlines()
    lines[2] = lines[2].replace("t=", "t=9")
    status, message = diff_trace(trace, "\n".join(lines) + "\n")
    assert status == 1
    assert "line 3" in message
    status, message = diff_trace(trace, trace + "extra\n")
    assert status == 1 and "longer" in message


@pytest.mark.parametrize("line,name,detail,call", UNFIRABLE_OPS, ids=[
    "unbound-pull", "unbound-fetch", "unbind-unbound", "withdraw-absent", "unbind-withdrawn",
    "register-again"])
def test_op_that_cannot_fire_is_a_drop_and_the_run_goes_on(line, name, detail, call):
    result, _ = run_checked(fig3_and(line))
    drop = f"t=99 node=- realm=- event=DROP msg=7 name={name} detail={detail}"
    assert result.trace_text == golden_trace("fig3") + drop
    aborted = [(c.kind, c.caller.uri, c.target, c.error) for c in result.calls[1:]]
    assert aborted == ([] if call is None else [(*call, detail)])


def test_bind_refused_by_the_nrs_leaves_nothing_bound():
    # The binding's host record repeats the [nrs] record, so the bind is
    # refused whole: no REBIND, and the later unbind has nothing to undo.
    text = """
[realms]
net,IPISH,-

[nodes]
a,host,net
s,nrs,net

[links]
a,s,net,1

[nrs]
n2n://users:x,HTTPISH,-,IPISH,a.net,0,100,-,-,-,-

[timeline]
1,bind,n2n://users:x,a.net
5,unbind,n2n://users:x,a.net
"""
    result = run_scenario(parse_scenario(text, name="refused-bind"))
    assert result.trace_text.splitlines() == [
        "t=1 node=- realm=- event=DROP msg=1 name=n2n://users:x detail=duplicate-record",
        "t=5 node=- realm=- event=DROP msg=2 name=n2n://users:x detail=not-bound",
    ]
    assert result.fabric.bindings_of(Name("users", ("x",))) == []
    assert [r.sd.next_hop_address for r in result.fabric.nrs.records()] == ["a.net"]


def test_bind_at_a_nap_already_bound_changes_nothing_and_logs_nothing():
    # fig3 binds alice at client1.internet in [bindings]: a timeline bind
    # of the same NAP is no duplicate record, only a no-op.
    result, drops = run_checked(fig3_and("99,bind,n2n://users:alice,client1.internet"))
    assert result.trace_text + "\n" == golden_trace("fig3")
    assert drops == []
    assert [nap.nap_id for nap in result.fabric.bindings_of(Name("users", ("alice",)))] == [
        "client1.internet"]


def test_builtins_match_frozen_goldens():
    for name in BUILTIN_NAMES:
        actual = run_scenario(load_builtin(name)).trace_text + "\n"
        assert diff_trace(actual, golden_trace(name))[0] == 0, name


def test_empty_migration_plan_is_identity():
    s = load_builtin("cdn")
    assert apply_migration(s, MigrationPlan()) == s


def test_plan_parsing_and_bad_steps():
    plan = parse_plan("replace_authoritative_resolver\n")
    assert len(plan.steps) == 1
    with pytest.raises(ParseError):
        parse_plan("warp_drive,now\n")
    with pytest.raises(ParseError):
        parse_plan("deploy_nested_realm,too,few\n")


def test_invalid_migration_steps():
    s = load_builtin("cdn")
    with pytest.raises(InvalidStep):
        apply_migration(s, parse_plan("deploy_nested_realm,net,IPISH,net,r1,r2,rtrC\n"))
    with pytest.raises(InvalidStep):
        apply_migration(s, parse_plan(
            "update_nrs,n2n://cp.com:ghost,CCNISH_OVER_UDPISH,f,CCNISH,cdn,0,100,-,-,-,-\n"))
    bare = parse_scenario(MINIMAL, name="bare")
    with pytest.raises(InvalidStep):
        apply_migration(bare, parse_plan("replace_authoritative_resolver\n"))


@pytest.mark.parametrize("step, problem", [
    ("deploy_nested_realm,cpccn,CCNISH,nowhere,RNC,repoC,rtrC",
     "realm cpccn: undefined parent nowhere"),
    ("deploy_nested_realm,cpccn,CCNISH,net,RNC,repoC,ghost",
     "link references undefined node ghost"),
    ("deploy_nested_realm,cpccn,WIFI,net,RNC,repoC,rtrC",
     "realm cpccn: unknown technology WIFI"),
    ("deploy_nested_realm,cpccn,CCNISH,net,cdn,repoC,rtrC",
     "duplicate node cdn"),
    ("update_nrs,n2n://cp.com:video,CCNISH_OVER_UDPISH,-,IPISH,cdn,0,100,-,-,-,-",
     "CCNISH_OVER_UDPISH descriptors need a non-empty fcn"),
], ids=["undefined-parent", "undefined-attach", "unknown-technology", "router-is-a-node",
        "record-the-nrs-cannot-hold"])
def test_migration_step_whose_result_fails_validation(step, problem):
    with pytest.raises(InvalidStep) as info:
        apply_migration(load_builtin("cdn"), parse_plan(step + "\n"))
    assert str(info.value).startswith(f"{step}: ")
    assert problem in str(info.value)


@pytest.mark.parametrize("plan", ["", "replace_authoritative_resolver\n"],
                         ids=["empty-plan", "one-step"])
def test_migration_of_a_scenario_that_cannot_be_built_raises_its_own_error(plan):
    # The input's fault, not an InvalidStep under the first step's name.
    base = parse_scenario(save_scenario(load_builtin("cdn"))
                          + "[nrs]\nn2n://users:y,HTTPISH,-,IPISH,nowhere,0,100,-,-,-,-\n")
    with pytest.raises(ValidationError) as info:
        apply_migration(base, parse_plan(plan))
    assert type(info.value) is ValidationError
    assert str(info.value) == "nrs record n2n://users:y: undefined next hop nowhere"


def test_migration_replaces_the_entity_its_record_moves():
    before, after = load_builtin("cdn"), load_builtin("migration")
    (video,) = [e for e in after.entities if e.uri == "n2n://cp.com:video"]
    assert type(video) is EntitySpec
    assert video == before.entities[0]._replace(hosts=("cdn", "repoC"), fcn="ccnx://cp.com/video")


def test_migration_keeps_old_path_pullable():
    before = load_builtin("cdn")
    after = load_builtin("migration")
    prefixes_before = {r.prefix for r in before.nrs_records}
    prefixes_after = {r.prefix for r in after.nrs_records}
    assert prefixes_before <= prefixes_after
    old_records = set(before.nrs_records)
    assert old_records <= set(after.nrs_records)


# ----------------------------------------------------------------------- CLI


def test_cli_run_builtin(capsys, tmp_path):
    assert main(["run", "fig3"]) == 0
    out = capsys.readouterr().out
    assert "event=DELIVER" in out
    trace_file = tmp_path / "t.txt"
    assert main(["run", "fig3", "--trace", str(trace_file)]) == 0
    assert trace_file.read_text() == out


def test_cli_bless_writes_user_golden_beside_scenario_file(tmp_path, capsys):
    scn = tmp_path / "mine.scn"
    scn.write_text(save_scenario(load_builtin("fig3")))
    package_golden = Path(internames.__file__).parent / "scenarios" / "mine.golden"
    try:
        assert main(["run", str(scn), "--bless"]) == 0
        assert not package_golden.exists()
    finally:
        package_golden.unlink(missing_ok=True)
    out = capsys.readouterr().out
    assert (tmp_path / "mine.golden").read_text() == out
    assert main(["diff", str(scn), str(tmp_path / "mine.golden")]) == 0
    capsys.readouterr()


def test_cli_run_until(capsys):
    assert main(["run", "fig3", "--until", "4"]) == 0
    out = capsys.readouterr().out
    assert "event=ORS_R" in out
    assert "event=DELIVER" not in out


def test_cli_bless_refuses_until(tmp_path, capsys):
    # diff runs to idle, so a golden cut at tick 4 could never match it.
    scn = tmp_path / "mine.scn"
    scn.write_text(save_scenario(load_builtin("fig3")))
    assert main(["run", str(scn), "--until", "4", "--bless"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot take --until" in captured.err
    assert not (tmp_path / "mine.golden").exists()


def test_cli_diff_match_and_mismatch(tmp_path, capsys):
    assert main(["diff", "fig3", "fig3"]) == 0
    bad = tmp_path / "bad.golden"
    bad.write_text("t=0 node=x realm=y event=SEND msg=1 name=- detail=-\n")
    assert main(["diff", "fig3", str(bad)]) == 1
    capsys.readouterr()


def test_cli_parse_errors_exit_2(tmp_path, capsys):
    missing = tmp_path / "missing.scn"
    assert main(["run", str(missing)]) == 2
    capsys.readouterr()
    empty_plan = tmp_path / "empty.plan"
    empty_plan.write_text("")
    for text, error in (("[nodes]\nn1,host,nowhere\n", "node n1: undefined realm nowhere"),
                        (MINIMAL + "[timeline]\n-1,partition,net\n",
                         "timeline t=-1 partition: tick must be >= 0"),
                        (MINIMAL + "[timeline]\n0,teleport,net\n",
                         "timeline t=0 teleport: unknown timeline op 'teleport'"),
                        (MINIMAL + "[timeline]\n0,partition\n",
                         "timeline t=0 partition: op partition takes 1 args, got 0")):
        broken = tmp_path / "broken.scn"
        broken.write_text(text)
        for argv in (["run", str(broken)], ["diff", str(broken), "fig3"],
                     ["migrate", str(broken), str(empty_plan)]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", f"error: {error}\n")


def test_cli_unreadable_golden_and_unwritable_output_exit_2(tmp_path, capsys):
    plan = tmp_path / "empty.plan"
    plan.write_text("")
    missing = tmp_path / "none.golden"
    nowhere = tmp_path / "no-such-dir" / "out"
    # A golden that is neither a file nor a builtin cannot be read, as a
    # missing scenario cannot; an output path that cannot be written is
    # named in the error.
    for argv, error in (
            (["diff", "fig3", str(missing)], f"error: cannot read {missing}: "),
            (["diff", "fig3", "no-such-name"], "error: cannot read no-such-name: "),
            (["run", "fig3", "--trace", str(nowhere)], "error: "),
            (["migrate", "cdn", str(plan), "--out", str(nowhere)], "error: ")):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(error)
        assert str(argv[-1]) in captured.err and captured.err.count("\n") == 1


def test_cli_migrate(tmp_path, capsys):
    plan = tmp_path / "plan"
    plan.write_text("replace_authoritative_resolver\n")
    assert main(["migrate", "cdn", str(plan)]) == 0
    out = capsys.readouterr().out
    assert "[realms]" in out
    bad_plan = tmp_path / "bad.plan"
    bad_plan.write_text("deploy_nested_realm,net,IPISH,net,a,b,rtrC\n")
    assert main(["migrate", "cdn", str(bad_plan)]) == 2
    capsys.readouterr()


def test_cli_list_builtin(capsys):
    assert main(["list-builtin"]) == 0
    assert capsys.readouterr().out.split() == list(BUILTIN_NAMES)
