"""build_fabric refuses a scenario as the former two-walk validation did.

Scenarios were once checked by validate_scenario, a walk of its own before
set-up; build_fabric now checks each line as it installs it, each op's name
and argument count, and each distinct timeline argument once.  The former
walk is kept below as the reference, checking every argument of every op:
on the builtins and the drop runs, each with one or two lines mutated,
build_fabric raises exactly its error, or builds when it accepts."""

from dataclasses import replace
from functools import cache

import pytest
from hypothesis import example, given, strategies as st

from internames.errors import MalformedUri, ParseError, ValidationError
from internames.fabric import PROTOCOL_OF_TECH, NodeKind
from internames.names import Name, NameRealm, NamingScheme, parse_name
from internames.nrs import ContextPredicate, NrsRecord
from internames.scenario import (
    _ENTITY_KINDS,
    _NEXT_HOP_TECHS,
    _NODE_KINDS,
    _NRS,
    _POLICY_ACTIONS,
    _POLICY_OPERATIONS,
    _PROTOCOLS,
    _SECTION_OF,
    _SERVICES,
    BUILTIN_NAMES,
    NAME,
    NAP,
    REALM,
    TIMELINE_OPS,
    ActionSpec,
    BindingSpec,
    RecordSpec,
    Scenario,
    _predicate,
    _record_to_nrs,
    build_fabric,
    load_builtin,
    parse_scenario,
)

from test_fabric import DROP_RUNS, drop_scenario
from test_scenario import NAMED_OPS

_BINDINGS = _SECTION_OF["bindings"]


# The former validate_scenario, verbatim but for four changes: it returned
# the Names and records it built, and kept each nrs_register op's record on
# the op's spec; it now returns the records and keeps nothing.  It now
# refuses a negative tick, after the tick-order check, as build_fabric does.
# And it now refuses an unknown op or a wrong argument count right after the
# tick checks, as build_fabric does; an ActionSpec once refused both when
# made, before the walk began.
def validate_scenario(s: Scenario) -> tuple[NrsRecord, ...]:
    """The Names and NRS records a valid scenario's set-up installs;
    ValidationError naming the first line that is not valid.  Each
    nrs_register op keeps the record it describes, for when it fires."""
    realm_ids = set()
    for r in s.realms:
        if r.id in realm_ids:
            raise ValidationError(f"duplicate realm {r.id}")
        if r.technology not in _NEXT_HOP_TECHS:
            raise ValidationError(f"realm {r.id}: unknown technology {r.technology}")
        if r.parent is not None and r.parent not in realm_ids:
            raise ValidationError(f"realm {r.id}: undefined parent {r.parent}")
        realm_ids.add(r.id)

    name_realms = {}
    for nr in s.name_realms:
        if nr.scheme not in ("hierarchical", "flat"):
            raise ValidationError(f"name realm {nr.id}: unknown scheme {nr.scheme}")
        name_realms[nr.id] = NameRealm(nr.id, NamingScheme(nr.scheme), nr.description)

    name_of = cache(parse_name)

    def check_name(uri, where) -> Name:
        try:
            name = name_of(uri)
        except MalformedUri as exc:
            raise ValidationError(f"{where}: {exc}") from exc
        realm = name_realms.get(name.realm_id)
        if realm is not None and not realm.admits(name):
            raise ValidationError(f"{where}: {uri} not admitted by name realm {name.realm_id}")
        return name

    node_realms = {}
    for n in s.nodes:
        if n.id in node_realms:
            raise ValidationError(f"duplicate node {n.id}")
        if n.kind not in _NODE_KINDS:
            raise ValidationError(f"node {n.id}: unknown kind {n.kind}")
        for rid in n.realms:
            if rid not in realm_ids:
                raise ValidationError(f"node {n.id}: undefined realm {rid}")
        node_realms[n.id] = set(n.realms)

    nap_realm = {f"{n.id}.{rid}": rid for n in s.nodes for rid in n.realms}

    for l in s.links:
        if l.realm not in realm_ids:
            raise ValidationError(f"link {l.a}-{l.b}: undefined realm {l.realm}")
        for endpoint in (l.a, l.b):
            if endpoint not in node_realms:
                raise ValidationError(f"link references undefined node {endpoint}")
            if l.realm not in node_realms[endpoint]:
                raise ValidationError(f"link {l.a}-{l.b}: {endpoint} not in realm {l.realm}")
        if l.delay < 1:
            raise ValidationError(f"link {l.a}-{l.b}: delay must be >= 1")

    seen_entities = set()
    for e in s.entities:
        name = check_name(e.uri, f"entity {e.uri}")
        if name in seen_entities:
            raise ValidationError(f"duplicate entity {e.uri}")
        seen_entities.add(name)
        if e.kind not in _ENTITY_KINDS:
            raise ValidationError(f"entity {e.uri}: unknown kind {e.kind}")
        for host in e.hosts:
            if host not in node_realms:
                raise ValidationError(f"entity {e.uri}: undefined host {host}")

    # The line that first registers each NRS store key (NrsRecord.key: the
    # store refuses a second record under it); every binding registers a
    # host record for its NAP, with the empty predicate.
    techs = {r.id: _NEXT_HOP_TECHS[r.technology] for r in s.realms}
    anywhere = ContextPredicate()
    registered = {}
    for b in s.bindings:
        name = check_name(b.uri, f"binding {b.uri}")
        if b.nap not in nap_realm:
            raise ValidationError(f"binding {b.uri}: undefined nap {b.nap}")
        protocol = PROTOCOL_OF_TECH[techs[nap_realm[b.nap]]]
        registered.setdefault((name, protocol, b.nap, anywhere), b)

    locators = nap_realm.keys() | node_realms.keys()
    predicate_of = cache(_predicate)

    def check_record(r: RecordSpec, where: str) -> NrsRecord:
        """The record an [nrs] line or the arguments of an nrs_register op
        describe; ValidationError if the NRS could not hold it."""
        check_name(r.prefix, where)
        if r.protocol not in _PROTOCOLS:
            raise ValidationError(f"{where}: unknown protocol {r.protocol}")
        if r.tech not in _NEXT_HOP_TECHS:
            raise ValidationError(f"{where}: unknown tech {r.tech}")
        if r.next_hop not in locators:
            raise ValidationError(f"{where}: undefined next hop {r.next_hop}")
        if r.service is not None and r.service not in _SERVICES:
            raise ValidationError(f"{where}: unknown service {r.service}")
        try:
            return _record_to_nrs(r, name_of, predicate_of)
        except ValueError as exc:
            raise ValidationError(f"{where}: {exc} in line {_NRS.format(r)}") from exc

    records = []
    for r in s.nrs_records:
        record = check_record(r, f"nrs record {r.prefix}")
        n = len(registered)
        first = registered.setdefault(record.key(), r)
        if len(registered) == n:
            repeats = (f"the host record of [bindings] line {_BINDINGS.format(first)}"
                       if isinstance(first, BindingSpec) else f"[nrs] line {_NRS.format(first)}")
            raise ValidationError(f"nrs record {_NRS.format(r)}: repeats {repeats}")
        records.append(record)

    for p in s.policies:
        if p.router not in node_realms:
            raise ValidationError(f"policy: undefined router {p.router}")
        check_name(p.prefix, f"policy {p.prefix}")
        if p.action not in _POLICY_ACTIONS:
            raise ValidationError(f"policy: unknown action {p.action}")
        if p.operation not in _POLICY_OPERATIONS:
            raise ValidationError(f"policy: unknown operation {p.operation}")

    rendezvous = {n.id for n in s.nodes if n.kind == NodeKind.RENDEZVOUS.value}
    for t in s.topics:
        if t.rendezvous not in node_realms:
            raise ValidationError(f"topic {t.fcn}: undefined rendezvous {t.rendezvous}")
        if t.rendezvous not in rendezvous:
            raise ValidationError(f"topic {t.fcn}: {t.rendezvous} is not a rendezvous node")

    defined = {NAP: nap_realm, REALM: realm_ids}
    last_tick = None
    for a in s.timeline:
        if last_tick is not None and a.tick < last_tick:
            raise ValidationError("timeline must be sorted by tick")
        last_tick = a.tick
        where = f"timeline t={a.tick} {a.op}"
        if a.tick < 0:
            raise ValidationError(f"{where}: tick must be >= 0")
        if a.op not in TIMELINE_OPS:
            raise ValidationError(f"{where}: unknown timeline op {a.op!r}")
        kinds = TIMELINE_OPS[a.op].kinds
        if kinds is None:
            check_record(_NRS.parse(a.args, where), where)
            continue
        if len(a.args) != len(kinds):
            raise ValidationError(f"{where}: op {a.op} takes {len(kinds)} args, "
                                  f"got {len(a.args)}")
        for kind, arg in zip(kinds, a.args):
            if kind == NAME:
                check_name(arg, where)
            elif kind in defined and arg not in defined[kind]:
                raise ValidationError(f"{where}: undefined {kind} {arg}")
    return tuple(records)


# ------------------------------------------------------------------ mutations
# Each mutation changes one line of a scenario, or a name realm and a name
# it must then refuse, and returns the changed sections by attribute; None
# when the scenario has no line it applies to.

# The builtins, the drop runs, and one run of every op that takes a name.
BASES = [*map(load_builtin, BUILTIN_NAMES), *(drop_scenario(*run) for run in DROP_RUNS),
         parse_scenario(NAMED_OPS, name="named-ops")]
BAD_URIS = ["http://users:x", "n2n://users", "n2n://users:a//b", "n2n://bad realm:x",
            "n2n://users:" + "x" * 256]
URI_FIELDS = [("entities", "uri"), ("bindings", "uri"), ("nrs_records", "prefix"),
              ("policies", "prefix")]
# Where each timeline op's arguments name a name, a NAP or a realm; an
# nrs_register op's are one [nrs] line, whose prefix is a name and whose
# next hop a node or NAP.
RECORD_ARGS = {NAME: (0,), NAP: (4,)}


def kinds_of(a: ActionSpec) -> tuple[str, ...] | None:
    """The kind of each of a's arguments; None for an nrs_register op, and
    none for an op TIMELINE_OPS does not hold, as a mutation may leave."""
    op = TIMELINE_OPS.get(a.op)
    return () if op is None else op.kinds


def arg_positions(a: ActionSpec, kind: str) -> tuple[int, ...]:
    kinds = kinds_of(a)
    if kinds is None:
        return RECORD_ARGS.get(kind, ())
    return tuple(i for i, k in enumerate(kinds) if k == kind)


def one_line(draw, lines):
    return draw(st.integers(0, len(lines) - 1))


def just(*values):
    return lambda s: st.sampled_from(values)


def any_of(what):
    """An undefined id, or one of the scenario's realms, nodes, NAPs or
    locators (nodes and NAPs)."""

    def ids(s):
        nodes = [n.id for n in s.nodes]
        naps = [f"{n.id}.{rid}" for n in s.nodes for rid in n.realms]
        defined = {"realm": [r.id for r in s.realms], "node": nodes, "nap": naps,
                   "locator": nodes + naps}[what]
        return st.just("ghost") | st.sampled_from(defined or ["ghost"])

    return ids


def set_field(attr, field, values):
    """Set one line's field, or the last item of a multi-valued field, to a
    value drawn from values(s)."""

    def mutate(draw, s):
        lines = getattr(s, attr)
        if not lines:
            return None
        i = one_line(draw, lines)
        value = draw(values(s))
        old = getattr(lines[i], field)
        if isinstance(old, tuple):
            value = old[:-1] + (value,)
        return {attr: lines[:i] + (lines[i]._replace(**{field: value}),) + lines[i + 1:]}

    return mutate


def with_arg(timeline, i, p, value):
    """timeline with argument p of op i set to value."""
    a = timeline[i]
    args = a.args[:p] + (value,) + a.args[p + 1:]
    return timeline[:i] + (a._replace(args=args),) + timeline[i + 1:]


def arg_sites(s, kind):
    return [(i, p) for i, a in enumerate(s.timeline) for p in arg_positions(a, kind)]


def set_arg(kind, values):
    """Set one timeline argument of the given kind."""

    def mutate(draw, s):
        sites = arg_sites(s, kind)
        if not sites:
            return None
        i, p = draw(st.sampled_from(sites))
        return {"timeline": with_arg(s.timeline, i, p, draw(values(s)))}

    return mutate


def shared_arg(kind, values):
    """Set two or more timeline arguments of the given kind to one value; an
    op with the only such argument is first repeated right after itself."""

    def mutate(draw, s):
        sites, timeline = arg_sites(s, kind), s.timeline
        if not sites:
            return None
        if len(sites) == 1:
            (i, p), = sites
            timeline = timeline[:i + 1] + timeline[i:]
            sites = [(i, p), (i + 1, p)]
        value = draw(values(s))
        for i, p in draw(st.lists(st.sampled_from(sites), min_size=2, unique=True)):
            timeline = with_arg(timeline, i, p, value)
        return {"timeline": timeline}

    return mutate


def arg_of_another_kind(draw, s):
    """One timeline argument set to the text of an argument of another kind
    elsewhere in the timeline: a NAP as a realm or a name, a name as a NAP,
    and so on.  The text stays where it was, valid for its own kind."""
    sites = [(i, p, kind) for kind in (NAME, NAP, REALM) for i, p in arg_sites(s, kind)]
    pairs = [(src, dst) for src in sites for dst in sites if src[2] != dst[2]]
    if not pairs:
        return None
    (i, p, _), (j, q, _) = draw(st.sampled_from(pairs))
    return {"timeline": with_arg(s.timeline, j, q, s.timeline[i].args[p])}


def duplicate_line(attr):
    def mutate(draw, s):
        lines = getattr(s, attr)
        if not lines:
            return None
        line = lines[one_line(draw, lines)]
        j = draw(st.integers(0, len(lines)))
        return {attr: lines[:j] + (line,) + lines[j:]}

    return mutate


def repeat_record(draw, s):
    """An [nrs] line that repeats another's key, or a binding's host record,
    with fields outside the key changed."""
    if s.nrs_records and draw(st.booleans()):
        r = s.nrs_records[one_line(draw, s.nrs_records)]
    elif s.bindings:
        b = s.bindings[one_line(draw, s.bindings)]
        # An earlier mutation may have left the NAP undefined or its realm's
        # technology unknown; then there is no host record to repeat.
        rid = next((rid for n in s.nodes for rid in n.realms if f"{n.id}.{rid}" == b.nap), None)
        tech = next((r.technology for r in s.realms if r.id == rid), None)
        if tech not in _NEXT_HOP_TECHS:
            return None
        protocol = PROTOCOL_OF_TECH[_NEXT_HOP_TECHS[tech]]._value_
        r = RecordSpec(b.uri, protocol, b.uri if tech == "CCNISH" else "", tech, b.nap)
    else:
        return None
    r = r._replace(priority=draw(st.integers(0, 3)), scope=draw(st.sampled_from([None, "x"])))
    j = draw(st.integers(0, len(s.nrs_records)))
    return {"nrs_records": s.nrs_records[:j] + (r,) + s.nrs_records[j:]}


def not_admitted(draw, s):
    """A name realm made flat, and a name of two segments in it."""
    if not s.name_realms:
        return None
    i = one_line(draw, s.name_realms)
    realm = s.name_realms[i]
    attr, field = draw(st.sampled_from(URI_FIELDS))
    change = set_field(attr, field, just(f"n2n://{realm.id}:a/b"))(draw, s)
    if change is None:
        return None
    flat = realm._replace(scheme="flat")
    return {**change, "name_realms": s.name_realms[:i] + (flat,) + s.name_realms[i + 1:]}


def tick_out_of_order(draw, s):
    if len(s.timeline) < 2:
        return None
    i = draw(st.integers(1, len(s.timeline) - 1))
    a, before = s.timeline[i], s.timeline[i - 1]
    return {"timeline": s.timeline[:i] + (a._replace(tick=before.tick - 1),)
            + s.timeline[i + 1:]}


def negative_tick(draw, s):
    """One op's tick made negative; past the first op, it is also out of
    order."""
    if not s.timeline:
        return None
    i = one_line(draw, s.timeline)
    a = s.timeline[i]
    return {"timeline": s.timeline[:i] + (a._replace(tick=draw(st.integers(-3, -1))),)
            + s.timeline[i + 1:]}


def unknown_op(draw, s):
    """One op renamed to a name TIMELINE_OPS does not hold."""
    if not s.timeline:
        return None
    i = one_line(draw, s.timeline)
    a = s.timeline[i]._replace(op=draw(st.sampled_from(["teleport", "PULL", ""])))
    return {"timeline": s.timeline[:i] + (a,) + s.timeline[i + 1:]}


def argument_count(draw, s):
    """One op, other than nrs_register, with its last argument dropped or
    one more added: a copy of one of its own, or an undefined id."""
    sites = [i for i, a in enumerate(s.timeline) if kinds_of(a)]
    if not sites:
        return None
    i = draw(st.sampled_from(sites))
    a = s.timeline[i]
    if draw(st.booleans()):
        args = a.args[:-1]
    else:
        args = a.args + (draw(st.sampled_from(["ghost", *a.args])),)
    return {"timeline": s.timeline[:i] + (a._replace(args=args),) + s.timeline[i + 1:]}


BAD_URI = just(*BAD_URIS)
MUTATIONS = {
    "spelling": [
        set_field("realms", "technology", just("BOGUS", "ipish")),
        set_field("name_realms", "scheme", just("BOGUS", "flat")),
        set_field("nodes", "kind", just("BOGUS", "content")),
        set_field("entities", "kind", just("BOGUS", "host")),
        set_field("nrs_records", "protocol", just("BOGUS", "IPISH")),
        set_field("nrs_records", "tech", just("BOGUS", "HTTPISH")),
        set_field("nrs_records", "service", just("BOGUS", "unicast")),
        set_field("policies", "action", just("BOGUS", "pull")),
        set_field("policies", "operation", just("BOGUS", "deny")),
    ],
    "reference": [
        set_field("realms", "parent", any_of("realm")),
        set_field("nodes", "realms", any_of("realm")),
        set_field("links", "a", any_of("node")),
        set_field("links", "b", any_of("node")),
        set_field("links", "realm", any_of("realm")),
        set_field("entities", "hosts", any_of("node")),
        set_field("bindings", "nap", any_of("nap")),
        set_field("nrs_records", "next_hop", any_of("locator")),
        set_field("policies", "router", any_of("node")),
        set_field("topics", "rendezvous", any_of("node")),
        set_arg(NAP, any_of("nap")),
        set_arg(REALM, any_of("realm")),
    ],
    "value set-up refuses": [
        set_field("links", "delay", just(0, -1)),
        set_field("nrs_records", "fcn", just("")),
        set_field("nrs_records", "priority", just(-1)),
    ],
    "duplicate": [duplicate_line(s.attr) for s in _SECTION_OF.values() if s.attr != "timeline"],
    "repeated record": [repeat_record],
    "malformed uri": [*(set_field(attr, field, BAD_URI) for attr, field in URI_FIELDS),
                      set_arg(NAME, BAD_URI)],
    "name not admitted": [not_admitted],
    "tick order": [tick_out_of_order, negative_tick],
    "unknown op": [unknown_op],
    "argument count": [argument_count],
    # Each distinct timeline argument is checked once, per kind.
    "argument shared by ops": [shared_arg(NAP, any_of("nap")), shared_arg(REALM, any_of("realm")),
                               shared_arg(NAME, BAD_URI)],
    "argument of another kind": [arg_of_another_kind],
}
ALL_MUTATIONS = [m for ms in MUTATIONS.values() for m in ms]


@st.composite
def mutated(draw, faults, mutations=ALL_MUTATIONS):
    """A base scenario with up to `faults` drawn mutations, no two of which
    change the same section."""
    s = draw(st.sampled_from(BASES))
    changed = set()
    for _ in range(faults):
        # The first mutation, in a drawn order, that applies to s.
        for mutate in draw(st.permutations(mutations)):
            change = mutate(draw, s)
            if change is not None and changed.isdisjoint(change):
                changed.update(change)
                s = replace(s, **change)
                break
    return s


def outcome(check, s):
    """The error type and text check raises on s, or None if it accepts s."""
    try:
        check(s)
    except (ValidationError, ParseError) as exc:
        return type(exc).__name__, str(exc)
    return None


@given(st.integers(1, 2).flatmap(mutated))
@example(BASES[0])
@example(parse_scenario(NAMED_OPS.replace("3,bind,n2n://users:u4,host3b.internet",
                                          "3,bind,n2n://users:u4,ghost.internet")))
@example(parse_scenario(NAMED_OPS.replace(",IPISH,host3a,", ",IPISH,ghost,")))
@example(parse_scenario(NAMED_OPS + "50,partition,ghost\n"))
# An undefined NAP, an undefined realm and a malformed name each used by
# two or more ops, and a NAP, a realm and a NAP used where another kind is due.
@example(parse_scenario(NAMED_OPS.replace("u4,host3b.internet", "u4,ghost.internet")))
@example(parse_scenario(NAMED_OPS + "50,partition,ghost\n51,heal,ghost\n"))
@example(parse_scenario(NAMED_OPS.replace("n2n://users:u4", "users:u4")))
@example(parse_scenario(NAMED_OPS + "50,partition,host3b.internet\n"))
@example(parse_scenario(NAMED_OPS + "50,unbind,n2n://users:u1,internet\n"))
@example(parse_scenario(NAMED_OPS + "50,pull,n2n://users:u1,host3a.internet\n"))
# An unknown op, and ops with one argument too few and one too many, the
# last after an undefined realm that is named first.
@example(parse_scenario(NAMED_OPS + "50,teleport,n2n://users:u1\n"))
@example(parse_scenario(NAMED_OPS + "50,pull,n2n://users:u1\n"))
@example(parse_scenario(NAMED_OPS + "50,partition,ghost\n51,heal,internet,internet\n"))
def test_build_refuses_what_the_validation_oracle_refused(s):
    assert outcome(build_fabric, s) == outcome(validate_scenario, s)


@pytest.mark.parametrize("kind", MUTATIONS)
@given(data=st.data())
def test_each_mutation_kind_against_the_validation_oracle(kind, data):
    s = data.draw(mutated(1, MUTATIONS[kind]))
    assert outcome(build_fabric, s) == outcome(validate_scenario, s)
