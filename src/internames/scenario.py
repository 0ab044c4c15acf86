"""Scenario files: a line-oriented sectioned text format, plus the runner.

Sections, in file order: [realms] [name_realms] [nodes] [links] [entities]
[bindings] [nrs] [policies] [topics] [timeline].  One record per line,
fields comma-separated; '-' marks an empty field, '+' separates multi-valued
fields.  `SECTIONS` gives each section's fields and `TIMELINE_OPS` each
timeline op's arguments; parsing, saving, validation and the runner all
read those two tables, so files round-trip: load(save(load(f))) == load(f).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields as spec_fields, replace
from importlib import resources
from typing import Any, Callable, NamedTuple

from .errors import InvalidStep, ParseError, ValidationError
from .fabric import PROTOCOL_OF_TECH, Fabric, NodeKind, RealmTech
from .name_router import AccessPolicy, PolicyAction, PolicyOperation, PolicyRule
from .names import (
    EntityKind,
    MalformedUri,
    Name,
    NamedEntity,
    NameRealm,
    NamingScheme,
    parse_name,
)
from .nrs import (
    CallerRole,
    ContextPredicate,
    NextHopTech,
    NrsRecord,
    Protocol,
    Service,
    ServiceDescriptor,
)


@dataclass(frozen=True)
class RealmSpec:
    id: str
    technology: str
    parent: str | None = None


@dataclass(frozen=True)
class NameRealmSpec:
    id: str
    scheme: str
    description: str = ""


@dataclass(frozen=True)
class NodeSpec:
    id: str
    kind: str
    realms: tuple[str, ...]


@dataclass(frozen=True)
class LinkSpec:
    a: str
    b: str
    realm: str
    delay: int = 1


@dataclass(frozen=True)
class EntitySpec:
    uri: str
    kind: str
    hosts: tuple[str, ...]
    fcn: str
    payload: bytes
    keywords: tuple[str, ...]
    description: str


@dataclass(frozen=True)
class BindingSpec:
    uri: str
    nap: str


@dataclass(frozen=True)
class RecordSpec:
    prefix: str
    protocol: str
    fcn: str
    tech: str
    next_hop: str
    priority: int = 0
    ttl: int = 100
    context_tags: tuple[str, ...] = ()
    location_tags: tuple[str, ...] = ()
    window: tuple[int, int] | None = None
    service: str | None = None
    scope: str | None = None


@dataclass(frozen=True)
class PolicySpec:
    router: str
    prefix: str
    action: str
    operation: str


@dataclass(frozen=True)
class TopicSpec:
    fcn: str
    rendezvous: str


@dataclass(frozen=True)
class ActionSpec:
    tick: int
    op: str
    args: tuple[str, ...] = ()

    def __post_init__(self):
        op = TIMELINE_OPS.get(self.op)
        if op is None:
            raise ValueError(f"unknown timeline op {self.op!r}")
        if op.kinds is not None and len(self.args) != len(op.kinds):
            raise ValueError(f"op {self.op} takes {len(op.kinds)} args, got {len(self.args)}")


@dataclass(frozen=True)
class Scenario:
    name: str = "scenario"
    realms: tuple[RealmSpec, ...] = ()
    name_realms: tuple[NameRealmSpec, ...] = ()
    nodes: tuple[NodeSpec, ...] = ()
    links: tuple[LinkSpec, ...] = ()
    entities: tuple[EntitySpec, ...] = ()
    bindings: tuple[BindingSpec, ...] = ()
    nrs_records: tuple[RecordSpec, ...] = ()
    policies: tuple[PolicySpec, ...] = ()
    topics: tuple[TopicSpec, ...] = ()
    timeline: tuple[ActionSpec, ...] = ()


# ------------------------------------------------------------------ format


class Codec(NamedTuple):
    """Reads one field of a line and writes it back; a `parse` of None keeps
    the field's text.  A `rest` codec reads every remaining field of the
    line, so it can only come last."""

    parse: Callable[[Any], Any] | None
    format: Callable[[Any], str]
    rest: bool = False


def _parse_window(text: str) -> tuple[int, int] | None:
    if text == "-":
        return None
    start, _, end = text.partition(":")
    try:
        return int(start), int(end)
    except ValueError:
        raise ValueError(f"bad window {text!r}") from None


# NONE and BLANK read '-' as None and as "", PLUS and WORDS read '+'- and
# space-separated lists, REST reads the rest of the line as text and ARGS
# as a tuple of fields.
TEXT = Codec(None, str)
INT = Codec(int, str)
NONE = Codec(lambda f: None if f == "-" else f, lambda v: "-" if v is None else v)
BLANK = Codec(lambda f: "" if f == "-" else f, lambda v: v or "-")
PLUS = Codec(lambda f: () if f in ("-", "") else tuple(f.split("+")),
             lambda v: "+".join(v) or "-")
WORDS = Codec(lambda f: () if f == "-" else tuple(f.split()), lambda v: " ".join(v) or "-")
BYTES = Codec(lambda f: b"" if f == "-" else f.encode(), lambda v: v.decode() or "-")
WINDOW = Codec(_parse_window, lambda v: "-" if v is None else f"{v[0]}:{v[1]}")
REST = Codec(",".join, str, rest=True)
ARGS = Codec(tuple, ",".join, rest=True)


class Section:
    """One row of the format: the Scenario attribute a [section] fills, its
    spec class, one codec per spec field and how many fields a line must
    have.  Fields past `least` are optional: a missing one takes the spec's
    default, and one left at its default is not written."""

    def __init__(self, attr: str, spec: type, codecs: tuple[Codec, ...], least: int,
                 name: str | None = None):
        self.attr, self.spec, self.codecs, self.least = attr, spec, codecs, least
        self.name = name or attr
        self.rest = codecs[-1].rest
        self.width = len(codecs)
        self.parsers = tuple(c.parse for c in codecs)
        self.fields = spec_fields(spec)

    def parse(self, line_fields, where: str):
        """The spec a line's stripped fields describe; ParseError if they cannot."""
        n = len(line_fields)
        try:
            if n < self.least or n > self.width and not self.rest:
                names = [f.name for f in self.fields]
                usage = ",".join(names[:self.least]) + "".join(
                    f"[,{name}]" for name in names[self.least:])
                raise ValueError(f"[{self.name}] line needs {usage}, got {n} fields")
            if self.rest and n >= self.width:
                line_fields = [*line_fields[:self.width - 1], line_fields[self.width - 1:]]
            return self.spec(*[f if p is None else p(f)
                               for p, f in zip(self.parsers, line_fields)])
        except ValueError as exc:
            raise ParseError(f"{where}: {exc}") from exc

    def format(self, record) -> str:
        values = [getattr(record, f.name) for f in self.fields]
        n = self.width
        while n > self.least and values[n - 1] == self.fields[n - 1].default:
            n -= 1
        return ",".join([c.format(v) for c, v in zip(self.codecs, values[:n])])


SECTIONS = (
    Section("realms", RealmSpec, (TEXT, TEXT, NONE), 3),
    Section("name_realms", NameRealmSpec, (TEXT, TEXT, REST), 2),
    Section("nodes", NodeSpec, (TEXT, TEXT, PLUS), 3),
    Section("links", LinkSpec, (TEXT, TEXT, TEXT, INT), 4),
    Section("entities", EntitySpec, (TEXT, TEXT, PLUS, BLANK, BYTES, WORDS, BLANK), 7),
    Section("bindings", BindingSpec, (TEXT, TEXT), 2),
    Section("nrs_records", RecordSpec,
            (TEXT, TEXT, BLANK, TEXT, TEXT, INT, INT, PLUS, PLUS, WINDOW, NONE, NONE), 11,
            name="nrs"),
    Section("policies", PolicySpec, (TEXT, TEXT, TEXT, TEXT), 4),
    Section("topics", TopicSpec, (TEXT, TEXT), 2),
    Section("timeline", ActionSpec, (INT, TEXT, ARGS), 2),
)
_SECTION_OF = {s.name: s for s in SECTIONS}
_NRS = _SECTION_OF["nrs"]
_BINDINGS = _SECTION_OF["bindings"]


class Op(NamedTuple):
    """One timeline op: the kind of each argument, or None when the
    arguments are one [nrs] record, and the step that fires it at the
    fabric's tick, which returns the call it starts or None."""

    kinds: tuple[str, ...] | None
    fire: Callable[[Fabric, tuple[str, ...]], Any]


NAME, NAP, REALM, FREE = "name", "nap", "realm", "text"

TIMELINE_OPS = {
    "pull": Op((NAME, NAME), lambda f, a: f.start_pull(parse_name(a[0]), parse_name(a[1]))),
    "push": Op((NAME, NAME, FREE), lambda f, a: f.start_push(
        parse_name(a[0]), parse_name(a[1]), a[2].encode())),
    "publish": Op((NAME, FREE, FREE), lambda f, a: f.start_publish(
        parse_name(a[0]), a[1], a[2].encode())),
    "subscribe": Op((NAME, FREE), lambda f, a: f.start_subscribe(parse_name(a[0]), a[1])),
    "search": Op((NAME, FREE), lambda f, a: f.start_search(
        parse_name(a[0]), tuple(a[1].split()))),
    "fetch": Op((NAME, FREE), lambda f, a: f.start_search(
        parse_name(a[0]), tuple(a[1].split()), then_pull=True)),
    "bind": Op((NAME, NAP), lambda f, a: f.bind(parse_name(a[0]), a[1])),
    "unbind": Op((NAME, NAP), lambda f, a: f.unbind(parse_name(a[0]), a[1])),
    "partition": Op((REALM,), lambda f, a: f.partition(a[0])),
    "heal": Op((REALM,), lambda f, a: f.heal(a[0])),
    "nrs_register": Op(None, lambda f, a: f.nrs.register(
        _record_to_nrs(_NRS.parse(a, "nrs_register")), CallerRole.ADMINISTRATOR)),
    "nrs_withdraw": Op((NAME, FREE), lambda f, a: f.nrs.withdraw(parse_name(a[0]), a[1])),
}


def parse_scenario(text: str, name: str = "scenario") -> Scenario:
    records: dict[str, list] = {s.attr: [] for s in SECTIONS}
    section = rows = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = _SECTION_OF.get(line[1:-1])
            if section is None:
                raise ParseError(f"line {lineno}: unknown section {line}")
            rows, parse = records[section.attr], section.parse
            continue
        if section is None:
            raise ParseError(f"line {lineno}: record outside any section")
        rows.append(parse([f.strip() for f in line.split(",")], f"line {lineno}"))
    scenario = Scenario(name, **{attr: tuple(found) for attr, found in records.items()})
    validate_scenario(scenario)
    return scenario


def _read_file(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def load_scenario(path: str) -> Scenario:
    name = os.path.splitext(os.path.basename(path))[0]
    return parse_scenario(_read_file(path), name=name)


def save_scenario(s: Scenario) -> str:
    out = []
    for section in SECTIONS:
        records = getattr(s, section.attr)
        if records:
            out += [f"[{section.name}]", *map(section.format, records), ""]
    return "\n".join(out).rstrip("\n") + "\n"


# --------------------------------------------------------------- validation

_NODE_KINDS = frozenset(k.value for k in NodeKind)
_SERVICES = frozenset(sv.value for sv in Service)
_POLICY_OPERATIONS = frozenset(op.value for op in PolicyOperation)
_NO_TAGS = frozenset()


class _Memo(dict):
    """key -> make(key), made on the key's first lookup; calling the table
    looks a key up.  Set-up makes one per call, so each distinct URI or
    predicate is made once per call and shared (both are immutable), and
    nothing outlives the call."""

    __slots__ = ("make",)

    def __init__(self, make: Callable[[Any], Any]):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value

    __call__ = dict.__getitem__


def validate_scenario(s: Scenario) -> None:
    realm_ids = set()
    for r in s.realms:
        if r.id in realm_ids:
            raise ValidationError(f"duplicate realm {r.id}")
        if r.technology not in RealmTech.__members__:
            raise ValidationError(f"realm {r.id}: unknown technology {r.technology}")
        if r.parent is not None and r.parent not in realm_ids:
            raise ValidationError(f"realm {r.id}: undefined parent {r.parent}")
        realm_ids.add(r.id)

    name_realms = {}
    for nr in s.name_realms:
        if nr.scheme not in ("hierarchical", "flat"):
            raise ValidationError(f"name realm {nr.id}: unknown scheme {nr.scheme}")
        name_realms[nr.id] = NameRealm(nr.id, NamingScheme(nr.scheme), nr.description)

    name_of = _Memo(parse_name)

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
        if e.kind not in ("content", "service_access_point"):
            raise ValidationError(f"entity {e.uri}: unknown kind {e.kind}")
        for host in e.hosts:
            if host not in node_realms:
                raise ValidationError(f"entity {e.uri}: undefined host {host}")

    # The line that first registers each NRS store key (NrsRecord.key: a
    # second record under it is refused); every binding registers a host
    # record for its NAP.  A prefix's text stands for its Name, as
    # parse_name accepts canonical URIs only.
    techs = {r.id: RealmTech[r.technology] for r in s.realms}
    registered = {}
    for b in s.bindings:
        check_name(b.uri, f"binding {b.uri}")
        if b.nap not in nap_realm:
            raise ValidationError(f"binding {b.uri}: undefined nap {b.nap}")
        protocol = PROTOCOL_OF_TECH[techs[nap_realm[b.nap]]].name
        key = (b.uri, protocol, b.nap, None, _NO_TAGS, _NO_TAGS, None)
        registered.setdefault(key, b)

    locators = nap_realm.keys() | node_realms.keys()

    def check_record(r: RecordSpec, where: str) -> None:
        """Refuse a record the NRS could not hold: an [nrs] line or the
        arguments of an nrs_register op."""
        check_name(r.prefix, where)
        if r.protocol not in Protocol.__members__:
            raise ValidationError(f"{where}: unknown protocol {r.protocol}")
        if r.tech not in NextHopTech.__members__:
            raise ValidationError(f"{where}: unknown tech {r.tech}")
        if r.next_hop not in locators:
            raise ValidationError(f"{where}: undefined next hop {r.next_hop}")
        if r.service is not None and r.service not in _SERVICES:
            raise ValidationError(f"{where}: unknown service {r.service}")
        try:
            _descriptor(r)
        except ValueError as exc:
            raise ValidationError(f"{where}: {exc} in line {_NRS.format(r)}") from exc

    for r in s.nrs_records:
        check_record(r, f"nrs record {r.prefix}")
        key = (r.prefix, r.protocol, r.next_hop, r.window, frozenset(r.location_tags),
               frozenset(r.context_tags), r.service)
        first = registered.setdefault(key, r)
        if first is not r:
            repeats = (f"the host record of [bindings] line {_BINDINGS.format(first)}"
                       if isinstance(first, BindingSpec) else f"[nrs] line {_NRS.format(first)}")
            raise ValidationError(f"nrs record {_NRS.format(r)}: repeats {repeats}")

    for p in s.policies:
        if p.router not in node_realms:
            raise ValidationError(f"policy: undefined router {p.router}")
        check_name(p.prefix, f"policy {p.prefix}")
        if p.action not in ("allow", "deny"):
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
        kinds = TIMELINE_OPS[a.op].kinds
        if kinds is None:
            check_record(_NRS.parse(a.args, where), where)
            continue
        for kind, arg in zip(kinds, a.args):
            if kind == NAME:
                check_name(arg, where)
            elif kind in defined and arg not in defined[kind]:
                raise ValidationError(f"{where}: undefined {kind} {arg}")


# ----------------------------------------------------------------- building


def _descriptor(r: RecordSpec) -> ServiceDescriptor:
    return ServiceDescriptor(
        protocol=Protocol[r.protocol],
        fcn=r.fcn,
        next_hop_tech=NextHopTech[r.tech],
        next_hop_address=r.next_hop,
        priority=r.priority,
        ttl_ticks=r.ttl,
        scope=r.scope,
    )


def _predicate(key: tuple) -> ContextPredicate:
    """The predicate of a (window, location tags, context tags, service) key."""
    window, location_tags, context_tags, service = key
    return ContextPredicate(window, location_tags, context_tags,
                            Service(service) if service else None)


def _record_to_nrs(r: RecordSpec, name_of: Callable[[str], Name] = parse_name,
                   predicate_of: Callable[[tuple], ContextPredicate] = _predicate) -> NrsRecord:
    return NrsRecord(name_of(r.prefix), _descriptor(r),
                     predicate_of((r.window, r.location_tags, r.context_tags, r.service)))


def build_fabric(s: Scenario) -> Fabric:
    fabric = Fabric()
    name_of = _Memo(parse_name)
    for r in s.realms:
        fabric.add_realm(r.id, RealmTech[r.technology], r.parent)
    for n in s.nodes:
        fabric.add_node(n.id, NodeKind(n.kind), list(n.realms))
    for l in s.links:
        fabric.add_link(l.a, l.b, l.realm, l.delay)
    for t in s.topics:
        fabric.topic_home[t.fcn] = t.rendezvous
        fabric.topics.setdefault(t.fcn, set())
    for e in s.entities:
        name = name_of(e.uri)
        entity = NamedEntity(
            name=name,
            kind=EntityKind(e.kind),
            payload=e.payload if e.kind == "content" else b"",
            metadata={
                "keywords": ",".join(e.keywords),
                "description": e.description,
            },
        )
        fabric.ors.register(entity)
        for host in e.hosts:
            fabric.host_content(host, name, e.payload, e.fcn)
    fabric.build_fibs()
    predicate_of = _Memo(_predicate)
    for r in s.nrs_records:
        fabric.nrs.register(_record_to_nrs(r, name_of, predicate_of), CallerRole.ADMINISTRATOR)
    rules: dict[str, list[PolicyRule]] = {}
    for p in s.policies:
        rules.setdefault(p.router, []).append(PolicyRule(
            name_of(p.prefix),
            PolicyAction(p.action),
            PolicyOperation(p.operation),
        ))
    for router, rule_list in rules.items():
        fabric.nodes[router].policy = AccessPolicy(tuple(rule_list))
    # Declare every name the scenario binds, so bind accepts the ones the
    # ORS does not hold.
    fabric.known_names.update(name_of(a.args[0]) for a in s.timeline if a.op == "bind")
    for b in s.bindings:
        name = name_of(b.uri)
        fabric.known_names.add(name)
        fabric.bind(name, b.nap)
    return fabric


# ------------------------------------------------------------------ running


@dataclass
class RunResult:
    scenario: Scenario
    fabric: Fabric
    trace_text: str
    calls: list


def _schedule_action(fabric: Fabric, a: ActionSpec, calls: list) -> None:
    fire = TIMELINE_OPS[a.op].fire

    def step():
        call = fire(fabric, a.args)
        if call is not None:
            calls.append(call)

    fabric.at(a.tick, step)


def run_scenario(s: Scenario, until_tick: int | None = None) -> RunResult:
    fabric = build_fabric(s)
    calls: list = []
    for a in s.timeline:
        _schedule_action(fabric, a, calls)
    fabric.run(until_tick)
    return RunResult(s, fabric, fabric.trace_text(), calls)


def diff_trace(actual: str, golden_text: str) -> tuple[int, str]:
    """0 on byte equality, else 1 plus a first-difference report."""
    if actual == golden_text:
        return 0, "traces identical"
    actual_lines = actual.splitlines()
    golden_lines = golden_text.splitlines()
    for i, (a, g) in enumerate(zip(actual_lines, golden_lines), start=1):
        if a != g:
            return 1, f"first difference at line {i}:\n  actual: {a}\n  golden: {g}"
    if len(actual_lines) != len(golden_lines):
        longer = "actual" if len(actual_lines) > len(golden_lines) else "golden"
        line = min(len(actual_lines), len(golden_lines)) + 1
        return 1, f"traces diverge at line {line}: {longer} trace is longer"
    return 1, "traces differ in line endings or trailing whitespace"


# ---------------------------------------------------------------- migration


@dataclass(frozen=True)
class MigrationStep:
    op: str  # replace_authoritative_resolver | deploy_nested_realm | update_nrs
    args: tuple[str, ...] = ()


@dataclass(frozen=True)
class MigrationPlan:
    steps: tuple[MigrationStep, ...] = ()


def parse_plan(text: str) -> MigrationPlan:
    steps = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split(",")]
        op = fields[0]
        if op == "replace_authoritative_resolver":
            if len(fields) != 1:
                raise ParseError(f"line {lineno}: {op} takes no args")
            steps.append(MigrationStep(op))
        elif op == "deploy_nested_realm":
            if len(fields) != 7:
                raise ParseError(
                    f"line {lineno}: deploy_nested_realm,realm,tech,parent,router,repo,attach")
            steps.append(MigrationStep(op, tuple(fields[1:])))
        elif op == "update_nrs":
            _NRS.parse(fields[1:], f"line {lineno}")
            steps.append(MigrationStep(op, tuple(fields[1:])))
        else:
            raise ParseError(f"line {lineno}: unknown migration step {op!r}")
    return MigrationPlan(tuple(steps))


def load_plan(path: str) -> MigrationPlan:
    return parse_plan(_read_file(path))


def apply_step(s: Scenario, step: MigrationStep) -> Scenario:
    """The scenario after one step; InvalidStep, naming the step, if the
    step cannot apply or its result does not validate."""
    if step.op == "replace_authoritative_resolver":
        if not any(n.kind == "nrs" for n in s.nodes):
            raise InvalidStep("no resolver node exists to take over")
        new = s
    elif step.op == "deploy_nested_realm":
        realm_id, tech, parent, router, repo, attach = step.args
        new = replace(
            s,
            realms=s.realms + (RealmSpec(realm_id, tech, parent),),
            nodes=s.nodes + (
                NodeSpec(router, "name_router", (parent, realm_id)),
                NodeSpec(repo, "repo", (parent, realm_id)),
            ),
            links=s.links + (
                LinkSpec(router, attach, parent, 1),
                LinkSpec(router, repo, parent, 1),
                LinkSpec(router, repo, realm_id, 1),
            ),
        )
    elif step.op == "update_nrs":
        record = _NRS.parse(step.args, "update_nrs")
        entities = s.entities
        if record.tech == "CCNISH" and record.fcn:
            # Content entering a CCN realm gets replicated onto the realm's
            # repository and keyed by the record's FCN.
            hit = False
            new_entities = []
            for e in entities:
                if e.uri == record.prefix:
                    hit = True
                    hosts = e.hosts if record.next_hop in e.hosts \
                        else e.hosts + (record.next_hop,)
                    new_entities.append(replace(e, hosts=hosts, fcn=record.fcn))
                else:
                    new_entities.append(e)
            if not hit:
                raise InvalidStep(f"update_nrs: no entity named {record.prefix}")
            entities = tuple(new_entities)
        new = replace(s, entities=entities, nrs_records=s.nrs_records + (record,))
    else:
        raise InvalidStep(step.op)
    try:
        validate_scenario(new)
    except ValidationError as exc:
        raise InvalidStep(f"{','.join((step.op, *step.args))}: {exc}") from exc
    return new


def apply_migration(s: Scenario, plan: MigrationPlan) -> Scenario:
    for step in plan.steps:
        s = apply_step(s, step)
    return s


# ----------------------------------------------------------------- builtins

BUILTIN_NAMES = ("fig3", "mobility-return", "reverse-multicast", "disaster", "migration")
# Names load_builtin accepts: the builtins plus the pre-migration source.
LOADABLE_NAMES = BUILTIN_NAMES + ("cdn",)


def _resource_text(filename: str) -> str:
    return resources.files("internames.scenarios").joinpath(filename).read_text()


def load_builtin(name: str) -> Scenario:
    if name == "migration":
        base = parse_scenario(_resource_text("cdn.scn"), name="cdn")
        plan = parse_plan(_resource_text("cdn-migration.plan"))
        return replace(apply_migration(base, plan), name="migration")
    if name not in LOADABLE_NAMES:
        raise ParseError(f"unknown builtin scenario {name!r}")
    return parse_scenario(_resource_text(f"{name}.scn"), name=name)


def golden_trace(name: str) -> str:
    return _resource_text(f"{name}.golden")
