"""Scenario files: a line-oriented sectioned text format, plus the runner.

Sections, in file order: [realms] [name_realms] [nodes] [links] [entities]
[bindings] [nrs] [policies] [topics] [timeline].  One record per line,
fields comma-separated; '-' marks an empty field, '+' separates multi-valued
fields.  `SECTIONS` gives each section's fields and `TIMELINE_OPS` each
timeline op's arguments; parsing, saving, building and the runner all read
those two tables, so files round-trip: load(save(load(f))) == load(f).

Parsing reads the format and nothing more.  It reads each run of a
section's lines as one block, a column at a time: one map per field, not
one call per line.  A block that cannot be read is read again a line at a
time, so a ParseError still names the first faulty line in file order.
build_fabric is the one walk that checks a scenario: it installs each line,
section by section in file order, and raises ValidationError naming the
first line it cannot build, a timeline op with an unknown name or the wrong
number of arguments included.
"""

from __future__ import annotations

import inspect
import os
from dataclasses import dataclass, replace
from functools import cache, partial
from importlib import resources
from itertools import groupby, repeat
from operator import itemgetter
from typing import Any, Callable, NamedTuple

from .errors import (
    DuplicateName,
    DuplicateRecord,
    InvalidStep,
    NotBound,
    NotFound,
    ParseError,
    RealmViolation,
    UnknownNap,
    UnknownNode,
    UnknownRealm,
    ValidationError,
)
from .fabric import CallRecord, Fabric, NodeKind
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


# One spec per line of a section.  They are NamedTuples, as set-up builds
# one per line: immutable and cheap to build.  Like any tuples they compare
# by value alone, so specs of two classes with the same fields are equal;
# change one with _replace.
class RealmSpec(NamedTuple):
    id: str
    technology: str
    parent: str | None = None


class NameRealmSpec(NamedTuple):
    id: str
    scheme: str
    description: str = ""


class NodeSpec(NamedTuple):
    id: str
    kind: str
    realms: tuple[str, ...]


class LinkSpec(NamedTuple):
    a: str
    b: str
    realm: str
    delay: int = 1


class EntitySpec(NamedTuple):
    uri: str
    kind: str
    hosts: tuple[str, ...]
    fcn: str
    payload: bytes
    keywords: tuple[str, ...]
    description: str


class BindingSpec(NamedTuple):
    uri: str
    nap: str


class RecordSpec(NamedTuple):
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


class PolicySpec(NamedTuple):
    router: str
    prefix: str
    action: str
    operation: str


class TopicSpec(NamedTuple):
    fcn: str
    rendezvous: str


class ActionSpec(NamedTuple):
    """One timeline op.  It formats as where it sits, `timeline t=<tick>
    <op>`, the text its errors begin with."""

    tick: int
    op: str
    args: tuple[str, ...] = ()

    def __str__(self) -> str:
        return f"timeline t={self.tick} {self.op}"


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
    line, as a tuple of texts, so it can only come last."""

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
ARGS = Codec(None, ",".join, rest=True)


class Section:
    """One row of the format: the Scenario attribute a [section] fills, its
    spec class, one codec per spec field and how many fields a line must
    have.  Fields past `least` are optional: a missing one takes the spec's
    default, and one left at its default is not written.  The spec's fields
    and defaults are the parameters of its signature."""

    def __init__(self, attr: str, spec: type, codecs: tuple[Codec, ...], least: int,
                 name: str | None = None):
        self.attr, self.spec, self.codecs, self.least = attr, spec, codecs, least
        self.name = name or attr
        self.rest = codecs[-1].rest
        self.width = len(codecs)
        self.parsers = tuple(c.parse for c in codecs)
        self.fields = tuple(inspect.signature(spec).parameters.values())
        self.defaults = tuple(f.default for f in self.fields)
        # Specs from rows of values, built past the spec's Python-level __new__.
        self.build = partial(map, partial(tuple.__new__, spec))

    def read_rows(self, rows) -> list:
        """The specs that rows, each a line's fields, describe; ValueError if
        one cannot.  Rows are read a column at a time, one group per field
        count."""
        if not rows:
            return []
        counts = [*map(len, rows)]
        if counts.count(counts[0]) == len(counts):
            return self._read_columns(rows, counts[0])
        # Grouped by field count, in a stable order, then put back in place.
        order = sorted(range(len(rows)), key=counts.__getitem__)
        specs = []
        for n, group in groupby(map(rows.__getitem__, order), len):
            specs += self._read_columns([*group], n)
        return [*map(specs.__getitem__, sorted(range(len(rows)), key=order.__getitem__))]

    def _read_columns(self, rows, n: int) -> list:
        """The specs of rows of n fields each."""
        if n < self.least or n > self.width and not self.rest:
            names = [f.name for f in self.fields]
            usage = ",".join(names[:self.least]) + "".join(
                f"[,{name}]" for name in names[self.least:])
            raise ValueError(f"[{self.name}] line needs {usage}, got {n} fields")
        cols = [map(str.strip, col) for col in zip(*rows)]
        if self.rest and n >= self.width:
            # The line's trailing fields are one field, read as a tuple.
            cols[self.width - 1:] = [zip(*cols[self.width - 1:])]
        cols = [col if p is None else map(p, col) for p, col in zip(self.parsers, cols)]
        cols += map(repeat, self.defaults[len(cols):])
        return [*self.build(zip(*cols))]

    def parse(self, line_fields, where: object):
        """The spec a line's fields describe; ParseError, beginning with
        where (a text, or an op, which formats as its place), if they
        cannot."""
        try:
            return self.read_rows([line_fields])[0]
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


class Op(NamedTuple):
    """One timeline op: the kind of each argument, or None when the
    arguments are one [nrs] record; the step that fires it at the fabric's
    tick, given the arguments, which returns the call it starts or None;
    and, for an op that starts a call, the call's target text read from the
    arguments.  build_fabric refuses an op TIMELINE_OPS does not name, and
    one with other than one argument per kind.  A step reads each name
    through the fabric's name_of, and nrs_register its record through
    record_specs, so a fabric from build_fabric fires with the Names and
    specs it was built with."""

    kinds: tuple[str, ...] | None
    fire: Callable[[Fabric, Any], Any]
    target: Callable[[tuple[str, ...]], str] | None = None


NAME, NAP, REALM, FREE = "name", "nap", "realm", "text"
_second = itemgetter(1)


def _keywords(a: tuple[str, ...]) -> str:
    return ",".join(a[1].split())


TIMELINE_OPS = {
    "pull": Op((NAME, NAME), lambda f, a: f.start_pull(f.name_of(a[0]), f.name_of(a[1])),
               _second),
    "push": Op((NAME, NAME, FREE), lambda f, a: f.start_push(
        f.name_of(a[0]), f.name_of(a[1]), a[2].encode()), _second),
    "publish": Op((NAME, FREE, FREE), lambda f, a: f.start_publish(
        f.name_of(a[0]), a[1], a[2].encode()), _second),
    "subscribe": Op((NAME, FREE), lambda f, a: f.start_subscribe(f.name_of(a[0]), a[1]),
                    _second),
    "search": Op((NAME, FREE), lambda f, a: f.start_search(
        f.name_of(a[0]), tuple(a[1].split())), _keywords),
    "fetch": Op((NAME, FREE), lambda f, a: f.start_search(
        f.name_of(a[0]), tuple(a[1].split()), then_pull=True), _keywords),
    "bind": Op((NAME, NAP), lambda f, a: f.bind(f.name_of(a[0]), a[1])),
    "unbind": Op((NAME, NAP), lambda f, a: f.unbind(f.name_of(a[0]), a[1])),
    "partition": Op((REALM,), lambda f, a: f.partition(a[0])),
    "heal": Op((REALM,), lambda f, a: f.heal(a[0])),
    "nrs_register": Op(None, lambda f, a: f.nrs.register(_record_to_nrs(
        f.record_specs.get(a) or _NRS.parse(a, "nrs_register"), f.name_of),
        CallerRole.ADMINISTRATOR)),
    "nrs_withdraw": Op((NAME, FREE), lambda f, a: f.nrs.withdraw(f.name_of(a[0]), a[1])),
}


def _blocks(text: str):
    """Each run of a section's lines, in file order, as (section, the lines,
    their line numbers); ParseError, once the blocks before it are taken,
    for an unknown header or a line outside any section."""
    section, lines, numbers = None, [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        if line[0] == "[" and line[-1] == "]":
            if lines:
                yield section, lines, numbers
            section = _SECTION_OF.get(line[1:-1])
            if section is None:
                raise ParseError(f"line {lineno}: unknown section {line}")
            lines, numbers = [], []
        elif section is None:
            raise ParseError(f"line {lineno}: record outside any section")
        else:
            lines.append(line)
            numbers.append(lineno)
    if lines:
        yield section, lines, numbers


def parse_scenario(text: str, name: str = "scenario") -> Scenario:
    records: dict[str, list] = {s.attr: [] for s in SECTIONS}
    for section, lines, numbers in _blocks(text):
        rows = [*map(str.split, lines, repeat(","))]
        try:
            records[section.attr] += section.read_rows(rows)
        except ValueError:
            # Only a line's fields raise this: the block is read again a
            # line at a time, to name the first line that fails.
            for lineno, row in zip(numbers, rows):
                section.parse(row, f"line {lineno}")
            raise
    return Scenario(name, **{attr: tuple(found) for attr, found in records.items()})


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


# ----------------------------------------------------------------- building

# Each enum's members by the text a scenario spells them with, read once:
# Enum's own lookups and __members__ are Python-level, and set-up makes
# one per row.  A realm's technology is a next-hop technology (RealmTech
# is NextHopTech), so one table serves realms and records.
_PROTOCOLS = dict(Protocol.__members__)
_NEXT_HOP_TECHS = dict(NextHopTech.__members__)
_SCHEMES = {s.value: s for s in NamingScheme}
_NODE_KINDS = {k.value: k for k in NodeKind}
_ENTITY_KINDS = {k.value: k for k in EntityKind}
_SERVICES = {sv.value: sv for sv in Service}
_POLICY_ACTIONS = {a.value: a for a in PolicyAction}
_POLICY_OPERATIONS = {op.value: op for op in PolicyOperation}

# The errors the fabric's and the ORS's set-up calls raise for a line they
# cannot install; each one's text names the line.
_REFUSALS = (ValueError, DuplicateName, RealmViolation, UnknownNap, UnknownNode, UnknownRealm)


def _refused(install: Callable, *args) -> None:
    """install(*args), a set-up call, whose refusal is the scenario's error."""
    try:
        install(*args)
    except _REFUSALS as exc:
        raise ValidationError(str(exc)) from exc


def _spelled(members: dict, text: str, where: str, what: str):
    """The member a scenario spells as text; ValidationError if there is none."""
    member = members.get(text)
    if member is None:
        raise ValidationError(f"{where}: unknown {what} {text}")
    return member


def _predicate(key: tuple) -> ContextPredicate:
    """The predicate of a (window, location tags, context tags, service) key."""
    window, location_tags, context_tags, service = key
    return ContextPredicate(window, location_tags, context_tags,
                            _SERVICES[service] if service else None)


def _record_to_nrs(r: RecordSpec, name_of: Callable[[str], Name],
                   predicate_of: Callable[[tuple], ContextPredicate] = _predicate) -> NrsRecord:
    sd = ServiceDescriptor(_PROTOCOLS[r.protocol], r.fcn, _NEXT_HOP_TECHS[r.tech], r.next_hop,
                           r.priority, r.ttl, r.scope)
    return NrsRecord(name_of(r.prefix), sd,
                     predicate_of((r.window, r.location_tags, r.context_tags, r.service)))


def build_fabric(s: Scenario) -> Fabric:
    """The fabric a scenario describes; ValidationError naming the first
    line, in file order, that it cannot build."""
    # Set-up calls refuse what they cannot install; the checks here are the
    # ones no set-up call makes: spellings, name-realm admission, record next
    # hops, rendezvous kinds, tick order, timeline ops and their argument
    # counts, and timeline references.  Each call caches its own Names and
    # predicates, so each distinct URI or predicate is made once and shared
    # (both are immutable), and no two calls share one.
    fabric = Fabric()
    name_of = fabric.name_of = cache(parse_name)
    for r in s.realms:
        tech = _spelled(_NEXT_HOP_TECHS, r.technology, f"realm {r.id}", "technology")
        _refused(fabric.add_realm, r.id, tech, r.parent)

    name_realms = {}
    for nr in s.name_realms:
        scheme = _spelled(_SCHEMES, nr.scheme, f"name realm {nr.id}", "scheme")
        name_realms[nr.id] = NameRealm(nr.id, scheme, nr.description)

    def check_name(uri: str, where: object) -> Name:
        """The Name of uri; ValidationError, beginning with where, if it is
        malformed or its name realm does not admit it."""
        try:
            name = name_of(uri)
        except MalformedUri as exc:
            raise ValidationError(f"{where}: {exc}") from exc
        realm = name_realms.get(name.realm_id)
        if realm is not None and not realm.admits(name):
            raise ValidationError(f"{where}: {uri} not admitted by name realm {name.realm_id}")
        return name

    for n in s.nodes:
        kind = _spelled(_NODE_KINDS, n.kind, f"node {n.id}", "kind")
        _refused(fabric.add_node, n.id, kind, n.realms)
    for l in s.links:
        _refused(fabric.add_link, l.a, l.b, l.realm, l.delay)

    for e in s.entities:
        name = check_name(e.uri, f"entity {e.uri}")
        kind = _spelled(_ENTITY_KINDS, e.kind, f"entity {e.uri}", "kind")
        _refused(fabric.ors.register, NamedEntity(
            name, kind, e.payload if kind is EntityKind.CONTENT else b"",
            {"keywords": ",".join(e.keywords), "description": e.description}))
        for host in e.hosts:
            _refused(fabric.host_content, host, name, e.payload, e.fcn)

    for b in s.bindings:
        name = check_name(b.uri, f"binding {b.uri}")
        # Declared, so bind accepts a name the ORS does not hold.
        fabric.known_names.add(name)
        _refused(fabric.bind, name, b.nap)

    predicate_of = cache(_predicate)

    def check_record(r: RecordSpec, where: object) -> NrsRecord:
        """The record an [nrs] line or the arguments of an nrs_register op
        describe; ValidationError if the NRS could not hold it."""
        check_name(r.prefix, where)
        _spelled(_PROTOCOLS, r.protocol, where, "protocol")
        _spelled(_NEXT_HOP_TECHS, r.tech, where, "tech")
        if r.next_hop not in fabric.naps and r.next_hop not in fabric.nodes:
            raise ValidationError(f"{where}: undefined next hop {r.next_hop}")
        if r.service is not None:
            _spelled(_SERVICES, r.service, where, "service")
        try:
            return _record_to_nrs(r, name_of, predicate_of)
        except ValueError as exc:
            raise ValidationError(f"{where}: {exc} in line {_NRS.format(r)}") from exc

    records = []
    for r in s.nrs_records:
        record = check_record(r, f"nrs record {r.prefix}")
        try:
            fabric.nrs.register(record, CallerRole.ADMINISTRATOR)
        except DuplicateRecord as exc:
            # The record this one repeats: an earlier line's, or a binding's.
            first = exc.first
            earlier = next((spec for spec, held in zip(s.nrs_records, records)
                            if held is first), None)
            repeats = (f"[nrs] line {_NRS.format(earlier)}" if earlier is not None else
                       "the host record of [bindings] line "
                       f"{first.prefix.uri},{first.sd.next_hop_address}")
            raise ValidationError(f"nrs record {_NRS.format(r)}: repeats {repeats}") from exc
        records.append(record)

    rules: dict[str, list[PolicyRule]] = {}
    for p in s.policies:
        if p.router not in fabric.nodes:
            raise ValidationError(f"policy: undefined router {p.router}")
        prefix = check_name(p.prefix, f"policy {p.prefix}")
        rules.setdefault(p.router, []).append(PolicyRule(
            prefix,
            _spelled(_POLICY_ACTIONS, p.action, "policy", "action"),
            _spelled(_POLICY_OPERATIONS, p.operation, "policy", "operation"),
        ))
    for router, rule_list in rules.items():
        fabric.nodes[router].policy = AccessPolicy(tuple(rule_list))

    for t in s.topics:
        home = fabric.nodes.get(t.rendezvous)
        if home is None:
            raise ValidationError(f"topic {t.fcn}: undefined rendezvous {t.rendezvous}")
        if home.kind is not NodeKind.RENDEZVOUS:
            raise ValidationError(f"topic {t.fcn}: {t.rendezvous} is not a rendezvous node")
        fabric.topic_home[t.fcn] = t.rendezvous
    fabric.build_fibs()

    # Each distinct (kind, argument) pair is checked once, at its first op
    # in file order, so an error names the first op that fails: a name
    # through check_name, a NAP or realm against its table, which holds
    # exactly those that pass.  An op is its own `where`, formatted only
    # into an error's text.
    passed = {NAME: set(), NAP: fabric.naps, REALM: fabric.realms}
    record_specs = fabric.record_specs
    last_tick = None
    for a in s.timeline:
        tick = a.tick
        if last_tick is not None and tick < last_tick:
            raise ValidationError("timeline must be sorted by tick")
        if tick < 0:
            raise ValidationError(f"{a}: tick must be >= 0")
        last_tick = tick
        op = TIMELINE_OPS.get(a.op)
        if op is None:
            raise ValidationError(f"{a}: unknown timeline op {a.op!r}")
        kinds = op.kinds
        if kinds is None:
            # The spec is kept for the op to build its record from.
            if a.args not in record_specs:
                spec = _NRS.parse(a.args, a)
                check_record(spec, a)
                record_specs[a.args] = spec
            continue
        if len(a.args) != len(kinds):
            raise ValidationError(f"{a}: op {a.op} takes {len(kinds)} args, got {len(a.args)}")
        for kind, arg in zip(kinds, a.args):
            if kind != FREE and arg not in passed[kind]:
                if kind != NAME:
                    raise ValidationError(f"{a}: undefined {kind} {arg}")
                check_name(arg, a)
                passed[NAME].add(arg)
        if a.op == "bind":
            fabric.known_names.add(name_of(a.args[0]))
    return fabric


# ------------------------------------------------------------------ running


@dataclass
class RunResult:
    scenario: Scenario
    fabric: Fabric
    trace_text: str
    calls: list


# The errors a valid scenario's op can still raise when it fires, and the
# DROP reason each becomes: a caller or unbind with no binding, a withdraw
# of an absent record, and a register or bind that repeats one.
_ABORTS = {NotBound: "not-bound", NotFound: "no-record", DuplicateRecord: "duplicate-record"}


def _schedule_action(fabric: Fabric, a: ActionSpec, calls: list) -> None:
    op = TIMELINE_OPS[a.op]

    def step():
        try:
            call = op.fire(fabric, a.args)
        except tuple(_ABORTS) as exc:
            # Every op that can raise these takes its name (or, for
            # nrs_register, its prefix) first.
            call = None if op.target is None else CallRecord(
                a.op, fabric.name_of(a.args[0]), op.target(a.args))
            fabric.drop("-", "-", None, _ABORTS[type(exc)], call, name=a.args[0])
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
    step cannot apply or its result cannot be built."""
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
            if not any(e.uri == record.prefix for e in entities):
                raise InvalidStep(f"update_nrs: no entity named {record.prefix}")

            def moved(e: EntitySpec) -> EntitySpec:
                hosts = e.hosts if record.next_hop in e.hosts else e.hosts + (record.next_hop,)
                return e._replace(hosts=hosts, fcn=record.fcn)

            entities = tuple(moved(e) if e.uri == record.prefix else e for e in entities)
        new = replace(s, entities=entities, nrs_records=s.nrs_records + (record,))
    else:
        raise InvalidStep(step.op)
    try:
        build_fabric(new)
    except ValidationError as exc:
        raise InvalidStep(f"{','.join((step.op, *step.args))}: {exc}") from exc
    return new


def apply_migration(s: Scenario, plan: MigrationPlan) -> Scenario:
    """The scenario after every step of plan; the input's own
    ValidationError if it cannot be built, then InvalidStep, naming the
    step, for the first step that cannot apply."""
    build_fabric(s)
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
