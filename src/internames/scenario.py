"""Scenario files: a line-oriented sectioned text format, plus the runner.

Sections: [realms] [name_realms] [nodes] [links] [entities] [bindings]
[nrs] [policies] [topics] [timeline].  One record per line, fields
comma-separated; '-' marks an empty field, '+' separates multi-valued
fields.  Files round-trip: load(save(load(f))) == load(f).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from importlib import resources

from .errors import InvalidStep, ParseError, ValidationError
from .fabric import Fabric, NodeKind, RealmTech
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

SECTIONS = (
    "realms",
    "name_realms",
    "nodes",
    "links",
    "entities",
    "bindings",
    "nrs",
    "policies",
    "topics",
    "timeline",
)

TIMELINE_OPS = {
    "pull": 2,
    "push": 3,
    "publish": 3,
    "subscribe": 2,
    "search": 2,
    "fetch": 2,
    "bind": 2,
    "unbind": 2,
    "partition": 1,
    "heal": 1,
    "nrs_register": None,  # variable: record fields
    "nrs_withdraw": 2,
}


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
    args: tuple[str, ...]


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


# ------------------------------------------------------------------- parsing


def _multi(fieldtext: str) -> tuple[str, ...]:
    if fieldtext in ("-", ""):
        return ()
    return tuple(fieldtext.split("+"))


def _opt(fieldtext: str) -> str:
    return "" if fieldtext == "-" else fieldtext


def _record_from_fields(fields: list[str], where: str) -> RecordSpec:
    if len(fields) < 11 or len(fields) > 12:
        raise ParseError(f"{where}: nrs record needs 11 or 12 fields, got {len(fields)}")
    window = None
    if fields[9] != "-":
        try:
            start, _, end = fields[9].partition(":")
            window = (int(start), int(end))
        except ValueError as exc:
            raise ParseError(f"{where}: bad window {fields[9]!r}") from exc
    try:
        priority = int(fields[5])
        ttl = int(fields[6])
    except ValueError as exc:
        raise ParseError(f"{where}: bad integer field") from exc
    return RecordSpec(
        prefix=fields[0],
        protocol=fields[1],
        fcn=_opt(fields[2]),
        tech=fields[3],
        next_hop=fields[4],
        priority=priority,
        ttl=ttl,
        context_tags=_multi(fields[7]),
        location_tags=_multi(fields[8]),
        window=window,
        service=None if fields[10] == "-" else fields[10],
        scope=None if len(fields) < 12 or fields[11] == "-" else fields[11],
    )


def parse_scenario(text: str, name: str = "scenario") -> Scenario:
    sections: dict[str, list] = {s: [] for s in SECTIONS}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            if current not in sections:
                raise ParseError(f"line {lineno}: unknown section [{current}]")
            continue
        if current is None:
            raise ParseError(f"line {lineno}: record outside any section")
        where = f"line {lineno}"
        fields = [f.strip() for f in line.split(",")]
        try:
            sections[current].append(_parse_line(current, fields, where))
        except ValueError as exc:
            raise ParseError(f"{where}: {exc}") from exc
    scenario = Scenario(
        name=name,
        realms=tuple(sections["realms"]),
        name_realms=tuple(sections["name_realms"]),
        nodes=tuple(sections["nodes"]),
        links=tuple(sections["links"]),
        entities=tuple(sections["entities"]),
        bindings=tuple(sections["bindings"]),
        nrs_records=tuple(sections["nrs"]),
        policies=tuple(sections["policies"]),
        topics=tuple(sections["topics"]),
        timeline=tuple(sections["timeline"]),
    )
    validate_scenario(scenario)
    return scenario


def _parse_line(section: str, fields: list[str], where: str):
    if section == "realms":
        if len(fields) != 3:
            raise ParseError(f"{where}: realm needs id,tech,parent")
        return RealmSpec(fields[0], fields[1], None if fields[2] == "-" else fields[2])
    if section == "name_realms":
        if len(fields) < 2:
            raise ParseError(f"{where}: name realm needs id,scheme[,description]")
        return NameRealmSpec(fields[0], fields[1], ",".join(fields[2:]))
    if section == "nodes":
        if len(fields) != 3:
            raise ParseError(f"{where}: node needs id,kind,realms")
        return NodeSpec(fields[0], fields[1], _multi(fields[2]))
    if section == "links":
        if len(fields) != 4:
            raise ParseError(f"{where}: link needs a,b,realm,delay")
        return LinkSpec(fields[0], fields[1], fields[2], int(fields[3]))
    if section == "entities":
        if len(fields) != 7:
            raise ParseError(f"{where}: entity needs uri,kind,hosts,fcn,payload,keywords,description")
        keywords = tuple(fields[5].split()) if fields[5] != "-" else ()
        return EntitySpec(
            uri=fields[0],
            kind=fields[1],
            hosts=_multi(fields[2]),
            fcn=_opt(fields[3]),
            payload=_opt(fields[4]).encode(),
            keywords=keywords,
            description=_opt(fields[6]),
        )
    if section == "bindings":
        if len(fields) != 2:
            raise ParseError(f"{where}: binding needs uri,nap")
        return BindingSpec(fields[0], fields[1])
    if section == "nrs":
        return _record_from_fields(fields, where)
    if section == "policies":
        if len(fields) != 4:
            raise ParseError(f"{where}: policy needs router,prefix,action,operation")
        return PolicySpec(*fields)
    if section == "topics":
        if len(fields) != 2:
            raise ParseError(f"{where}: topic needs fcn,rendezvous")
        return TopicSpec(*fields)
    if section == "timeline":
        if len(fields) < 2:
            raise ParseError(f"{where}: timeline entry needs tick,op[,args]")
        tick = int(fields[0])
        op = fields[1]
        if op not in TIMELINE_OPS:
            raise ParseError(f"{where}: unknown timeline op {op!r}")
        argc = TIMELINE_OPS[op]
        args = tuple(fields[2:])
        if argc is not None and len(args) != argc:
            raise ParseError(f"{where}: op {op} takes {argc} args, got {len(args)}")
        return ActionSpec(tick, op, args)
    raise ParseError(f"{where}: unhandled section {section}")


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    import os

    name = os.path.splitext(os.path.basename(path))[0]
    return parse_scenario(text, name=name)


# ------------------------------------------------------------------ saving


def _fmt_multi(values) -> str:
    return "+".join(values) if values else "-"


def _fmt_opt(value) -> str:
    return value if value else "-"


def _record_fields(r: RecordSpec) -> str:
    window = f"{r.window[0]}:{r.window[1]}" if r.window else "-"
    fields = [
        r.prefix,
        r.protocol,
        _fmt_opt(r.fcn),
        r.tech,
        r.next_hop,
        str(r.priority),
        str(r.ttl),
        _fmt_multi(r.context_tags),
        _fmt_multi(r.location_tags),
        window,
        r.service or "-",
    ]
    if r.scope is not None:
        fields.append(r.scope)
    return ",".join(fields)


def save_scenario(s: Scenario) -> str:
    out = []

    def section(name, lines):
        if not lines:
            return
        out.append(f"[{name}]")
        out.extend(lines)
        out.append("")

    section("realms", [f"{r.id},{r.technology},{r.parent or '-'}" for r in s.realms])
    section("name_realms", [f"{n.id},{n.scheme},{n.description}".rstrip(",")
                            for n in s.name_realms])
    section("nodes", [f"{n.id},{n.kind},{_fmt_multi(n.realms)}" for n in s.nodes])
    section("links", [f"{l.a},{l.b},{l.realm},{l.delay}" for l in s.links])
    section("entities", [
        f"{e.uri},{e.kind},{_fmt_multi(e.hosts)},{_fmt_opt(e.fcn)},"
        f"{_fmt_opt(e.payload.decode())},{' '.join(e.keywords) or '-'},"
        f"{_fmt_opt(e.description)}"
        for e in s.entities
    ])
    section("bindings", [f"{b.uri},{b.nap}" for b in s.bindings])
    section("nrs", [_record_fields(r) for r in s.nrs_records])
    section("policies", [f"{p.router},{p.prefix},{p.action},{p.operation}"
                         for p in s.policies])
    section("topics", [f"{t.fcn},{t.rendezvous}" for t in s.topics])
    section("timeline", [
        ",".join([str(a.tick), a.op, *a.args]) for a in s.timeline
    ])
    return "\n".join(out).rstrip("\n") + "\n"


# --------------------------------------------------------------- validation


def _parse_or_fail(uri: str, where: str) -> Name:
    try:
        return parse_name(uri)
    except MalformedUri as exc:
        raise ValidationError(f"{where}: {exc}") from exc


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

    def check_name(uri, where) -> Name:
        name = _parse_or_fail(uri, where)
        realm = name_realms.get(name.realm_id)
        if realm is not None and not realm.admits(name):
            raise ValidationError(f"{where}: {uri} not admitted by name realm {name.realm_id}")
        return name

    node_realms = {}
    for n in s.nodes:
        if n.id in node_realms:
            raise ValidationError(f"duplicate node {n.id}")
        if n.kind not in {k.value for k in NodeKind}:
            raise ValidationError(f"node {n.id}: unknown kind {n.kind}")
        for rid in n.realms:
            if rid not in realm_ids:
                raise ValidationError(f"node {n.id}: undefined realm {rid}")
        node_realms[n.id] = set(n.realms)

    naps = {f"{n.id}.{rid}" for n in s.nodes for rid in n.realms}

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

    for b in s.bindings:
        check_name(b.uri, f"binding {b.uri}")
        if b.nap not in naps:
            raise ValidationError(f"binding {b.uri}: undefined nap {b.nap}")

    locators = naps | set(node_realms)
    for r in s.nrs_records:
        check_name(r.prefix, f"nrs record {r.prefix}")
        if r.protocol not in Protocol.__members__:
            raise ValidationError(f"nrs record {r.prefix}: unknown protocol {r.protocol}")
        if r.tech not in NextHopTech.__members__:
            raise ValidationError(f"nrs record {r.prefix}: unknown tech {r.tech}")
        if r.next_hop not in locators:
            raise ValidationError(f"nrs record {r.prefix}: undefined next hop {r.next_hop}")
        if r.service is not None and r.service not in {sv.value for sv in Service}:
            raise ValidationError(f"nrs record {r.prefix}: unknown service {r.service}")

    for p in s.policies:
        if p.router not in node_realms:
            raise ValidationError(f"policy: undefined router {p.router}")
        check_name(p.prefix, f"policy {p.prefix}")
        if p.action not in ("allow", "deny"):
            raise ValidationError(f"policy: unknown action {p.action}")
        if p.operation not in {op.value for op in PolicyOperation}:
            raise ValidationError(f"policy: unknown operation {p.operation}")

    for t in s.topics:
        if t.rendezvous not in node_realms:
            raise ValidationError(f"topic {t.fcn}: undefined rendezvous {t.rendezvous}")

    last_tick = None
    for a in s.timeline:
        if last_tick is not None and a.tick < last_tick:
            raise ValidationError("timeline must be sorted by tick")
        last_tick = a.tick
        _validate_action(a, naps, realm_ids, check_name)


def _validate_action(a: ActionSpec, naps, realm_ids, check_name) -> None:
    where = f"timeline t={a.tick} {a.op}"
    if a.op in ("pull", "push"):
        check_name(a.args[0], where)
        check_name(a.args[1], where)
    elif a.op in ("publish", "subscribe", "search", "fetch"):
        check_name(a.args[0], where)
    elif a.op in ("bind", "unbind"):
        check_name(a.args[0], where)
        if a.args[1] not in naps:
            raise ValidationError(f"{where}: undefined nap {a.args[1]}")
    elif a.op in ("partition", "heal"):
        if a.args[0] not in realm_ids:
            raise ValidationError(f"{where}: undefined realm {a.args[0]}")
    elif a.op == "nrs_register":
        _record_from_fields(list(a.args), where)
    elif a.op == "nrs_withdraw":
        check_name(a.args[0], where)


# ----------------------------------------------------------------- building


def _record_to_nrs(r: RecordSpec) -> NrsRecord:
    sd = ServiceDescriptor(
        protocol=Protocol[r.protocol],
        fcn=r.fcn,
        next_hop_tech=NextHopTech[r.tech],
        next_hop_address=r.next_hop,
        priority=r.priority,
        ttl_ticks=r.ttl,
        scope=r.scope,
    )
    predicate = ContextPredicate(
        time_window=r.window,
        location_tags=frozenset(r.location_tags),
        context_tags=frozenset(r.context_tags),
        service=Service(r.service) if r.service else None,
    )
    return NrsRecord(parse_name(r.prefix), sd, predicate)


def build_fabric(s: Scenario) -> Fabric:
    fabric = Fabric()
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
        name = parse_name(e.uri)
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
    for r in s.nrs_records:
        fabric.nrs.register(_record_to_nrs(r), CallerRole.ADMINISTRATOR)
    rules: dict[str, list[PolicyRule]] = {}
    for p in s.policies:
        rules.setdefault(p.router, []).append(PolicyRule(
            parse_name(p.prefix),
            PolicyAction(p.action),
            PolicyOperation(p.operation),
        ))
    for router, rule_list in rules.items():
        fabric.nodes[router].policy = AccessPolicy(tuple(rule_list))
    for b in s.bindings:
        fabric.known_names.add(parse_name(b.uri))
    for a in s.timeline:
        for arg in a.args:
            if arg.startswith("n2n://"):
                try:
                    fabric.known_names.add(parse_name(arg))
                except MalformedUri:
                    pass
    for b in s.bindings:
        fabric.bind(parse_name(b.uri), b.nap, 0)
    return fabric


# ------------------------------------------------------------------ running


@dataclass
class RunResult:
    scenario: Scenario
    fabric: Fabric
    trace_text: str
    calls: list


def _schedule_action(fabric: Fabric, a: ActionSpec, calls: list) -> None:
    def fire():
        t = fabric.now
        if a.op == "pull":
            calls.append(fabric.start_pull(parse_name(a.args[0]), parse_name(a.args[1]), t))
        elif a.op == "push":
            calls.append(fabric.start_push(
                parse_name(a.args[0]), parse_name(a.args[1]), a.args[2].encode(), t))
        elif a.op == "publish":
            calls.append(fabric.start_publish(
                parse_name(a.args[0]), a.args[1], a.args[2].encode(), t))
        elif a.op == "subscribe":
            calls.append(fabric.start_subscribe(parse_name(a.args[0]), a.args[1], t))
        elif a.op == "search":
            calls.append(fabric.start_search(
                parse_name(a.args[0]), tuple(a.args[1].split()), t))
        elif a.op == "fetch":
            calls.append(fabric.start_search(
                parse_name(a.args[0]), tuple(a.args[1].split()), t, then_pull=True))
        elif a.op == "bind":
            fabric.bind(parse_name(a.args[0]), a.args[1], t)
        elif a.op == "unbind":
            fabric.unbind(parse_name(a.args[0]), a.args[1], t)
        elif a.op == "partition":
            fabric.partition(a.args[0], t)
        elif a.op == "heal":
            fabric.heal(a.args[0], t)
        elif a.op == "nrs_register":
            fabric.nrs.register(
                _record_to_nrs(_record_from_fields(list(a.args), a.op)),
                CallerRole.ADMINISTRATOR,
            )
        elif a.op == "nrs_withdraw":
            fabric.nrs.withdraw(parse_name(a.args[0]), a.args[1])

    fabric.at(a.tick, fire)


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
            _record_from_fields(fields[1:], f"line {lineno}")
            steps.append(MigrationStep(op, tuple(fields[1:])))
        else:
            raise ParseError(f"line {lineno}: unknown migration step {op!r}")
    return MigrationPlan(tuple(steps))


def load_plan(path: str) -> MigrationPlan:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_plan(fh.read())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def apply_step(s: Scenario, step: MigrationStep) -> Scenario:
    if step.op == "replace_authoritative_resolver":
        if not any(n.kind == "nrs" for n in s.nodes):
            raise InvalidStep("no resolver node exists to take over")
        return s
    if step.op == "deploy_nested_realm":
        realm_id, tech, parent, router, repo, attach = step.args
        if any(r.id == realm_id for r in s.realms):
            raise InvalidStep(f"realm {realm_id} already exists")
        if parent not in {r.id for r in s.realms}:
            raise InvalidStep(f"parent realm {parent} does not exist")
        if attach not in {n.id for n in s.nodes}:
            raise InvalidStep(f"attach node {attach} does not exist")
        if tech not in RealmTech.__members__:
            raise InvalidStep(f"unknown technology {tech}")
        return replace(
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
    if step.op == "update_nrs":
        record = _record_from_fields(list(step.args), "update_nrs")
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
        validate_scenario(new)
        return new
    raise InvalidStep(step.op)


def apply_migration(s: Scenario, plan: MigrationPlan) -> Scenario:
    out = s
    for step in plan.steps:
        out = apply_step(out, step)
    validate_scenario(out)
    return out


# ----------------------------------------------------------------- builtins

BUILTIN_NAMES = ("fig3", "mobility-return", "reverse-multicast", "disaster", "migration")

_SCENARIO_FILES = {
    "fig3": "fig3.scn",
    "mobility-return": "mobility-return.scn",
    "reverse-multicast": "reverse-multicast.scn",
    "disaster": "disaster.scn",
    "cdn": "cdn.scn",
}


def _resource_text(filename: str) -> str:
    return resources.files("internames.scenarios").joinpath(filename).read_text()


def load_builtin(name: str) -> Scenario:
    if name == "migration":
        base = parse_scenario(_resource_text("cdn.scn"), name="cdn")
        plan = parse_plan(_resource_text("cdn-migration.plan"))
        return replace(apply_migration(base, plan), name="migration")
    if name not in _SCENARIO_FILES:
        raise ParseError(f"unknown builtin scenario {name!r}")
    return parse_scenario(_resource_text(_SCENARIO_FILES[name]), name=name)


def golden_trace(name: str) -> str:
    return _resource_text(f"{name}.golden")
