"""The simulated internetwork: realms, nodes, links, clock and trace.

Everything runs on an integer-tick, single-threaded event engine; the
trace is the canonical artifact and two runs of the same setup produce
byte-identical output.  Trace lines look like::

    t=<int> node=<id> realm=<id> event=<ENUM> msg=<int> name=<uri|-> detail=<text>

and the emitted list is totally ordered by (tick, node id, msg id).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from operator import itemgetter
from typing import NamedTuple

from .errors import (
    NoFibMatch,
    NoRoute,
    NotBound,
    NotResolvable,
    RealmViolation,
    UnknownNap,
    UnknownRealm,
    ValidationError,
)
from .name_router import (
    AccessPolicy,
    BridgeRule,
    PolicyAction,
    PolicyOperation,
    bridge,
    check_access,
)
from .names import Name, format_name
from .nrs import (
    CacheStore,
    CallerRole,
    NameResolutionService,
    NextHopTech,
    NrsRecord,
    Protocol,
    ResolutionContext,
    ServiceDescriptor,
    sd_list_text,
)
from .ors import ObjectResolutionService, OrsQuery, OrsResult
from .wire import (
    HOP_LIMIT,
    CcnRouterState,
    FibEntry,
    MessageKind,
    WireMessage,
    encode,
    fib_lookup,
)

# A realm's technology is the next-hop technology of the NAPs in it.
RealmTech = NextHopTech

PROTOCOL_OF_TECH = {
    RealmTech.IPISH: Protocol.HTTPISH,
    RealmTech.CCNISH: Protocol.CCNISH_OVER_UDPISH,
}


class NodeKind(Enum):
    HOST = "host"
    ROUTER = "router"
    CCN_ROUTER = "ccn_router"
    REPO = "repo"
    SERVER = "server"
    NAME_ROUTER = "name_router"
    ORS = "ors"
    NRS = "nrs"
    RENDEZVOUS = "rendezvous"


class EventKind(Enum):
    SEND = "SEND"
    RECV = "RECV"
    FWD = "FWD"
    ORS_Q = "ORS_Q"
    ORS_R = "ORS_R"
    NRS_Q = "NRS_Q"
    NRS_R = "NRS_R"
    BRIDGE = "BRIDGE"
    CACHE_HIT = "CACHE_HIT"
    CS_HIT = "CS_HIT"
    DELIVER = "DELIVER"
    DROP = "DROP"
    REBIND = "REBIND"


class TraceEvent(NamedTuple):
    tick: int
    node: str
    realm: str
    event: EventKind
    msg_id: int
    name: str  # canonical URI or "-"
    detail: str

    def line(self) -> str:
        tick, node, realm, event, msg_id, name, detail = self
        # _value_ skips Enum's Python-level value property; the text is the same.
        return (f"t={tick} node={node} realm={realm} event={event._value_}"
                f" msg={msg_id} name={name} detail={detail}")

    def sort_key(self) -> tuple:
        return (self.tick, self.node, self.msg_id)


# The fields of TraceEvent.sort_key, fetched in C.
_TRACE_ORDER = itemgetter(0, 1, 4)
# Builds a TraceEvent from a ready tuple, skipping NamedTuple's Python __new__.
_tuple_new = tuple.__new__


@dataclass
class NetworkRealm:
    id: str
    technology: RealmTech
    parent_realm: str | None = None
    member_nodes: set[str] = field(default_factory=set)
    fib_registrations: list[tuple[str, str]] = field(default_factory=list)  # (prefix, registrar)


@dataclass
class NetworkAttachmentPoint:
    nap_id: str
    node_id: str
    realm_id: str


@dataclass
class Link:
    a: str
    b: str
    realm: str
    delay: int = 1
    alive: bool = True

    def other(self, node: str) -> str:
        return self.b if node == self.a else self.a


@dataclass
class Node:
    id: str
    kind: NodeKind
    realms: list[str]
    http_store: dict[str, bytes] = field(default_factory=dict)  # canonical uri -> bytes
    ccn: dict[str, CcnRouterState] = field(default_factory=dict)  # realm -> state
    cache: CacheStore = field(default_factory=CacheStore)
    policy: AccessPolicy = field(default_factory=AccessPolicy)


class SimClock:
    """Monotone tick clock with a (tick, sequence)-ordered pending queue."""

    def __init__(self):
        self.now_tick = 0
        self._pending: list[tuple[int, int, object]] = []
        self._seq = itertools.count()

    def schedule(self, tick: int, fn) -> None:
        if tick < self.now_tick:
            raise ValueError("cannot schedule into the past")
        heapq.heappush(self._pending, (tick, next(self._seq), fn))

    def pop_due(self, until_tick: int | None):
        # schedule refuses the past, so each popped tick is at least now_tick.
        pending = self._pending
        while pending and (until_tick is None or pending[0][0] <= until_tick):
            tick, _, fn = heapq.heappop(pending)
            self.now_tick = tick
            yield tick, fn


@dataclass
class CallRecord:
    """One call's outcome, filled in by the engine as the call runs.

    ``Fabric.start_*`` returns the record and the engine carries it with the
    call's messages; the fabric keeps no list of calls.  ``result`` is the
    first body delivered to a pull or fetch, or ``b"subscribed"`` once a
    subscribe reaches its rendezvous.  ``error`` is the reason of the call's
    first drop, unless a result came first.  ``deliveries`` gets one (nap,
    name, body) per message of the call that reaches a binding of its target
    name.  ``search_result`` is the ORS answer to a search or fetch."""
    kind: str
    caller: Name | None
    target: str
    result: bytes | None = None
    error: str | None = None
    deliveries: list[tuple[str, Name, bytes]] = field(default_factory=list)  # (nap, name, body)
    search_result: OrsResult | None = None

    @property
    def delivery_count(self) -> int:
        return len(self.deliveries)

    @property
    def names_reached(self) -> int:
        return len({format_name(n) for _, n, _ in self.deliveries})


def _body_text(body: bytes) -> str:
    if not body:
        return "-"
    if all(33 <= c <= 126 for c in body):
        return body.decode("ascii")
    return "hex:" + body.hex()


_KIND_TO_OP = {
    MessageKind.HTTP_GET: PolicyOperation.PULL,
    MessageKind.HTTP_PUSH: PolicyOperation.PUSH,
    MessageKind.SUB: PolicyOperation.SUBSCRIBE,
    MessageKind.PUB: PolicyOperation.PUBLISH,
}

_DELIVERABLE = {MessageKind.HTTP_RESP, MessageKind.CCN_DATA, MessageKind.HTTP_PUSH}

# The query and answer events of a consult, by the kind of server asked.
_CONSULT_EVENTS = {NodeKind.NRS: (EventKind.NRS_Q, EventKind.NRS_R),
                   NodeKind.ORS: (EventKind.ORS_Q, EventKind.ORS_R)}


class Fabric:
    """Topology + event engine + trace log; all module calls run inside it.

    The clock is the only source of time: every call acts, and every event
    is stamped, at ``now``.  Later work is scheduled with ``at(tick, fn)``
    and happens when ``run`` reaches that tick."""

    def __init__(self):
        self.realms: dict[str, NetworkRealm] = {}
        self.nodes: dict[str, Node] = {}
        self.naps: dict[str, NetworkAttachmentPoint] = {}
        self.links: list[Link] = []
        self.nrs = NameResolutionService()
        self.ors = ObjectResolutionService()
        self.bindings: dict[Name, list[str]] = {}
        self.known_names: set[Name] = set()
        self.topics: dict[str, set[Name]] = {}
        self.topic_home: dict[str, str] = {}
        self.node_tags: dict[str, frozenset[str]] = {}
        self.clock = SimClock()
        self.trace: list[TraceEvent] = []
        self.messages: dict[int, WireMessage] = {}
        self.response_of: dict[int, int] = {}  # response msg -> request msg
        self.encapsulations: list[tuple[int, int, str]] = []  # (outer, inner, nested realm)
        self._msg_ids = itertools.count(1)
        self._adjacency: dict[tuple[str, str], list[tuple[str, Link]]] = {}
        self._routes: dict[tuple[str, str], dict[str, tuple[str, ...]]] = {}
        self._roots: dict[tuple[str, str], str] = {}
        self._links: dict[tuple[str, str, str], Link | None] = {}
        self._servers: dict[tuple[str, NodeKind], tuple[str, int, str] | None] = {}

    # ---------------------------------------------------------------- topology

    def add_realm(self, realm_id: str, tech: RealmTech, parent: str | None = None) -> NetworkRealm:
        if realm_id in self.realms:
            raise ValueError(f"realm {realm_id} already exists")
        if parent is not None and parent not in self.realms:
            raise UnknownRealm(parent)
        realm = NetworkRealm(realm_id, tech, parent)
        self.realms[realm_id] = realm
        return realm

    def add_node(self, node_id: str, kind: NodeKind, realm_ids: list[str]) -> Node:
        if node_id in self.nodes:
            raise ValueError(f"node {node_id} already exists")
        for rid in realm_ids:
            if rid not in self.realms:
                raise UnknownRealm(rid)
        node = Node(node_id, kind, list(realm_ids))
        self.nodes[node_id] = node
        self.node_tags[node_id] = frozenset({"normal"})
        for rid in realm_ids:
            realm = self.realms[rid]
            realm.member_nodes.add(node_id)
            nap_id = f"{node_id}.{rid}"
            self.naps[nap_id] = NetworkAttachmentPoint(nap_id, node_id, rid)
            if realm.technology is RealmTech.CCNISH:
                node.ccn[rid] = CcnRouterState()
        return node

    def add_link(self, a: str, b: str, realm_id: str, delay: int = 1) -> Link:
        realm = self.realms.get(realm_id)
        if realm is None:
            raise UnknownRealm(realm_id)
        for n in (a, b):
            if n not in realm.member_nodes:
                raise RealmViolation(f"{n} is not a member of realm {realm_id}")
        if delay < 1:
            # Route search and its stub shortcut assume every hop costs time.
            raise ValueError(f"link {a}-{b}: delay must be >= 1")
        link = Link(a, b, realm_id, delay)
        self.links.append(link)
        for end in {a, b}:
            adjacent = self._adjacency.setdefault((realm_id, end), [])
            adjacent.append((link.other(end), link))
            # stable: parallel links are cheapest first, equal delays in the order added
            adjacent.sort(key=lambda pair: (pair[0], pair[1].delay))
        self._topology_changed()
        return link

    def _topology_changed(self) -> None:
        self._routes.clear()
        self._roots.clear()
        self._links.clear()
        self._servers.clear()

    def host_content(self, node_id: str, name: Name, payload: bytes, fcn: str = "") -> None:
        node = self.nodes[node_id]
        node.http_store[format_name(name)] = payload
        if fcn:
            for rid, state in node.ccn.items():
                state.repo[fcn] = payload

    def build_fibs(self) -> None:
        """Populate every CCNISH realm FIB from its members' own prefixes."""
        adverts: dict[str, list[tuple[str, str]]] = {}
        for node in self.nodes.values():
            for rid, state in node.ccn.items():
                for prefix in sorted(state.repo):
                    adverts.setdefault(rid, []).append((prefix, node.id))
        for fcn, home in sorted(self.topic_home.items()):
            node = self.nodes[home]
            for rid in node.realms:
                if self.realms[rid].technology is RealmTech.CCNISH:
                    adverts.setdefault(rid, []).append((fcn, home))
        # A member's next hop toward an owner is the same for every prefix the
        # owner advertises, so each (realm, owner) is routed once, into the
        # members' Fibs grouped by next hop; a group shares one FibEntry per
        # prefix, and every Fib still gets its entries in advert order.
        for rid, entries in sorted(adverts.items()):
            realm = self.realms[rid]
            routes: dict[str, dict[str, list]] = {}
            for prefix, owner in entries:
                realm.fib_registrations.append((prefix, owner))
                fibs_by_hop = routes.get(owner)
                if fibs_by_hop is None:
                    fibs_by_hop = routes[owner] = {}
                    for member in realm.member_nodes:
                        if member == owner:
                            continue
                        path = self._path(rid, member, owner)
                        if path is None or len(path) < 2:
                            continue
                        fibs_by_hop.setdefault(path[1], []).append(self.nodes[member].ccn[rid].fib)
                for hop, fibs in fibs_by_hop.items():
                    entry = FibEntry(prefix, hop)
                    for fib in fibs:
                        fib.append(entry)

    # ---------------------------------------------------------------- helpers

    @property
    def now(self) -> int:
        return self.clock.now_tick

    def new_msg_id(self) -> int:
        return next(self._msg_ids)

    def _register_msg(self, msg: WireMessage) -> WireMessage:
        self.messages[msg.msg_id] = msg
        return msg

    def _new_msg(self, **fields) -> WireMessage:
        return self._register_msg(WireMessage(msg_id=self.new_msg_id(), **fields))

    def at(self, tick: int, fn) -> None:
        self.clock.schedule(tick, fn)

    def _emit(self, node, realm, event, msg_id, name, detail) -> None:
        uri = name.uri if isinstance(name, Name) else (name or "-")
        self.trace.append(_tuple_new(TraceEvent, (self.clock.now_tick, node, realm, event,
                                                  msg_id, uri, detail)))

    def sorted_trace(self) -> list[TraceEvent]:
        return sorted(self.trace, key=_TRACE_ORDER)

    def trace_text(self) -> str:
        return "\n".join(map(TraceEvent.line, self.sorted_trace()))

    def _link_between(self, realm_id: str, a: str, b: str) -> Link | None:
        """The cheapest alive link from a to b: the one the route search prices.

        Memoised per (realm, a, b) beside the route memos; liveness only
        changes in _set_edge, which clears them."""
        key = (realm_id, a, b)
        try:
            return self._links[key]
        except KeyError:
            pass
        found = None
        for nbr, link in self._adjacency.get((realm_id, a), ()):
            if nbr == b and link.alive:
                found = link
                break
        self._links[key] = found
        return found

    def _path(self, realm_id: str, src: str, dst: str) -> list[str] | None:
        """Shortest path by total delay, ties broken by node-id order.

        Every search runs from its root to completion, and its tree (each
        settled node's path) is kept per (realm, root).  A stub, a node whose
        alive links all lead to one neighbour, is not a root: every path out
        of it starts with that neighbour, and no shortest path from the
        neighbour comes back through it, so its route to dst is itself
        followed by the neighbour's route to dst, ties included.  The trees
        and the stub test are memoised until add_link, partition or heal;
        add_node need not clear them, as a new node has no links."""
        if src == dst:
            return [src]
        key = (realm_id, src)
        root = self._roots.get(key)
        if root is None:
            nbrs = {nbr for nbr, link in self._adjacency.get(key, ()) if link.alive}
            root = self._roots[key] = nbrs.pop() if len(nbrs) == 1 else src
        tree = self._routes.get((realm_id, root))
        if tree is None:
            tree = self._routes[(realm_id, root)] = self._dijkstra(realm_id, root)
        route = tree.get(dst)
        if route is None:
            return None
        return list(route) if root == src else [src, *route]

    def _dijkstra(self, realm_id: str, root: str) -> dict[str, tuple[str, ...]]:
        """Every node reachable from root in the realm -> its path from root."""
        # (delay, path) is unique per push, so pops follow a total order and
        # equal delays fall to the lexicographically smaller node-id path;
        # a node's first pop is its path, as in a search stopped there.
        adjacency = self._adjacency
        settled: dict[str, tuple[str, ...]] = {}
        best: dict[str, tuple[int, tuple[str, ...]]] = {root: (0, (root,))}
        frontier = [(0, (root,))]
        while frontier:
            dist, path = heapq.heappop(frontier)
            node = path[-1]
            if node in settled:
                continue
            settled[node] = path
            for nbr, link in adjacency.get((realm_id, node), ()):
                if not link.alive or nbr in settled:
                    continue
                cand = (dist + link.delay, path + (nbr,))
                if nbr not in best or cand < best[nbr]:
                    best[nbr] = cand
                    heapq.heappush(frontier, cand)
        return settled

    def _path_delay(self, path: list[str], realm_id: str) -> int:
        total = 0
        for a, b in zip(path, path[1:]):
            total += self._link_between(realm_id, a, b).delay
        return total

    def locate(self, locator: str) -> tuple[str, str | None]:
        """Map a locator to (node, realm-or-None)."""
        nap = self.naps.get(locator)
        if nap is not None:
            return nap.node_id, nap.realm_id
        if locator in self.nodes:
            return locator, None
        raise NoRoute(f"unknown locator {locator}")

    def node_ctx(self, node_id: str, location: str) -> ResolutionContext:
        return ResolutionContext(
            now_tick=self.clock.now_tick,
            location_tag=location,
            context_tags=self.node_tags[node_id],
        )

    def _nearest_server(self, node_id: str, kind: NodeKind) -> tuple[str, int, str] | None:
        """Closest reachable server of the given kind: (server, delay, realm).

        Ties go to the lower realm id, then the lower node id, whatever the
        scan order.  Memoised per (node, kind) beside the route memo."""
        key = (node_id, kind)
        if key in self._servers:
            return self._servers[key]
        best = None
        for rid in self.nodes[node_id].realms:
            for member in self.realms[rid].member_nodes:
                if self.nodes[member].kind is not kind:
                    continue
                path = self._path(rid, node_id, member)
                if path is None:
                    continue
                cand = (self._path_delay(path, rid), rid, member)
                if best is None or cand < best:
                    best = cand
        found = None if best is None else (best[2], best[0], best[1])
        self._servers[key] = found
        return found

    def _gateway(self, realm_id: str, node_id: str, toward: set[str]) -> str | None:
        """The name-router that carries traffic from node_id out of realm_id.

        The first reachable one, by node id, that borders a realm in toward;
        failing that, the first reachable one."""
        return min((n for n in self.realms[realm_id].member_nodes
                    if self.nodes[n].kind is NodeKind.NAME_ROUTER
                    and self._path(realm_id, node_id, n) is not None),
                   key=lambda n: (toward.isdisjoint(self.nodes[n].realms), n), default=None)

    # ---------------------------------------------------------------- bindings

    def bind(self, name: Name, nap_id: str) -> None:
        nap = self.naps.get(nap_id)
        if nap is None:
            raise UnknownNap(nap_id)
        if name not in self.ors and name not in self.known_names:
            raise ValidationError(f"name {format_name(name)} is neither registered nor declared")
        naps = self.bindings.setdefault(name, [])
        if nap_id in naps:
            return
        naps.append(nap_id)
        naps.sort()
        self._emit(nap.node_id, nap.realm_id, EventKind.REBIND, 0, name, f"bind nap={nap_id}")
        self._register_host_record(name, nap)

    def unbind(self, name: Name, nap_id: str) -> None:
        naps = self.bindings.get(name, [])
        if nap_id not in naps:
            raise NotBound(f"{format_name(name)} at {nap_id}")
        naps.remove(nap_id)
        nap = self.naps[nap_id]
        self._emit(nap.node_id, nap.realm_id, EventKind.REBIND, 0, name, f"unbind nap={nap_id}")
        self.nrs.withdraw(name, nap_id)

    def _register_host_record(self, name: Name, nap: NetworkAttachmentPoint) -> None:
        tech = self.realms[nap.realm_id].technology
        sd = ServiceDescriptor(
            protocol=PROTOCOL_OF_TECH[tech],
            fcn=format_name(name) if tech is RealmTech.CCNISH else "",
            next_hop_tech=tech,
            next_hop_address=nap.nap_id,
            priority=0,
            scope=nap.realm_id,
        )
        self.nrs.register(NrsRecord(name, sd), CallerRole.ADMINISTRATOR)

    def bindings_of(self, name: Name) -> list[NetworkAttachmentPoint]:
        return [self.naps[n] for n in self.bindings.get(name, [])]

    def first_binding(self, name: Name) -> NetworkAttachmentPoint:
        naps = self.bindings_of(name)
        if not naps:
            raise NotBound(format_name(name))
        return naps[0]

    # ---------------------------------------------------------------- partition

    def partition(self, realm_id: str) -> None:
        self._set_edge(realm_id, False, "disaster")

    def heal(self, realm_id: str) -> None:
        self._set_edge(realm_id, True, "normal")

    def _set_edge(self, realm_id: str, alive: bool, tag: str) -> None:
        """Set every link that crosses the realm's boundary alive or dead and
        give its members the context tag."""
        realm = self.realms.get(realm_id)
        if realm is None:
            raise UnknownRealm(realm_id)
        for link in self.links:
            crosses = (link.a in realm.member_nodes) != (link.b in realm.member_nodes)
            if link.realm != realm_id and crosses:
                link.alive = alive
        for node in realm.member_nodes:
            self.node_tags[node] = frozenset({tag})
        self._topology_changed()

    # ---------------------------------------------------------------- engine

    def run(self, until_tick: int | None = None) -> None:
        for _tick, fn in self.clock.pop_due(until_tick):
            fn()
        if until_tick is not None:
            self.clock.now_tick = max(self.clock.now_tick, until_tick)

    def run_until_idle(self) -> None:
        self.run(None)

    # ---------------------------------------------------------------- transport

    def send(self, from_nap: str, to_address: str, payload: WireMessage) -> int:
        """Public single-message send; endpoints must share the realm or the
        destination must be a boundary name-router of it."""
        nap = self.naps.get(from_nap)
        if nap is None:
            raise UnknownNap(from_nap)
        dst_node, dst_realm = self.locate(to_address)
        realm = self.realms[nap.realm_id]
        if dst_node not in realm.member_nodes:
            raise RealmViolation(
                f"{to_address} is outside realm {nap.realm_id} and not a boundary router"
            )
        if dst_realm is not None and dst_realm != nap.realm_id:
            if self.nodes[dst_node].kind is not NodeKind.NAME_ROUTER:
                raise RealmViolation(f"{to_address} crosses out of realm {nap.realm_id}")
        if self._path(nap.realm_id, nap.node_id, dst_node) is None:
            raise NoRoute(f"no path from {nap.node_id} to {dst_node} in {nap.realm_id}")
        self._register_msg(payload)
        self._transmit(payload, nap.node_id, nap.realm_id, dst_node, EventKind.SEND, None)
        return payload.msg_id

    def _drop(self, node, realm_id, msg, detail, call) -> None:
        self._emit(node, realm_id, EventKind.DROP, msg.msg_id, msg.target_name, detail)
        self._fail(call, detail)

    def _drop_unsent(self, node, realm_id, name, detail, call) -> None:
        """Drop a request that never went on the wire, under a fresh message id."""
        self._emit(node, realm_id, EventKind.DROP, self.new_msg_id(), name, detail)
        self._fail(call, detail)

    def _fail(self, call, reason) -> None:
        """Record a call's first failure, unless it already has a result."""
        if call is not None and call.error is None and call.result is None:
            call.error = reason

    def _no_path_detail(self, realm_id: str) -> str:
        severed = any(not l.alive and l.realm == realm_id for l in self.links)
        return "partitioned" if severed else "no-route"

    def _transmit(self, msg, src, realm_id, dst_node, first_event, call,
                  on_arrive=None, detail_extra="") -> None:
        path = self._path(realm_id, src, dst_node)
        if path is None:
            self._drop(src, realm_id, msg, self._no_path_detail(realm_id), call)
            return
        detail = f"to={dst_node} kind={msg.kind._value_}"
        if detail_extra:
            detail += " " + detail_extra
        self._emit(src, realm_id, first_event, msg.msg_id, msg.target_name, detail)
        if len(path) == 1:
            self.at(self.clock.now_tick, partial(self._arrive, msg, src, realm_id, call,
                                                 on_arrive))
            return
        self._schedule_hop(msg, realm_id, path, 1, call, on_arrive)

    def _schedule_hop(self, msg, realm_id, path, i, call, on_arrive) -> None:
        prev, node = path[i - 1], path[i]
        link = self._link_between(realm_id, prev, node)
        if link is None:
            # Link died after the path was computed; recompute from prev.
            fresh = self._path(realm_id, prev, path[-1])
            if fresh is None:
                self.at(self.clock.now_tick, lambda: self._drop(
                    prev, realm_id, msg, self._no_path_detail(realm_id), call))
                return
            self._schedule_hop(msg, realm_id, fresh, 1, call, on_arrive)
            return
        if self.realms[realm_id].parent_realm is not None:
            self._tunnel_hop(msg, realm_id, path, i, call, on_arrive)
            return
        self.at(self.clock.now_tick + link.delay,
                partial(self._landed, msg, realm_id, path, i, call, on_arrive))

    def _landed(self, msg, realm_id, path, i, call, on_arrive) -> None:
        """msg reached path[i]: arrive if it is the last hop, else forward."""
        node = path[i]
        if i == len(path) - 1:
            self._arrive(msg, node, realm_id, call, on_arrive)
            return
        self._emit(node, realm_id, EventKind.FWD, msg.msg_id, msg.target_name,
                   f"to={path[-1]} kind={msg.kind._value_}")
        self._schedule_hop(msg, realm_id, path, i + 1, call, on_arrive)

    def _tunnel_hop(self, msg, realm_id, path, i, call, on_arrive) -> None:
        """Carry a nested-realm link hop as a payload message in the parent."""
        prev, node = path[i - 1], path[i]
        parent = self.realms[realm_id].parent_realm
        outer = self._new_msg(kind=MessageKind.HTTP_PUSH, body=encode(msg))
        self.encapsulations.append((outer.msg_id, msg.msg_id, realm_id))

        def resume():
            self._emit(node, parent, EventKind.RECV, outer.msg_id, "-",
                       f"tunnel realm={realm_id} inner={msg.msg_id}")
            self._landed(msg, realm_id, path, i, call, on_arrive)

        self._transmit(outer, prev, parent, node, EventKind.SEND, call,
                       on_arrive=resume, detail_extra=f"tunnel realm={realm_id} inner={msg.msg_id}")

    # ---------------------------------------------------------------- consults

    def _consult(self, node_id, kind, realm_id, name, query, answer, call, cont) -> None:
        """Ask the nearest server of kind: its query event now, its answer
        event and cont after the round trip.

        query is the query event's detail; answer() gives the answer event's
        detail and the value cont receives.  With no server reachable the
        consult is dropped and cont receives None."""
        server = self._nearest_server(node_id, kind)
        if server is None:
            self._drop_unsent(node_id, realm_id, name, f"{kind.value}-unreachable", call)
            self.at(self.clock.now_tick, lambda: cont(None))
            return
        _srv, delay, srv_realm = server
        query_event, answer_event = _CONSULT_EVENTS[kind]
        qid = self.new_msg_id()
        self._emit(node_id, srv_realm, query_event, qid, name, query)

        def respond():
            detail, value = answer()
            self._emit(node_id, srv_realm, answer_event, qid, name, detail)
            cont(value)

        self.at(self.clock.now_tick + 2 * delay, respond)

    def consult_nrs(self, node_id: str, name: Name, location: str,
                    call, cont, cache: CacheStore | None = None) -> None:
        """Resolve over the fabric: NRS_Q now, NRS_R after the round trip.

        cont receives the descriptor list, or None when unresolvable."""
        if cache is not None:
            hit = cache.lookup(name, self.node_ctx(node_id, location))
            if hit is not None:
                self._emit(node_id, location, EventKind.CACHE_HIT, self.new_msg_id(), name,
                           sd_list_text(hit))
                self.at(self.clock.now_tick, lambda: cont(hit))
                return

        def answer():
            ctx = self.node_ctx(node_id, location)
            try:
                sds = self.nrs.resolve(name, ctx)
            except NotResolvable:
                self._fail(call, "not-resolvable")
                return "no-record", None
            if cache is not None:
                cache.store(name, ctx, sds)
            return sd_list_text(sds), sds

        tags = "+".join(sorted(self.node_tags[node_id])) or "-"
        self._consult(node_id, NodeKind.NRS, location, name, f"loc={location} tags={tags}",
                      answer, call, cont)

    def consult_ors(self, node_id: str, keywords: tuple[str, ...], call, cont) -> None:
        def answer():
            result = self.ors.search(OrsQuery(tuple(keywords)))
            call.search_result = result
            return "results=" + (";".join(format_name(n) for n in result.names) or "-"), result

        self._consult(node_id, NodeKind.ORS, self.nodes[node_id].realms[0], "-",
                      f"keywords={','.join(keywords) or '-'}", answer, call, cont)

    # ---------------------------------------------------------------- arrivals

    def _arrive(self, msg, node_id, realm_id, call, on_arrive) -> None:
        if on_arrive is not None:
            on_arrive()
            return
        node = self.nodes[node_id]
        if msg.kind is MessageKind.CCN_DATA and realm_id in node.ccn and msg.target_fcn:
            node.ccn[realm_id].content_store.insert(msg.target_fcn, msg.body)
        if msg.kind in _DELIVERABLE and self._bound_here(msg.target_name, node_id, realm_id):
            self._deliver(msg, node_id, realm_id, call)
            return
        if msg.kind is MessageKind.CCN_INTEREST:
            self._ccn_arrive(msg, node_id, realm_id, call)
            return
        if node.kind is NodeKind.NAME_ROUTER:
            if msg.kind in (MessageKind.HTTP_GET,):
                self._router_ingress(msg, node_id, realm_id, call)
                return
            if msg.kind in _DELIVERABLE:
                self._router_egress(msg, node_id, realm_id, call)
                return
            if msg.kind in (MessageKind.SUB, MessageKind.PUB):
                self._router_relay_pubsub(msg, node_id, realm_id, call)
                return
        if msg.kind is MessageKind.HTTP_GET:
            self._recv(msg, node_id, realm_id)
            self._serve_http(msg, node_id, realm_id, call)
            return
        if msg.kind in (MessageKind.SUB, MessageKind.PUB) and node.kind is NodeKind.RENDEZVOUS:
            self._rendezvous(msg, node_id, realm_id, call)
            return
        if msg.kind in _DELIVERABLE:
            self._drop(node_id, realm_id, msg, "unreachable-name", call)
            return
        self._drop(node_id, realm_id, msg, "unhandled", call)

    def _bound_here(self, name, node_id, realm_id) -> bool:
        return f"{node_id}.{realm_id}" in self.bindings.get(name, ())

    def _recv(self, msg, node_id, realm_id, extra="") -> None:
        kind = msg.kind._value_
        detail = f"kind={kind} {extra}" if extra else f"kind={kind}"
        self._emit(node_id, realm_id, EventKind.RECV, msg.msg_id, msg.target_name, detail)

    def _deliver(self, msg, node_id, realm_id, call) -> None:
        nap_id = f"{node_id}.{realm_id}"
        self._recv(msg, node_id, realm_id)
        self._emit(node_id, realm_id, EventKind.DELIVER, msg.msg_id, msg.target_name,
                   f"nap={nap_id} body={_body_text(msg.body)}")
        if call is not None:
            call.deliveries.append((nap_id, msg.target_name, msg.body))
            if call.kind in ("pull", "fetch") and call.result is None:
                call.result = msg.body

    # ------------------------------------------------------------ HTTP serving

    def _serve_http(self, msg, node_id, realm_id, call) -> None:
        """Answer a GET whose RECV is already logged from the node's HTTP store."""
        uri = format_name(msg.target_name) if msg.target_name else ""
        body = self.nodes[node_id].http_store.get(uri)
        if body is None:
            self._drop(node_id, realm_id, msg, "not-found", call)
            return
        self._respond(msg, MessageKind.HTTP_RESP, body, node_id, realm_id, call)

    def _respond(self, request, kind, body, node_id, realm_id, call) -> None:
        """Answer a request from a store: send body back to the request's
        source name as a response of kind."""
        resp = self._new_msg(kind=kind, target_fcn=request.target_fcn,
                             target_name=request.source_name,
                             source_name=request.target_name, body=body)
        self.response_of[resp.msg_id] = request.msg_id
        self.deliver_to_name(resp, node_id, realm_id, call)

    # ------------------------------------------------------------- CCN forward

    def ccn_start(self, interest, node_id, realm_id, send_event, call) -> None:
        """Answer an interest at a CCN node from its repo or content store, or
        forward it by FIB, logging the hop as ``send_event``."""
        state = self.nodes[node_id].ccn[realm_id]
        fcn = interest.target_fcn
        if fcn in state.repo:
            self._respond(interest, MessageKind.CCN_DATA, state.repo[fcn], node_id, realm_id, call)
            return
        cached = state.content_store.get(fcn)
        if cached is not None:
            self._emit(node_id, realm_id, EventKind.CS_HIT, interest.msg_id,
                       interest.target_name, f"fcn={fcn}")
            self._respond(interest, MessageKind.CCN_DATA, cached, node_id, realm_id, call)
            return
        if interest.hop_count >= HOP_LIMIT:
            self._drop(node_id, realm_id, interest, "hop-limit", call)
            return
        try:
            next_hop = fib_lookup(state.fib, fcn)
        except NoFibMatch:
            self._drop(node_id, realm_id, interest, "no-fib-match", call)
            return
        self._transmit(interest.bumped(), node_id, realm_id, next_hop, send_event, call)

    def _ccn_arrive(self, interest, node_id, realm_id, call) -> None:
        if realm_id not in self.nodes[node_id].ccn:
            self._drop(node_id, realm_id, interest, "not-a-ccn-node", call)
            return
        self._recv(interest, node_id, realm_id, f"fcn={interest.target_fcn}")
        self.ccn_start(interest, node_id, realm_id, EventKind.FWD, call)

    # ------------------------------------------------------- named return path

    def deliver_to_name(self, msg, node_id, realm_id, call) -> None:
        """Forward a name-addressed message toward its target's bindings.

        Local bindings get direct copies; anything else leaves through the
        realm's boundary name-router, which re-resolves the name."""
        name = msg.target_name
        naps = self.bindings_of(name) if name is not None else []
        if not naps:
            self._drop(node_id, realm_id, msg, "unreachable-name", call)
            return
        local = [nap for nap in naps if nap.realm_id == realm_id]
        remote = [nap for nap in naps if nap.realm_id != realm_id]
        for nap in local:
            self._transmit(msg, node_id, realm_id, nap.node_id, EventKind.SEND, call)
        if remote:
            # The serving node may itself be the boundary router; sending to
            # itself just runs the egress re-resolution locally.
            gateway = self._gateway(realm_id, node_id, {nap.realm_id for nap in remote})
            if gateway is None:
                self._drop(node_id, realm_id, msg, "unreachable-name", call)
                return
            self._transmit(msg, node_id, realm_id, gateway, EventKind.SEND, call)

    def _router_egress(self, msg, node_id, realm_id, call) -> None:
        """A boundary router received a name-addressed message: resolve the
        name now and forward toward the current bindings, bridging protocols."""
        if not self._router_admits(msg, node_id, realm_id, call):
            return
        node = self.nodes[node_id]

        def onto(sds):
            if sds is None:
                self._drop(node_id, realm_id, msg, "unreachable-name", call)
                return
            seen = set()
            for sd in sds:
                out_realm = sd.scope or realm_id
                key = (out_realm, sd.next_hop_address)
                if key in seen:
                    continue
                seen.add(key)
                if out_realm not in node.realms:
                    self._drop(node_id, realm_id, msg, "unreachable-name", call)
                    continue
                self._forward_out(msg, sd, node_id, realm_id, out_realm, call)

        self.consult_nrs(node_id, msg.target_name, realm_id, call, onto)

    def _forward_out(self, msg, sd, node_id, realm_in, realm_out, call) -> None:
        dst_node, _ = self.locate(sd.next_hop_address)
        if self.realms[realm_in].technology is self.realms[realm_out].technology:
            self._transmit(msg, node_id, realm_out, dst_node, EventKind.FWD, call)
            return
        out = self._bridged(msg, realm_in, realm_out, sd)
        self._transmit(out, node_id, realm_out, dst_node, EventKind.BRIDGE, call)

    def _bridged(self, msg, realm_in, realm_out, sd) -> WireMessage:
        rule = BridgeRule(PROTOCOL_OF_TECH[self.realms[realm_in].technology],
                          PROTOCOL_OF_TECH[self.realms[realm_out].technology],
                          realm_in, realm_out)
        return self._register_msg(bridge(msg, rule, sd))

    # ------------------------------------------------------------ router paths

    def _router_admits(self, msg, node_id, realm_id, call) -> bool:
        """Log a router's RECV and check the sender against its access policy.

        CCN data that answers no request is a push from a CCNISH realm and is
        checked as one; responses and other kinds with no policy operation
        pass unchecked."""
        self._recv(msg, node_id, realm_id)
        op = _KIND_TO_OP.get(msg.kind)
        if msg.kind is MessageKind.CCN_DATA and msg.msg_id not in self.response_of:
            op = PolicyOperation.PUSH
        if op is not None and msg.source_name is not None and check_access(
                self.nodes[node_id].policy, msg.source_name, op) is PolicyAction.DENY:
            self._drop(node_id, realm_id, msg, "access-denied", call)
            return False
        return True

    def _router_ingress(self, msg, node_id, realm_id, call) -> None:
        """A pull request reached a boundary router: check access, resolve the
        target for the next realm and bridge or relay it onward."""
        if not self._router_admits(msg, node_id, realm_id, call):
            return
        others = sorted(r for r in self.nodes[node_id].realms if r != realm_id)
        if not others:
            self._serve_http(msg, node_id, realm_id, call)
            return
        self._try_realms(msg, node_id, realm_id, others, call)

    def _try_realms(self, msg, node_id, realm_in, candidates, call) -> None:
        realm_out = candidates[0]
        rest = candidates[1:]

        def onto(sds):
            if sds is None:
                if rest:
                    self._try_realms(msg, node_id, realm_in, rest, call)
                else:
                    self._drop(node_id, realm_in, msg, "not-resolvable", call)
                return
            sd = sds[0]
            if self.realms[realm_out].technology is RealmTech.CCNISH:
                interest = self._bridged(msg, realm_in, realm_out, sd)
                self.ccn_start(interest, node_id, realm_out, EventKind.BRIDGE, call)
            else:
                dst_node, _ = self.locate(sd.next_hop_address)
                self._transmit(msg, node_id, realm_out, dst_node, EventKind.FWD, call)

        self.consult_nrs(node_id, msg.target_name, realm_out, call, onto)

    # ------------------------------------------------------------------ pubsub

    def _router_relay_pubsub(self, msg, node_id, realm_id, call) -> None:
        if not self._router_admits(msg, node_id, realm_id, call):
            return
        node = self.nodes[node_id]
        home = self.topic_home.get(msg.target_fcn)
        if home is None:
            self._drop(node_id, realm_id, msg, "unknown-topic", call)
            return
        for rid in sorted(r for r in node.realms if r != realm_id):
            if home in self.realms[rid].member_nodes and \
                    self._path(rid, node_id, home) is not None:
                self._transmit(msg, node_id, rid, home, EventKind.FWD, call)
                return
        self._drop(node_id, realm_id, msg, "unreachable-topic", call)

    def _rendezvous(self, msg, node_id, realm_id, call) -> None:
        self._recv(msg, node_id, realm_id, f"topic={msg.target_fcn}")
        subscribers = self.topics.setdefault(msg.target_fcn, set())
        if msg.kind is MessageKind.SUB:
            subscribers.add(msg.source_name)
            if call is not None:
                call.result = b"subscribed"
            return
        for sub in sorted(subscribers, key=format_name):
            out = self._push_msg(realm_id, msg.target_fcn, sub, msg.source_name, msg.body)
            self.deliver_to_name(out, node_id, realm_id, call)

    # ----------------------------------------------------------------- actions

    def start_pull(self, caller: Name, target: Name,
                   call: CallRecord | None = None) -> CallRecord:
        call = call or CallRecord("pull", caller, format_name(target))
        nap = self.first_binding(caller)
        node_id, realm_id = nap.node_id, nap.realm_id
        node = self.nodes[node_id]

        def onto(sds):
            if sds is None:
                self._drop_unsent(node_id, realm_id, target, "not-resolvable", call)
                return
            sd = sds[0]
            if self.realms[realm_id].technology is RealmTech.CCNISH:
                interest = self._new_msg(kind=MessageKind.CCN_INTEREST, target_fcn=sd.fcn,
                                         target_name=target, source_name=caller)
                self.ccn_start(interest, node_id, realm_id, EventKind.SEND, call)
            else:
                get = self._new_msg(kind=MessageKind.HTTP_GET, target_name=target,
                                    source_name=caller)
                dst_node, _ = self.locate(sd.next_hop_address)
                self._transmit(get, node_id, realm_id, dst_node, EventKind.SEND, call)

        self.consult_nrs(node_id, target, realm_id, call, onto, cache=node.cache)
        return call

    def start_push(self, caller: Name, target: Name, body: bytes) -> CallRecord:
        call = CallRecord("push", caller, format_name(target))
        nap = self.first_binding(caller)
        node_id, realm_id = nap.node_id, nap.realm_id
        node = self.nodes[node_id]

        def onto(sds):
            if sds is None:
                self._drop_unsent(node_id, realm_id, target, "not-resolvable", call)
                return
            push = self._push_msg(realm_id, format_name(target), target, caller, body)
            self.deliver_to_name(push, node_id, realm_id, call)

        self.consult_nrs(node_id, target, realm_id, call, onto, cache=node.cache)
        return call

    def _push_msg(self, realm_id, fcn, target, source, body) -> WireMessage:
        """A name-addressed push: CCN data in a CCNISH realm, else an HTTP push."""
        if self.realms[realm_id].technology is RealmTech.CCNISH:
            return self._new_msg(kind=MessageKind.CCN_DATA, target_fcn=fcn,
                                 target_name=target, source_name=source, body=body)
        return self._new_msg(kind=MessageKind.HTTP_PUSH, target_name=target,
                             source_name=source, body=body)

    def start_subscribe(self, caller: Name, topic_fcn: str) -> CallRecord:
        call = CallRecord("subscribe", caller, topic_fcn)
        self._pubsub_send(caller, topic_fcn, MessageKind.SUB, b"", call)
        return call

    def start_publish(self, caller: Name, topic_fcn: str, body: bytes) -> CallRecord:
        call = CallRecord("publish", caller, topic_fcn)
        self._pubsub_send(caller, topic_fcn, MessageKind.PUB, body, call)
        return call

    def _pubsub_send(self, caller, topic_fcn, kind, body, call) -> None:
        nap = self.first_binding(caller)
        node_id, realm_id = nap.node_id, nap.realm_id
        home = self.topic_home.get(topic_fcn)
        if home is None:
            self._emit(node_id, realm_id, EventKind.DROP, self.new_msg_id(), "-",
                       f"unknown-topic topic={topic_fcn}")
            self._fail(call, "unknown-topic")
            return
        msg = self._new_msg(kind=kind, target_fcn=topic_fcn, source_name=caller, body=body)
        if home in self.realms[realm_id].member_nodes:
            self._transmit(msg, node_id, realm_id, home, EventKind.SEND, call)
            return
        gateway = self._gateway(realm_id, node_id, set(self.nodes[home].realms))
        if gateway is None:
            self._drop(node_id, realm_id, msg, "unreachable-topic", call)
            return
        self._transmit(msg, node_id, realm_id, gateway, EventKind.SEND, call)

    def start_search(self, caller: Name, keywords: tuple[str, ...],
                     then_pull: bool = False) -> CallRecord:
        call = CallRecord("fetch" if then_pull else "search", caller, ",".join(keywords))
        nap = self.first_binding(caller)

        def onto(result):
            if result is None:
                return
            if then_pull and result.names:
                self.start_pull(caller, result.names[0], call=call)

        self.consult_ors(nap.node_id, tuple(keywords), call, onto)
        return call
