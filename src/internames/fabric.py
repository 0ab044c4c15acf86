"""The simulated internetwork: realms, nodes, links, clock and trace.

Everything runs on an integer-tick, single-threaded event engine; the
trace is the canonical artifact and two runs of the same setup produce
byte-identical output.  Trace lines look like::

    t=<int> node=<id> realm=<id> event=<ENUM> msg=<int> name=<uri|-> detail=<text>

and the rendered trace is sorted by (tick, node id, msg id).  Events that
tie on all three keys, as a RECV and the DELIVER it leads to do, keep the
order they were emitted in: the sort is stable.
"""

from __future__ import annotations

import heapq
import itertools
import re
from bisect import insort
from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from typing import Callable, NamedTuple, Sequence

from .errors import (
    AccessDenied,
    DeliveryFailed,
    DuplicateRecord,
    HopLimitExceeded,
    InternamesError,
    NoFibMatch,
    NoRoute,
    NotBound,
    NotFound,
    NotResolvable,
    RealmViolation,
    Unreachable,
    UnknownNap,
    UnknownNode,
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
from .names import Enum, Name, format_name, parse_name
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
    Fib,
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


# A row of the trace is a TraceEvent with the event's text in place of its
# kind: a tuple of str and int only, which the cyclic collector untracks.
_EVENT_KIND = {kind._value_: kind for kind in EventKind}


# The trace order: (tick, node, msg_id), fetched in C.
_TRACE_ORDER = itemgetter(0, 1, 4)


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


_NO_NEIGHBOURS: dict[str, list[Link]] = {}  # those of a node with no links; never written
_DELAY = attrgetter("delay")

# A route: its path, and the link each hop takes (see Topology).
Route = tuple[tuple[str, ...], tuple[Link, ...]]


class Topology:
    """Links, their liveness and the routes over them: the locator layer.

    A link is alive iff it crosses the edge of no cut (partitioned) realm.
    forget() clears every memo and bumps ``epoch``; adding a link or cutting
    or restoring an edge calls it, and so must anything else that changes a
    link's ``alive``.  Adding a node changes no memo: it has no links yet.

    A route is ``(path, links)``: the path as a tuple of node ids, and the
    link each hop takes, ``links[i - 1]`` from ``path[i - 1]`` to
    ``path[i]``.  Routes are read from search trees, kept per (realm, root),
    which map each node the search settled to its entry ``(delay, link)``:
    its delay from the root and the link the search reached it by (None at
    the root).  Links are undirected, so one tree gives the routes out of
    its root and the routes into it (see route).  The tree of a stub, a node
    whose alive links all lead to one neighbour, is not searched but planted
    on the neighbour's, as a copy whose root is the stub, at minus its
    link's delay, and in which the neighbour is reached by that link at 0.
    Every delay in it is then the stub's own less its link's; routes read
    only differences of delays, so each tree may count from its own origin.
    Trees, routes and next hops are the memo's own, shared by every caller,
    and stand for as long as ``epoch`` does not change."""

    def __init__(self):
        self.links: list[Link] = []
        self.cut: dict[str, set[str]] = {}  # each cut realm -> its members
        self.epoch = 0
        # (realm, node) -> {neighbour: the links to it, cheapest first}
        self._adjacency: dict[tuple[str, str], dict[str, list[Link]]] = {}
        self._members_of_kind: dict[tuple[str, NodeKind], list[str]] = {}
        self._trees: dict[tuple[str, str], dict[str, tuple[int, Link | None]]] = {}
        self._routes: dict[tuple[str, str, str], Route] = {}
        # (realm, dst) -> {node: (its next hop toward dst, the link to it)}
        self._hops: dict[tuple[str, str], dict[str, tuple[str, Link]]] = {}
        self._servers: dict[tuple[str, NodeKind], tuple[str, int, str] | None] = {}

    def forget(self) -> None:
        self.epoch += 1
        self._trees.clear()
        self._routes.clear()
        self._hops.clear()
        self._servers.clear()

    def add_node(self, node_id: str, kind: NodeKind, realm_ids: list[str]) -> None:
        for rid in realm_ids:
            self._members_of_kind.setdefault((rid, kind), []).append(node_id)

    def members(self, realm_id: str, kind: NodeKind) -> Sequence[str]:
        return self._members_of_kind.get((realm_id, kind), ())

    def add_link(self, a: str, b: str, realm_id: str, delay: int) -> Link:
        link = Link(a, b, realm_id, delay, not (self.cut and self._crosses_cut(a, b)))
        self.links.append(link)
        for end in {a, b}:
            # insort goes right of equal delays: parallel links keep their order.
            nbrs = self._adjacency.setdefault((realm_id, end), {})
            insort(nbrs.setdefault(link.other(end), []), link, key=_DELAY)
        self.forget()
        return link

    def _crosses_cut(self, a: str, b: str) -> bool:
        return any((a in members) != (b in members) for members in self.cut.values())

    def set_cut(self, realm_id: str, members: set[str], cut: bool) -> None:
        """Cut or restore the realm's edge: a link across it comes back only
        when it crosses the edge of no other cut realm."""
        self.cut.pop(realm_id, None)
        if cut:
            self.cut[realm_id] = members
        for link in self.links:
            if (link.a in members) != (link.b in members):
                link.alive = not self._crosses_cut(link.a, link.b)
        self.forget()

    def severed(self, realm_id: str) -> bool:
        return any(not link.alive and link.realm == realm_id for link in self.links)

    def link_between(self, realm_id: str, a: str, b: str) -> Link | None:
        """The cheapest alive link from a to b: the one the route search prices."""
        for link in self._adjacency.get((realm_id, a), _NO_NEIGHBOURS).get(b, ()):
            if link.alive:
                return link
        return None

    def route(self, realm_id: str, src: str, dst: str) -> Route | None:
        """The shortest route by total delay, ties broken by node-id order.

        Memoised per (realm, src, dst).  When src's tree is held, the route
        is dst's entry link, the entry link of its far end, and so on back
        to src.  Otherwise it is read from dst's tree, searched (or planted,
        for a stub dst) if need be: from src, each hop goes to the
        smallest-id neighbour whose cheapest alive link's delay plus the
        neighbour's delay is the delay of the node it leaves.  Paths compare
        position by position, so that neighbour starts the smallest
        node-id path among the shortest, the one a search from src picks.
        Next hops are memoised per destination."""
        key = (realm_id, src, dst)
        route = self._routes.get(key)
        if route is not None:
            return route
        tree = self._trees.get((realm_id, src))
        if src == dst:
            route = (src,), ()
        elif tree is not None:
            # A walk back from dst ends at the tree's root, src.
            entry = tree.get(dst)
            if entry is None:
                return None
            path, links = [dst], []
            node, link = dst, entry[1]
            while link is not None:
                links.append(link)
                node = link.other(node)
                path.append(node)
                link = tree[node][1]
            route = tuple(reversed(path)), tuple(reversed(links))
        else:
            tree = self._tree(realm_id, dst)
            if src not in tree:
                return None
            hops = self._hops.setdefault((realm_id, dst), {})
            path, links = [src], []
            node = src
            while node != dst:
                hop = hops.get(node)
                if hop is None:
                    hop = hops[node] = self._next_hop(realm_id, tree, node)
                node, link = hop
                path.append(node)
                links.append(link)
            route = tuple(path), tuple(links)
        self._routes[key] = route
        return route

    def _next_hop(self, realm_id: str, tree: dict, node: str) -> tuple[str, Link]:
        """The smallest-id neighbour one link nearer tree's root, and that link."""
        delay = tree[node][0]
        best = None
        for nbr, links in self._adjacency[(realm_id, node)].items():
            if best is None or nbr < best[0]:
                for link in links:
                    if link.alive:
                        if link.delay + tree[nbr][0] == delay:
                            best = nbr, link
                        break
        return best

    def _tree(self, realm_id: str, node: str) -> dict[str, tuple[int, Link | None]]:
        """node's tree: held, searched, or for a stub planted on its neighbour's."""
        tree = self._trees.get((realm_id, node))
        if tree is not None:
            return tree
        nbrs = [nbr for nbr, links in self._adjacency.get((realm_id, node), _NO_NEIGHBOURS).items()
                if any(link.alive for link in links)]
        if len(nbrs) != 1:
            tree = self.search(realm_id, node)
        else:
            nbr = nbrs[0]
            base = self._trees.get((realm_id, nbr))
            if base is None:
                base = self._trees[(realm_id, nbr)] = self.search(realm_id, nbr)
            delay, link = base[node]
            tree = {**base, nbr: (0, link), node: (-delay, None)}
        self._trees[(realm_id, node)] = tree
        return tree

    def path(self, realm_id: str, src: str, dst: str) -> list[str] | None:
        """The nodes of the route from src to dst, or None."""
        route = self.route(realm_id, src, dst)
        return None if route is None else list(route[0])

    def delay(self, realm_id: str, src: str, dst: str) -> int | None:
        """The total delay of the route from src to dst, or None: the
        difference of the two ends' delays in whichever end's tree is held."""
        if src == dst:
            return 0
        tree = self._trees.get((realm_id, src))
        if tree is None:
            src, dst = dst, src
            tree = self._tree(realm_id, src)
        entry = tree.get(dst)
        return None if entry is None else entry[0] - tree[src][0]

    def search(self, realm_id: str, root: str) -> dict[str, tuple[int, Link | None]]:
        """Every node reachable from root in the realm -> its entry."""
        # (delay, path) is unique per push, so pops follow a total order,
        # equal delays fall to the lexicographically smaller node-id path and
        # no comparison reaches a link; a node's first pop is its entry, as
        # in a search stopped there.
        adjacency = self._adjacency
        settled: dict[str, tuple[int, Link | None]] = {}
        best: dict[str, tuple] = {}
        frontier = [(0, (root,), None)]
        while frontier:
            dist, path, link = heapq.heappop(frontier)
            node = path[-1]
            if node in settled:
                continue
            settled[node] = dist, link
            for nbr, links in adjacency.get((realm_id, node), _NO_NEIGHBOURS).items():
                if nbr in settled:
                    continue
                for link in links:
                    if link.alive:
                        cand = (dist + link.delay, path + (nbr,), link)
                        if nbr not in best or cand < best[nbr]:
                            best[nbr] = cand
                            heapq.heappush(frontier, cand)
                        break
        return settled

    def nearest(self, node_id: str, realm_ids: list[str],
                kind: NodeKind) -> tuple[str, int, str] | None:
        """(server, delay, realm) of the closest server of kind that node_id
        reaches in realm_ids, ties to the lower realm id, then node id."""
        key = (node_id, kind)
        if key not in self._servers:
            delays = ((self.delay(rid, node_id, member), rid, member)
                      for rid in realm_ids for member in self.members(rid, kind))
            best = min((d for d in delays if d[0] is not None), default=None)
            self._servers[key] = None if best is None else (best[2], best[0], best[1])
        return self._servers[key]


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
    """Monotone tick clock: callbacks run by tick, and in scheduling order
    within a tick.

    Each pending tick has one FIFO bucket, and a heap holds the distinct
    ticks (a calendar queue with one bucket per tick).  schedule refuses the
    past, so a callback scheduled while its tick runs joins the end of that
    tick's bucket, behind everything scheduled before it."""

    def __init__(self):
        self.now_tick = 0
        self._buckets: dict[int, deque] = {}
        self._ticks: list[int] = []  # heap of the ticks in _buckets

    def schedule(self, tick: int, fn) -> None:
        if tick < self.now_tick:
            raise ValueError("cannot schedule into the past")
        bucket = self._buckets.get(tick)
        if bucket is None:
            bucket = self._buckets[tick] = deque()
            heapq.heappush(self._ticks, tick)
        bucket.append(fn)

    def pop_due(self, until_tick: int | None):
        # A callback is taken off its bucket before it is yielded, so one that
        # raises is consumed and the rest stay pending; its bucket, even if
        # empty, is retired on a later run.  A drained bucket is retired only
        # if it is still its tick's: a run nested in a callback may have
        # retired it, and opened a new one for the same tick.
        ticks, buckets = self._ticks, self._buckets
        while ticks and (until_tick is None or ticks[0] <= until_tick):
            tick = ticks[0]
            bucket = buckets[tick]
            while bucket:
                self.now_tick = tick
                yield tick, bucket.popleft()
            if buckets.get(tick) is bucket:
                heapq.heappop(ticks)
                del buckets[tick]


@dataclass
class CallRecord:
    """One call's outcome, filled in by the engine as the call runs.

    ``Fabric.start_*`` returns the record and the engine carries it with the
    call's messages; the fabric keeps no list of calls.  ``result`` is the
    first body delivered to a pull or fetch, or ``b"subscribed"`` once a
    subscribe reaches its rendezvous.  ``error`` is the reason of the call's
    first DROP, unless a result came first; only Fabric.drop writes it.
    ``deliveries`` gets one (nap, name, body) per message of the call that
    reaches a binding of its target name.  ``search_result`` is the ORS
    answer to a search or fetch."""
    kind: str
    caller: Name | None
    target: str
    result: bytes | None = None
    error: str | None = None
    deliveries: list[tuple[str, Name, bytes]] = field(default_factory=list)  # (nap, name, body)
    search_result: OrsResult | None = None

    @property
    def names_reached(self) -> int:
        return len({format_name(n) for _, n, _ in self.deliveries})


# Printable ASCII other than the space: the bytes a body may show as text.
_PRINTABLE = re.compile(rb"[!-~]+")


def _body_text(body: bytes) -> str:
    if not body:
        return "-"
    if _PRINTABLE.fullmatch(body):
        return body.decode("ascii")
    return "hex:" + body.hex()


_KIND_TO_OP = {
    MessageKind.HTTP_GET: PolicyOperation.PULL,
    MessageKind.HTTP_PUSH: PolicyOperation.PUSH,
    MessageKind.SUB: PolicyOperation.SUBSCRIBE,
    MessageKind.PUB: PolicyOperation.PUBLISH,
}

_DELIVERABLE = frozenset({MessageKind.HTTP_RESP, MessageKind.CCN_DATA, MessageKind.HTTP_PUSH})

# A RECV's detail by message kind, before any extra text.
_RECV_DETAIL = {kind: f"kind={kind._value_}" for kind in MessageKind}

# A consult's query and answer events, and its drop reason when no server is reachable.
_CONSULT_EVENTS = {NodeKind.NRS: (EventKind.NRS_Q, EventKind.NRS_R, "nrs-unreachable"),
                   NodeKind.ORS: (EventKind.ORS_Q, EventKind.ORS_R, "ors-unreachable")}

# Each reason a DROP can carry -> the error NodeApi raises for it.  The last
# three are the scenario runner's, for an op that cannot fire: its error.
DROP_REASONS: dict[str, type[InternamesError]] = {
    "nrs-unreachable": Unreachable,  # no NRS server reachable from the node
    "ors-unreachable": Unreachable,  # no ORS server reachable from the node
    "not-resolvable": NotResolvable,  # the NRS holds no record for the name there
    "unreachable-name": Unreachable,  # no binding or descriptor leads on to the name
    "access-denied": AccessDenied,  # a name-router's policy refuses the sender
    "not-found": NotFound,  # the serving node's store lacks the name
    "no-route": Unreachable,  # no path is left in the realm
    "partitioned": Unreachable,  # no path is left, and a link of the realm is cut
    "no-fib-match": Unreachable,  # no FIB entry matches the interest's FCN
    "hop-limit": HopLimitExceeded,  # the interest ran out of hops
    "unknown-topic": NotFound,  # no rendezvous homes the topic
    "unreachable-topic": Unreachable,  # no name-router leads on to the topic's home
    "not-a-ccn-node": DeliveryFailed,  # an interest arrived in a realm that is not CCN
    "unhandled": DeliveryFailed,  # the node has nothing to do with the message
    "not-bound": NotBound,  # the op's caller or name has no binding
    "no-record": NotFound,  # the op withdraws a record the NRS lacks
    "duplicate-record": DuplicateRecord,  # the op registers a record the NRS holds
}


class _Flight:
    """One transmit: msg on its way along its route in one realm, hop by hop.

    hop sends each hop, the first from _fly and each later one from land.
    While the topology's epoch is the one the route was read in, the hop
    goes over the link the route holds for it; after that, over the
    cheapest link alive at that moment, and if none is, the flight re-routes
    from where it is, or is dropped there.  In a nested realm each hop is
    tunnelled: an HTTP push carries it in the parent realm.  When the parent
    realm is top level and the push's route there is one hop, this flight
    lands the push itself.  Such a push is never checked again once it
    leaves, so it cannot be lost, and it is only an id in the trace: no
    message is made for it and nothing is encoded.  Any other push is a kept
    message whose body is msg's encoding.  With no route as it leaves it is
    dropped at once, and msg with it; else it flies as a flight of its own
    with this flight as its ``carried``, and lands it when it lands, or
    drops it when it is lost.  Either way the push's id is ``outer`` when it
    lands, and carrier_landed logs its RECV and lands this flight.  The text
    every hop shares is built once: ``uri`` and ``detail`` for each FWD,
    ``tunnel`` for each tunnelled hop, and msg's encoding for each kept push."""

    __slots__ = ("fabric", "msg", "realm", "path", "links", "epoch", "i", "call", "carried",
                 "uri", "detail", "parent", "encoded", "tunnel", "outer")

    def __init__(self, fabric, msg, realm, route, call, carried, uri, detail):
        self.fabric = fabric
        self.msg = msg
        self.realm = realm
        self.path, self.links = route
        self.epoch = fabric.topology.epoch
        self.i = 1  # the hop under way ends at path[i]
        self.call = call
        self.carried = carried
        self.uri = uri
        self.detail = detail
        self.parent = fabric.realms[realm].parent_realm
        self.encoded = None
        self.tunnel = None if self.parent is None else f"tunnel realm={realm} inner={msg.msg_id}"

    def hop(self) -> None:
        """Send msg from path[i - 1] to path[i]."""
        fabric, path, i = self.fabric, self.path, self.i
        topology = fabric.topology
        if self.epoch != topology.epoch:
            link = topology.link_between(self.realm, path[i - 1], path[i])
            if link is None:
                # Link died after the path was computed; recompute from path[i - 1].
                route = fabric._path(self.realm, path[i - 1], path[-1])
                if route is None:
                    fabric.at(fabric.clock.now_tick, self.lost)
                    return
                self.path, self.links = route
                self.epoch, self.i = topology.epoch, 1
                self.hop()
                return
        elif self.parent is None:
            link = self.links[i - 1]
        if self.parent is not None:
            self.tunnel_hop()
            return
        clock = fabric.clock
        clock.schedule(clock.now_tick + link.delay, self.land)

    def land(self) -> None:
        """msg reached path[i]: arrive if it is the last hop, else forward."""
        fabric, path, i, msg = self.fabric, self.path, self.i, self.msg
        if i == len(path) - 1:
            carried = self.carried
            if carried is None:
                fabric._arrive(msg, path[i], self.realm, self.call)
            else:
                carried.outer = msg.msg_id
                carried.carrier_landed()
            return
        fabric._rows.append((fabric.clock.now_tick, path[i], self.realm, "FWD", msg.msg_id,
                             self.uri, self.detail))
        self.i = i + 1
        self.hop()

    def lost(self) -> None:
        """No path is left from path[i - 1]: drop msg there."""
        self.fabric._lost(self.path[self.i - 1], self.realm, self.msg, self.call, self.carried)

    def tunnel_hop(self) -> None:
        """Carry the hop as a payload message in the parent realm."""
        fabric, parent = self.fabric, self.parent
        outer = fabric.new_msg_id()
        src, dst = self.path[self.i - 1], self.path[self.i]
        route = fabric._path(parent, src, dst)
        if route is None or len(route[0]) > 2 or fabric.realms[parent].parent_realm is not None:
            # A carrier that is lost or flies is kept, with msg's encoding as its body.
            if self.encoded is None:
                self.encoded = encode(self.msg)
            carrier = fabric._register_msg(
                WireMessage(outer, MessageKind.HTTP_PUSH, "", None, None, self.encoded))
            if route is None:
                fabric._lost(src, parent, carrier, self.call, self)
            else:
                fabric._fly(carrier, src, parent, dst, route, EventKind.SEND, self.call, self)
            return
        clock = fabric.clock
        now = clock.now_tick
        self.outer = outer
        fabric._rows.append((now, src, parent, "SEND", outer, "-",
                             f"to={dst} kind=HTTP_PUSH {self.tunnel}"))
        clock.schedule(now + route[1][0].delay, self.carrier_landed)

    def carrier_landed(self) -> None:
        """The push ``outer`` carrying this flight's hop reached path[i]."""
        fabric = self.fabric
        fabric._rows.append((fabric.clock.now_tick, self.path[self.i], self.parent, "RECV",
                             self.outer, "-", self.tunnel))
        self.land()


class Fabric:
    """Topology + event engine + trace log; all module calls run inside it.

    The clock is the only source of time: every call acts, and every event
    is stamped, at ``now``.  Later work is scheduled with ``at(tick, fn)``
    and happens when ``run`` reaches that tick.

    ``name_of`` gives the Name of a URI: a scenario's timeline ops read
    their names through it when they fire.  build_fabric sets it to the
    table of Names it built the scenario with; otherwise each URI is parsed
    anew.  Likewise ``record_specs`` holds the record spec build_fabric read
    for each nrs_register op's arguments; an op whose arguments it lacks
    reads them when it fires."""

    def __init__(self):
        self.name_of: Callable[[str], Name] = parse_name
        self.record_specs: dict[tuple[str, ...], tuple] = {}
        self.realms: dict[str, NetworkRealm] = {}
        self.nodes: dict[str, Node] = {}
        self.naps: dict[str, NetworkAttachmentPoint] = {}
        self.topology = Topology()
        self.nrs = NameResolutionService()
        self.ors = ObjectResolutionService()
        self.bindings: dict[Name, list[str]] = {}
        self.known_names: set[Name] = set()
        self.topics: dict[str, set[Name]] = {}
        self.topic_home: dict[str, str] = {}
        self.node_tags: dict[str, frozenset[str]] = {}
        self.clock = SimClock()
        # the trace in emission order, one row (see _EVENT_KIND) per event
        self._rows: list[tuple] = []
        # the run's messages by id, each in the form it was minted in: a
        # bridged copy keeps its id and is not kept; a one-hop tunnel push is
        # no message, only an id in the trace (see _Flight)
        self.messages: dict[int, WireMessage] = {}
        self.response_of: dict[int, int] = {}  # response msg -> request msg
        self._msg_ids = itertools.count(1)
        # the NRS_Q detail per (location, context tags)
        self._query_text: dict[tuple[str, frozenset[str]], str] = {}
        # (realm in, realm out) -> the rule that bridges between them
        self._bridge_rules: dict[tuple[str, str], BridgeRule] = {}

    # ---------------------------------------------------------------- topology

    # The set-up calls below refuse a realm, node, link, hosted content or
    # binding they cannot install, and say why in a scenario's terms, so
    # build_fabric passes their text on as the scenario's error.

    def add_realm(self, realm_id: str, tech: RealmTech, parent: str | None = None) -> NetworkRealm:
        if realm_id in self.realms:
            raise ValueError(f"duplicate realm {realm_id}")
        if parent is not None and parent not in self.realms:
            raise UnknownRealm(f"realm {realm_id}: undefined parent {parent}")
        realm = NetworkRealm(realm_id, tech, parent)
        self.realms[realm_id] = realm
        return realm

    def add_node(self, node_id: str, kind: NodeKind, realm_ids: list[str]) -> Node:
        if node_id in self.nodes:
            raise ValueError(f"duplicate node {node_id}")
        for rid in realm_ids:
            if rid not in self.realms:
                raise UnknownRealm(f"node {node_id}: undefined realm {rid}")
        node = Node(node_id, kind, list(realm_ids))
        self.nodes[node_id] = node
        self.node_tags[node_id] = self._tags(node_id)
        self.topology.add_node(node_id, kind, realm_ids)
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
            raise UnknownRealm(f"link {a}-{b}: undefined realm {realm_id}")
        for n in (a, b):
            if n not in realm.member_nodes:
                if n not in self.nodes:
                    raise UnknownNode(f"link references undefined node {n}")
                raise RealmViolation(f"link {a}-{b}: {n} not in realm {realm_id}")
        if delay < 1:
            # A route read from its far end's tree steps to a neighbour of
            # smaller delay, which ends at dst only if every hop costs time.
            raise ValueError(f"link {a}-{b}: delay must be >= 1")
        return self.topology.add_link(a, b, realm_id, delay)

    def host_content(self, node_id: str, name: Name, payload: bytes, fcn: str = "") -> None:
        node = self.nodes.get(node_id)
        if node is None:
            raise UnknownNode(f"entity {format_name(name)}: undefined host {node_id}")
        node.http_store[format_name(name)] = payload
        if fcn:
            for rid, state in node.ccn.items():
                state.repo[fcn] = payload

    def build_fibs(self) -> None:
        """Give every CCNISH realm member a FIB over its realm's adverts.

        A realm's adverts, the prefixes its members hold and the topics homed
        on them, are indexed once into one Fib that every member reads through
        its own hop map: its next hop toward each owner it can reach, routed
        once per (member, owner).  Partition and heal do not rebuild them."""
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
        for rid, entries in sorted(adverts.items()):
            realm = self.realms[rid]
            realm.fib_registrations.extend(entries)
            shared = Fib(entries)
            owners = dict.fromkeys(owner for _, owner in entries)
            for member in realm.member_nodes:
                hops = {}
                for owner in owners:
                    if owner != member:
                        route = self._path(rid, member, owner)
                        if route is not None:
                            hops[owner] = route[0][1]
                self.nodes[member].ccn[rid].fib = shared.through(hops)

    # ---------------------------------------------------------------- helpers

    @property
    def now(self) -> int:
        return self.clock.now_tick

    def new_msg_id(self) -> int:
        return next(self._msg_ids)

    def _register_msg(self, msg: WireMessage) -> WireMessage:
        self.messages[msg.msg_id] = msg
        return msg

    def _new_msg(self, *fields) -> WireMessage:
        """A kept message with the next id; fields are WireMessage's from kind on."""
        msg = WireMessage(next(self._msg_ids), *fields)
        self.messages[msg.msg_id] = msg
        return msg

    def at(self, tick: int, fn) -> None:
        self.clock.schedule(tick, fn)

    @property
    def trace(self) -> list[TraceEvent]:
        """The trace as TraceEvents in emission order, read from its rows."""
        return [TraceEvent(tick, node, realm, _EVENT_KIND[event], msg_id, uri, detail)
                for tick, node, realm, event, msg_id, uri, detail in self._rows]

    def _emit(self, node, realm, event, msg_id, name, detail) -> None:
        # _value_ skips Enum's Python-level value property; the text is the same.
        uri = name.uri if isinstance(name, Name) else (name or "-")
        self._rows.append((self.clock.now_tick, node, realm, event._value_, msg_id, uri, detail))

    def sorted_trace(self) -> list[tuple]:
        """The rows in trace order; rows that tie keep their emission order."""
        return sorted(self._rows, key=_TRACE_ORDER)

    def trace_text(self) -> str:
        return "\n".join([f"t={tick} node={node} realm={realm} event={event}"
                          f" msg={msg_id} name={uri} detail={detail}"
                          for tick, node, realm, event, msg_id, uri, detail
                          in self.sorted_trace()])

    # The route entry points: perfbench wraps both as Fabric attributes.
    def _path(self, realm_id: str, src: str, dst: str) -> Route | None:
        """The route from src to dst, as Topology.route gives it: shared, not copied."""
        return self.topology.route(realm_id, src, dst)

    def _nearest_server(self, node_id: str, kind: NodeKind) -> tuple[str, int, str] | None:
        return self.topology.nearest(node_id, self.nodes[node_id].realms, kind)

    def locate(self, locator: str) -> tuple[str, str | None]:
        """Map a locator to (node, realm-or-None)."""
        nap = self.naps.get(locator)
        if nap is not None:
            return nap.node_id, nap.realm_id
        if locator in self.nodes:
            return locator, None
        raise NoRoute(f"unknown locator {locator}")

    def node_ctx(self, node_id: str, location: str) -> ResolutionContext:
        return ResolutionContext(self.clock.now_tick, location, self.node_tags[node_id])

    def _gateway(self, realm_id: str, node_id: str, toward: set[str]) -> str | None:
        """The name-router that carries traffic from node_id out of realm_id.

        The first reachable one, by node id, that borders a realm in toward;
        failing that, the first reachable one."""
        routers = self.topology.members(realm_id, NodeKind.NAME_ROUTER)
        return min((n for n in routers if self._path(realm_id, node_id, n) is not None),
                   key=lambda n: (toward.isdisjoint(self.nodes[n].realms), n), default=None)

    # ---------------------------------------------------------------- bindings

    def bind(self, name: Name, nap_id: str) -> None:
        nap = self.naps.get(nap_id)
        if nap is None:
            raise UnknownNap(f"binding {format_name(name)}: undefined nap {nap_id}")
        if name not in self.ors and name not in self.known_names:
            raise ValidationError(f"name {format_name(name)} is neither registered nor declared")
        if nap_id in self.bindings.get(name, ()):
            return
        # The host record goes first, so a record the NRS refuses leaves no
        # binding and no REBIND behind.
        self.nrs.register(self._host_record(name, nap), CallerRole.ADMINISTRATOR)
        naps = self.bindings.setdefault(name, [])
        naps.append(nap_id)
        naps.sort()
        self._emit(nap.node_id, nap.realm_id, EventKind.REBIND, 0, name, f"bind nap={nap_id}")

    def unbind(self, name: Name, nap_id: str) -> None:
        naps = self.bindings.get(name, [])
        if nap_id not in naps:
            raise NotBound(f"{format_name(name)} at {nap_id}")
        # The host record goes first, as in bind, so a record already
        # withdrawn leaves the binding and no REBIND behind.  Only the host
        # record goes: other records for the name at the NAP stay.
        nap = self.naps[nap_id]
        self.nrs.withdraw_record(self._host_record(name, nap))
        naps.remove(nap_id)
        self._emit(nap.node_id, nap.realm_id, EventKind.REBIND, 0, name, f"unbind nap={nap_id}")

    def _host_record(self, name: Name, nap: NetworkAttachmentPoint) -> NrsRecord:
        """The NRS record a binding of name at nap holds."""
        tech = self.realms[nap.realm_id].technology
        sd = ServiceDescriptor(
            protocol=PROTOCOL_OF_TECH[tech],
            fcn=format_name(name) if tech is RealmTech.CCNISH else "",
            next_hop_tech=tech,
            next_hop_address=nap.nap_id,
            priority=0,
            scope=nap.realm_id,
        )
        return NrsRecord(name, sd)

    def bindings_of(self, name: Name) -> list[NetworkAttachmentPoint]:
        return [self.naps[n] for n in self.bindings.get(name, [])]

    def first_binding(self, name: Name) -> NetworkAttachmentPoint:
        naps = self.bindings_of(name)
        if not naps:
            raise NotBound(format_name(name))
        return naps[0]

    # ---------------------------------------------------------------- partition

    def partition(self, realm_id: str) -> None:
        self._set_edge(realm_id, True)

    def heal(self, realm_id: str) -> None:
        self._set_edge(realm_id, False)

    def _set_edge(self, realm_id: str, cut: bool) -> None:
        realm = self.realms.get(realm_id)
        if realm is None:
            raise UnknownRealm(realm_id)
        self.topology.set_cut(realm_id, realm.member_nodes, cut)
        self.node_tags.update((node, self._tags(node)) for node in realm.member_nodes)

    def _tags(self, node_id: str) -> frozenset[str]:
        down = not self.topology.cut.keys().isdisjoint(self.nodes[node_id].realms)
        return frozenset({"disaster" if down else "normal"})

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
        route = self._path(nap.realm_id, nap.node_id, dst_node)
        if route is None:
            raise NoRoute(f"no path from {nap.node_id} to {dst_node} in {nap.realm_id}")
        self._register_msg(payload)
        self._fly(payload, nap.node_id, nap.realm_id, dst_node, route, EventKind.SEND, None, None)
        return payload.msg_id

    def drop(self, node, realm_id, msg, reason, call, name="-", extra="") -> None:
        """Log a DROP of msg, or with msg None of a request never sent, as name
        and a fresh id; its detail is reason, then extra.  The call's first
        reason is its error, unless it already has a result."""
        msg_id, name = (self.new_msg_id(), name) if msg is None else (msg.msg_id, msg.target_name)
        self._emit(node, realm_id, EventKind.DROP, msg_id, name,
                   f"{reason} {extra}" if extra else reason)
        if call is not None and call.error is None and call.result is None:
            call.error = reason

    def _lost(self, node, realm_id, msg, call, carried) -> None:
        """No path is left from node: drop msg there, then each message down
        the chain it carries where that message's hop began, naming its carrier."""
        reason = "partitioned" if self.topology.severed(realm_id) else "no-route"
        self.drop(node, realm_id, msg, reason, call)
        while carried is not None:
            self.drop(carried.path[carried.i - 1], carried.realm, carried.msg, reason, call,
                      extra=f"outer={msg.msg_id}")
            msg, carried = carried.msg, carried.carried

    def _transmit(self, msg, src, realm_id, dst_node, first_event, call) -> None:
        route = self._path(realm_id, src, dst_node)
        if route is None:
            self._lost(src, realm_id, msg, call, None)
            return
        self._fly(msg, src, realm_id, dst_node, route, first_event, call, None)

    def _fly(self, msg, src, realm_id, dst_node, route, first_event, call, carried) -> None:
        """Log msg's first event at src and start its flight along route."""
        name = msg.target_name
        flight = _Flight(self, msg, realm_id, route, call, carried,
                         "-" if name is None else name.uri,
                         f"to={dst_node} kind={msg.kind._value_}")
        detail = flight.detail if carried is None else f"{flight.detail} {carried.tunnel}"
        self._rows.append((self.clock.now_tick, src, realm_id, first_event._value_, msg.msg_id,
                           flight.uri, detail))
        if len(flight.path) == 1:
            flight.i = 0
            self.at(self.clock.now_tick, flight.land)
            return
        flight.hop()

    # ---------------------------------------------------------------- consults

    def _consult(self, node_id, kind, realm_id, name, query, answer, call, cont) -> None:
        """Ask the nearest server of kind: its query event now, its answer
        event and cont after the round trip.

        query is the query event's detail; answer() gives the answer event's
        detail and the value cont receives.  With no server reachable the
        consult is dropped and cont receives None."""
        query_event, answer_event, unreachable = _CONSULT_EVENTS[kind]
        server = self._nearest_server(node_id, kind)
        if server is None:
            self.drop(node_id, realm_id, None, unreachable, call, name=name)
            self.at(self.clock.now_tick, lambda: cont(None))
            return
        _srv, delay, srv_realm = server
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

        cont receives the descriptor list, or None for a miss, which cont drops."""
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
                return "no-record", None
            if cache is not None:
                cache.store(name, ctx, sds)
            return sd_list_text(sds), sds

        key = (location, self.node_tags[node_id])
        query = self._query_text.get(key)
        if query is None:
            tags = "+".join(sorted(key[1])) or "-"
            query = self._query_text[key] = f"loc={location} tags={tags}"
        self._consult(node_id, NodeKind.NRS, location, name, query, answer, call, cont)

    def consult_ors(self, node_id: str, keywords: tuple[str, ...], call, cont) -> None:
        def answer():
            result = self.ors.search(OrsQuery(tuple(keywords)))
            call.search_result = result
            return "results=" + (";".join(format_name(n) for n in result.names) or "-"), result

        self._consult(node_id, NodeKind.ORS, self.nodes[node_id].realms[0], "-",
                      f"keywords={','.join(keywords) or '-'}", answer, call, cont)

    # ---------------------------------------------------------------- arrivals

    def _arrive(self, msg, node_id, realm_id, call) -> None:
        node = self.nodes[node_id]
        kind = msg.kind
        deliverable = kind in _DELIVERABLE
        if kind is MessageKind.CCN_DATA and realm_id in node.ccn and msg.target_fcn:
            node.ccn[realm_id].content_store.insert(msg.target_fcn, msg.body)
        if deliverable and self._bound_here(msg.target_name, node_id, realm_id):
            self._deliver(msg, node_id, realm_id, call)
            return
        if kind is MessageKind.CCN_INTEREST:
            self._ccn_arrive(msg, node_id, realm_id, call)
            return
        pubsub = kind is MessageKind.SUB or kind is MessageKind.PUB
        if node.kind is NodeKind.NAME_ROUTER:
            if kind is MessageKind.HTTP_GET:
                self._router_ingress(msg, node_id, realm_id, call)
                return
            if deliverable:
                self._router_egress(msg, node_id, realm_id, call)
                return
            if pubsub:
                self._router_relay_pubsub(msg, node_id, realm_id, call)
                return
        if kind is MessageKind.HTTP_GET:
            self._recv(msg, node_id, realm_id)
            self._serve_http(msg, node_id, realm_id, call)
            return
        if pubsub and node.kind is NodeKind.RENDEZVOUS:
            self._rendezvous(msg, node_id, realm_id, call)
            return
        if deliverable:
            self.drop(node_id, realm_id, msg, "unreachable-name", call)
            return
        self.drop(node_id, realm_id, msg, "unhandled", call)

    def _bound_here(self, name, node_id, realm_id) -> bool:
        return f"{node_id}.{realm_id}" in self.bindings.get(name, ())

    def _recv(self, msg, node_id, realm_id, extra="") -> None:
        detail = _RECV_DETAIL[msg.kind]
        name = msg.target_name
        self._rows.append((self.clock.now_tick, node_id, realm_id, "RECV", msg.msg_id,
                           "-" if name is None else name.uri,
                           f"{detail} {extra}" if extra else detail))

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
            self.drop(node_id, realm_id, msg, "not-found", call)
            return
        self._respond(msg, MessageKind.HTTP_RESP, body, node_id, realm_id, call)

    def _respond(self, request, kind, body, node_id, realm_id, call) -> None:
        """Answer a request from a store: send body back to the request's
        source name as a response of kind."""
        resp = self._new_msg(kind, request.target_fcn, request.source_name,
                             request.target_name, body)
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
            self.drop(node_id, realm_id, interest, "hop-limit", call)
            return
        try:
            next_hop = fib_lookup(state.fib, fcn)
        except NoFibMatch:
            self.drop(node_id, realm_id, interest, "no-fib-match", call)
            return
        self._transmit(interest.bumped(), node_id, realm_id, next_hop, send_event, call)

    def _ccn_arrive(self, interest, node_id, realm_id, call) -> None:
        if realm_id not in self.nodes[node_id].ccn:
            self.drop(node_id, realm_id, interest, "not-a-ccn-node", call)
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
            self.drop(node_id, realm_id, msg, "unreachable-name", call)
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
                self.drop(node_id, realm_id, msg, "unreachable-name", call)
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
                self.drop(node_id, realm_id, msg, "unreachable-name", call)
                return
            seen = set()
            for sd in sds:
                out_realm = sd.scope or realm_id
                key = (out_realm, sd.next_hop_address)
                if key in seen:
                    continue
                seen.add(key)
                # One copy per binding: the sender served those in this realm.
                if out_realm == realm_id and self._bound_here(
                        msg.target_name, self.locate(sd.next_hop_address)[0], realm_id):
                    continue
                if out_realm not in node.realms:
                    self.drop(node_id, realm_id, msg, "unreachable-name", call)
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
        """msg in realm_out's protocol: a copy with msg's id, which is not kept."""
        key = (realm_in, realm_out)
        rule = self._bridge_rules.get(key)
        if rule is None:
            # A realm's technology never changes, so neither does its rule.
            rule = self._bridge_rules[key] = BridgeRule(
                PROTOCOL_OF_TECH[self.realms[realm_in].technology],
                PROTOCOL_OF_TECH[self.realms[realm_out].technology],
                realm_in, realm_out)
        return bridge(msg, rule, sd)

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
            self.drop(node_id, realm_id, msg, "access-denied", call)
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
                    self.drop(node_id, realm_in, msg, "not-resolvable", call)
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
            self.drop(node_id, realm_id, msg, "unknown-topic", call)
            return
        for rid in sorted(r for r in node.realms if r != realm_id):
            if home in self.realms[rid].member_nodes and \
                    self._path(rid, node_id, home) is not None:
                self._transmit(msg, node_id, rid, home, EventKind.FWD, call)
                return
        self.drop(node_id, realm_id, msg, "unreachable-topic", call)

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
                self.drop(node_id, realm_id, None, "not-resolvable", call, name=target)
                return
            sd = sds[0]
            if self.realms[realm_id].technology is RealmTech.CCNISH:
                interest = self._new_msg(MessageKind.CCN_INTEREST, sd.fcn, target, caller)
                self.ccn_start(interest, node_id, realm_id, EventKind.SEND, call)
            else:
                get = self._new_msg(MessageKind.HTTP_GET, "", target, caller)
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
                self.drop(node_id, realm_id, None, "not-resolvable", call, name=target)
                return
            push = self._push_msg(realm_id, format_name(target), target, caller, body)
            self.deliver_to_name(push, node_id, realm_id, call)

        self.consult_nrs(node_id, target, realm_id, call, onto, cache=node.cache)
        return call

    def _push_msg(self, realm_id, fcn, target, source, body) -> WireMessage:
        """A name-addressed push: CCN data in a CCNISH realm, else an HTTP push."""
        if self.realms[realm_id].technology is RealmTech.CCNISH:
            return self._new_msg(MessageKind.CCN_DATA, fcn, target, source, body)
        return self._new_msg(MessageKind.HTTP_PUSH, "", target, source, body)

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
            self.drop(node_id, realm_id, None, "unknown-topic", call, extra=f"topic={topic_fcn}")
            return
        msg = self._new_msg(kind, topic_fcn, None, caller, body)
        if home in self.realms[realm_id].member_nodes:
            self._transmit(msg, node_id, realm_id, home, EventKind.SEND, call)
            return
        gateway = self._gateway(realm_id, node_id, set(self.nodes[home].realms))
        if gateway is None:
            self.drop(node_id, realm_id, msg, "unreachable-topic", call)
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
