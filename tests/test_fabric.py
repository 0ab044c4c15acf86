import gc
import heapq
import itertools
import random
import re
import sys
import weakref
from contextlib import contextmanager
from functools import partial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule
from hypothesis import strategies as st

import internames.fabric as fabric_module
from internames.errors import (
    DeliveryFailed,
    NoFibMatch,
    NoRoute,
    NotBound,
    RealmViolation,
    UnknownNap,
    UnknownRealm,
    ValidationError,
)
from internames.fabric import (
    DROP_REASONS,
    EventKind,
    Fabric,
    NodeKind,
    RealmTech,
    SimClock,
    Topology,
)
from internames.names import parse_name
from internames.node_api import NodeApi
from internames.scenario import (
    BUILTIN_NAMES,
    golden_trace,
    load_builtin,
    parse_scenario,
    run_scenario,
)
from internames.wire import (
    HOP_LIMIT,
    FibEntry,
    MessageKind,
    WireMessage,
    decode,
    encode,
    fcn_segments,
    fib_lookup,
)

from conftest import CROSS_REALM, UNFIRABLE_OPS, fig3_and, run_checked, trace_line, watched_drops

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # perfbench's generator; perfbench is not a package


def tiny_ip_fabric(hosts=("a", "b"), delay=1):
    f = Fabric()
    f.add_realm("net", RealmTech.IPISH)
    for h in hosts:
        f.add_node(h, NodeKind.HOST, ["net"])
    for h in hosts[1:]:
        f.add_link(hosts[0], h, "net", delay)
    return f


def bound(f, node, local):
    name = parse_name(f"n2n://users:{local}")
    f.known_names.add(name)
    f.bind(name, f"{node}.net")
    return name


def resp(f, target, body=b"x"):
    return WireMessage(msg_id=f.new_msg_id(), kind=MessageKind.HTTP_RESP,
                       target_name=target, body=body)


def test_send_delay_arithmetic():
    f = tiny_ip_fabric()
    tgt = bound(f, "b", "bob")
    f.clock.now_tick = 3
    f.send("a.net", "b", resp(f, tgt))
    f.run_until_idle()
    recvs = [e for e in f.trace if e.event is EventKind.RECV]
    assert [(e.tick, e.node) for e in recvs] == [(4, "b")]
    sends = [e for e in f.trace if e.event is EventKind.SEND]
    assert [(e.tick, e.node) for e in sends] == [(3, "a")]


def test_send_across_realms_is_a_violation():
    f = Fabric()
    f.add_realm("net", RealmTech.IPISH)
    f.add_realm("far", RealmTech.IPISH)
    f.add_node("a", NodeKind.HOST, ["net"])
    f.add_node("c", NodeKind.HOST, ["far"])
    with pytest.raises(RealmViolation):
        f.send("a.net", "c", resp(f, None))


def test_send_without_path():
    f = Fabric()
    f.add_realm("net", RealmTech.IPISH)
    f.add_node("a", NodeKind.HOST, ["net"])
    f.add_node("b", NodeKind.HOST, ["net"])
    with pytest.raises(NoRoute):
        f.send("a.net", "b", resp(f, None))
    with pytest.raises(UnknownNap):
        f.send("nowhere.net", "b", resp(f, None))


def test_send_routes_once(monkeypatch):
    # The route send checks is the route the message flies.
    f = tiny_ip_fabric()
    tgt = bound(f, "b", "bob")
    routed, real_path = [], Fabric._path

    def counted_path(fabric, *args):
        routed.append(args)
        return real_path(fabric, *args)

    monkeypatch.setattr(Fabric, "_path", counted_path)
    f.send("a.net", "b", resp(f, tgt))
    f.run_until_idle()
    assert routed == [("net", "a", "b")]
    assert [row[3] for row in f._rows if row[3] != "REBIND"] == ["SEND", "RECV", "DELIVER"]


def test_random_sends_trace_order_and_conservation():
    hosts = tuple("h%d" % i for i in range(6))
    f = tiny_ip_fabric(hosts)
    names = {h: bound(f, h, "u_" + h) for h in hosts}
    rng = random.Random(42)
    sent = []
    for _ in range(100):
        src = hosts[0]
        dst = rng.choice(hosts[1:])
        t = rng.randint(0, 20)
        f.clock.now_tick = 0
        m = resp(f, names[dst], b"ping")
        f.at(t, partial(f.send, f"{src}.net", dst, m))
        sent.append(m.msg_id)
    f.clock.now_tick = 0
    f.run_until_idle()
    # ordering equals an independent sort by (tick, node, msg)
    lines = f.trace_text().splitlines()
    by_key = sorted(f.trace, key=lambda e: (e.tick, e.node, e.msg_id))
    assert lines == [trace_line(e) for e in by_key]
    # every send is received exactly once and nothing is dropped
    by_kind = {}
    for e in f.trace:
        by_kind.setdefault(e.event, []).append(e.msg_id)
    for mid in sent:
        assert by_kind[EventKind.SEND].count(mid) == 1
        assert by_kind[EventKind.RECV].count(mid) == 1
    assert EventKind.DROP not in by_kind


def test_bind_errors():
    f = tiny_ip_fabric()
    name = parse_name("n2n://users:zoe")
    with pytest.raises(ValidationError):
        f.bind(name, "a.net")  # name neither registered nor declared
    f.known_names.add(name)
    with pytest.raises(UnknownNap):
        f.bind(name, "a.elsewhere")
    f.bind(name, "a.net")
    f.bind(name, "a.net")  # re-bind to the same NAP is a no-op
    assert len(f.bindings_of(name)) == 1
    with pytest.raises(NotBound):
        f.unbind(name, "b.net")


def test_bind_maintains_host_records():
    f = tiny_ip_fabric()
    name = bound(f, "b", "bob")
    hops = [r.sd.next_hop_address for r in f.nrs.records() if r.prefix == name]
    assert hops == ["b.net"]
    f.unbind(name, "b.net")
    assert not [r for r in f.nrs.records() if r.prefix == name]


def test_partition_unknown_realm():
    f = tiny_ip_fabric()
    with pytest.raises(UnknownRealm):
        f.partition("nope")
    with pytest.raises(UnknownRealm):
        f.heal("nope")


PARTITION_SCN = """
[realms]
internet,IPISH,-
town,IPISH,-

[nodes]
extC,host,internet
rtrI,router,internet
nrsI,nrs,internet
RNa,name_router,town+internet
pageS,server,town

[links]
extC,rtrI,internet,1
nrsI,rtrI,internet,1
RNa,rtrI,internet,1
RNa,pageS,town,1

[entities]
n2n://town.org:page,content,pageS,-,page-bytes,page,a town page

[bindings]
n2n://users:ext,extC.internet

[nrs]
n2n://town.org:page,HTTPISH,-,IPISH,RNa,0,100,-,internet,-,-
n2n://town.org:page,HTTPISH,-,IPISH,pageS,0,100,-,town,-,-

[timeline]
0,partition,town
1,pull,n2n://users:ext,n2n://town.org:page
"""


def test_partition_drops_cross_boundary_traffic():
    result = run_scenario(parse_scenario(PARTITION_SCN, name="partition"))
    drops = [e for e in result.fabric.trace if e.event is EventKind.DROP]
    assert drops and drops[0].detail == "partitioned"
    assert not [e for e in result.fabric.trace if e.event is EventKind.DELIVER]


def test_heal_restores_resolution_and_delivery():
    text = PARTITION_SCN.replace(
        "0,partition,town\n1,pull",
        "0,partition,town\n5,heal,town\n6,pull",
    )
    result = run_scenario(parse_scenario(text, name="healed"))
    delivers = [e for e in result.fabric.trace if e.event is EventKind.DELIVER]
    assert [e.node for e in delivers] == ["extC"]


def test_partition_injects_disaster_tag_and_heal_removes_it():
    f = run_scenario(parse_scenario(PARTITION_SCN, name="p2")).fabric
    assert f.node_tags["pageS"] == frozenset({"disaster"})
    assert f.node_tags["extC"] == frozenset({"normal"})
    # A resolution context takes the node's tags as they are.
    assert f.node_ctx("pageS", "town").context_tags is f.node_tags["pageS"]
    f.heal("town")
    assert f.node_tags["pageS"] == frozenset({"normal"})


@pytest.mark.parametrize("realms_of_x", [["net", "A"], ["net", "A", "B"]])
def test_heal_of_one_realm_keeps_another_realms_partition(realms_of_x):
    # x is in A (and in B too, in the second case), z is in B; the links
    # are in net.  Healing A must leave B's partition standing: each link
    # stays down while it crosses B's edge, and each node of B disaster.
    f = Fabric()
    for realm in ("net", "A", "B"):
        f.add_realm(realm, RealmTech.IPISH)
    f.add_node("x", NodeKind.HOST, realms_of_x)
    f.add_node("z", NodeKind.HOST, ["net", "B"])
    f.add_node("y", NodeKind.HOST, ["net"])
    f.add_link("x", "z", "net")
    f.add_link("x", "y", "net")
    f.partition("B")
    f.partition("A")
    f.heal("A")
    x_in_b = "B" in realms_of_x
    assert f.node_tags["z"] == frozenset({"disaster"})
    assert f.node_tags["x"] == frozenset({"disaster" if x_in_b else "normal"})
    assert f.topology.path("net", "x", "z") == (["x", "z"] if x_in_b else None)
    assert f.topology.path("net", "x", "y") == (None if x_in_b else ["x", "y"])
    f.heal("B")
    assert f.topology.path("net", "x", "z") == ["x", "z"] and f.topology.path("net", "x", "y") == ["x", "y"]
    assert set(f.node_tags.values()) == {frozenset({"normal"})}


def test_empty_fabric_empty_trace():
    f = Fabric()
    f.run_until_idle()
    assert f.sorted_trace() == []
    assert f.trace_text() == ""


def test_realm_isolation_over_builtins():
    for name in ("fig3", "mobility-return", "reverse-multicast", "disaster", "migration"):
        fabric = run_scenario(load_builtin(name)).fabric
        for realm in fabric.realms.values():
            if realm.technology is not RealmTech.CCNISH:
                continue
            registrars = {owner for _, owner in realm.fib_registrations}
            assert registrars <= realm.member_nodes
            allowed = {prefix for prefix, _ in realm.fib_registrations}
            for member in realm.member_nodes:
                state = fabric.nodes[member].ccn[realm.id]
                assert {e.prefix for e in state.fib} <= allowed


TUNNEL = re.compile(r" tunnel realm=(\S+) inner=(\d+)$")


def tunnelled_hops(fabric):
    """(outer msg, inner msg, nested realm) of each tunnelled hop, read from
    the SEND line that carries it."""
    hops = []
    for e in fabric.trace:
        hop = TUNNEL.search(e.detail) if e.event is EventKind.SEND else None
        if hop is not None:
            hops.append((e.msg_id, int(hop[2]), hop[1]))
    return hops


def one_hop_carriers(fabric):
    """The ids the trace shows only as one-hop carriers: a tunnelling SEND
    and a RECV in a top-level realm, and no FWD."""
    rows = {}
    for e in fabric.trace:
        rows.setdefault(e.msg_id, []).append(e)
    return {outer for outer, _, _ in tunnelled_hops(fabric)
            if [e.event for e in rows[outer]] == [EventKind.SEND, EventKind.RECV]
            and fabric.realms[rows[outer][0].realm].parent_realm is None}


def assert_carriers_sound(fabric):
    """Each tunnelled hop leaves a nested realm; a one-hop carrier is no
    kept message, and every other carrier is kept and its body decodes to
    the inner message: in full, as it was minted, where its id is kept.
    Gives the number of kept carriers."""
    tunnelled = tunnelled_hops(fabric)
    outers = [outer for outer, _, _ in tunnelled]
    assert len(outers) == len(set(outers))
    one_hop = one_hop_carriers(fabric)
    for outer, inner, realm in tunnelled:
        assert fabric.realms[realm].parent_realm is not None
        if outer in one_hop:
            assert outer not in fabric.messages
        else:
            carried = decode(fabric.messages[outer].body)
            assert carried.msg_id == inner
            # A message made outside _new_msg, as run_nested's are, is not kept.
            if inner in fabric.messages:
                assert carried == fabric.messages[inner]
    return len(tunnelled) - len(one_hop)


def test_nesting_soundness_on_migration():
    fabric = run_scenario(load_builtin("migration")).fabric
    assert tunnelled_hops(fabric), "nested realm hops should be tunneled"
    # migration's two tunnelled hops each take one hop in the top-level realm.
    assert assert_carriers_sound(fabric) == 0


def test_name_to_name_symmetry_over_builtins():
    for name in ("fig3", "mobility-return", "reverse-multicast", "disaster", "migration"):
        fabric = run_scenario(load_builtin(name)).fabric
        for resp_id, req_id in fabric.response_of.items():
            if resp_id == req_id:
                continue
            response = fabric.messages[resp_id]
            request = fabric.messages[req_id]
            assert response.target_name == request.source_name


# ------------------------------------------------------------------ memos
# The engine's memos, and the Names table set-up hands it, only save work:
# a run that forgets them all around every clock callback logs the same
# trace.  A private attribute added later to Fabric or Topology fails the
# first tests below until it is listed, as a memo or as set-up state, and a
# Topology memo that forget() leaves filled fails the second.

MEMOS = ("_query_text", "_bridge_rules")
TOPOLOGY_INDEXES = {"_adjacency", "_members_of_kind"}
TOPOLOGY_MEMOS = {"_trees", "_routes", "_hops", "_servers"}


def test_fabric_private_state_is_its_memos_and_set_up_indexes():
    private = {attr for attr in vars(Fabric()) if attr.startswith("_")}
    # _msg_ids counts the run's messages; _rows holds its trace, read through
    # Fabric.trace and sorted_trace.
    assert private == {*MEMOS, "_msg_ids", "_rows"}


def test_topology_private_state_is_its_set_up_indexes_and_memos_and_forget_clears_them():
    topology = run_scenario(load_builtin("fig3")).fabric.topology
    memos = {attr for attr in vars(topology) if attr.startswith("_")} - TOPOLOGY_INDEXES
    assert memos == TOPOLOGY_MEMOS
    assert all(getattr(topology, memo) for memo in memos)
    topology.forget()
    assert not any(getattr(topology, memo) for memo in memos)
    assert all(getattr(topology, index) for index in TOPOLOGY_INDEXES)


@contextmanager
def forgetting_every_memo():
    """Within it, each Fabric made forgets every memo around each clock
    callback, so each hop of a flight finds the epoch of its route gone and
    reads its link through link_between: the oracle of the hops that read
    it from their route.  Yields the list of those link_between calls."""
    def forget(fabric):
        fabric.topology.forget()
        for memo in MEMOS:
            getattr(fabric, memo).clear()
        fabric.name_of = parse_name

    # Hops are scheduled on the clock itself, past Fabric.at, so the clock's
    # schedule is wrapped, and each clock is mapped back to its fabric.
    fabric_of, fallbacks = {}, []
    real_init, real_schedule = Fabric.__init__, SimClock.schedule
    real_link_between = Topology.link_between

    def recording_init(fabric):
        real_init(fabric)
        fabric_of[fabric.clock] = fabric

    def forgetful_schedule(clock, tick, fn):
        def callback():
            forget(fabric_of[clock])
            fn()
            forget(fabric_of[clock])
        real_schedule(clock, tick, callback)

    def counted_link_between(topology, *args):
        fallbacks.append(args)
        return real_link_between(topology, *args)

    Fabric.__init__, SimClock.schedule = recording_init, forgetful_schedule
    Topology.link_between = counted_link_between
    try:
        yield fallbacks
    finally:
        Fabric.__init__, SimClock.schedule = real_init, real_schedule
        Topology.link_between = real_link_between


@pytest.mark.parametrize("name", [*BUILTIN_NAMES, "churn", "bridge-pull"])
def test_a_run_that_forgets_every_memo_gives_the_same_trace(name):
    # Two perfbench workloads, at smoke size, are checked against their own
    # plain run.  churn tunnels its vault realm's hops through core, and its
    # stub partition cuts nr-b's vault link while they are under way.
    if name in BUILTIN_NAMES:
        scenario, expected = load_builtin(name), golden_trace(name)
    else:
        scenario = parse_scenario(workloads.generate(name, 1, "smoke").scenario_text, name=name)
        expected = run_scenario(scenario).trace_text + "\n"
    with forgetting_every_memo() as fallbacks:
        assert run_scenario(scenario).trace_text + "\n" == expected
    assert fallbacks  # the run took the per-hop fallback


# ------------------------------------------------------------ route oracle
# Reference routing by a scan of every link and a sorted-list search; the
# fabric's indexed adjacency and memoised routes must agree with it.


def oracle_adjacent(f, realm_id, node):
    out = []
    for link in f.topology.links:
        if link.realm != realm_id or not link.alive:
            continue
        if node in (link.a, link.b):
            out.append((link.other(node), link))
    return sorted(out, key=lambda pair: (pair[0], pair[1].delay))


def oracle_link_between(f, realm_id, a, b):
    for nbr, link in oracle_adjacent(f, realm_id, a):
        if nbr == b:
            return link
    return None


def oracle_path(f, realm_id, src, dst):
    if src == dst:
        return [src]
    best = {src: (0, (src,))}
    frontier = [(0, (src,), src)]
    while frontier:
        frontier.sort(key=lambda item: (item[0], item[1]))
        dist, path, node = frontier.pop(0)
        if node == dst:
            return list(path)
        if best.get(node, (dist, path)) < (dist, path):
            continue
        for nbr, link in oracle_adjacent(f, realm_id, node):
            cand = (dist + link.delay, path + (nbr,))
            if nbr not in best or cand < best[nbr]:
                best[nbr] = cand
                frontier.append((cand[0], cand[1], nbr))
    return None


def oracle_nearest_server(f, node_id, kind):
    best = None
    for rid in sorted(f.nodes[node_id].realms):
        for member in sorted(f.realms[rid].member_nodes):
            if f.nodes[member].kind is not kind:
                continue
            path = oracle_path(f, rid, node_id, member)
            if path is None:
                continue
            delay = sum(oracle_link_between(f, rid, a, b).delay for a, b in zip(path, path[1:]))
            cand = (delay, rid, member)
            if best is None or cand < best:
                best = cand
    return None if best is None else (best[2], best[0], best[1])


def oracle_gateway(f, realm_id, node_id, toward):
    reachable = [n for n in sorted(f.realms[realm_id].member_nodes)
                 if f.nodes[n].kind is NodeKind.NAME_ROUTER
                 and oracle_path(f, realm_id, node_id, n) is not None]
    bordering = [n for n in reachable if toward.intersection(f.nodes[n].realms)]
    return next(iter(bordering + reachable), None)


ROUTE_KINDS = st.sampled_from([NodeKind.HOST, NodeKind.ROUTER, NodeKind.NRS, NodeKind.ORS,
                               NodeKind.NAME_ROUTER])
CELLS = ("cell0", "cell1")
ROUTE_NODE = st.tuples(ROUTE_KINDS, st.booleans(), st.booleans())  # (kind, in cell0, in cell1)
ROUTE_STEP = st.one_of(
    # delays 1 and 2 make equal-delay ties; repeated endpoints make parallel links
    st.tuples(st.just("link"), st.integers(0, 7), st.integers(0, 7), st.integers(1, 2)),
    st.tuples(st.just("node"), ROUTE_NODE),
    st.tuples(st.sampled_from(["partition", "heal"]), st.sampled_from(CELLS)),
)


def route_fabric_states(initial, steps):
    """One routing realm, "net", and two cells that may overlap, built from
    ROUTE_NODE and ROUTE_STEP draws: yields (fabric, its nodes, the cells
    partitioned) once the initial nodes are in, and again after each step.
    A link of net is down while it crosses the edge of a cell that is
    partitioned, and a node is tagged disaster while a cell it is in is."""
    f = Fabric()
    for realm in ("net", *CELLS):
        f.add_realm(realm, RealmTech.IPISH)
    nodes, down = [], set()

    def add(kind, *in_cells):
        node = f"n{len(nodes)}"
        f.add_node(node, kind, ["net"] + [c for c, inside in zip(CELLS, in_cells) if inside])
        nodes.append(node)

    for node in initial:
        add(*node)
    yield f, nodes, down
    for step in steps:
        if step[0] == "link":
            a, b = nodes[step[1] % len(nodes)], nodes[step[2] % len(nodes)]
            if a != b:
                f.add_link(a, b, "net", step[3])
        elif step[0] == "node":
            add(*step[1])
        else:
            op, cell = step
            getattr(f, op)(cell)
            (down.add if op == "partition" else down.discard)(cell)
        yield f, nodes, down


@settings(deadline=None)
@given(st.lists(ROUTE_NODE, min_size=2, max_size=5), st.lists(ROUTE_STEP, max_size=10))
def test_routes_match_link_scan_oracle(initial, steps):
    for f, nodes, down in route_fabric_states(initial, steps):
        for link in f.topology.links:
            ends = [set(f.nodes[n].realms) for n in (link.a, link.b)]
            assert link.alive == all((c in ends[0]) == (c in ends[1]) for c in down)
        for a in nodes:
            tag = "disaster" if down.intersection(f.nodes[a].realms) else "normal"
            assert f.node_tags[a] == frozenset({tag})
            for b in nodes:
                assert f.topology.path("net", a, b) == oracle_path(f, "net", a, b)
                assert f.topology.link_between("net", a, b) is oracle_link_between(f, "net", a, b)
            for kind in (NodeKind.NRS, NodeKind.ORS):
                assert f._nearest_server(a, kind) == oracle_nearest_server(f, a, kind)
            for toward in ({"cell0"}, {"cell1"}, set()):
                assert f._gateway("net", a, toward) == oracle_gateway(f, "net", a, toward)


def summing_nearest(topology, node_id, realm_ids, kind):
    """Topology.nearest as it was before route entries held delays: each
    route's delay is the sum of link_between's delays along its path."""
    routes = ((rid, m, topology.path(rid, node_id, m))
              for rid in realm_ids for m in topology.members(rid, kind))
    best = min(((sum(topology.link_between(rid, a, b).delay for a, b in zip(p, p[1:])), rid, m)
                for rid, m, p in routes if p is not None), default=None)
    return None if best is None else (best[2], best[0], best[1])


@settings(deadline=None)
@given(st.lists(ROUTE_NODE, min_size=2, max_size=6), st.lists(ROUTE_STEP, max_size=12))
def test_route_entries_match_link_between_and_the_summing_oracle(initial, steps):
    # Delays 1 and 2 tie, repeated endpoints make parallel links (which
    # compare equal as dataclasses, so links are matched by identity) and
    # partitioned cells cut links; stubs arise wherever a node has one
    # alive neighbour.
    for f, nodes, _ in route_fabric_states(initial, steps):
        topology = f.topology
        for a in nodes:
            for b in nodes:
                route = f._path("net", a, b)
                if route is None:
                    assert topology.delay("net", a, b) is None
                    continue
                # A flight takes links[i - 1] from path[i - 1] to path[i]
                # while the epoch the route was read in stands.
                path, links = route
                expected = [topology.link_between("net", x, y) for x, y in zip(path, path[1:])]
                assert list(map(id, links)) == list(map(id, expected))
                assert topology.delay("net", a, b) == sum(link.delay for link in links)
            for kind in (NodeKind.NRS, NodeKind.ORS, NodeKind.NAME_ROUTER):
                assert f._nearest_server(a, kind) == summing_nearest(
                    topology, a, f.nodes[a].realms, kind)


class RouteQueriesOracleMachine(RuleBasedStateMachine):
    """Links, partitions and heals interleaved with route, delay and
    nearest-server queries from random ends in random order.  A route is
    read from whichever end's tree is held, so its answer depends on which
    queries came first; a heal that leaves a memo stale shows only in such
    a sequence.  Each answer is checked against the memo-free search and
    link_between."""

    NODE = st.integers(0, 7)

    @initialize(initial=st.lists(ROUTE_NODE, min_size=2, max_size=6))
    def build(self, initial):
        self.states = route_fabric_states(initial, ())
        self.f, self.nodes, self.down = next(self.states)

    def node(self, i):
        return self.nodes[i % len(self.nodes)]

    # delays 1 and 2 make equal-delay ties; repeated endpoints make parallel links
    @rule(a=NODE, b=NODE, delay=st.integers(1, 2))
    def add_link(self, a, b, delay):
        if self.node(a) != self.node(b):
            self.f.add_link(self.node(a), self.node(b), "net", delay)

    @rule(cell=st.sampled_from(CELLS))
    def partition(self, cell):
        self.f.partition(cell)
        self.down.add(cell)

    @rule(cell=st.sampled_from(CELLS))
    def heal(self, cell):
        self.f.heal(cell)
        self.down.discard(cell)

    @rule(a=NODE, b=NODE)
    def route(self, a, b):
        src, dst = self.node(a), self.node(b)
        route, want = self.f._path("net", src, dst), oracle_path(self.f, "net", src, dst)
        if want is None:
            assert route is None
            return
        path, links = route
        assert list(path) == want
        expected = [oracle_link_between(self.f, "net", x, y) for x, y in zip(want, want[1:])]
        assert list(map(id, links)) == list(map(id, expected))

    @rule(a=NODE, b=NODE)
    def delay(self, a, b):
        src, dst = self.node(a), self.node(b)
        want = oracle_path(self.f, "net", src, dst)
        assert self.f.topology.delay("net", src, dst) == (None if want is None else sum(
            oracle_link_between(self.f, "net", x, y).delay for x, y in zip(want, want[1:])))

    @rule(a=NODE, kind=st.sampled_from([NodeKind.NRS, NodeKind.ORS, NodeKind.NAME_ROUTER]))
    def nearest_server(self, a, kind):
        node = self.node(a)
        assert self.f._nearest_server(node, kind) == oracle_nearest_server(self.f, node, kind)

    @invariant()
    def links_are_alive_iff_they_cross_no_cut(self):
        for link in self.f.topology.links:
            ends = [set(self.f.nodes[n].realms) for n in (link.a, link.b)]
            assert link.alive == all((c in ends[0]) == (c in ends[1]) for c in self.down)


test_route_queries_from_either_end_match_the_oracle = RouteQueriesOracleMachine.TestCase
test_route_queries_from_either_end_match_the_oracle.settings = settings(deadline=None)


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(1, 2)),
                max_size=24))
def test_adjacency_lists_keep_the_stable_sorted_order(links):
    # Few nodes and delays, so many links are parallel with equal delays;
    # each neighbour's list is the links to it in the oracle's stable sort.
    f = Fabric()
    f.add_realm("net", RealmTech.IPISH)
    nodes = [f"n{i}" for i in range(4)]
    for node in nodes:
        f.add_node(node, NodeKind.ROUTER, ["net"])
    for a, b, delay in links:
        if a != b:
            f.add_link(nodes[a], nodes[b], "net", delay)
    for node in nodes:
        got = f.topology._adjacency.get(("net", node), {})
        want = {}
        for nbr, link in oracle_adjacent(f, "net", node):
            want.setdefault(nbr, []).append(id(link))
        assert {nbr: list(map(id, links)) for nbr, links in got.items()} == want


@pytest.mark.parametrize("delay", [0, -1])
def test_add_link_refuses_a_delay_below_one(delay):
    f = tiny_ip_fabric()
    with pytest.raises(ValueError, match="delay must be >= 1"):
        f.add_link("a", "b", "net", delay)
    assert len(f.topology.links) == 1
    assert f.topology.path("net", "a", "b") == ["a", "b"]


# ------------------------------------------------------------- FIB oracle
# build_fibs as it was: one route per (prefix, member).  The fabric routes
# each (realm, owner) once and shares one index per realm; every Fib must
# list the same entries in the same order, and answer as a scan of them.


def oracle_build_fibs(f):
    """(realm -> fib_registrations, (member, realm) -> FibEntry list) by the
    per-prefix loop."""
    adverts = {}
    for node in f.nodes.values():
        for rid, state in node.ccn.items():
            for prefix in sorted(state.repo):
                adverts.setdefault(rid, []).append((prefix, node.id))
    for fcn, home in sorted(f.topic_home.items()):
        for rid in f.nodes[home].realms:
            if f.realms[rid].technology is RealmTech.CCNISH:
                adverts.setdefault(rid, []).append((fcn, home))
    registrations, fibs = {}, {}
    for rid, entries in sorted(adverts.items()):
        for prefix, owner in entries:
            registrations.setdefault(rid, []).append((prefix, owner))
            for member in sorted(f.realms[rid].member_nodes):
                if member == owner:
                    continue
                path = oracle_path(f, rid, member, owner)
                if path is None or len(path) < 2:
                    continue
                fibs.setdefault((member, rid), []).append(FibEntry(prefix, path[1]))
    return registrations, fibs


FIB_PREFIXES = ("a", "a/b", "c", "d/e")
FIB_NODE = st.tuples(st.booleans(), st.booleans())  # (member of ccnB, member of cell)
FIB_LINK = st.tuples(st.integers(0, 7), st.integers(0, 7), st.booleans(), st.integers(1, 2))
FIB_OWNER = st.tuples(st.integers(0, 7), st.sampled_from(FIB_PREFIXES))


@settings(deadline=None)
@given(st.lists(FIB_NODE, min_size=2, max_size=7), st.lists(FIB_LINK, max_size=14),
       st.lists(FIB_OWNER, min_size=1, max_size=6), st.none() | st.integers(0, 7), st.booleans())
def test_fibs_match_per_prefix_oracle(nodes, links, owners, topic_home, partitioned):
    # Every node is in CCNISH realm ccnA, some also in ccnB and in cell.
    # Repeated endpoints make parallel links, delays 1 and 2 make ties,
    # owners share prefixes, and partition("cell") kills ccnA/ccnB links
    # that cross cell's edge.
    f = Fabric()
    for rid, tech in (("ccnA", RealmTech.CCNISH), ("ccnB", RealmTech.CCNISH),
                      ("cell", RealmTech.IPISH)):
        f.add_realm(rid, tech)
    ids = [f"n{i}" for i in range(len(nodes))]
    for node, (in_b, in_cell) in zip(ids, nodes):
        f.add_node(node, NodeKind.CCN_ROUTER,
                   ["ccnA"] + ["ccnB"] * in_b + ["cell"] * in_cell)
    for i, j, on_b, delay in links:
        a, b = ids[i % len(ids)], ids[j % len(ids)]
        if a == b:
            continue
        both_in_b = on_b and "ccnB" in f.nodes[a].realms and "ccnB" in f.nodes[b].realms
        f.add_link(a, b, "ccnB" if both_in_b else "ccnA", delay)
    for k, (i, prefix) in enumerate(owners):
        f.host_content(ids[i % len(ids)], parse_name(f"n2n://repo:o{k}"), b"x", prefix)
    if topic_home is not None:
        f.topic_home["t/news"] = ids[topic_home % len(ids)]
    if partitioned:
        f.partition("cell")
    registrations, fibs = oracle_build_fibs(f)
    f.build_fibs()
    for rid in ("ccnA", "ccnB"):
        assert f.realms[rid].fib_registrations == registrations.get(rid, [])
    for node in ids:
        for rid, state in f.nodes[node].ccn.items():
            expected = fibs.get((node, rid), [])
            assert list(state.fib) == expected
            for fcn in FIB_PREFIXES + ("t/news", "x"):  # every advert, and a miss
                assert lookup_or_none(state.fib, fcn) == brute_lookup(expected, fcn), fcn


def fib_fabric(nodes, links, owners, topic_home, partitioned):
    """The FIB oracle's fabric: every node in CCNISH ccnA, some in ccnB and cell."""
    f = Fabric()
    for rid, tech in (("ccnA", RealmTech.CCNISH), ("ccnB", RealmTech.CCNISH),
                      ("cell", RealmTech.IPISH)):
        f.add_realm(rid, tech)
    for i, (in_b, in_cell) in enumerate(nodes):
        f.add_node(f"n{i}", NodeKind.CCN_ROUTER, ["ccnA"] + ["ccnB"] * in_b + ["cell"] * in_cell)
    for i, j, on_b, delay in links:
        a, b = f"n{i % len(nodes)}", f"n{j % len(nodes)}"
        if a != b:
            both_in_b = on_b and "ccnB" in f.nodes[a].realms and "ccnB" in f.nodes[b].realms
            f.add_link(a, b, "ccnB" if both_in_b else "ccnA", delay)
    for k, (i, prefix) in enumerate(owners):
        f.host_content(f"n{i % len(nodes)}", parse_name(f"n2n://repo:o{k}"), b"x", prefix)
    if topic_home is not None:
        f.topic_home["t/news"] = f"n{topic_home % len(nodes)}"
    if partitioned:
        f.partition("cell")
    return f


def brute_lookup(entries, fcn):
    """The longest matching prefix's smallest next hop, by a scan; None on a miss."""
    target = fcn_segments(fcn)
    hits = []
    for e in entries:
        prefix = fcn_segments(e.prefix)
        if target[:len(prefix)] == prefix:
            hits.append((-len(prefix), e.next_hop))
    return min(hits)[1] if hits else None


def lookup_or_none(fib, fcn):
    try:
        return fib_lookup(fib, fcn)
    except NoFibMatch:
        return None


FIB_FCN = st.one_of(
    st.sampled_from(FIB_PREFIXES + ("t/news", "ccnx://a/b")),            # hits
    st.tuples(st.sampled_from(FIB_PREFIXES + ("t/news",)),
              st.sampled_from(("b", "x/y"))).map("/".join),               # extensions
    st.sampled_from(("x", "ab", "d", "t", "")),                           # misses
)


@settings(deadline=None)
@given(st.lists(FIB_NODE, min_size=2, max_size=7), st.lists(FIB_LINK, max_size=14),
       st.lists(FIB_OWNER, min_size=1, max_size=6), st.none() | st.integers(0, 7), st.booleans(),
       st.lists(FIB_FCN, min_size=1, max_size=8))
def test_fib_lookups_match_per_prefix_oracle(nodes, links, owners, topic_home, partitioned,
                                             fcns):
    # Every member answers every FCN as a scan of the oracle's entries does.
    f = fib_fabric(nodes, links, owners, topic_home, partitioned)
    _, fibs = oracle_build_fibs(f)
    f.build_fibs()
    for node in f.nodes.values():
        for rid, state in node.ccn.items():
            expected = fibs.get((node.id, rid), [])
            assert list(state.fib) == expected
            for fcn in fcns:
                assert lookup_or_none(state.fib, fcn) == brute_lookup(expected, fcn), fcn


def test_build_fibs_shares_one_advert_index_per_realm(monkeypatch):
    # Realm ccn: a chain of six members, three of which own ten prefixes
    # each, plus a topic; a second realm holds two of the members.
    f = Fabric()
    f.add_realm("ccn", RealmTech.CCNISH)
    f.add_realm("edge", RealmTech.CCNISH)
    members = [f"m{i}" for i in range(6)]
    for m in members:
        f.add_node(m, NodeKind.CCN_ROUTER, ["ccn"] + ["edge"] * (m in ("m0", "m1")))
    for a, b in zip(members, members[1:]):
        f.add_link(a, b, "ccn")
    f.add_link("m0", "m1", "edge")
    owners = ("m0", "m2", "m5")
    for owner in owners:
        for k in range(10):
            f.host_content(owner, parse_name(f"n2n://repo:{owner}-{k}"), b"x", f"{owner}/{k}")
    f.topic_home["t/news"] = "m3"
    paths, entries = [], []
    real_path = f._path
    monkeypatch.setattr(f, "_path", lambda *args: paths.append(args) or real_path(*args))
    real_init = FibEntry.__init__
    monkeypatch.setattr(FibEntry, "__init__",
                        lambda self, *args: entries.append(args) or real_init(self, *args))
    f.build_fibs()
    monkeypatch.undo()
    fibs = [f.nodes[m].ccn["ccn"].fib for m in members]
    # Four owners in ccn (m0, m2, m5, m3), two in edge (m0, m1 share m0's adverts).
    assert len(paths) <= len(members) * 4 + 2 * 1
    assert entries == []
    assert all(fib._index is fibs[0]._index and fib._adverts is fibs[0]._adverts for fib in fibs)
    assert len(fibs[0]._index) == 31
    assert [len(fib._hops) for fib in fibs] == [3, 4, 3, 3, 4, 3]
    assert f.nodes["m0"].ccn["edge"].fib._index is not fibs[0]._index
    assert fib_lookup(fibs[0], "m5/3/x") == "m1" and fib_lookup(fibs[5], "m0/3") == "m4"


def test_link_dying_in_flight_reroutes():
    # a-b-x-c is the shortest path (3); b-d-c (delay 2 each) is the detour.
    f = tiny_ip_fabric(("a",))
    f.add_realm("cell", RealmTech.IPISH)
    for node in "bcd":
        f.add_node(node, NodeKind.HOST, ["net"])
    f.add_node("x", NodeKind.ROUTER, ["net", "cell"])
    for a, b, delay in (("a", "b", 1), ("b", "x", 1), ("x", "c", 1), ("b", "d", 2), ("d", "c", 2)):
        f.add_link(a, b, "net", delay)
    tgt = bound(f, "c", "carol")
    assert f.topology.path("net", "a", "c") == ["a", "b", "x", "c"]
    assert f.topology.path("net", "b", "c") == ["b", "x", "c"]  # memoised before x is cut off
    f.at(1, lambda: f.partition("cell"))  # runs before the message leaves b
    f.send("a.net", "c", resp(f, tgt))
    f.run_until_idle()
    hops = [(tick, node, event) for tick, node, _, event, *_ in f.sorted_trace()
            if event != "REBIND"]
    assert hops == [(0, "a", "SEND"), (1, "b", "FWD"), (3, "d", "FWD"), (5, "c", "RECV"),
                    (5, "c", "DELIVER")]


def test_parallel_links_take_the_cheapest():
    # a-b is linked twice, delay 3 then delay 1; a-c-b costs 2 and b-s 1.
    f = Fabric()
    f.add_realm("r", RealmTech.IPISH)
    for node, kind in (("a", NodeKind.HOST), ("b", NodeKind.HOST),
                       ("c", NodeKind.ROUTER), ("s", NodeKind.NRS)):
        f.add_node(node, kind, ["r"])
    for a, b, delay in (("a", "b", 3), ("a", "b", 1), ("a", "c", 1), ("c", "b", 1), ("b", "s", 1)):
        f.add_link(a, b, "r", delay)
    assert f.topology.path("r", "a", "b") == ["a", "b"]
    assert f.topology.link_between("r", "a", "b").delay == 1
    assert f._nearest_server("a", NodeKind.NRS) == ("s", 2, "r")
    bob = parse_name("n2n://users:bob")
    f.known_names.add(bob)
    f.bind(bob, "b.r")
    f.send("a.r", "b", resp(f, bob))
    f.run_until_idle()
    assert [e.tick for e in f.trace if e.event is EventKind.RECV] == [1]


def test_cheaper_link_healed_between_hops_takes_the_next_hop():
    # a-b then b-c, linked twice: delay 5, and delay 1, which is down when
    # the message leaves a and back up before it leaves b.
    f = tiny_ip_fabric(("a", "b"))
    f.add_node("c", NodeKind.HOST, ["net"])
    f.add_link("b", "c", "net", 5)
    cheap = f.add_link("b", "c", "net", 1)
    cheap.alive = False
    f.topology.forget()
    tgt = bound(f, "c", "carol")
    assert f.topology.path("net", "a", "c") == ["a", "b", "c"]

    def heal():
        cheap.alive = True
        f.topology.forget()

    f.at(1, heal)  # runs before the message leaves b
    f.send("a.net", "c", resp(f, tgt))
    f.run_until_idle()
    assert [(e.tick, e.node, e.event) for e in f.trace if e.event is not EventKind.REBIND] == [
        (0, "a", EventKind.SEND),
        (1, "b", EventKind.FWD),
        (2, "c", EventKind.RECV),
        (2, "c", EventKind.DELIVER),
    ]


def test_link_added_in_flight_is_priced_at_the_next_hop():
    # a-b then b-c (delay 5); a second b-c link, delay 1, is added after the
    # message leaves a and before it leaves b.  add_link must make the
    # flight drop the link its route planned for that hop.
    f = tiny_ip_fabric(("a", "b"))
    f.add_node("c", NodeKind.HOST, ["net"])
    f.add_link("b", "c", "net", 5)
    tgt = bound(f, "c", "carol")
    f.at(1, lambda: f.add_link("b", "c", "net", 1))
    f.send("a.net", "c", resp(f, tgt))
    f.run_until_idle()
    assert [(e.tick, e.node, e.event) for e in f.trace if e.event is not EventKind.REBIND] == [
        (0, "a", EventKind.SEND),
        (1, "b", EventKind.FWD),
        (2, "c", EventKind.RECV),
        (2, "c", EventKind.DELIVER),
    ]


def nested_fabric(detour):
    """Realm "sub" nests in "net"; both have the links a-b-x-c (delay 1)
    and, with detour, b-d-c (delay 2 each).  x is also in "cell"."""
    f = Fabric()
    f.add_realm("net", RealmTech.IPISH)
    f.add_realm("sub", RealmTech.IPISH, parent="net")
    f.add_realm("cell", RealmTech.IPISH)
    for node in "abcd":
        f.add_node(node, NodeKind.HOST, ["net", "sub"])
    f.add_node("x", NodeKind.ROUTER, ["net", "sub", "cell"])
    links = [("a", "b", 1), ("b", "x", 1), ("x", "c", 1)]
    if detour:
        links += [("b", "d", 2), ("d", "c", 2)]
    for rid in ("sub", "net"):
        for a, b, delay in links:
            f.add_link(a, b, rid, delay)
    return f


NESTED_SEND = [
    "t=0 node=a realm=sub event=SEND msg=1 name=n2n://users:carol detail=to=c kind=HTTP_RESP",
    "t=0 node=a realm=net event=SEND msg=2 name=- detail=to=b kind=HTTP_PUSH tunnel realm=sub inner=1",
    "t=1 node=b realm=sub event=FWD msg=1 name=n2n://users:carol detail=to=c kind=HTTP_RESP",
]


@pytest.mark.parametrize("detour, cut_at, rest", [
    # x is cut off while the message is at b: the next tunnel hop re-routes by d.
    (True, 1, [
        "t=1 node=b realm=net event=RECV msg=2 name=- detail=tunnel realm=sub inner=1",
        "t=1 node=b realm=net event=SEND msg=3 name=- detail=to=d kind=HTTP_PUSH tunnel realm=sub inner=1",
        "t=3 node=d realm=sub event=FWD msg=1 name=n2n://users:carol detail=to=c kind=HTTP_RESP",
        "t=3 node=d realm=net event=RECV msg=3 name=- detail=tunnel realm=sub inner=1",
        "t=3 node=d realm=net event=SEND msg=4 name=- detail=to=c kind=HTTP_PUSH tunnel realm=sub inner=1",
        "t=5 node=c realm=sub event=RECV msg=1 name=n2n://users:carol detail=kind=HTTP_RESP",
        "t=5 node=c realm=sub event=DELIVER msg=1 name=n2n://users:carol detail=nap=c.sub body=hi",
        "t=5 node=c realm=net event=RECV msg=4 name=- detail=tunnel realm=sub inner=1",
    ]),
    # ... and with no detour it is dropped at b.
    (False, 1, [
        "t=1 node=b realm=sub event=DROP msg=1 name=n2n://users:carol detail=partitioned",
        "t=1 node=b realm=net event=RECV msg=2 name=- detail=tunnel realm=sub inner=1",
    ]),
    # x is cut off as the message reaches it: it is dropped at x.
    (True, 2, [
        "t=1 node=b realm=net event=RECV msg=2 name=- detail=tunnel realm=sub inner=1",
        "t=1 node=b realm=net event=SEND msg=3 name=- detail=to=x kind=HTTP_PUSH tunnel realm=sub inner=1",
        "t=2 node=x realm=sub event=FWD msg=1 name=n2n://users:carol detail=to=c kind=HTTP_RESP",
        "t=2 node=x realm=sub event=DROP msg=1 name=n2n://users:carol detail=partitioned",
        "t=2 node=x realm=net event=RECV msg=3 name=- detail=tunnel realm=sub inner=1",
    ]),
], ids=["reroute", "drop-at-b", "drop-at-x"])
def test_partition_mid_path_in_a_nested_realm(detour, cut_at, rest):
    f = nested_fabric(detour)
    tgt = parse_name("n2n://users:carol")
    f.known_names.add(tgt)
    f.bind(tgt, "c.sub")
    f.at(cut_at, lambda: f.partition("cell"))
    f.send("a.sub", "c", WireMessage(msg_id=f.new_msg_id(), kind=MessageKind.HTTP_RESP,
                                     target_name=tgt, body=b"hi"))
    f.run_until_idle()
    lines = [line for line in f.trace_text().splitlines() if "event=REBIND" not in line]
    assert lines == NESTED_SEND + rest


def tunnel_fabric(realms, net_links):
    """Each realm after the first, "net", nests in the one before it and has
    the links a-b-c; net has net_links and the router d.  carol is bound at
    c.sub."""
    f = Fabric()
    for parent, rid in zip([None, *realms], realms):
        f.add_realm(rid, RealmTech.IPISH, parent=parent)
    for node in "abc":
        f.add_node(node, NodeKind.HOST, list(realms))
    f.add_node("d", NodeKind.ROUTER, ["net"])
    for a, b in net_links:
        f.add_link(a, b, "net")
    for rid in realms[1:]:
        for a, b in (("a", "b"), ("b", "c")):
            f.add_link(a, b, rid)
    tgt = parse_name("n2n://users:carol")
    f.known_names.add(tgt)
    f.bind(tgt, "c.sub")
    return f, tgt


TWICE_NESTED_SEND = [
    "t=0 node=a realm=sub event=SEND msg=1 name=n2n://users:carol detail=to=c kind=HTTP_RESP",
    "t=0 node=a realm=mid event=SEND msg=2 name=- detail=to=b kind=HTTP_PUSH tunnel realm=sub inner=1",
    "t=0 node=a realm=net event=SEND msg=3 name=- detail=to=b kind=HTTP_PUSH tunnel realm=mid inner=2",
    "t=1 node=b realm=sub event=FWD msg=1 name=n2n://users:carol detail=to=c kind=HTTP_RESP",
]
TWICE_NESTED_AT_B = [
    "t=1 node=b realm=mid event=RECV msg=2 name=- detail=tunnel realm=sub inner=1",
    "t=1 node=b realm=net event=RECV msg=3 name=- detail=tunnel realm=mid inner=2",
    "t=1 node=b realm=mid event=SEND msg=4 name=- detail=to=c kind=HTTP_PUSH tunnel realm=sub inner=1",
]


def test_a_twice_nested_hop_is_tunnelled_through_each_parent():
    # sub nests in mid, which nests in net: each hop of sub is a push in
    # mid, and each hop of that push is a push in net.
    f, tgt = tunnel_fabric(("net", "mid", "sub"), [("a", "b"), ("b", "c")])
    f.send("a.sub", "c", resp(f, tgt, b"hi"))
    f.run_until_idle()
    lines = [line for line in f.trace_text().splitlines() if "event=REBIND" not in line]
    assert lines == TWICE_NESTED_SEND + TWICE_NESTED_AT_B + [
        "t=1 node=b realm=net event=SEND msg=5 name=- detail=to=c kind=HTTP_PUSH tunnel realm=mid inner=4",
        "t=2 node=c realm=sub event=RECV msg=1 name=n2n://users:carol detail=kind=HTTP_RESP",
        "t=2 node=c realm=sub event=DELIVER msg=1 name=n2n://users:carol detail=nap=c.sub body=hi",
        "t=2 node=c realm=mid event=RECV msg=4 name=- detail=tunnel realm=sub inner=1",
        "t=2 node=c realm=net event=RECV msg=5 name=- detail=tunnel realm=mid inner=4",
    ]


@pytest.mark.parametrize("realms, net_links, cut, lines", [
    # The parent realm's b-c is cut before the second hop: its outer push
    # has no route from b, and the inner message is dropped at b too.
    (("net", "sub"), [("a", "b"), ("b", "c")], ("b", "c"), NESTED_SEND + [
        "t=1 node=b realm=sub event=DROP msg=1 name=n2n://users:carol detail=partitioned outer=3",
        "t=1 node=b realm=net event=RECV msg=2 name=- detail=tunnel realm=sub inner=1",
        "t=1 node=b realm=net event=DROP msg=3 name=- detail=partitioned",
    ]),
    # The parent realm carries b-c by d, and d-c dies as the outer push
    # reaches d: it is dropped at d, and the inner message at b.
    (("net", "sub"), [("a", "b"), ("b", "d"), ("d", "c")], ("d", "c"), NESTED_SEND + [
        "t=1 node=b realm=net event=RECV msg=2 name=- detail=tunnel realm=sub inner=1",
        "t=1 node=b realm=net event=SEND msg=3 name=- detail=to=c kind=HTTP_PUSH tunnel realm=sub inner=1",
        "t=2 node=b realm=sub event=DROP msg=1 name=n2n://users:carol detail=partitioned outer=3",
        "t=2 node=d realm=net event=FWD msg=3 name=- detail=to=c kind=HTTP_PUSH",
        "t=2 node=d realm=net event=DROP msg=3 name=- detail=partitioned",
    ]),
    # Two levels: net's push 5 has no route from b, so mid's push 4, which
    # it carries, and sub's message 1, which that carries, are dropped at b.
    (("net", "mid", "sub"), [("a", "b"), ("b", "c")], ("b", "c"), TWICE_NESTED_SEND + [
        "t=1 node=b realm=sub event=DROP msg=1 name=n2n://users:carol detail=partitioned outer=4",
    ] + TWICE_NESTED_AT_B + [
        "t=1 node=b realm=mid event=DROP msg=4 name=- detail=partitioned outer=5",
        "t=1 node=b realm=net event=DROP msg=5 name=- detail=partitioned",
    ]),
], ids=["unrouted", "lost-in-flight", "unrouted-twice-nested"])
def test_lost_tunnelled_hop_drops_its_inner_message(realms, net_links, cut, lines):
    # An HTTP response goes a -> c in sub, and the net link cut dies at
    # tick 1 or 2.
    f, tgt = tunnel_fabric(realms, net_links)

    def kill():
        for link in f.topology.links:
            if link.realm == "net" and {link.a, link.b} == set(cut):
                link.alive = False
        f.topology.forget()

    f.at(len(net_links) - 1, kill)
    call = fabric_module.CallRecord("push", None, "n2n://users:carol")
    f._transmit(resp(f, tgt, b"hi"), "a", "sub", "c", EventKind.SEND, call)
    f.run_until_idle()
    assert [line for line in f.trace_text().splitlines() if "event=REBIND" not in line] == lines
    assert call.error == "partitioned"
    # A lost carrier is kept, and its body decodes to the message it drops.
    for e in f.trace:
        outer = re.search(r" outer=(\d+)$", e.detail)
        if outer is not None:
            assert decode(f.messages[int(outer[1])].body).msg_id == e.msg_id


CONSERVED_NODES = "abcd"


@st.composite
def nested_runs(draw):
    """A random nested fabric as plain data: its depth (1-3 realms r0, r1,
    r2, each nested in the one before), its nodes, each realm's links with
    their delays, the node of the one-node realm "cell" with the ticks it is
    partitioned and maybe healed, and sends of (tick, from, to) in the
    innermost realm."""
    depth = draw(st.integers(1, 3))
    nodes = CONSERVED_NODES[:draw(st.integers(2, len(CONSERVED_NODES)))]
    pairs = list(itertools.combinations(nodes, 2))
    delays = st.lists(st.none() | st.integers(1, 3), min_size=len(pairs), max_size=len(pairs))
    links = [[(pair, delay) for pair, delay in zip(pairs, draw(delays)) if delay]
             for _ in range(depth)]
    cut_at = draw(st.integers(0, 8))
    heal_at = draw(st.none() | st.integers(cut_at, cut_at + 6))
    node = st.sampled_from(nodes)
    sends = draw(st.lists(st.tuples(st.integers(0, 4), node, node), min_size=1, max_size=3))
    return depth, nodes, links, draw(node), cut_at, heal_at, sends


def run_nested(run):
    """The fabric of a nested_runs draw, run until idle."""
    depth, nodes, links, cell, cut_at, heal_at, sends = run
    realms = [f"r{level}" for level in range(depth)]
    f = Fabric()
    for parent, rid in zip([None, *realms], realms):
        f.add_realm(rid, RealmTech.IPISH, parent=parent)
    f.add_realm("cell", RealmTech.IPISH)
    for node in nodes:
        f.add_node(node, NodeKind.HOST, realms + ["cell"] * (node == cell))
    for rid, realm_links in zip(realms, links):
        for (a, b), delay in realm_links:
            f.add_link(a, b, rid, delay)
    f.at(cut_at, partial(f.partition, "cell"))
    if heal_at is not None:
        f.at(heal_at, partial(f.heal, "cell"))
    for k, (tick, src, dst) in enumerate(sends):
        name = parse_name(f"n2n://users:u{k}")
        f.known_names.add(name)
        f.bind(name, f"{dst}.{realms[-1]}")
        f.at(tick, partial(f._transmit, resp(f, name), src, realms[-1], dst, EventKind.SEND, None))
    f.run_until_idle()
    return f


@settings(deadline=None)
@given(nested_runs())
# r0 has no link, so r1's push from a to b, carrying r2's message, has no route.
@example((3, "ab", [[], [(("a", "b"), 1)], [(("a", "b"), 1)]], "a", 9, None, [(0, "a", "b")]))
def test_every_sent_message_is_received_at_its_destination_or_dropped_once(run):
    f = run_nested(run)
    to, ends = {}, {}
    for e in f.trace:
        if e.event is EventKind.SEND:
            to[e.msg_id] = e.detail.split()[0].removeprefix("to=")
        elif e.event in (EventKind.RECV, EventKind.DROP):
            ends.setdefault(e.msg_id, []).append((e.event, e.node))
    for msg_id, dst in to.items():
        end = ends.get(msg_id, [])
        assert end == [(EventKind.RECV, dst)] or [e for e, _ in end] == [EventKind.DROP], \
            f.trace_text()


@settings(deadline=None)
@given(nested_runs())
# c's only link is cut at tick 1, as the message from a lands at b: the hop
# from b must find it dead, and the message is dropped there.
@example((1, "abc", [[(("a", "b"), 1), (("b", "c"), 1)]], "c", 1, None, [(0, "a", "c")]))
def test_oracle_hops_read_from_their_route_match_the_per_hop_path(run):
    # The cell's partition and heal fall at random ticks, while flights are
    # under way in every realm, tunnelled or not.
    expected = run_nested(run).trace_text()
    with forgetting_every_memo() as fallbacks:
        f = run_nested(run)
    assert f.trace_text() == expected
    # Each hop on from a FWD took the per-hop path, so the oracle read no route.
    assert len(fallbacks) >= sum(row[3] == "FWD" for row in f._rows)


def test_tunnelled_bodies_decode_to_their_inner_message(monkeypatch):
    encoded = []  # (message, bytes) per encode call

    def recording_encode(msg):
        body = encode(msg)
        encoded.append((msg, body))
        return body

    monkeypatch.setattr(fabric_module, "encode", recording_encode)
    nested = nested_fabric(True)
    tgt = parse_name("n2n://users:carol")
    nested.known_names.add(tgt)
    nested.bind(tgt, "c.sub")
    nested.at(1, lambda: nested.partition("cell"))
    nested.send("a.sub", "c", resp(nested, tgt))
    nested.run_until_idle()
    # One flight, re-routed on its way, tunnels three hops, each a one-hop
    # carrier in net: none is kept, and nothing is encoded.
    assert len(tunnelled_hops(nested)) == 3 and encoded == []
    assert assert_carriers_sound(nested) == 0
    # net carries each hop of sub by d, in two hops: both carriers are
    # kept, on one encoding.
    detour, tgt = tunnel_fabric(("net", "sub"), [("a", "d"), ("d", "b"), ("d", "c")])
    detour.send("a.sub", "c", resp(detour, tgt))
    detour.run_until_idle()
    assert len(encoded) == 1
    assert assert_carriers_sound(detour) == 2
    inner_of = {body: msg for msg, body in encoded}
    for outer, inner_id, _ in tunnelled_hops(detour):
        body = detour.messages[outer].body
        assert decode(body) == inner_of[body]
        assert inner_of[body].msg_id == inner_id


def child_flight_tunnel_hop(flight):
    """The reference tunnel hop: every carrier, one hop or not, flies as a
    flight of its own in the parent realm, with the inner flight as its
    carried."""
    fabric, msg = flight.fabric, flight.msg
    if flight.encoded is None:
        flight.encoded = fabric_module.encode(msg)
    outer = fabric._new_msg(MessageKind.HTTP_PUSH, "", None, None, flight.encoded)
    src, dst = flight.path[flight.i - 1], flight.path[flight.i]
    route = fabric._path(flight.parent, src, dst)
    if route is None:
        fabric._lost(src, flight.parent, outer, flight.call, flight)
        return
    fabric._fly(outer, src, flight.parent, dst, route, EventKind.SEND, flight.call, flight)


def kept_messages(fabric):
    return {i: (m.kind, m.body) for i, m in fabric.messages.items()}


def assert_carriers_match_child_flights(run):
    """run() gives a fabric run until idle; it must log the same trace as
    when every carrier is a child flight, and keep the same messages but
    the one-hop carriers, which the child flights mint and it does not."""
    fabric = run()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fabric_module._Flight, "tunnel_hop", child_flight_tunnel_hop)
        oracle = run()
    assert fabric.trace_text() == oracle.trace_text()
    assert_carriers_sound(fabric)
    one_hop = one_hop_carriers(oracle)
    expected = kept_messages(oracle)
    assert one_hop <= expected.keys()
    assert kept_messages(fabric) == {i: m for i, m in expected.items() if i not in one_hop}


@settings(deadline=None)
@given(nested_runs())
def test_oracle_one_hop_carriers_match_child_flights(run):
    # Depth 1-3, with the cell partitioned and healed at random ticks.
    assert_carriers_match_child_flights(partial(run_nested, run))


@pytest.mark.parametrize("name", ["migration", "churn"])
def test_oracle_one_hop_carriers_match_child_flights_on_scenarios(name):
    # churn, at smoke size, tunnels its vault realm's hops through core.
    if name == "churn":
        scenario = parse_scenario(workloads.generate(name, 1, "smoke").scenario_text, name=name)
    else:
        scenario = load_builtin(name)
    assert_carriers_match_child_flights(lambda: run_scenario(scenario).fabric)


@pytest.mark.parametrize("realms, net_links, flights, encodes", [
    # net carries each hop of sub in one hop: only sub's flight is built,
    # and nothing is encoded.
    (("net", "sub"), [("a", "b"), ("b", "c")], ["sub"], 0),
    # net carries sub's b-c hop by d, two hops: that push is a flight, and
    # sub's message is encoded as its body.
    (("net", "sub"), [("a", "b"), ("b", "d"), ("d", "c")], ["sub", "net"], 1),
    # mid is nested, so each of its pushes is a flight, on one encoding of
    # sub's message; net carries their hops in one hop each, so mid's
    # pushes are not encoded.
    (("net", "mid", "sub"), [("a", "b"), ("b", "c")], ["sub", "mid", "mid"], 1),
], ids=["one-hop", "lost-in-flight", "twice-nested"])
def test_a_one_hop_carrier_in_a_top_level_realm_is_no_flight(monkeypatch, realms, net_links,
                                                              flights, encodes):
    f, tgt = tunnel_fabric(realms, net_links)
    built, real_init = [], fabric_module._Flight.__init__
    encoded = []

    def counted_init(flight, fabric, msg, realm, *args):
        built.append(realm)
        real_init(flight, fabric, msg, realm, *args)

    def counted_encode(msg):
        encoded.append(msg.msg_id)
        return encode(msg)

    monkeypatch.setattr(fabric_module._Flight, "__init__", counted_init)
    monkeypatch.setattr(fabric_module, "encode", counted_encode)
    f.send("a.sub", "c", resp(f, tgt, b"hi"))
    f.run_until_idle()
    assert built == flights
    assert len(encoded) == encodes
    events = [row[3] for row in f._rows]
    assert "DELIVER" in events and "DROP" not in events


# ------------------------------------------------------------ stub routing
# A stub (every alive link to one neighbour) answers from its neighbour's
# route tree; each case is checked against the oracle over every pair.


def assert_routes_match_oracle(f, realm_id="net"):
    nodes = sorted(f.realms[realm_id].member_nodes)
    for a in nodes:
        for b in nodes:
            assert f.topology.path(realm_id, a, b) == oracle_path(f, realm_id, a, b)
            assert f.topology.link_between(realm_id, a, b) is oracle_link_between(f, realm_id, a, b)
        for kind in (NodeKind.NRS, NodeKind.ORS):
            assert f._nearest_server(a, kind) == oracle_nearest_server(f, a, kind)


def stub_fabric(links, cell=()):
    f = Fabric()
    f.add_realm("net", RealmTech.IPISH)
    f.add_realm("cell", RealmTech.IPISH)
    for node in sorted({n for a, b, _ in links for n in (a, b)}):
        kind = NodeKind.NRS if node.startswith("s") else NodeKind.HOST
        f.add_node(node, kind, ["net", "cell"] if node in cell else ["net"])
    for a, b, delay in links:
        f.add_link(a, b, "net", delay)
    return f


def recorded_searches(monkeypatch):
    """Topology.search wrapped: gives the list each search appends its root to."""
    searches = []
    search = Topology.search
    monkeypatch.setattr(Topology, "search",
                        lambda self, realm_id, root: searches.append(root) or search(self, realm_id, root))
    return searches


def test_stub_two_node_component(monkeypatch):
    # a and b are each the other's only neighbour; z is another component.
    f = stub_fabric([("a", "b", 1), ("z", "s", 1)])
    searches = recorded_searches(monkeypatch)
    assert f.topology.path("net", "a", "b") == ["a", "b"]
    assert f.topology.path("net", "b", "a") == ["b", "a"]
    # b is a stub too: a reads b's tree, planted on a's, and b reads it as
    # its own, so one search serves both.
    assert searches == ["a"]
    assert f.topology.path("net", "a", "s") is None
    assert_routes_match_oracle(f)


def test_stub_with_parallel_links_to_its_router():
    f = stub_fabric([("h", "r", 2), ("h", "r", 1), ("r", "x", 1), ("x", "s", 1), ("r", "s", 3)])
    assert f.topology.path("net", "h", "s") == ["h", "r", "x", "s"]
    assert f.topology.link_between("net", "h", "r").delay == 1
    assert f._nearest_server("h", NodeKind.NRS) == ("s", 3, "net")
    assert_routes_match_oracle(f)


def test_stub_cut_off_by_partition_and_healed():
    f = stub_fabric([("h", "r", 1), ("r", "s", 1), ("r", "x", 1)], cell=("h",))
    assert f.topology.path("net", "h", "s") == ["h", "r", "s"]
    f.partition("cell")
    assert f.topology.path("net", "h", "s") is None
    assert f.topology.path("net", "s", "h") is None
    assert_routes_match_oracle(f)
    f.heal("cell")
    assert f.topology.path("net", "h", "s") == ["h", "r", "s"]
    assert_routes_match_oracle(f)


def test_stub_behind_a_stub():
    # h1's only neighbour is h2, whose only other neighbour is r.
    f = stub_fabric([("h1", "h2", 1), ("h2", "r", 1), ("r", "s", 1), ("r", "x", 1)])
    assert f.topology.path("net", "h1", "s") == ["h1", "h2", "r", "s"]
    assert f.topology.path("net", "s", "h1") == ["s", "r", "h2", "h1"]
    assert_routes_match_oracle(f)


def test_stub_route_to_its_own_neighbour():
    f = stub_fabric([("h", "r", 2), ("r", "x", 1), ("x", "s", 1)])
    assert f.topology.path("net", "h", "r") == ["h", "r"]
    assert f.topology.path("net", "r", "h") == ["r", "h"]
    assert_routes_match_oracle(f)


def hosts_on_routers(dual_homed=False):
    """40 hosts on a chain of 4 routers; an NRS on r0, a name-router on r3.
    Dual-homed, each host not on r3 is also linked, at delay 2, to the
    router after its own, so that it is no stub and its routes to RN tie."""
    f = Fabric()
    f.add_realm("net", RealmTech.IPISH)
    f.add_realm("far", RealmTech.IPISH)
    routers = [f"r{i}" for i in range(4)]
    hosts = [f"h{i:02d}" for i in range(40)]
    for node in routers:
        f.add_node(node, NodeKind.ROUTER, ["net"])
    f.add_node("nrs", NodeKind.NRS, ["net"])
    f.add_node("RN", NodeKind.NAME_ROUTER, ["net", "far"])
    for a, b in zip(routers, routers[1:]):
        f.add_link(a, b, "net", 1)
    f.add_link("nrs", "r0", "net", 1)
    f.add_link("RN", "r3", "net", 1)
    for i, h in enumerate(hosts):
        f.add_node(h, NodeKind.HOST, ["net"])
        f.add_link(h, routers[i % 4], "net", 1)
        if dual_homed and i % 4 < 3:
            f.add_link(h, routers[i % 4 + 1], "net", 2)
    return f, routers, hosts


def assert_hosts_route_with_few_searches(monkeypatch, f, routers, hosts):
    searches = recorded_searches(monkeypatch)
    for i, h in enumerate(hosts):
        router = routers[i % 4]
        assert f._nearest_server(h, NodeKind.NRS) == ("nrs", 2 + int(router[1]), "net")
        assert f._gateway("net", h, {"far"}) == "RN"
        assert f.topology.path("net", h, "RN") == oracle_path(f, "net", h, "RN")
    assert len(searches) <= 5


def test_hosts_on_routers_share_one_search_per_router(monkeypatch):
    assert_hosts_route_with_few_searches(monkeypatch, *hosts_on_routers())


def test_dual_homed_hosts_are_routed_from_the_servers_searches(monkeypatch):
    # Thirty hosts are no stubs, yet their routes are read from the searches
    # of the servers and name-router they reach.
    assert_hosts_route_with_few_searches(monkeypatch, *hosts_on_routers(dual_homed=True))


# Two name-routers in the server's realm; only the second borders the
# requester's realm, so the response must leave through RNb.
GATEWAY_SCN = """
[realms]
home,IPISH,-
side,IPISH,-
far,IPISH,-

[nodes]
cli,host,far
nrsF,nrs,far
nrsH,nrs,home
rtrH,router,home
RNa,name_router,home+side
RNb,name_router,home+far
pageS,server,home

[links]
cli,RNb,far,1
nrsF,RNb,far,1
pageS,rtrH,home,1
nrsH,rtrH,home,1
RNa,rtrH,home,1
RNb,rtrH,home,1

[entities]
n2n://home.org:page,content,pageS,-,page-bytes,page,a home page

[bindings]
n2n://users:cli,cli.far

[nrs]
n2n://home.org:page,HTTPISH,-,IPISH,RNb,0,100,-,far,-,-
n2n://home.org:page,HTTPISH,-,IPISH,pageS,0,100,-,home,-,-

[timeline]
0,pull,n2n://users:cli,n2n://home.org:page
"""


def test_return_path_leaves_through_router_bordering_target_realm():
    result = run_scenario(parse_scenario(GATEWAY_SCN, name="gateway"))
    (call,) = result.calls
    assert call.result == b"page-bytes" and call.error is None
    sends = [e for e in result.fabric.trace
             if e.event is EventKind.SEND and e.node == "pageS"]
    assert [e.detail.split()[0] for e in sends] == ["to=RNb"]


def test_no_path_reason_ignores_dead_links_of_other_realms():
    f = tiny_ip_fabric(("a",))
    f.add_node("b", NodeKind.HOST, ["net"])  # in net, but linked to nothing
    f.add_realm("far", RealmTech.IPISH)
    f.add_realm("cell", RealmTech.IPISH)
    f.add_node("c", NodeKind.HOST, ["far"])
    f.add_node("d", NodeKind.HOST, ["far", "cell"])
    f.add_link("c", "d", "far")
    f.partition("cell")
    assert [l.alive for l in f.topology.links] == [False]
    tgt = bound(f, "b", "bob")
    f.deliver_to_name(resp(f, tgt), "a", "net", None)
    drops = [e.detail for e in f.trace if e.event is EventKind.DROP]
    assert drops == ["no-route"]


# ------------------------------------------------------------ drop paths
# Each case runs conftest's CROSS_REALM (or a variant of it) and pins the
# DROP line and the call's error; run_checked also checks that every
# call's error is the reason of its first DROP.


def without_nodes(text, *node_ids):
    prefixes = tuple(f"{n}," for n in node_ids)
    return "\n".join(l for l in text.splitlines() if not l.startswith(prefixes))


def drop_scenario(text, timeline, policies=()):
    if policies:
        text += "\n[policies]\n" + "\n".join(policies) + "\n"
    text += "\n[timeline]\n" + "\n".join(timeline) + "\n"
    return parse_scenario(text, name="drops")


def run_drops(text, timeline, policies=()):
    result, _ = run_checked(drop_scenario(text, timeline, policies))
    drops = [(tick, node, realm, uri, detail)
             for tick, node, realm, event, _, uri, detail in result.fabric.sorted_trace()
             if event == "DROP"]
    return drops, [(c.kind, c.error) for c in result.calls]


DOC_URI = "n2n://ccn.com:doc"


ACCESS_DENIED = [
    ("RNx,n2n://users:u1,deny,pull",
     f"0,pull,n2n://users:u1,{DOC_URI}",
     (6, "RNx", "internet", DOC_URI), "pull"),
    ("RNx,n2n://users:u1,deny,push",
     "0,push,n2n://users:u1,n2n://users:u2,hi",
     (6, "RNx", "internet", "n2n://users:u2"), "push"),
    ("RNx,n2n://users:u2,deny,push",  # a push from a CCNISH realm travels as CCN data
     "0,push,n2n://users:u2,n2n://users:u1,hi",
     (6, "RNx", "ccnet", "n2n://users:u1"), "push"),
    ("RNx,n2n://users:u2,deny,subscribe",
     "0,subscribe,n2n://users:u2,sports/news",
     (2, "RNx", "ccnet", "-"), "subscribe"),
]


@pytest.mark.parametrize("policy, action, drop, call", ACCESS_DENIED,
                         ids=["ingress-pull", "egress-push", "egress-ccn-push", "relay-subscribe"])
def test_router_access_denied_drops(policy, action, drop, call):
    drops, calls = run_drops(CROSS_REALM, [action], [policy])
    assert drops == [drop + ("access-denied",)]
    assert calls == [(call, "access-denied")]


# Variants of CROSS_REALM, written as extra section lines (a section may
# appear twice). SIDE_REALM adds a realm holding one host, sideH;
# RNX_IN_SIDE also puts RNx in it.
SERVING_ROUTER = """
[nodes]
RNy,name_router,internet
[links]
RNy,rtrX,internet,1
[entities]
n2n://web.org:page,content,RNy,-,page-bytes,page,a page
[nrs]
n2n://web.org:page,HTTPISH,-,IPISH,RNy,0,100,-,-,-,-
"""
SIDE_REALM = """
[realms]
side,IPISH,-
[nodes]
sideH,host,side
"""
RNX_IN_SIDE = CROSS_REALM.replace("RNx,name_router,internet+ccnet",
                                  "RNx,name_router,internet+ccnet+side") + SIDE_REALM
# A page on sideH, linked to RNx: u1 resolves it to RNx, and RNx resolves it
# in side only.
SIDE_PAGE = """
[links]
RNx,sideH,side,1
[entities]
n2n://side.org:page,content,sideH,-,page-bytes,page,a side page
[nrs]
n2n://side.org:page,HTTPISH,-,IPISH,RNx,0,100,-,internet,-,-
n2n://side.org:page,HTTPISH,-,IPISH,sideH,0,100,-,side,-,-
"""

# u1 is bound on cli1 and on sideH, in a realm no name-router borders.
SERVED_BY_SENDER = CROSS_REALM + SIDE_REALM + "[bindings]\nn2n://users:u1,sideH.side\n"


RETURN_PATHS = [
    # A name-router in one realm answers a GET itself.
    (CROSS_REALM + SERVING_ROUTER, ["0,pull,n2n://users:u1,n2n://web.org:page"],
     [], ("pull", None)),
    # The document resolves, but no binding carries its name.
    (CROSS_REALM, [f"0,push,n2n://users:u1,{DOC_URI},hi"],
     [(4, "cli1", "internet", DOC_URI, "unreachable-name")], ("push", "unreachable-name")),
    # u1 is bound outside ccnet, and no name-router is reachable from cli2.
    (CROSS_REALM.replace("RNx,coreX,ccnet,1\n", ""),
     ["0,push,n2n://users:u2,n2n://users:u1,hi"],
     [(4, "cli2", "ccnet", "n2n://users:u1", "unreachable-name")], ("push", "unreachable-name")),
    # u2's record is withdrawn between the sender's resolve and RNx's.
    (CROSS_REALM, ["0,push,n2n://users:u1,n2n://users:u2,hi",
                   "5,nrs_withdraw,n2n://users:u2,cli2.ccnet"],
     [(10, "RNx", "internet", "n2n://users:u2", "unreachable-name")],
     ("push", "unreachable-name")),
    # One of u2's records is scoped to a realm RNx is not in.
    (CROSS_REALM + SIDE_REALM
     + "[nrs]\nn2n://users:u2,HTTPISH,-,IPISH,sideH,0,100,-,-,-,-,side\n",
     ["0,push,n2n://users:u1,n2n://users:u2,hi"],
     [(10, "RNx", "internet", "n2n://users:u2", "unreachable-name")],
     ("push", "unreachable-name")),
    # RNx tries ccnet, then side; the name resolves in neither.
    (RNX_IN_SIDE + "[nrs]\nn2n://ccn.com:gone,HTTPISH,-,IPISH,RNx,0,100,-,internet,-,-\n",
     ["0,pull,n2n://users:u1,n2n://ccn.com:gone"],
     [(14, "RNx", "internet", "n2n://ccn.com:gone", "not-resolvable")],
     ("pull", "not-resolvable")),
    # RNx tries ccnet, where the page has no record, then side, where it has.
    (RNX_IN_SIDE + SIDE_PAGE, ["0,pull,n2n://users:u1,n2n://side.org:page"], [], ("pull", None)),
    # u1 is also bound on sideH, in a realm no name-router borders: the copy
    # of host3a's response sent to RNx is dropped there after cli1 has it.
    (CROSS_REALM + SIDE_REALM + "[bindings]\nn2n://users:u1,sideH.side\n"
     "[entities]\nn2n://web.org:page,content,host3a,-,page-bytes,page,a page\n"
     "[nrs]\nn2n://web.org:page,HTTPISH,-,IPISH,host3a,0,100,-,-,-,-\n",
     ["0,pull,n2n://users:u1,n2n://web.org:page"],
     [(12, "RNx", "internet", "n2n://users:u1", "unreachable-name")], ("pull", None)),
    # u1 is also bound on sideH: host3a sends cli1 its copy, and RNx, which
    # re-resolves the copy sent toward sideH, sends cli1 none.
    (SERVED_BY_SENDER, ["0,push,n2n://users:u3,n2n://users:u1,hi"],
     [(10, "RNx", "internet", "n2n://users:u1", "unreachable-name")],
     ("push", "unreachable-name")),
    # No FIB entry of cli2 matches the record's FCN.
    (CROSS_REALM + "[nrs]\nn2n://ccn.com:none,CCNISH_OVER_UDPISH,other.org/none,CCNISH,coreX,"
     "0,100,-,ccnet,-,-\n", ["0,pull,n2n://users:u2,n2n://ccn.com:none"],
     [(4, "cli2", "ccnet", "n2n://ccn.com:none", "no-fib-match")], ("pull", "no-fib-match")),
]


@pytest.mark.parametrize("text, timeline, drops, call", RETURN_PATHS, ids=[
    "router-serves-get", "push-to-unbound-name", "no-gateway", "egress-no-descriptor",
    "egress-scope-outside-router", "ingress-realms-exhausted", "ingress-second-realm-resolves",
    "drop-after-result", "served-by-sender", "no-fib-match"])
def test_return_path_drops(text, timeline, drops, call):
    found, calls = run_drops(text, timeline)
    assert found == drops
    assert calls == [call]


def test_send_to_name_delivers_one_copy_per_binding():
    # RNx skips the host record of cli1, whose copy host3a sent itself.
    result, _ = run_checked(drop_scenario(
        SERVED_BY_SENDER, ["0,push,n2n://users:u3,n2n://users:u1,hi"]))
    delivers = [(tick, node) for tick, node, _, event, *_ in result.fabric.sorted_trace()
                if event == "DELIVER"]
    assert delivers == [(6, "cli1")]
    (call,) = result.calls
    assert [nap for nap, _, _ in call.deliveries] == ["cli1.internet"]


def test_name_router_serving_a_get_logs_one_recv():
    text = CROSS_REALM + SERVING_ROUTER + "[timeline]\n0,pull,n2n://users:u1,n2n://web.org:page\n"
    result = run_scenario(parse_scenario(text, name="serving-router"))
    at_router = [(tick, event, msg_id, detail)
                 for tick, node, _, event, msg_id, _, detail in result.fabric.sorted_trace()
                 if node == "RNy"]
    assert at_router == [(6, "RECV", 2, "kind=HTTP_GET"), (6, "SEND", 3, "to=cli1 kind=HTTP_RESP")]


def test_subscribe_at_a_node_that_is_not_a_rendezvous_fails(cross_realm_fabric):
    f = cross_realm_fabric
    f.topic_home["sports/news"] = "host3a"
    u1 = parse_name("n2n://users:u1")
    call = f.start_subscribe(u1, "sports/news")
    f.run_until_idle()
    assert (call.result, call.error) == (None, "unhandled")
    with pytest.raises(DeliveryFailed):
        NodeApi(f, u1).subscribe("sports/news")


def test_ccn_data_answering_a_request_is_not_checked_as_a_push():
    # The document's data crosses RNx back to u1 with the document as its
    # source; as a response it passes a push policy on that name.
    drops, calls = run_drops(CROSS_REALM, [f"0,pull,n2n://users:u1,{DOC_URI}"],
                             [f"RNx,{DOC_URI},deny,push"])
    assert drops == []
    assert calls == [("pull", None)]


# CROSS_REALM with the rendezvous moved into the CCNISH realm.
RV_IN_CCNET = CROSS_REALM.replace("rvX,rendezvous,internet", "rvX,rendezvous,ccnet") \
    .replace("rvX,rtrX,internet,1", "rvX,coreX,ccnet,1")
CCN_FAN_OUT = ["0,subscribe,n2n://users:u1,sports/news",
               "20,publish,n2n://users:u2,sports/news,hi"]


def test_ccn_publish_fan_out_is_checked_as_a_push():
    # The fan-out to u1 is CCN data that answers no request: RNx checks it
    # as a push from the publisher.
    drops, calls = run_drops(RV_IN_CCNET, CCN_FAN_OUT, ["RNx,n2n://users:u2,deny,push"])
    assert drops == [(24, "RNx", "ccnet", "n2n://users:u1", "access-denied")]
    assert calls == [("subscribe", None), ("publish", "access-denied")]


def test_nrs_unreachable_drops_pull():
    text = without_nodes(CROSS_REALM, "nrsX", "nrsY")
    drops, calls = run_drops(text, [f"0,pull,n2n://users:u1,{DOC_URI}"])
    assert drops == [
        (0, "cli1", "internet", DOC_URI, "nrs-unreachable"),
        (0, "cli1", "internet", DOC_URI, "not-resolvable"),
    ]
    assert calls == [("pull", "nrs-unreachable")]


def test_ors_unreachable_drops_search_and_fetch():
    text = without_nodes(CROSS_REALM, "orsX")
    drops, calls = run_drops(text, ["0,search,n2n://users:u1,doc",
                                    "1,fetch,n2n://users:u1,doc"])
    assert drops == [
        (0, "cli1", "internet", "-", "ors-unreachable"),
        (1, "cli1", "internet", "-", "ors-unreachable"),
    ]
    assert calls == [("search", "ors-unreachable"), ("fetch", "ors-unreachable")]


def test_unknown_topic_drops_subscribe():
    drops, calls = run_drops(CROSS_REALM, ["0,subscribe,n2n://users:u1,no/topic"])
    assert drops == [(0, "cli1", "internet", "-", "unknown-topic topic=no/topic")]
    assert calls == [("subscribe", "unknown-topic")]


# A host, its NRS and a repo at the far end of a chain of HOP_LIMIT CCN
# routers: an interest reaches the last router after HOP_LIMIT hops.
CCN_CHAIN = [f"c{i}" for i in range(HOP_LIMIT)]
FAR_REPO = "\n".join([
    "[realms]", "ccnet,CCNISH,-",
    "[nodes]", "cli,host,ccnet", "nrsC,nrs,ccnet", "repoF,repo,ccnet",
    *(f"{c},ccn_router,ccnet" for c in CCN_CHAIN),
    "[links]", "nrsC,cli,ccnet,1",
    *(f"{a},{b},ccnet,1" for a, b in zip(["cli", *CCN_CHAIN], [*CCN_CHAIN, "repoF"])),
    "[entities]", "n2n://far.org:doc,content,repoF,far.org/doc,doc-bytes,doc,a far document",
    "[bindings]", "n2n://users:u,cli.ccnet",
    "[nrs]", "n2n://far.org:doc,CCNISH_OVER_UDPISH,far.org/doc,CCNISH,c0,0,100,-,ccnet,-,-", ""])

FORWARD_PATHS = [
    # The record leads to host3a, whose store lacks the page.
    (CROSS_REALM + "[nrs]\nn2n://web.org:gone,HTTPISH,-,IPISH,host3a,0,100,-,-,-,-\n",
     ["0,pull,n2n://users:u1,n2n://web.org:gone"],
     [(6, "host3a", "internet", "n2n://web.org:gone", "not-found")], ("pull", "not-found")),
    # The record leads to a host linked to nothing.
    (CROSS_REALM + "[nodes]\nlone,host,internet\n"
     "[nrs]\nn2n://web.org:lone,HTTPISH,-,IPISH,lone,0,100,-,-,-,-\n",
     ["0,pull,n2n://users:u1,n2n://web.org:lone"],
     [(4, "cli1", "internet", "n2n://web.org:lone", "no-route")], ("pull", "no-route")),
    # ccnet is cut off, RNx with it, after u1's resolve and before its GET.
    (CROSS_REALM, ["0,partition,ccnet", f"1,pull,n2n://users:u1,{DOC_URI}"],
     [(5, "cli1", "internet", DOC_URI, "partitioned")], ("pull", "partitioned")),
    # No name-router is reachable from cli2 to carry the subscribe out of ccnet.
    (CROSS_REALM.replace("RNx,coreX,ccnet,1\n", ""), ["0,subscribe,n2n://users:u2,sports/news"],
     [(0, "cli2", "ccnet", "-", "unreachable-topic")], ("subscribe", "unreachable-topic")),
    # The interest runs out of hops at the last router, one short of the repo:
    # it leaves cli at tick 2, with the NRS's answer, and each hop takes one.
    (FAR_REPO, ["0,pull,n2n://users:u,n2n://far.org:doc"],
     [(2 + HOP_LIMIT, CCN_CHAIN[-1], "ccnet", "n2n://far.org:doc", "hop-limit")],
     ("pull", "hop-limit")),
]


@pytest.mark.parametrize("text, timeline, drops, call", FORWARD_PATHS, ids=[
    "get-at-host-without-the-page", "next-hop-linked-to-nothing", "realm-partitioned",
    "no-gateway-to-topic-home", "interest-out-of-hops"])
def test_forward_path_drops(text, timeline, drops, call):
    found, calls = run_drops(text, timeline)
    assert found == drops
    assert calls == [call]


HOST_DROPS = [(MessageKind.CCN_INTEREST, "not-a-ccn-node"), (MessageKind.SUB, "unhandled")]


def send_to_host(kind):
    """Send a message of kind from host a to host b, which has no use for it."""
    f = tiny_ip_fabric()
    sender = bound(f, "a", "alice")
    f.send("a.net", "b", WireMessage(msg_id=f.new_msg_id(), kind=kind,
                                     target_fcn="ccn.com/doc", source_name=sender))
    f.run_until_idle()
    return f


@pytest.mark.parametrize("kind, detail", HOST_DROPS, ids=["interest-at-ip-host", "sub-at-host"])
def test_message_without_a_call_dropped_at_a_host(kind, detail):
    # Fabric.send carries no call record: these drops run with none.
    f = send_to_host(kind)
    drops = [(e.tick, e.node, e.realm, e.detail)
             for e in f.trace if e.event is EventKind.DROP]
    assert drops == [(1, "b", "net", detail)]


def test_fabric_keeps_no_finished_call(cross_realm_fabric):
    f = cross_realm_fabric
    call = f.start_pull(parse_name("n2n://users:u1"), parse_name(DOC_URI))
    f.run_until_idle()
    assert call.result == b"doc-bytes"
    record = weakref.ref(call)
    del call
    gc.collect()
    assert record() is None


# ------------------------------------------------------------ emission order
# Every event is emitted at the clock's tick, so the trace is in tick order
# before any sort: a run can flush its trace one tick at a time.


def assert_emitted_in_tick_order(fabric):
    ticks = [e.tick for e in fabric.trace]
    assert ticks == sorted(ticks)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtins_emit_in_tick_order(name):
    assert_emitted_in_tick_order(run_checked(load_builtin(name))[0].fabric)


# Every run_drops scenario above, as (text, timeline, policies).
DROP_RUNS = [
    *((CROSS_REALM, [action], [policy]) for policy, action, _, _ in ACCESS_DENIED),
    (CROSS_REALM, [f"0,pull,n2n://users:u1,{DOC_URI}"], [f"RNx,{DOC_URI},deny,push"]),
    (RV_IN_CCNET, CCN_FAN_OUT, ["RNx,n2n://users:u2,deny,push"]),
    (without_nodes(CROSS_REALM, "nrsX", "nrsY"), [f"0,pull,n2n://users:u1,{DOC_URI}"], []),
    (without_nodes(CROSS_REALM, "orsX"),
     ["0,search,n2n://users:u1,doc", "1,fetch,n2n://users:u1,doc"], []),
    (CROSS_REALM, ["0,subscribe,n2n://users:u1,no/topic"], []),
    *((text, timeline, []) for text, timeline, _, _ in RETURN_PATHS + FORWARD_PATHS),
]


@pytest.mark.parametrize("text, timeline, policies", DROP_RUNS)
def test_drop_paths_emit_in_tick_order(text, timeline, policies):
    assert_emitted_in_tick_order(run_checked(drop_scenario(text, timeline, policies))[0].fabric)


def test_drops_reach_every_reason_in_the_table():
    # The builtins, every run_drops scenario, the ops that cannot fire and
    # the messages sent to a host that has no use for them.
    scenarios = [*map(load_builtin, BUILTIN_NAMES),
                 *(drop_scenario(*run) for run in DROP_RUNS),
                 *(fig3_and(line) for line, *_ in UNFIRABLE_OPS)]
    reached = {reason for s in scenarios for reason in run_checked(s)[1]}
    with watched_drops() as drops:
        for kind, _ in HOST_DROPS:
            send_to_host(kind)
    reached.update(reason for _, reason, _ in drops)
    assert reached == set(DROP_REASONS)


@pytest.mark.parametrize("seed", range(5))
def test_sends_scheduled_through_at_emit_in_tick_order(seed):
    rng = random.Random(seed)
    hosts = tuple("h%d" % i for i in range(6))
    f = tiny_ip_fabric(hosts, delay=rng.randint(1, 3))
    names = {h: bound(f, h, "u_" + h) for h in hosts}
    for _ in range(100):
        src, dst = rng.sample(hosts, 2)
        m = resp(f, names[dst], b"ping")
        f.at(rng.randint(0, 20), partial(f.send, f"{src}.net", dst, m))
    f.run_until_idle()
    assert_emitted_in_tick_order(f)


# ------------------------------------------------------------------- clock
# The clock before per-tick buckets, kept as the oracle: one heap of
# (tick, sequence, callback).  Over random schedules the bucketed clock must
# hand out the same callbacks at the same ticks, in the same order.


class HeapClock:
    def __init__(self):
        self.now_tick = 0
        self._pending = []
        self._seq = itertools.count()

    def schedule(self, tick, fn):
        if tick < self.now_tick:
            raise ValueError("cannot schedule into the past")
        heapq.heappush(self._pending, (tick, next(self._seq), fn))

    def pop_due(self, until_tick):
        pending = self._pending
        while pending and (until_tick is None or pending[0][0] <= until_tick):
            tick, _, fn = heapq.heappop(pending)
            self.now_tick = tick
            yield tick, fn


class Boom(Exception):
    pass


# A callback: the callbacks it schedules, each at a delay from now (0 is the
# tick it runs in); then the tick it runs the clock to, from inside, as a
# nested run ("idle" to the end, None for no run); then whether it raises.
NESTED_RUN = st.sampled_from([None, None, None, "idle", 0, 2])
CALLBACK = st.recursive(
    st.tuples(st.just(()), NESTED_RUN, st.booleans()),
    lambda inner: st.tuples(st.lists(st.tuples(st.integers(0, 3), inner), max_size=3)
                            .map(tuple), NESTED_RUN, st.booleans()),
    max_leaves=10)
# A step schedules callbacks from outside, then runs to a tick (None: idle).
CLOCK_STEP = st.tuples(st.none() | st.integers(0, 12),
                       st.lists(st.tuples(st.integers(0, 4), CALLBACK), max_size=4))


def drive(clock, steps):
    """Each step's schedules and run, as Fabric.run drives the clock, then
    runs to idle; the log holds each (tick, callback) handed out, each raise
    and the now_tick each run leaves."""
    log = []
    labels = itertools.count()

    def make(spec):
        children, nested, raises = spec
        label = next(labels)

        def fn():
            for delay, child in children:
                clock.schedule(clock.now_tick + delay, make(child))
            if nested is not None:
                run(None if nested == "idle" else clock.now_tick + nested)
            if raises:
                raise Boom(label)

        fn.label = label
        return fn

    def run(until_tick):
        for tick, fn in clock.pop_due(until_tick):
            log.append((tick, fn.label))
            fn()
        if until_tick is not None:
            clock.now_tick = max(clock.now_tick, until_tick)
        log.append(("now", clock.now_tick))

    def outer_run(until_tick):
        try:
            run(until_tick)
        except Boom as exc:
            log.append(("raised", exc.args[0]))
            return False
        return True

    for until_tick, schedules in steps:
        for delay, spec in schedules:
            clock.schedule(clock.now_tick + delay, make(spec))
        outer_run(until_tick)
    while not outer_run(None):
        pass
    return log


@settings(deadline=None)
@given(st.lists(CLOCK_STEP, min_size=1, max_size=6))
def test_bucketed_clock_matches_heap_oracle(steps):
    clock = SimClock()
    assert drive(clock, steps) == drive(HeapClock(), steps)
    assert clock._buckets == {} and clock._ticks == []


@given(st.binary(max_size=8) | st.text(max_size=8).map(str.encode))
def test_body_text_matches_per_byte_rule(body):
    if not body:
        expected = "-"
    elif all(33 <= c <= 126 for c in body):
        expected = body.decode("ascii")
    else:
        expected = "hex:" + body.hex()
    assert fabric_module._body_text(body) == expected
