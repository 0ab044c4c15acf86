import gc
import random
import weakref
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from internames.errors import (
    DeliveryFailed,
    NoRoute,
    NotBound,
    RealmViolation,
    UnknownNap,
    UnknownRealm,
    ValidationError,
)
from internames.fabric import EventKind, Fabric, NodeKind, RealmTech, TraceEvent
from internames.names import parse_name
from internames.node_api import NodeApi
from internames.scenario import BUILTIN_NAMES, load_builtin, parse_scenario, run_scenario
from internames.wire import Fib, FibEntry, MessageKind, WireMessage, decode

from conftest import CROSS_REALM


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
    assert lines == [e.line() for e in sorted(f.trace, key=TraceEvent.sort_key)]
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
    f.heal("town")
    assert f.node_tags["pageS"] == frozenset({"normal"})


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


def test_nesting_soundness_on_migration():
    fabric = run_scenario(load_builtin("migration")).fabric
    assert fabric.encapsulations, "nested realm hops should be tunneled"
    outers = [outer for outer, _, _ in fabric.encapsulations]
    assert len(outers) == len(set(outers))
    for outer, inner, realm in fabric.encapsulations:
        assert fabric.realms[realm].parent_realm is not None
        carried = decode(fabric.messages[outer].body)
        assert carried.msg_id == inner


def test_name_to_name_symmetry_over_builtins():
    for name in ("fig3", "mobility-return", "reverse-multicast", "disaster", "migration"):
        fabric = run_scenario(load_builtin(name)).fabric
        for resp_id, req_id in fabric.response_of.items():
            if resp_id == req_id:
                continue
            response = fabric.messages[resp_id]
            request = fabric.messages[req_id]
            assert response.target_name == request.source_name


# ------------------------------------------------------------ route oracle
# Reference routing by a scan of every link and a sorted-list search; the
# fabric's indexed adjacency and memoised routes must agree with it.


def oracle_adjacent(f, realm_id, node):
    out = []
    for link in f.links:
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
ROUTE_NODE = st.tuples(ROUTE_KINDS, st.booleans())  # (kind, member of the cell)
ROUTE_STEP = st.one_of(
    # delays 1 and 2 make equal-delay ties; repeated endpoints make parallel links
    st.tuples(st.just("link"), st.integers(0, 7), st.integers(0, 7), st.integers(1, 2)),
    st.tuples(st.just("node"), ROUTE_NODE),
    st.just(("partition",)),
    st.just(("heal",)),
)


@settings(deadline=None)
@given(st.lists(ROUTE_NODE, min_size=2, max_size=5), st.lists(ROUTE_STEP, max_size=10))
def test_routes_match_link_scan_oracle(initial, steps):
    # One routing realm, "net"; links of it that cross the edge of "cell"
    # die on partition("cell") and come back on heal("cell").
    f = Fabric()
    f.add_realm("net", RealmTech.IPISH)
    f.add_realm("cell", RealmTech.IPISH)
    nodes = []

    def add(kind, in_cell):
        node = f"n{len(nodes)}"
        f.add_node(node, kind, ["net", "cell"] if in_cell else ["net"])
        nodes.append(node)

    def check():
        for a in nodes:
            for b in nodes:
                assert f._path("net", a, b) == oracle_path(f, "net", a, b)
                assert f._link_between("net", a, b) is oracle_link_between(f, "net", a, b)
            for kind in (NodeKind.NRS, NodeKind.ORS):
                assert f._nearest_server(a, kind) == oracle_nearest_server(f, a, kind)
            for toward in ({"cell"}, set()):
                assert f._gateway("net", a, toward) == oracle_gateway(f, "net", a, toward)

    for kind, in_cell in initial:
        add(kind, in_cell)
    check()
    for step in steps:
        if step[0] == "link":
            a, b = nodes[step[1] % len(nodes)], nodes[step[2] % len(nodes)]
            if a != b:
                f.add_link(a, b, "net", step[3])
        elif step[0] == "node":
            add(*step[1])
        else:
            getattr(f, step[0])("cell")
        check()


@pytest.mark.parametrize("delay", [0, -1])
def test_add_link_refuses_a_delay_below_one(delay):
    f = tiny_ip_fabric()
    with pytest.raises(ValueError, match="delay must be >= 1"):
        f.add_link("a", "b", "net", delay)
    assert len(f.links) == 1
    assert f._path("net", "a", "b") == ["a", "b"]


# ------------------------------------------------------------- FIB oracle
# build_fibs as it was: one route per (prefix, member).  The fabric routes
# each (realm, owner) once and shares entries; every Fib must come out the
# same, entry for entry and in order.


def oracle_build_fibs(f):
    """(realm -> fib_registrations, (member, realm) -> Fib) by the per-prefix loop."""
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
                fibs.setdefault((member, rid), Fib()).append(FibEntry(prefix, path[1]))
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
            expected = fibs.get((node, rid), Fib())
            assert list(state.fib) == list(expected)
            assert state.fib.best_hop == expected.best_hop


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
    assert f._path("net", "a", "c") == ["a", "b", "x", "c"]
    assert f._path("net", "b", "c") == ["b", "x", "c"]  # memoised before x is cut off
    f.at(1, lambda: f.partition("cell"))  # runs before the message leaves b
    f.send("a.net", "c", resp(f, tgt))
    f.run_until_idle()
    hops = [(e.tick, e.node, e.event) for e in f.sorted_trace() if e.event is not EventKind.REBIND]
    assert hops == [
        (0, "a", EventKind.SEND),
        (1, "b", EventKind.FWD),
        (3, "d", EventKind.FWD),
        (5, "c", EventKind.RECV),
        (5, "c", EventKind.DELIVER),
    ]


def test_parallel_links_take_the_cheapest():
    # a-b is linked twice, delay 3 then delay 1; a-c-b costs 2 and b-s 1.
    f = Fabric()
    f.add_realm("r", RealmTech.IPISH)
    for node, kind in (("a", NodeKind.HOST), ("b", NodeKind.HOST),
                       ("c", NodeKind.ROUTER), ("s", NodeKind.NRS)):
        f.add_node(node, kind, ["r"])
    for a, b, delay in (("a", "b", 3), ("a", "b", 1), ("a", "c", 1), ("c", "b", 1), ("b", "s", 1)):
        f.add_link(a, b, "r", delay)
    assert f._path("r", "a", "b") == ["a", "b"]
    assert f._link_between("r", "a", "b").delay == 1
    assert f._nearest_server("a", NodeKind.NRS) == ("s", 2, "r")
    bob = parse_name("n2n://users:bob")
    f.known_names.add(bob)
    f.bind(bob, "b.r")
    f.send("a.r", "b", resp(f, bob))
    f.run_until_idle()
    assert [e.tick for e in f.trace if e.event is EventKind.RECV] == [1]


# ------------------------------------------------------------ stub routing
# A stub (every alive link to one neighbour) answers from its neighbour's
# route tree; each case is checked against the oracle over every pair.


def assert_routes_match_oracle(f, realm_id="net"):
    nodes = sorted(f.realms[realm_id].member_nodes)
    for a in nodes:
        for b in nodes:
            assert f._path(realm_id, a, b) == oracle_path(f, realm_id, a, b)
            assert f._link_between(realm_id, a, b) is oracle_link_between(f, realm_id, a, b)
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


def test_stub_two_node_component():
    # a and b are each the other's only neighbour; z is another component.
    f = stub_fabric([("a", "b", 1), ("z", "s", 1)])
    assert f._path("net", "a", "b") == ["a", "b"]
    assert f._path("net", "b", "a") == ["b", "a"]
    assert f._path("net", "a", "s") is None
    assert_routes_match_oracle(f)


def test_stub_with_parallel_links_to_its_router():
    f = stub_fabric([("h", "r", 2), ("h", "r", 1), ("r", "x", 1), ("x", "s", 1), ("r", "s", 3)])
    assert f._path("net", "h", "s") == ["h", "r", "x", "s"]
    assert f._link_between("net", "h", "r").delay == 1
    assert f._nearest_server("h", NodeKind.NRS) == ("s", 3, "net")
    assert_routes_match_oracle(f)


def test_stub_cut_off_by_partition_and_healed():
    f = stub_fabric([("h", "r", 1), ("r", "s", 1), ("r", "x", 1)], cell=("h",))
    assert f._path("net", "h", "s") == ["h", "r", "s"]
    f.partition("cell")
    assert f._path("net", "h", "s") is None
    assert f._path("net", "s", "h") is None
    assert_routes_match_oracle(f)
    f.heal("cell")
    assert f._path("net", "h", "s") == ["h", "r", "s"]
    assert_routes_match_oracle(f)


def test_stub_behind_a_stub():
    # h1's only neighbour is h2, whose only other neighbour is r.
    f = stub_fabric([("h1", "h2", 1), ("h2", "r", 1), ("r", "s", 1), ("r", "x", 1)])
    assert f._path("net", "h1", "s") == ["h1", "h2", "r", "s"]
    assert f._path("net", "s", "h1") == ["s", "r", "h2", "h1"]
    assert_routes_match_oracle(f)


def test_stub_route_to_its_own_neighbour():
    f = stub_fabric([("h", "r", 2), ("r", "x", 1), ("x", "s", 1)])
    assert f._path("net", "h", "r") == ["h", "r"]
    assert f._path("net", "r", "h") == ["r", "h"]
    assert_routes_match_oracle(f)


def test_hosts_on_routers_share_one_search_per_router(monkeypatch):
    # 40 hosts on a chain of 4 routers; an NRS on r0, a name-router on r3.
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
    searches = []
    search = Fabric._dijkstra
    monkeypatch.setattr(Fabric, "_dijkstra",
                        lambda self, realm_id, root: searches.append(root) or search(self, realm_id, root))
    for i, h in enumerate(hosts):
        router = routers[i % 4]
        assert f._nearest_server(h, NodeKind.NRS) == ("nrs", 2 + int(router[1]), "net")
        assert f._gateway("net", h, {"far"}) == "RN"
        assert f._path("net", h, "RN") == oracle_path(f, "net", h, "RN")
    assert len(searches) <= 5


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
    assert [l.alive for l in f.links] == [False]
    tgt = bound(f, "b", "bob")
    f.deliver_to_name(resp(f, tgt), "a", "net", None)
    drops = [e.detail for e in f.trace if e.event is EventKind.DROP]
    assert drops == ["no-route"]


# ------------------------------------------------------------ drop paths
# Each case runs conftest's CROSS_REALM (or a copy without some resolver
# nodes) and pins the DROP line and the call's error.


def without_nodes(text, *node_ids):
    prefixes = tuple(f"{n}," for n in node_ids)
    return "\n".join(l for l in text.splitlines() if not l.startswith(prefixes))


def run_drops(text, timeline, policies=()):
    if policies:
        text += "\n[policies]\n" + "\n".join(policies) + "\n"
    text += "\n[timeline]\n" + "\n".join(timeline) + "\n"
    result = run_scenario(parse_scenario(text, name="drops"))
    drops = [(e.tick, e.node, e.realm, e.name, e.detail)
             for e in result.fabric.sorted_trace() if e.event is EventKind.DROP]
    return drops, [(c.kind, c.error) for c in result.calls]


DOC_URI = "n2n://ccn.com:doc"


@pytest.mark.parametrize("policy, action, drop, call", [
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
], ids=["ingress-pull", "egress-push", "egress-ccn-push", "relay-subscribe"])
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


@pytest.mark.parametrize("text, timeline, drops, call", [
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
     [(10, "RNx", "internet", "n2n://users:u2", "unreachable-name")], ("push", "not-resolvable")),
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
    # No FIB entry of cli2 matches the record's FCN.
    (CROSS_REALM + "[nrs]\nn2n://ccn.com:none,CCNISH_OVER_UDPISH,other.org/none,CCNISH,coreX,"
     "0,100,-,ccnet,-,-\n", ["0,pull,n2n://users:u2,n2n://ccn.com:none"],
     [(4, "cli2", "ccnet", "n2n://ccn.com:none", "no-fib-match")], ("pull", "no-fib-match")),
], ids=["router-serves-get", "push-to-unbound-name", "no-gateway", "egress-no-descriptor",
        "egress-scope-outside-router", "ingress-realms-exhausted", "no-fib-match"])
def test_return_path_drops(text, timeline, drops, call):
    found, calls = run_drops(text, timeline)
    assert found == drops
    assert calls == [call]


def test_name_router_serving_a_get_logs_one_recv():
    text = CROSS_REALM + SERVING_ROUTER + "[timeline]\n0,pull,n2n://users:u1,n2n://web.org:page\n"
    result = run_scenario(parse_scenario(text, name="serving-router"))
    at_router = [(e.tick, e.event, e.msg_id, e.detail) for e in result.fabric.sorted_trace()
                 if e.node == "RNy"]
    assert at_router == [(6, EventKind.RECV, 2, "kind=HTTP_GET"),
                         (6, EventKind.SEND, 3, "to=cli1 kind=HTTP_RESP")]


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


@pytest.mark.parametrize("kind, detail", [
    (MessageKind.CCN_INTEREST, "not-a-ccn-node"),
    (MessageKind.SUB, "unhandled"),
], ids=["interest-at-ip-host", "sub-at-host"])
def test_message_without_a_call_dropped_at_a_host(kind, detail):
    # Fabric.send carries no call record: these drops run with none.
    f = tiny_ip_fabric()
    sender = bound(f, "a", "alice")
    f.send("a.net", "b", WireMessage(msg_id=f.new_msg_id(), kind=kind,
                                     target_fcn="ccn.com/doc", source_name=sender))
    f.run_until_idle()
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
    assert_emitted_in_tick_order(run_scenario(load_builtin(name)).fabric)


@pytest.mark.parametrize("text, timeline, policies", [
    (CROSS_REALM, [f"0,pull,n2n://users:u1,{DOC_URI}"], ["RNx,n2n://users:u1,deny,pull"]),
    (CROSS_REALM, ["0,push,n2n://users:u1,n2n://users:u2,hi"], ["RNx,n2n://users:u1,deny,push"]),
    (CROSS_REALM, ["0,push,n2n://users:u2,n2n://users:u1,hi"], ["RNx,n2n://users:u2,deny,push"]),
    (CROSS_REALM, ["0,subscribe,n2n://users:u2,sports/news"],
     ["RNx,n2n://users:u2,deny,subscribe"]),
    (CROSS_REALM, [f"0,pull,n2n://users:u1,{DOC_URI}"], [f"RNx,{DOC_URI},deny,push"]),
    (RV_IN_CCNET, CCN_FAN_OUT, ["RNx,n2n://users:u2,deny,push"]),
    (without_nodes(CROSS_REALM, "nrsX", "nrsY"), [f"0,pull,n2n://users:u1,{DOC_URI}"], []),
    (without_nodes(CROSS_REALM, "orsX"),
     ["0,search,n2n://users:u1,doc", "1,fetch,n2n://users:u1,doc"], []),
    (CROSS_REALM, ["0,subscribe,n2n://users:u1,no/topic"], []),
])
def test_drop_paths_emit_in_tick_order(text, timeline, policies):
    text += "\n[policies]\n" + "\n".join(policies) + "\n[timeline]\n" + "\n".join(timeline)
    assert_emitted_in_tick_order(run_scenario(parse_scenario(text + "\n")).fabric)


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
