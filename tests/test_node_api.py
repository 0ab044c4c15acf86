from pathlib import Path

import pytest

from internames.errors import (
    HopLimitExceeded,
    InternamesError,
    NotFound,
    NotResolvable,
    Unreachable,
)
from internames.fabric import DROP_REASONS, EventKind
from internames.names import parse_name
from internames.node_api import NodeApi
from internames.nrs import (
    CallerRole,
    NextHopTech,
    NrsRecord,
    Protocol,
    ServiceDescriptor,
)
from internames.wire import HOP_LIMIT, Fib, FibEntry

U1 = parse_name("n2n://users:u1")
U2 = parse_name("n2n://users:u2")
U3 = parse_name("n2n://users:u3")
DOC = parse_name("n2n://ccn.com:doc")


def test_pull_across_bridge(cross_realm_fabric):
    api = NodeApi(cross_realm_fabric, U1)
    assert api.pull(DOC) == b"doc-bytes"
    kinds = {e.event for e in cross_realm_fabric.trace}
    assert EventKind.BRIDGE in kinds


def test_pull_inside_owning_realm(cross_realm_fabric):
    api = NodeApi(cross_realm_fabric, U2)
    assert api.pull(DOC) == b"doc-bytes"
    assert not [e for e in cross_realm_fabric.trace if e.event is EventKind.BRIDGE]


def test_bridge_transparency(cross_realm_fabric):
    outside = NodeApi(cross_realm_fabric, U1).pull(DOC)
    inside = NodeApi(cross_realm_fabric, U2).pull(DOC)
    assert outside == inside == b"doc-bytes"


def test_every_drop_reason_names_an_internames_error():
    assert all(issubclass(error, InternamesError) for error in DROP_REASONS.values())


def test_readme_lists_every_drop_reason_and_its_error():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("### Drop reasons\n", 1)[1].split("\n#", 1)[0]
    rows = [line.split(" | ") for line in section.splitlines() if line.startswith("| `")]
    listed = {reason.strip("|` "): error.strip("|` ") for reason, _, error in rows}
    assert list(listed) == list(DROP_REASONS)
    assert listed == {reason: error.__name__ for reason, error in DROP_REASONS.items()}


def test_pull_unregistered_name(cross_realm_fabric):
    with pytest.raises(NotResolvable):
        NodeApi(cross_realm_fabric, U1).pull(parse_name("n2n://ccn.com:never"))


def test_pull_registered_but_absent_entity(cross_realm_fabric):
    # resolvable straight to a host whose store lacks the entity
    missing = parse_name("n2n://users:u3")
    with pytest.raises(NotFound):
        NodeApi(cross_realm_fabric, U1).pull(missing)


def test_repeat_pull_uses_caches(cross_realm_fabric):
    api = NodeApi(cross_realm_fabric, U1)
    api.pull(DOC)
    cut = len(cross_realm_fabric.trace)
    api.pull(DOC)
    first = cross_realm_fabric.trace[:cut]
    second = cross_realm_fabric.trace[cut:]
    assert any(e.event is EventKind.CACHE_HIT for e in second)
    assert any(e.event is EventKind.CS_HIT for e in second)

    def fwd(events):
        return sum(1 for e in events if e.event is EventKind.FWD)

    assert fwd(second) < fwd(first)
    # no interest reached the repository the second time
    assert not [e for e in second if e.node == "repoX" and e.event is EventKind.RECV]


def test_push_to_two_bindings(cross_realm_fabric):
    api = NodeApi(cross_realm_fabric, U1)
    assert api.push(U3, b"hello") == 2
    delivers = [e for e in cross_realm_fabric.trace if e.event is EventKind.DELIVER]
    assert sorted(e.node for e in delivers) == ["host3a", "host3b"]


def test_push_across_bridge(cross_realm_fabric):
    api = NodeApi(cross_realm_fabric, U1)
    assert api.push(U2, b"hi") == 1
    delivers = [e for e in cross_realm_fabric.trace if e.event is EventKind.DELIVER]
    assert [e.node for e in delivers] == ["cli2"]


def test_push_to_unbound_name(cross_realm_fabric):
    with pytest.raises(NotResolvable):
        NodeApi(cross_realm_fabric, U1).push(parse_name("n2n://users:nobody"), b"x")


def test_push_after_rebind_hits_new_nap_only(cross_realm_fabric):
    f = cross_realm_fabric
    f.unbind(U2, "cli2.ccnet")
    f.known_names.add(U2)
    f.bind(U2, "host3a.internet")
    assert NodeApi(f, U1).push(U2, b"moved") == 1
    delivers = [e for e in f.trace if e.event is EventKind.DELIVER]
    assert [e.node for e in delivers] == ["host3a"]


def test_push_after_unbinding_sole_nap(cross_realm_fabric):
    f = cross_realm_fabric
    f.unbind(U2, "cli2.ccnet")
    with pytest.raises(NotResolvable):
        NodeApi(f, U1).push(U2, b"x")


def test_push_whose_egress_cannot_resolve_is_unreachable(cross_realm_fabric):
    # u1's cache still holds u2's record, but RNx, which resolves anew,
    # finds none: the drop there and the error raised are unreachable-name.
    f = cross_realm_fabric
    api = NodeApi(f, U1)
    assert api.push(U2, b"hi") == 1
    f.nrs.withdraw(U2, "cli2.ccnet")
    with pytest.raises(Unreachable) as caught:
        api.push(U2, b"again")
    assert str(caught.value) == "unreachable-name"


def test_pubsub_fan_out_across_realms(cross_realm_fabric):
    f = cross_realm_fabric
    NodeApi(f, U2).subscribe("sports/news")
    NodeApi(f, U3).subscribe("sports/news")
    count = NodeApi(f, U1).publish("sports/news", b"score")
    assert count == 2  # two subscriber names, u3's copies count once
    delivers = [e for e in f.trace if e.event is EventKind.DELIVER]
    assert sorted(e.node for e in delivers) == ["cli2", "host3a", "host3b"]
    # the crossing into the CCN realm was bridged
    assert [e for e in f.trace if e.event is EventKind.BRIDGE]


def test_subscribe_idempotent(cross_realm_fabric):
    f = cross_realm_fabric
    NodeApi(f, U3).subscribe("sports/news")
    NodeApi(f, U3).subscribe("sports/news")
    assert NodeApi(f, U1).publish("sports/news", b"x") == 1


def test_publish_counts_past_a_subscriber_the_egress_cannot_resolve(cross_realm_fabric):
    # u2 is still bound, but RNx finds no record for it: the fan-out to u2
    # is an unreachable-name miss, and u3 is still reached.
    f = cross_realm_fabric
    NodeApi(f, U2).subscribe("sports/news")
    NodeApi(f, U3).subscribe("sports/news")
    f.nrs.withdraw(U2, "cli2.ccnet")
    assert NodeApi(f, U1).publish("sports/news", b"score") == 1
    drops = [e.detail for e in f.trace if e.event is EventKind.DROP]
    assert drops == ["unreachable-name"]


def test_publish_to_a_sole_subscriber_the_egress_cannot_resolve_reaches_none(cross_realm_fabric):
    # The one fan-out copy is dropped as unreachable-name: publish counts
    # no name and does not raise.
    f = cross_realm_fabric
    NodeApi(f, U2).subscribe("sports/news")
    f.nrs.withdraw(U2, "cli2.ccnet")
    assert NodeApi(f, U1).publish("sports/news", b"score") == 0
    drops = [e.detail for e in f.trace if e.event is EventKind.DROP]
    assert drops == ["unreachable-name"]


def test_publish_without_subscribers(cross_realm_fabric):
    assert NodeApi(cross_realm_fabric, U1).publish("sports/news", b"x") == 0


def test_publish_unknown_topic(cross_realm_fabric):
    with pytest.raises(NotFound):
        NodeApi(cross_realm_fabric, U1).publish("no/such/topic", b"x")


def test_search_returns_names_and_metadata(cross_realm_fabric):
    result = NodeApi(cross_realm_fabric, U1).search(["doc"])
    assert result.names == (DOC,)
    assert result.entries[0][1]["description"] == "a shared document"


def test_search_empty_keywords(cross_realm_fabric):
    assert NodeApi(cross_realm_fabric, U1).search([]).entries == ()


def test_api_exposes_no_locators(cross_realm_fabric):
    api = NodeApi(cross_realm_fabric, U1)
    body = api.pull(DOC)
    assert isinstance(body, bytes)
    result = api.search(["doc"])
    assert all(str(n).startswith("n2n://") for n in result.names)


def test_interest_caught_in_fib_loop_raises_hop_limit(cross_realm_fabric):
    fab = cross_realm_fabric
    looped = parse_name("n2n://ccn.com:looped")
    fab.nrs.register(NrsRecord(looped, ServiceDescriptor(
        Protocol.CCNISH_OVER_UDPISH, "loop/x", NextHopTech.CCNISH, "coreX")),
        CallerRole.ADMINISTRATOR)
    for node, hop in [("cli2", "coreX"), ("coreX", "nrsY"), ("nrsY", "coreX")]:
        # A FIB never changes once built: give each node a new one, its
        # entries plus the loop's.
        state = fab.nodes[node].ccn["ccnet"]
        entries = [*state.fib, FibEntry("loop", hop)]
        state.fib = Fib((e.prefix, e) for e in entries).through({e: e.next_hop for e in entries})
    with pytest.raises(HopLimitExceeded) as caught:
        NodeApi(fab, U2).pull(looped)
    assert isinstance(caught.value, Unreachable)
    drops = [e for e in fab.trace if e.event is EventKind.DROP]
    assert [e.detail for e in drops] == ["hop-limit"]
    assert sum(1 for e in fab.trace if e.event in (EventKind.SEND, EventKind.FWD)) == HOP_LIMIT
