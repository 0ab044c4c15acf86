from contextlib import contextmanager

import pytest
from hypothesis import settings

from internames.fabric import EventKind, Fabric
from internames.scenario import (
    build_fabric,
    load_builtin,
    parse_scenario,
    run_scenario,
    save_scenario,
)

def trace_line(event) -> str:
    """One trace line, formatted field by field from a TraceEvent or a row
    (whose event is its text): the oracle of Fabric.trace_text."""
    tick, node, realm, kind, msg_id, name, detail = event
    text = kind.value if isinstance(kind, EventKind) else kind
    return (f"t={tick} node={node} realm={realm} event={text}"
            f" msg={msg_id} name={name} detail={detail}")


# Deeper runs of the oracle properties: pytest -k oracle --hypothesis-profile=ci.
# Without the option every test keeps hypothesis's default profile.
settings.register_profile("ci", max_examples=1000, deadline=None)

# One IP-style realm and one CCN-style realm joined by a name-router,
# with a client on each side, a pub/sub rendezvous and spare hosts.
CROSS_REALM = """
[realms]
internet,IPISH,-
ccnet,CCNISH,-

[nodes]
cli1,host,internet
cli2,host,ccnet
host3a,host,internet
host3b,host,internet
rvX,rendezvous,internet
rtrX,router,internet
nrsX,nrs,internet
nrsY,nrs,ccnet
orsX,ors,internet
RNx,name_router,internet+ccnet
coreX,ccn_router,ccnet
repoX,repo,ccnet

[links]
cli1,rtrX,internet,1
host3a,rtrX,internet,1
host3b,rtrX,internet,1
rvX,rtrX,internet,1
nrsX,rtrX,internet,1
orsX,rtrX,internet,1
RNx,rtrX,internet,1
RNx,coreX,ccnet,1
coreX,repoX,ccnet,1
cli2,coreX,ccnet,1
nrsY,coreX,ccnet,1

[entities]
n2n://ccn.com:doc,content,repoX,ccn.com/doc,doc-bytes,doc paper,a shared document

[bindings]
n2n://users:u1,cli1.internet
n2n://users:u2,cli2.ccnet
n2n://users:u3,host3a.internet
n2n://users:u3,host3b.internet

[nrs]
n2n://ccn.com:doc,CCNISH_OVER_UDPISH,ccn.com/doc,IPISH,RNx,0,100,-,internet,-,-
n2n://ccn.com:doc,CCNISH_OVER_UDPISH,ccn.com/doc,CCNISH,coreX,0,100,-,ccnet,-,-

[topics]
sports/news,rvX
"""


@pytest.fixture
def cross_realm_fabric():
    return build_fabric(parse_scenario(CROSS_REALM, name="cross-realm"))


# Timeline ops that cannot fire, each run after fig3's timeline by fig3_and:
# (line, the name and detail of the DROP it becomes, and the (kind,
# caller, target) of its call, or None for an op that makes no call).
UNFIRABLE_OPS = [
    ("99,pull,n2n://users:nobody,n2n://users:nobody", "n2n://users:nobody", "not-bound",
     ("pull", "n2n://users:nobody", "n2n://users:nobody")),
    ("99,fetch,n2n://users:nobody,article  pdf", "n2n://users:nobody", "not-bound",
     ("fetch", "n2n://users:nobody", "article,pdf")),
    ("99,unbind,n2n://ccn.com:article.pdf,client1.internet", "n2n://ccn.com:article.pdf",
     "not-bound", None),
    ("99,nrs_withdraw,n2n://ccn.com:nothing,FCN9", "n2n://ccn.com:nothing", "no-record", None),
    # The host record is gone before the unbind, so the unbind changes nothing: no REBIND.
    ("98,nrs_withdraw,n2n://users:alice,client1.internet\n"
     "99,unbind,n2n://users:alice,client1.internet", "n2n://users:alice", "no-record", None),
    ("99,nrs_register,n2n://ccn.com:article.pdf,CCNISH_OVER_UDPISH,FCN1,IPISH,RN1,0,100,-,"
     "internet,-,-", "n2n://ccn.com:article.pdf", "duplicate-record", None),
]


def fig3_and(line):
    """fig3 with timeline line(s) appended."""
    return parse_scenario(save_scenario(load_builtin("fig3")) + line + "\n", name="aborted")


@contextmanager
def watched_drops():
    """Fabric.drop wrapped: yields the list it appends each drop's (call,
    reason, whether the call had a result yet) to, in the order written."""
    drops = []
    drop = Fabric.drop

    def watched(fabric, node, realm_id, msg, reason, call, **kwargs):
        drops.append((call, reason, call is not None and call.result is not None))
        drop(fabric, node, realm_id, msg, reason, call, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Fabric, "drop", watched)
        yield drops


def run_checked(scenario):
    """run_scenario, checking that each call's error is the reason of its
    first DROP written before it had a result, that a call with no such
    DROP has none, and that each (call, NAP) gets at most one DELIVER.
    Returns the run and the reason of every DROP, in the order written."""
    with watched_drops() as drops:
        result = run_scenario(scenario)
    for call in result.calls:
        first = next((reason for dropped, reason, late in drops
                      if dropped is call and not late), None)
        assert call.error == first, (call.kind, call.target)
        naps = [nap for nap, _, _ in call.deliveries]
        assert len(naps) == len(set(naps)), (call.kind, call.target, naps)
    return result, [reason for _, reason, _ in drops]
