import pytest
from hypothesis import settings

from internames.scenario import build_fabric, parse_scenario

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
