"""Protocol bridging and access control at realm boundaries.

Only three translation pairs exist, each usable in both directions:
HTTP_GET <-> CCN_INTEREST, CCN_DATA <-> HTTP_RESP and
HTTP_PUSH <-> CCN_DATA (unsolicited push).  Anything else is an
UnsupportedPair.  Bridging never touches source_name, body or msg_id.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MissingFcn, UnsupportedPair
from .names import Enum, Name, is_prefix_of
from .nrs import Protocol, ServiceDescriptor
from .wire import MessageKind, WireMessage


@dataclass(frozen=True)
class BridgeRule:
    inbound_protocol: Protocol
    outbound_protocol: Protocol
    realm_in: str
    realm_out: str

    def __post_init__(self):
        if self.realm_in == self.realm_out:
            raise ValueError("a bridge rule must span two distinct realms")


def _recast(m: WireMessage, kind: MessageKind, target_fcn: str) -> WireMessage:
    """m as another kind toward another fcn; every other field is kept."""
    return WireMessage(m.msg_id, kind, target_fcn, m.target_name, m.source_name, m.body,
                       m.hop_count)


def bridge(m: WireMessage, rule: BridgeRule, sd: ServiceDescriptor) -> WireMessage:
    """Translate m from the inbound protocol to the outbound one."""
    pair = (m.kind, rule.inbound_protocol, rule.outbound_protocol)
    if pair == (MessageKind.HTTP_GET, Protocol.HTTPISH, Protocol.CCNISH_OVER_UDPISH):
        if not sd.fcn:
            raise MissingFcn(str(m.target_name))
        return _recast(m, MessageKind.CCN_INTEREST, sd.fcn)
    if pair == (MessageKind.CCN_INTEREST, Protocol.CCNISH_OVER_UDPISH, Protocol.HTTPISH):
        if m.target_name is None:
            raise UnsupportedPair("CCN_INTEREST without a target name cannot become HTTP_GET")
        return _recast(m, MessageKind.HTTP_GET, "")
    if pair == (MessageKind.CCN_DATA, Protocol.CCNISH_OVER_UDPISH, Protocol.HTTPISH):
        return _recast(m, MessageKind.HTTP_RESP, "")
    if pair == (MessageKind.HTTP_RESP, Protocol.HTTPISH, Protocol.CCNISH_OVER_UDPISH):
        return _recast(m, MessageKind.CCN_DATA, sd.fcn or m.target_fcn)
    if pair == (MessageKind.HTTP_PUSH, Protocol.HTTPISH, Protocol.CCNISH_OVER_UDPISH):
        return _recast(m, MessageKind.CCN_DATA, sd.fcn)
    raise UnsupportedPair(
        f"{m.kind.value} from {rule.inbound_protocol.value} to {rule.outbound_protocol.value}"
    )


class PolicyAction(Enum):
    ALLOW = "allow"
    DENY = "deny"


class PolicyOperation(Enum):
    PULL = "pull"
    PUSH = "push"
    PUBLISH = "publish"
    SUBSCRIBE = "subscribe"
    ANY = "any"


@dataclass(frozen=True)
class PolicyRule:
    principal_prefix: Name
    action: PolicyAction
    operation: PolicyOperation = PolicyOperation.ANY


@dataclass(frozen=True)
class AccessPolicy:
    """Ordered first-match-wins rules; the empty policy allows everything."""

    rules: tuple[PolicyRule, ...] = ()


def check_access(policy: AccessPolicy, principal: Name, op: PolicyOperation) -> PolicyAction:
    for rule in policy.rules:
        if rule.operation not in (PolicyOperation.ANY, op):
            continue
        if is_prefix_of(rule.principal_prefix, principal):
            return rule.action
    return PolicyAction.ALLOW
