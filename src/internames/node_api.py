"""The name-oriented API applications see: pull, push, publish, subscribe, search.

Calls are expressed purely in names and bytes; locators never leak out.
Each call schedules a flow on the fabric, drives the engine to idle and
then reports the outcome.
"""

from __future__ import annotations

from .errors import (
    AccessDenied,
    DeliveryFailed,
    HopLimitExceeded,
    NotFound,
    NotResolvable,
    Unreachable,
)
from .fabric import CallRecord, Fabric
from .names import Name
from .ors import OrsResult

_ERROR_MAP = {
    "not-resolvable": NotResolvable,
    "nrs-unreachable": Unreachable,
    "ors-unreachable": Unreachable,
    "access-denied": AccessDenied,
    "not-found": NotFound,
    "unreachable-name": Unreachable,
    "no-route": Unreachable,
    "partitioned": Unreachable,
    "no-fib-match": Unreachable,
    "hop-limit": HopLimitExceeded,
    "unknown-topic": NotFound,
    "unreachable-topic": Unreachable,
}


def _raise_for(call: CallRecord) -> None:
    if call.error is not None:
        raise _ERROR_MAP.get(call.error, DeliveryFailed)(call.error)


class NodeApi:
    """Per-application handle; the caller is identified only by its name."""

    def __init__(self, fabric: Fabric, caller: Name):
        self.fabric = fabric
        self.caller = caller

    def pull(self, target: Name) -> bytes:
        call = self.fabric.start_pull(self.caller, target)
        self.fabric.run_until_idle()
        if call.result is not None:
            return call.result
        _raise_for(call)
        raise DeliveryFailed(f"pull of {target} produced no delivery")

    def push(self, target: Name, body: bytes) -> int:
        call = self.fabric.start_push(self.caller, target, body)
        self.fabric.run_until_idle()
        if not call.deliveries:
            _raise_for(call)
        return call.delivery_count

    def subscribe(self, topic_fcn: str) -> None:
        call = self.fabric.start_subscribe(self.caller, topic_fcn)
        self.fabric.run_until_idle()
        _raise_for(call)

    def publish(self, topic_fcn: str, body: bytes) -> int:
        call = self.fabric.start_publish(self.caller, topic_fcn, body)
        self.fabric.run_until_idle()
        if call.error is not None and call.error != "unreachable-name":
            _raise_for(call)
        return call.names_reached

    def search(self, keywords: list[str]) -> OrsResult:
        call = self.fabric.start_search(self.caller, tuple(keywords))
        self.fabric.run_until_idle()
        _raise_for(call)
        return call.search_result if call.search_result is not None else OrsResult()
