"""Deterministic simulator for name-to-name internetworking.

Names identify every endpoint; a resolution service maps a name plus
context to service descriptors; boundary name-routers bridge protocols
between network realms; the return path is addressed to the requester's
name instead of per-request router state.
"""

from .errors import (
    AccessDenied,
    DeliveryFailed,
    DuplicateName,
    DuplicateRecord,
    HopLimitExceeded,
    InternamesError,
    InvalidStep,
    MalformedMessage,
    MalformedUri,
    MissingFcn,
    NoFibMatch,
    NoRoute,
    NotBound,
    NotFound,
    NotResolvable,
    ParseError,
    RealmViolation,
    Unauthorized,
    UnknownNap,
    UnknownNode,
    UnknownRealm,
    Unreachable,
    UnsupportedPair,
    ValidationError,
)
from .fabric import EventKind, Fabric, NodeKind, RealmTech, TraceEvent
from .name_router import AccessPolicy, BridgeRule, PolicyAction, PolicyOperation, PolicyRule, bridge
from .names import (
    EntityKind,
    Name,
    NamedEntity,
    NameRealm,
    NamingScheme,
    format_name,
    is_prefix_of,
    parse_name,
)
from .node_api import NodeApi
from .nrs import (
    CacheStore,
    CallerRole,
    ContextPredicate,
    NameResolutionService,
    NextHopTech,
    NrsRecord,
    Protocol,
    ResolutionContext,
    Service,
    ServiceDescriptor,
)
from .ors import ObjectResolutionService, OrsQuery, OrsResult
from .scenario import (
    BUILTIN_NAMES,
    MigrationPlan,
    Scenario,
    apply_migration,
    build_fabric,
    diff_trace,
    load_builtin,
    load_plan,
    load_scenario,
    parse_plan,
    parse_scenario,
    run_scenario,
    save_scenario,
)
from .wire import ContentStore, FibEntry, MessageKind, WireMessage, decode, encode, fib_lookup

__version__ = "0.1.0"
