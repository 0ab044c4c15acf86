"""Exception hierarchy shared by all internames components."""


class InternamesError(Exception):
    """Base class for every error raised by this package."""


class MalformedUri(InternamesError):
    pass


class DuplicateName(InternamesError):
    pass


class Unauthorized(InternamesError):
    pass


class DuplicateRecord(InternamesError):
    """The NRS already holds a record under the new one's key: `first`."""

    def __init__(self, first):
        super().__init__(first.prefix.uri)
        self.first = first


class NotFound(InternamesError):
    pass


class NotResolvable(InternamesError):
    pass


class MalformedMessage(InternamesError):
    pass


class NoFibMatch(InternamesError):
    pass


class UnsupportedPair(InternamesError):
    pass


class MissingFcn(InternamesError):
    pass


class UnknownNap(InternamesError):
    pass


class NotBound(InternamesError):
    pass


class NoRoute(InternamesError):
    pass


class RealmViolation(InternamesError):
    pass


class UnknownRealm(InternamesError):
    pass


class UnknownNode(InternamesError):
    pass


class ParseError(InternamesError):
    pass


class ValidationError(InternamesError):
    pass


class InvalidStep(InternamesError):
    pass


class AccessDenied(InternamesError):
    pass


class Unreachable(InternamesError):
    pass


class HopLimitExceeded(Unreachable):
    """An interest was dropped after HOP_LIMIT hops without reaching its data."""


class DeliveryFailed(InternamesError):
    pass
