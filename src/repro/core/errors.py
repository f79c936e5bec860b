"""Exception hierarchy for the loosely structured database.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class at the API boundary.

Example::

    from repro import Database
    from repro.core.errors import ParseError, ReproError

    try:
        Database().query("(not a template")
    except ReproError as exc:
        assert isinstance(exc, ParseError)
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class EntityError(ReproError):
    """An entity name is malformed (empty, non-string, bad whitespace)."""


class TemplateError(ReproError):
    """A template or fact is structurally invalid."""


class RuleError(ReproError):
    """A rule is malformed (e.g. unsafe head variables)."""


class QueryError(ReproError):
    """A query is malformed or cannot be evaluated safely."""


class ParseError(QueryError):
    """The textual query syntax could not be parsed."""

    def __init__(self, message: str, position: int = -1):
        super().__init__(message)
        self.position = position


class InfiniteRelationError(QueryError):
    """A virtual (computed) relation was asked to enumerate an
    unbounded set of facts — e.g. ``(x, <, y)`` with both sides free and
    no active-domain restriction possible."""


class IntegrityError(ReproError):
    """The closure of the database contains a contradiction."""

    def __init__(self, message: str, violations=()):
        super().__init__(message)
        self.violations = tuple(violations)


class StorageError(ReproError):
    """The persistence layer encountered a malformed journal/snapshot,
    or could not write one (a failed checkpoint names the path)."""


class UnknownRuleError(RuleError):
    """``include``/``exclude`` named a rule not present in the registry."""


class FrozenStoreError(ReproError):
    """A mutation was attempted on a frozen (read-only) fact store.

    Published service snapshots freeze their stores so that a stray
    write through a reader's reference fails loudly instead of tearing
    the snapshot other readers are using.
    """


class ServiceError(ReproError):
    """Base class for errors raised by the concurrent serving layer
    (:mod:`repro.serve`)."""


class DeadlineExceeded(ServiceError):
    """A request ran past its deadline and was cooperatively cancelled.

    Raised from the deadline checkpoints inside the query evaluator and
    the closure loops (see :mod:`repro.core.deadline`), or when a write
    ticket was not applied within the caller's deadline.  For writes the
    mutation may still be applied by the writer after the caller has
    given up; the ticket records the eventual outcome.
    """


class Overloaded(ServiceError):
    """The service's bounded admission queue is full (backpressure).

    Clients should back off and retry; the request was rejected before
    doing any work.
    """


class ServiceClosed(ServiceError):
    """The service has shut down; no further requests are accepted."""


class ReplicaError(ServiceError):
    """A replica worker process failed (died mid-request, could not be
    bootstrapped, or its pipe broke).  The pool retries the request on
    the primary's published snapshot where possible, so callers mostly
    see this only when the whole pool is unavailable."""


#: Error classes that may travel across a process or socket boundary by
#: name (the JSON-lines protocol and the replica pipes).  Anything not
#: listed degrades to :class:`ServiceError` on the receiving side.
WIRE_ERROR_NAMES = (
    "ReproError", "EntityError", "TemplateError", "RuleError",
    "QueryError", "ParseError", "InfiniteRelationError",
    "IntegrityError", "StorageError", "UnknownRuleError",
    "FrozenStoreError", "ServiceError", "DeadlineExceeded",
    "Overloaded", "ServiceClosed", "ReplicaError",
)


def error_class(name: str) -> type:
    """The error class for a wire name (:data:`WIRE_ERROR_NAMES`),
    defaulting to :class:`ServiceError` for anything unrecognized."""
    if name in WIRE_ERROR_NAMES:
        return globals()[name]
    return ServiceError
