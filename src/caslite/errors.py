"""Exception hierarchy shared by every component.

Each error that can cross the wire carries a stable ``code`` string. Servers
map raised exceptions to error responses by that code and clients raise
:class:`ServerError` carrying the code back to callers.
"""

from __future__ import annotations

# The longest message an error keeps; a longer one is cut, so a caller's value
# quoted in a message cannot swell an error frame or an audit line.
MAX_MESSAGE = 300


class CasliteError(Exception):
    """Base class for all domain errors."""

    code = "Internal"

    def __init__(self, message: str = ""):
        if len(message) > MAX_MESSAGE:
            message = message[:MAX_MESSAGE] + "..."
        super().__init__(message)

    @property
    def message(self) -> str:
        return str(self)


class MalformedMessage(CasliteError):
    """A document failed strict parsing or violated a type invariant."""

    code = "MalformedMessage"


class MalformedPattern(CasliteError):
    code = "MalformedPattern"


# --- credential chains ------------------------------------------------------

class ChainError(CasliteError):
    """Chain verification failure; ``index`` is 0 for the end-entity
    credential and 1..n for delegation links."""

    def __init__(self, message: str = "", index: int | None = None):
        super().__init__(message)
        self.index = index


class UntrustedRoot(ChainError):
    code = "UntrustedRoot"


class BadSignature(ChainError):
    code = "BadSignature"


class Expired(ChainError):
    code = "Expired"


class NotYetValid(ChainError):
    code = "NotYetValid"


class BrokenNesting(ChainError):
    code = "BrokenNesting"


class ValidityOutOfRange(CasliteError):
    code = "ValidityOutOfRange"


class ParentUnverifiable(CasliteError):
    code = "ParentUnverifiable"


# --- policy administration --------------------------------------------------

class NotAuthorized(CasliteError):
    code = "NotAuthorized"


class UnknownSubject(CasliteError):
    code = "UnknownSubject"


class DuplicateGroup(CasliteError):
    code = "DuplicateGroup"


# --- assertions ---------------------------------------------------------------

class NotAMember(CasliteError):
    code = "NotAMember"


class LifetimeTooLong(CasliteError):
    code = "LifetimeTooLong"


class SubjectMismatch(CasliteError):
    code = "SubjectMismatch"


class MalformedExtension(CasliteError):
    code = "MalformedExtension"


# --- services ----------------------------------------------------------------

class AuthFailed(CasliteError):
    code = "AuthFailed"


class DeniedError(CasliteError):
    """An enforcement denial surfaced through a file operation."""

    code = "Denied"

    def __init__(self, decision):
        super().__init__(f"stage={decision.stage}: {decision.reason}")
        self.decision = decision


class NotFound(CasliteError):
    code = "NotFound"


class SourceUnavailable(CasliteError):
    code = "SourceUnavailable"


class StaleStatement(CasliteError):
    code = "StaleStatement"


class CacheMiss(CasliteError):
    code = "CacheMiss"


class StaleEntry(CasliteError):
    code = "StaleEntry"


# --- wire ---------------------------------------------------------------------

class FrameError(CasliteError):
    """Framing or envelope problem on a connection.

    ``recoverable`` is False when the byte stream can no longer be trusted
    and the connection should be dropped after the error response.
    """

    code = "MalformedRequest"

    def __init__(self, message: str = "", recoverable: bool = True):
        super().__init__(message)
        self.recoverable = recoverable


class ResponseTooLarge(CasliteError):
    """The answer would not fit in one frame of ``wire.MAX_FRAME`` bytes."""

    code = "ResponseTooLarge"


class ServerError(CasliteError):
    """Client-side reconstruction of an error response."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
