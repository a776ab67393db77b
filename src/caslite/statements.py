"""Signed query statements and the client side of the pull model.

The community server answers queries with statements signed by its own key:
either a rights assertion for one user, or a listing of every member's rights
within a namespace. Downstream parties (the caching mirror, pull-mode
resources, the decision service) verify the authority's untouched signature,
so none of them needs a signing key of its own.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass, field
from typing import Any

from .canonical import canonical_json, from_hex, to_hex
from .errors import (
    MalformedMessage,
    ServerError,
    SourceUnavailable,
    StaleStatement,
)
from .keys import KeyMaterial, sign_payload, verify_payload
from .policy import rights_from_list, split_pattern, validate_identity
from . import wire
from .assertions import assertion_from_map

logger = logging.getLogger(__name__)

STATEMENT_FORMAT = "statement/1"

QUERY_KINDS = ("user_rights", "resource_rights")


class _ParsedEntries:
    """The listing entries of one statement parsed so far, by subject, and
    one ``Right`` object per distinct right among them: most entries repeat
    the same group grants, so they share their rights."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.by_subject: dict[str, frozenset] = {}
        self.shared: dict = {}


@dataclass(frozen=True)
class SignedStatement:
    """An authority-signed answer to a query, kept verbatim by caches.

    The last two fields are memos of this object, not part of its value, and
    take no part in equality: ``payload_size`` is the length of the signing
    payload when the statement was signed here, and ``_parsed`` holds the
    listing entries parsed so far (see :func:`listing_rights`).
    """

    query: dict
    body: dict
    issued_at: int
    expires_at: int
    signature: bytes
    payload_size: int | None = field(default=None, compare=False, repr=False)
    _parsed: _ParsedEntries = field(
        default_factory=_ParsedEntries, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if not self.expires_at > self.issued_at:
            raise MalformedMessage("statement expires before it is issued")

    def signing_payload(self) -> bytes:
        return canonical_json(_statement_payload(self))

    def response_size(self) -> int:
        """Bytes of the wire response ``{ok, body: {statement}}`` carrying this
        statement: the signing payload plus the signature field and the
        envelope, a fixed number of bytes for a given signature length."""
        payload = self.payload_size
        if payload is None:
            payload = len(self.signing_payload())
        signature = {"signature": to_hex(self.signature)}
        envelope = canonical_json(wire.ok_response({"statement": signature}))
        # The payload's closing brace gives way to a comma before the
        # signature field, which sorts after every payload key.
        return payload + len(envelope) - 1

    def fresh_at(self, now: int) -> bool:
        return now < self.expires_at


def validate_query(payload: Any) -> dict:
    if not isinstance(payload, dict) or payload.get("query") not in QUERY_KINDS:
        raise MalformedMessage(f"unknown query payload: {payload!r}")
    if payload["query"] == "user_rights":
        if set(payload) != {"query", "subject"}:
            raise MalformedMessage("user_rights query needs a subject")
        validate_identity(payload["subject"])
    else:
        if set(payload) != {"query", "namespace"}:
            raise MalformedMessage("resource_rights query needs a namespace")
        split_pattern(payload["namespace"])
    return payload


def sign_statement(
    keys: KeyMaterial, query: dict, body: dict, issued_at: int, expires_at: int
) -> SignedStatement:
    payload = SignedStatement(query, body, issued_at, expires_at, b"").signing_payload()
    return SignedStatement(
        query, body, issued_at, expires_at, sign_payload(keys, payload), len(payload),
    )


def verify_statement(statement: SignedStatement, authority_public: KeyMaterial) -> bool:
    return verify_payload(authority_public, statement.signature, statement.signing_payload())


def _statement_payload(s: SignedStatement) -> dict[str, Any]:
    return {
        "caslite": STATEMENT_FORMAT,
        "query": s.query,
        "body": s.body,
        "issued_at": s.issued_at,
        "expires_at": s.expires_at,
    }


def statement_to_map(s: SignedStatement) -> dict[str, Any]:
    out = _statement_payload(s)
    out["signature"] = to_hex(s.signature)
    return out


def statement_from_map(doc: Any) -> SignedStatement:
    if not isinstance(doc, dict) or set(doc) != {
        "caslite", "query", "body", "issued_at", "expires_at", "signature",
    }:
        raise MalformedMessage("statement document has wrong fields")
    if doc["caslite"] != STATEMENT_FORMAT:
        raise MalformedMessage(f"not a statement document: {doc['caslite']!r}")
    if not isinstance(doc["issued_at"], int) or not isinstance(doc["expires_at"], int):
        raise MalformedMessage("statement timestamps must be integers")
    query = validate_query(doc["query"])
    body = doc["body"]
    if not isinstance(body, dict):
        raise MalformedMessage("statement body must be a map")
    # Validate the body shape against the echoed query before trusting it.
    if query["query"] == "user_rights":
        if set(body) != {"assertion"}:
            raise MalformedMessage("user_rights statement body must carry an assertion")
        assertion_from_map(body["assertion"])
    else:
        if set(body) != {"listing"}:
            raise MalformedMessage("resource_rights statement body must carry a listing")
        for ident, rights in body["listing"].items():
            validate_identity(ident)
            rights_from_list(rights)
    return SignedStatement(
        query=query,
        body=body,
        issued_at=doc["issued_at"],
        expires_at=doc["expires_at"],
        signature=from_hex(doc["signature"]),
    )


def statement_bytes(s: SignedStatement) -> bytes:
    return canonical_json(statement_to_map(s))


def listing_rights(statement: SignedStatement, subject: str) -> frozenset:
    """A subject's entry in a resource_rights listing; absent means none.

    An entry is parsed on first use, once per statement object, and kept with
    that object, so a refreshed statement never answers from an older listing.
    Only the entries asked for are parsed: holding every member's rights of a
    large listing would cost megabytes in each consumer."""
    parsed = statement._parsed
    rights = parsed.by_subject.get(subject)
    if rights is not None:
        return rights
    entry = statement.body["listing"].get(subject)
    if entry is None:
        return frozenset()
    with parsed.lock:
        rights = parsed.by_subject.get(subject)
        if rights is None:
            shared = parsed.shared
            rights = frozenset(shared.setdefault(r, r) for r in rights_from_list(entry))
            parsed.by_subject[subject] = rights
    return rights


class StatementFetcher:
    """Lazily refreshed view of one resource_rights statement.

    Fetched statements are cached until their own expiry; on fetch failure
    the decision is fail-closed: a still-fresh cached statement is used, an
    expired one raises :class:`StaleStatement`, and having none raises
    :class:`SourceUnavailable`. Replacement is a single reference swap so
    concurrent readers never see a partial update.
    """

    def __init__(
        self,
        source: wire.Endpoint | str,
        namespace: str,
        authority_public: KeyMaterial,
        client_chain: dict | None = None,
    ):
        self._source = source
        self._namespace = namespace
        self._authority_public = authority_public
        self._client_chain = client_chain
        self._lock = threading.Lock()
        self._current: SignedStatement | None = None

    @property
    def query(self) -> dict:
        return {"query": "resource_rights", "namespace": self._namespace}

    def fetch(self) -> SignedStatement:
        body = wire.call(self._source, "query", self.query, chain=self._client_chain)
        if "statement" not in body:
            raise MalformedMessage("query response carries no statement")
        statement = statement_from_map(body["statement"])
        if not verify_statement(statement, self._authority_public):
            raise MalformedMessage("statement signature does not verify")
        return statement

    def current(self, now: int) -> SignedStatement:
        with self._lock:
            cached = self._current
        if cached is not None and cached.fresh_at(now):
            return cached
        try:
            statement = self.fetch()
        except (OSError, ServerError, MalformedMessage) as exc:
            if cached is not None:
                raise StaleStatement(
                    f"cached statement expired at {cached.expires_at} and refresh failed: {exc}"
                ) from None
            raise SourceUnavailable(f"policy source unreachable: {exc}") from None
        if not statement.fresh_at(now):
            raise StaleStatement(f"fetched statement already expired at {statement.expires_at}")
        with self._lock:
            self._current = statement
        return statement
