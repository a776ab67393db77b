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
from dataclasses import dataclass, field, replace
from typing import Any

from .canonical import canonical_json, expect, fields, from_hex, to_hex
from .errors import (
    CasliteError,
    MalformedMessage,
    SourceUnavailable,
    StaleStatement,
)
from .keys import KeyMaterial, sign_payload, verify_payload
from .policy import rights_from_list, split_pattern, validate_identity
from . import wire
from .assertions import assertion_from_map

logger = logging.getLogger(__name__)

STATEMENT_FORMAT = "statement/1"

# query kind -> its one argument and that argument's check
QUERY_KINDS = {"user_rights": ("subject", validate_identity),
               "resource_rights": ("namespace", split_pattern)}


class _Memo:
    """What one statement object has worked out about itself: ``payload``,
    its signing payload, kept once signed or served here; and the listing
    entries parsed so far, by subject, with one ``Right`` object per
    distinct right among them, since most entries repeat the same group
    grants and so share their rights."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.payload: bytes | None = None
        self.by_subject: dict[str, frozenset] = {}
        self.shared: dict = {}


@dataclass(frozen=True)
class SignedStatement:
    """An authority-signed answer to a query, kept verbatim by caches.

    ``_memo`` holds what this object has computed about itself, not part of
    its value, and takes no part in equality: the signing payload once it is
    kept (see :meth:`kept_payload`) and the listing entries parsed so far
    (see :func:`listing_rights`).
    """

    query: dict
    body: dict
    issued_at: int
    expires_at: int
    signature: bytes
    _memo: _Memo = field(default_factory=_Memo, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.expires_at > self.issued_at:
            raise MalformedMessage("statement expires before it is issued")

    def signing_payload(self) -> bytes:
        return canonical_json(_statement_payload(self), trusted=True)

    def kept_payload(self) -> bytes:
        """The signing payload, encoded once per statement object and kept:
        the bytes ``sign_statement`` signed, or, for a parsed statement, its
        encoding when first served. Verification never reads it."""
        memo = self._memo
        if memo.payload is None:
            with memo.lock:
                if memo.payload is None:
                    memo.payload = self.signing_payload()
        return memo.payload

    def fresh_at(self, now: int) -> bool:
        return now < self.expires_at


def validate_query(payload: Any) -> dict:
    if not isinstance(payload, dict):
        raise MalformedMessage("query payload must be a map")
    kind = payload.get("query")
    if not isinstance(kind, str) or kind not in QUERY_KINDS:
        raise MalformedMessage(f"unknown query kind {kind!r:.80}")
    name, check = QUERY_KINDS[kind]
    check(fields(payload, f"{kind} query", {"query", name})[name])
    return payload


def sign_statement(
    keys: KeyMaterial, query: dict, body: dict, issued_at: int, expires_at: int
) -> SignedStatement:
    """Sign ``body`` as the answer to ``query``. The payload's first key is
    ``body``, so its bytes are spliced after ``{"body":`` (the chunks of a
    ``wire.Encoded`` body, encoded no further), then the other fields."""
    unsigned = SignedStatement(query, body, issued_at, expires_at, b"")
    rest = canonical_json({"caslite": STATEMENT_FORMAT, "expires_at": expires_at,
                           "issued_at": issued_at, "query": query}, trusted=True)
    chunks = (body.chunks if isinstance(body, wire.Encoded)
              else (canonical_json(body, trusted=True),))
    payload = b"".join((b'{"body":', *chunks, b",", memoryview(rest)[1:]))
    signed = replace(unsigned, signature=sign_payload(keys, payload))
    signed._memo.payload = payload
    return signed


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


def statement_answer(s: SignedStatement) -> wire.Encoded:
    """The query answer ``{statement}`` carrying ``s``, sent as the bytes that
    were signed with the signature field spliced in (see ``wire.Encoded``)."""
    return wire.Encoded({"statement": statement_to_map(s)}, (
        b'{"statement":', memoryview(s.kept_payload())[:-1],
        b',"signature":"' + to_hex(s.signature).encode("ascii") + b'"}}'))


def statement_from_map(doc: Any) -> SignedStatement:
    fields(doc, "statement document",
           {"caslite", "query", "body", "issued_at", "expires_at", "signature"})
    if doc["caslite"] != STATEMENT_FORMAT:
        raise MalformedMessage(f"not a statement document: {doc['caslite']!r}")
    for name in ("issued_at", "expires_at"):
        expect(doc[name], int, name)
    query = validate_query(doc["query"])
    # Validate the body shape against the echoed query before trusting it.
    if query["query"] == "user_rights":
        assertion_from_map(fields(doc["body"], "user_rights statement body", {"assertion"})
                           ["assertion"])
    else:
        listing = fields(doc["body"], "resource_rights statement body", {"listing"})["listing"]
        for ident, rights in expect(listing, dict, "listing").items():
            validate_identity(ident)
            rights_from_list(rights)
    return SignedStatement(
        query=query,
        body=doc["body"],
        issued_at=doc["issued_at"],
        expires_at=doc["expires_at"],
        signature=from_hex(doc["signature"]),
    )


def listing_rights(statement: SignedStatement, subject: str) -> frozenset:
    """A subject's entry in a resource_rights listing; absent means none.

    An entry is parsed on first use, once per statement object, and kept with
    that object, so a refreshed statement never answers from an older listing.
    Only the entries asked for are parsed: holding every member's rights of a
    large listing would cost megabytes in each consumer."""
    memo = statement._memo
    rights = memo.by_subject.get(subject)
    if rights is not None:
        return rights
    entry = statement.body["listing"].get(subject)
    if entry is None:
        return frozenset()
    with memo.lock:
        rights = memo.by_subject.get(subject)
        if rights is None:
            shared = memo.shared
            rights = frozenset(shared.setdefault(r, r) for r in rights_from_list(entry))
            memo.by_subject[subject] = rights
    return rights


def fetch_statement(source: wire.Endpoint | str, query: dict,
                    chain: dict | None) -> SignedStatement:
    """Ask ``source`` for ``query`` and parse the statement it answers with;
    the signature is the caller's to check."""
    body = wire.call(source, "query", query, chain=chain)
    return statement_from_map(fields(body, "query response", {"statement"})["statement"])


class _Flight:
    """One refresh in progress: callers that find it wait on ``done``, then
    take its ``statement`` or, when the refresh failed, its ``error``."""

    def __init__(self) -> None:
        self.done = threading.Event()
        self.statement: SignedStatement | None = None
        self.error: CasliteError | None = None


class StatementFetcher:
    """Lazily refreshed view of one resource_rights statement.

    Fetched statements are cached until their own expiry; on fetch failure
    the decision is fail-closed: a still-fresh cached statement is used, an
    expired one raises :class:`StaleStatement`, and having none raises
    :class:`SourceUnavailable`. Refreshes are single-flight: one caller
    fetches while the others wait for its outcome, a failure included.
    Replacement is a single reference swap so concurrent readers never see a
    partial update.
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
        self._flight: _Flight | None = None

    @property
    def query(self) -> dict:
        return {"query": "resource_rights", "namespace": self._namespace}

    def fetch(self) -> SignedStatement:
        statement = fetch_statement(self._source, self.query, self._client_chain)
        if not verify_statement(statement, self._authority_public):
            raise MalformedMessage("statement signature does not verify")
        return statement

    def current(self, now: int) -> SignedStatement:
        with self._lock:
            cached = self._current
            if cached is not None and cached.fresh_at(now):
                return cached
            flight, leader = self._flight, self._flight is None
            if leader:
                flight = self._flight = _Flight()
        if leader:
            try:
                flight.statement = self._refresh(cached, now)
            except CasliteError as exc:
                flight.error = exc
            finally:
                with self._lock:
                    self._flight = None
                    if flight.statement is not None:
                        self._current = flight.statement
                flight.done.set()
        else:
            flight.done.wait()
        if flight.statement is None:
            error = flight.error or SourceUnavailable("policy refresh failed")
            raise type(error)(error.message) from None
        return flight.statement

    def _refresh(self, cached: SignedStatement | None, now: int) -> SignedStatement:
        try:
            statement = self.fetch()
        except (OSError, CasliteError) as exc:
            if cached is not None:
                raise StaleStatement(
                    f"cached statement expired at {cached.expires_at} and refresh failed: {exc}"
                ) from None
            raise SourceUnavailable(f"policy source unreachable: {exc}") from None
        if not statement.fresh_at(now):
            raise StaleStatement(f"fetched statement already expired at {statement.expires_at}")
        return statement
