"""Signed query statements and the client side of the pull model.

The community server answers queries with statements signed by its own key:
either a rights assertion for one user, or a listing of every member's rights
within a namespace. Downstream parties check the authority's untouched
signature over the bytes that arrived, before reading them (the caching
mirror forwards them as they came), so none of them needs a key of its own.
A statement is only those signed bytes and the signature: one reader takes
it in, whether it came off the wire or from a statement document. A fetched
statement's signed bytes are the received frame's buffer itself, trimmed in
place, so a process holds one copy of each listing it pulls.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass, field
from typing import Any

from .canonical import Encoded, canonical_json, expect, fields, from_hex, parse_canonical, to_hex
from .errors import (
    CasliteError,
    MalformedMessage,
    SourceUnavailable,
    StaleStatement,
)
from .keys import KeyMaterial, sign_payload, verify_payload
from .policy import (
    NO_RIGHTS,
    RightsSet,
    rights_from_list,
    shared_rights,
    split_pattern,
    validate_identity,
)
from . import wire
from .assertions import assertion_from_map

STATEMENT_FORMAT = "statement/1"

# query kind -> its one argument and that argument's check
QUERY_KINDS = {"user_rights": ("subject", validate_identity),
               "resource_rights": ("namespace", split_pattern)}


class _Memo:
    """What one statement object keeps: its signing ``payload``, the signed
    bytes or, for a fetched statement, the received frame's ``bytearray``,
    never written after :func:`_take_in`; its ``body``, once decoded; its
    listing entries' ``spans`` in the payload, once indexed; and the entries
    parsed so far, by subject, each a set of its own (see
    :func:`~caslite.policy.shared_rights`)."""

    def __init__(self, payload: bytes | bytearray) -> None:
        self.lock = threading.Lock()
        self.payload, self.body = payload, None
        self.spans: dict[str, tuple[int, int]] | None = None
        self.by_subject: dict[str, frozenset] = {}


@dataclass(frozen=True)
class SignedStatement:
    """An authority-signed answer to a query: the bytes the signature covers,
    kept verbatim by caches, and the fields read from them.

    Equality compares the fields, the signature over the body among them.
    ``body`` is decoded on first access. Its ``_memo`` is its own: never
    share one, or pass a statement to ``dataclasses.replace``."""

    query: dict
    issued_at: int
    expires_at: int
    signature: bytes
    _memo: _Memo = field(compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.expires_at > self.issued_at:
            raise MalformedMessage("statement expires before it is issued")

    @property
    def body(self) -> dict:
        memo = self._memo
        if memo.body is None:
            memo.body = parse_canonical(memo.payload)["body"]
        return memo.body

    def signing_payload(self) -> bytes | bytearray:
        """The bytes the signature covers, as signed or received."""
        return self._memo.payload

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
    keys: KeyMaterial, query: dict, body: dict | tuple, issued_at: int, expires_at: int
) -> SignedStatement:
    """Sign ``body`` as the answer to ``query``. The payload's first key is
    ``body``, so its bytes are spliced after ``{"body":`` (a tuple body is
    chunks whose concatenation is its canonical form, encoded no further),
    then the other fields, in one join. Only the payload is kept: the
    statement's ``body`` is decoded from it."""
    rest = canonical_json({"caslite": STATEMENT_FORMAT, "expires_at": expires_at,
                           "issued_at": issued_at, "query": query}, trusted=True)
    chunks = body if isinstance(body, tuple) else (canonical_json(body, trusted=True),)
    payload = b"".join((b'{"body":', *chunks, b",", memoryview(rest)[1:]))
    return SignedStatement(query, issued_at, expires_at, sign_payload(keys, payload),
                           _Memo(payload))


def verify_statement(statement: SignedStatement, authority_public: KeyMaterial) -> bool:
    return verify_payload(authority_public, statement.signature, statement.signing_payload())


def statement_to_map(s: SignedStatement) -> dict[str, Any]:
    return {**parse_canonical(s.signing_payload()), "signature": to_hex(s.signature)}


def statement_answer(s: SignedStatement) -> Encoded:
    """The query answer ``{"statement":...}`` carrying ``s``: the signing
    payload as signed or received, with ``signature``, the key sorting last,
    spliced in before its closing brace (see ``Encoded``). Nothing is
    decoded or encoded again, so the authority and a mirror send the same
    bytes."""
    return Encoded((b'{"statement":', memoryview(s.signing_payload())[:-1],
                    b',"signature":"' + to_hex(s.signature).encode("ascii") + b'"}}'))


def statement_from_map(doc: Any) -> SignedStatement:
    """Take in a statement document (see :func:`statement_to_map`) through
    :func:`fetch_statement`'s reader: its signing payload is the document
    without ``signature``, encoded. Listing entries are checked when read."""
    fields(doc, "statement document",
           {"caslite", "query", "body", "issued_at", "expires_at", "signature"})
    payload = canonical_json({k: v for k, v in doc.items() if k != "signature"})
    return _take_in(payload, from_hex(doc["signature"]), validate_query(doc["query"]))


def listing_rights(statement: SignedStatement, subject: str) -> RightsSet:
    """A subject's entry in a resource_rights listing; absent means none.

    An entry is parsed on first use, once per statement object, and kept with
    that object as its own :class:`~caslite.policy.RightsSet` of interned
    rights (:func:`~caslite.policy.shared_rights`), so the prefix index
    ``decide`` builds on it is built once, and both go when the statement
    does: a refreshed statement answers from its own entries. Only the
    entries asked for are parsed: holding every member's rights of a large
    listing would cost megabytes in each consumer. An entry that does not
    parse raises :class:`MalformedMessage`."""
    memo = statement._memo
    rights = memo.by_subject.get(subject)
    if rights is not None:
        return rights
    if memo.spans is None:
        memo.spans = _index(statement.signing_payload())
    span = memo.spans.get(subject)
    if span is None:
        return NO_RIGHTS
    entry = parse_canonical(memo.payload[span[0]:span[1]])
    with memo.lock:
        rights = memo.by_subject.get(subject)
        if rights is None:
            rights = memo.by_subject[subject] = shared_rights(rights_from_list(entry))
    return rights


# A statement answer (see statement_answer), and the bytes after a body.
_SIGNED = re.compile(rb'\{"statement":(\{"body":.+),"signature":"([0-9a-f]{128})"\}\}', re.DOTALL)
_FIELDS_HEAD = b',"caslite":"%s","expires_at":' % STATEMENT_FORMAT.encode()
_BODY, _LISTING = len(b'{"body":'), b'{"listing":{'
# The possessive quantifiers ++ and *+ need Python 3.11's re.
_STRING = re.compile(rb'"(?:[^"\\]++|\\.)*+"', re.DOTALL)


def _index(payload: bytes) -> dict[str, tuple[int, int]]:
    """Each entry's rights list's span by subject in ``payload``, a signing
    payload whose body is a listing. An entry ends at ``],"/``: a quote in a
    JSON string is escaped and a list at this depth is an entry's value, so
    those bytes occur only before a subject, which begins ``/``."""
    end = payload.rfind(_FIELDS_HEAD) - 2
    if end < 0 or not (payload.startswith(_LISTING, _BODY) and payload.startswith(b"}}", end)):
        raise MalformedMessage("resource_rights statement body must be a listing map")
    spans: dict[str, tuple[int, int]] = {}
    start = _BODY + len(_LISTING)
    while start < end:
        stop = payload.find(b'],"/', start, end) + 1 or end
        key = _STRING.match(payload, start, stop)
        if key is None or not payload.startswith(b":[", key.end()):
            raise MalformedMessage("listing entry has no subject")
        subject = parse_canonical(key.group())
        if subject in spans:
            raise MalformedMessage("listing names a subject twice")
        spans[subject] = (key.end() + 1, stop)
        start = stop + 1
    return spans


def fetch_statement(source: wire.Endpoint | str, query: dict, chain: dict | None,
                    authority_public: KeyMaterial | None) -> SignedStatement:
    """Ask ``source`` for ``query`` and take in the answer's bytes: with
    ``authority_public`` the signature is checked over them before anything
    is read (a mirror without it forwards them unchecked). A source
    that sends no answer fails the fetch within ``wire.FRAME_DEADLINE``.

    The signing payload is the received buffer itself: the payload's
    closing brace is written over the comma before ``"signature"``, and the
    bytes after it and before the payload are deleted in place, which for
    the leading bytes of a ``bytearray`` copies nothing."""
    answer = wire.call(source, "query", query, chain=chain, timeout=wire.FRAME_DEADLINE, raw=True)
    signed = _SIGNED.fullmatch(answer)
    if signed is None:
        raise MalformedMessage("query response is not a signed statement")
    signature = bytes.fromhex(signed.group(2).decode())
    answer[signed.end(1):] = b"}"
    del answer[:signed.start(1)]
    if authority_public is not None and not verify_payload(authority_public, signature, answer):
        raise MalformedMessage("statement signature does not verify")
    return _take_in(answer, signature, query)


def _take_in(payload: bytes | bytearray, signature: bytes, query: dict) -> SignedStatement:
    """The statement whose signing payload is ``payload``. The fields after
    the body must answer ``query``; the body must be a user_rights assertion,
    read whole, or a listing, whose entries are indexed."""
    cut = payload.rfind(_FIELDS_HEAD)
    doc = fields(parse_canonical(b"{" + payload[cut + 1:]) if cut > 0 else None,
                 "statement document", {"caslite", "query", "issued_at", "expires_at"})
    if doc["query"] != query:
        raise MalformedMessage("statement answers another query")
    memo = _Memo(payload)
    if query["query"] == "user_rights":
        memo.body = fields(parse_canonical(payload[_BODY:cut]),
                           "user_rights statement body", {"assertion"})
        assertion_from_map(memo.body["assertion"])
    else:
        memo.spans = _index(payload)
    return SignedStatement(query, expect(doc["issued_at"], int, "issued_at"),
                           expect(doc["expires_at"], int, "expires_at"), signature, memo)


class _Flight:
    """One refresh in progress: callers that find it wait on ``done``, then
    take its ``statement`` or, when the refresh failed, its ``error``."""

    def __init__(self) -> None:
        self.done = threading.Event()
        self.statement: SignedStatement | None = None
        self.error: CasliteError | None = None


class StatementFetcher:
    """The latest statement answering one query, held with the ``now`` it
    was fetched at: the pull consumers' policy and each mirror subscription.
    ``query`` is checked when the fetcher is made; a namespace stands for
    its resource_rights query.

    :meth:`refresh` is single-flight: one caller fetches while the others
    wait for its outcome, and on failure each raises its own exception. Only
    a statement fresh at ``now`` replaces the held one, in one reference
    swap; a failure keeps it. :meth:`current`, the pull path, fails closed:
    it uses the held statement while fresh; when the source fails it raises
    :class:`StaleStatement` with an expired one held, else
    :class:`SourceUnavailable`, and an answer already expired raises
    :class:`StaleStatement`."""

    def __init__(
        self,
        source: wire.Endpoint | str,
        query: dict | str,
        authority_public: KeyMaterial | None,
        client_chain: dict | None = None,
    ):
        if isinstance(query, str):
            query = {"query": "resource_rights", "namespace": query}
        self._source = source
        self.query = validate_query(query)
        self._authority_public = authority_public
        self._client_chain = client_chain
        self._lock = threading.Lock()
        self.held: tuple[SignedStatement, int] | None = None
        self._flight: _Flight | None = None

    def fetch(self) -> SignedStatement:
        return fetch_statement(self._source, self.query, self._client_chain,
                               self._authority_public)

    def refresh(self, now: int) -> SignedStatement:
        with self._lock:
            flight, leader = self._flight, self._flight is None
            if leader:
                flight = self._flight = _Flight()
        if leader:
            try:
                statement = self.fetch()
                if statement.fresh_at(now):
                    self.held = (statement, now)
                    flight.statement = statement
                else:
                    flight.error = StaleStatement(
                        f"fetched statement already expired at {statement.expires_at}")
            except (OSError, CasliteError) as exc:
                flight.error = SourceUnavailable(f"policy source unreachable: {exc}")
            finally:
                with self._lock:
                    self._flight = None
                flight.done.set()
        else:
            flight.done.wait()
        if flight.statement is None:
            error = flight.error or SourceUnavailable("policy refresh failed")
            raise type(error)(error.message)
        return flight.statement

    def current(self, now: int) -> SignedStatement:
        held = self.held
        if held is not None and held[0].fresh_at(now):
            return held[0]
        try:
            return self.refresh(now)
        except SourceUnavailable as exc:
            if held is None:
                raise
            raise StaleStatement(f"cached statement expired at {held[0].expires_at} "
                                 f"and refresh failed: {exc}") from None
