"""Key pairs and the signature scheme contract.

The stack only needs a deterministic asymmetric scheme of at least 128-bit
security, and Ed25519 is the only one it signs or verifies with. Key
documents keep ``algorithm_id`` as a format field: :func:`key_to_map` writes
``"ed25519"`` and :func:`key_from_map` refuses any other value.

Each service remembers the checks it made of presented documents in its own
:class:`CheckedMemo`, keyed on the SHA-256 :func:`digest` of a document's
canonical bytes as they arrived: a :class:`Received` span of the request
frame, which is neither decoded nor encoded again when it is remembered. The
memo keeps what each check returned and, apart, each domain refusal, so a
replayed bad document is refused again without being parsed or checked. The
digest comes from ``cryptography`` rather than ``hashlib``: importing
``hashlib`` loads the system libcrypto beside the one ``cryptography``
carries, about 3.7 MiB more resident memory per service. Nothing below
those memos remembers: :func:`verify_payload` runs the Ed25519 check on every
call.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .canonical import canonical_json, fields, from_hex, parse_canonical, to_hex
from .errors import CasliteError, DeniedError, MalformedMessage

ED25519 = "ed25519"

# Presented documents whose time-free results one service remembers, and apart
# as many refused ones. The push working set is a few hundred chains; an LRU
# smaller than a cyclic working set never hits.
CHECKED_MEMO_SIZE = 1024


@dataclass(frozen=True)
class KeyMaterial:
    """A public key plus, for the holder, the matching private part.

    ``_signer`` is the private key object :func:`sign_payload` builds from
    ``private_part`` on first use and keeps; it takes no part in equality,
    hashing or repr."""

    public_part: bytes
    private_part: bytes | None = None
    _signer: Ed25519PrivateKey | None = field(default=None, init=False, compare=False,
                                              repr=False)

    def public(self) -> "KeyMaterial":
        if self.private_part is None:
            return self
        return KeyMaterial(self.public_part)


def generate_keys() -> KeyMaterial:
    private = Ed25519PrivateKey.generate()
    return KeyMaterial(
        public_part=private.public_key().public_bytes_raw(),
        private_part=private.private_bytes_raw(),
    )


def sign_payload(keys: KeyMaterial, payload: bytes) -> bytes:
    if keys.private_part is None:
        raise CasliteError("private key material required for signing")
    signer = keys._signer
    if signer is None:
        signer = Ed25519PrivateKey.from_private_bytes(keys.private_part)
        object.__setattr__(keys, "_signer", signer)
    return signer.sign(payload)


def digest(data: bytes) -> bytes:
    """The SHA-256 digest of ``data``."""
    h = hashes.Hash(hashes.SHA256())
    h.update(data)
    return h.finalize()


class Received:
    """A presented document as canonical bytes: ``data``, cut from a request
    frame (see :class:`~caslite.wire.FrameServer`) or encoded from a map by
    :meth:`CheckedMemo.recall`; ``key``, their :func:`digest`; and ``doc``,
    what :func:`~caslite.canonical.parse_canonical` made of them, or None
    while they are unparsed."""

    __slots__ = ("data", "key", "doc")

    def __init__(self, data: bytes):
        self.data = data
        self.key = digest(data)
        self.doc = None


class CheckedMemo:
    """Time-free checks of presented documents, keyed on the SHA-256 of each
    document's canonical bytes as received, so any changed byte misses.
    Only bytes that passed :func:`~caslite.canonical.parse_canonical` are
    remembered, so a key the memo knows names canonical bytes. One memo
    belongs to one service, because a result holds only for that service's
    anchors and authority.

    What a check returned is kept in one LRU, and each
    :class:`~caslite.errors.CasliteError` it raised in another, of the same
    size, so a flood of refused documents never evicts a passed one. A
    refusal is kept as its class and message, or a deny's decision, never as
    the exception, whose traceback holds the frames of the failed check."""

    def __init__(self) -> None:
        self._entries: OrderedDict[bytes, Any] = OrderedDict()
        self._refused: OrderedDict[bytes, tuple[type[CasliteError], Any]] = OrderedDict()
        self._lock = threading.Lock()

    def knows(self, key: bytes) -> bool:
        """Whether a check of the bytes whose digest is ``key`` is remembered."""
        with self._lock:
            return key in self._entries or key in self._refused

    def recall(self, doc: Received | Any, check: Callable[[Any], Any]) -> Any:
        """``check`` of the parsed document, remembered when it returns or
        raises a :class:`~caslite.errors.CasliteError`; any other exception
        runs the check again next time. ``doc`` is :class:`Received`, or a
        map, which is encoded first: one given in process, or one from a
        request frame parsed whole, whose canonical form is its span of the
        frame. A remembered :class:`Received` is neither parsed nor encoded,
        and a remembered refusal raises a new exception of its class with its
        message, or a deny's decision (a chain error's ``index`` is not
        kept); on a miss, ``check`` gets the parse of the keyed bytes, which
        ``doc`` keeps, and a parse failure is not remembered."""
        if not isinstance(doc, Received):
            doc = Received(canonical_json(doc))
        with self._lock:
            value = self._entries.get(doc.key)
            if value is not None:
                self._entries.move_to_end(doc.key)
                return value
            refusal = self._refused.get(doc.key)
            if refusal is not None:
                self._refused.move_to_end(doc.key)
                raise refusal[0](refusal[1])
        if doc.doc is None:
            doc.doc = parse_canonical(doc.data)
        try:
            value = check(doc.doc)
        except CasliteError as exc:
            self._keep(self._refused, doc.key, (
                type(exc), exc.decision if isinstance(exc, DeniedError) else exc.message))
            raise
        self._keep(self._entries, doc.key, value)
        return value

    def _keep(self, lru: OrderedDict, key: bytes, value: Any) -> None:
        with self._lock:
            lru[key] = value
            while len(lru) > CHECKED_MEMO_SIZE:
                lru.popitem(last=False)


def verify_payload(keys: KeyMaterial, signature: bytes, payload: bytes) -> bool:
    """Whether ``signature`` is an Ed25519 signature of ``payload`` by ``keys``."""
    try:
        Ed25519PublicKey.from_public_bytes(keys.public_part).verify(signature, payload)
    except (InvalidSignature, ValueError):
        return False
    return True


def key_to_map(keys: KeyMaterial, include_private: bool = False) -> dict[str, Any]:
    out = {"algorithm_id": ED25519, "public_part": to_hex(keys.public_part)}
    if include_private and keys.private_part is not None:
        out["private_part"] = to_hex(keys.private_part)
    return out


def key_from_map(doc: Any) -> KeyMaterial:
    fields(doc, "key material", {"algorithm_id", "public_part"}, {"private_part"})
    if doc["algorithm_id"] != ED25519:
        raise MalformedMessage(f"unknown algorithm_id {doc['algorithm_id']!r}")
    public = from_hex(doc["public_part"])
    private = from_hex(doc["private_part"]) if "private_part" in doc else None
    if len(public) != 32 or private is not None and len(private) != 32:
        raise MalformedMessage("ed25519 keys must be 32 bytes")
    return KeyMaterial(public, private)
