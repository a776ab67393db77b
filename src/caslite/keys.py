"""Key pairs and the signature scheme contract.

The stack only needs a deterministic asymmetric scheme of at least 128-bit
security; Ed25519 is the single registered algorithm. ``algorithm_id`` is
recorded per credential so the scheme could be swapped without touching the
serialization.

Each service remembers the checks it made of presented documents in its own
:class:`CheckedMemo`, keyed on the SHA-256 :func:`digest` of a document's
canonical bytes as they arrived: a :class:`Received` span of the request
frame, which is neither decoded nor encoded again when it is remembered. The
digest comes from ``cryptography`` rather than ``hashlib``: importing
``hashlib`` loads the system libcrypto beside the one ``cryptography``
carries, about 3.7 MiB more resident memory per service.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .canonical import canonical_json, fields, from_hex, parse_canonical, to_hex
from .errors import CasliteError, MalformedMessage

ED25519 = "ed25519"

# Presented documents whose time-free results one service remembers. The push
# working set is a few hundred chains; an LRU smaller than a cyclic working
# set never hits.
CHECKED_MEMO_SIZE = 1024


@dataclass(frozen=True)
class KeyMaterial:
    """A public key plus, for the holder, the matching private part."""

    algorithm_id: str
    public_part: bytes
    private_part: bytes | None = None

    def public(self) -> "KeyMaterial":
        if self.private_part is None:
            return self
        return KeyMaterial(self.algorithm_id, self.public_part)


def generate_keys() -> KeyMaterial:
    private = Ed25519PrivateKey.generate()
    return KeyMaterial(
        algorithm_id=ED25519,
        public_part=private.public_key().public_bytes_raw(),
        private_part=private.private_bytes_raw(),
    )


def sign_payload(keys: KeyMaterial, payload: bytes) -> bytes:
    if keys.algorithm_id != ED25519:
        raise CasliteError(f"unsupported signature algorithm {keys.algorithm_id!r}")
    if keys.private_part is None:
        raise CasliteError("private key material required for signing")
    return Ed25519PrivateKey.from_private_bytes(keys.private_part).sign(payload)


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
    """Successful time-free checks of presented documents, keyed on the
    SHA-256 of each document's canonical bytes as received, so any changed
    byte misses. Only bytes that passed
    :func:`~caslite.canonical.parse_canonical` are remembered, so a key the
    memo knows names canonical bytes. One memo belongs to one service,
    because a result holds only for that service's anchors and authority."""

    def __init__(self) -> None:
        self._entries: OrderedDict[bytes, Any] = OrderedDict()
        self._lock = threading.Lock()

    def knows(self, key: bytes) -> bool:
        """Whether a check of the bytes whose digest is ``key`` is remembered."""
        with self._lock:
            return key in self._entries

    def recall(self, doc: Received | Any, check: Callable[[Any], Any]) -> Any:
        """``check`` of the parsed document, remembered when it returns; a
        check that raises is run again next time. ``doc`` is
        :class:`Received`, or a map, which is encoded first: one given in
        process, or one from a request frame parsed whole, whose canonical
        form is its span of the frame. A remembered :class:`Received` is
        neither parsed nor encoded; on a miss, ``check`` gets the parse of
        the keyed bytes, which ``doc`` keeps."""
        if not isinstance(doc, Received):
            doc = Received(canonical_json(doc))
        with self._lock:
            value = self._entries.get(doc.key)
            if value is not None:
                self._entries.move_to_end(doc.key)
                return value
        if doc.doc is None:
            doc.doc = parse_canonical(doc.data)
        value = check(doc.doc)
        with self._lock:
            self._entries[doc.key] = value
            while len(self._entries) > CHECKED_MEMO_SIZE:
                self._entries.popitem(last=False)
        return value


def verify_payload(keys: KeyMaterial, signature: bytes, payload: bytes) -> bool:
    if keys.algorithm_id != ED25519:
        return False
    try:
        Ed25519PublicKey.from_public_bytes(keys.public_part).verify(signature, payload)
    except (InvalidSignature, ValueError):
        return False
    return True


def key_to_map(keys: KeyMaterial, include_private: bool = False) -> dict[str, Any]:
    out = {"algorithm_id": keys.algorithm_id, "public_part": to_hex(keys.public_part)}
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
    return KeyMaterial(ED25519, public, private)
