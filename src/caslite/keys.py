"""Key pairs and the signature scheme contract.

The stack only needs a deterministic asymmetric scheme of at least 128-bit
security; Ed25519 is the single registered algorithm. ``algorithm_id`` is
recorded per credential so the scheme could be swapped without touching the
serialization.

Successful verifications are remembered in a bounded LRU keyed on a SHA-256
digest of every verified byte (public key, signature and payload), so a
long-lived chain presented again costs a hash instead of an Ed25519 check,
while any changed byte misses and is verified afresh. Failures are never
remembered. The digest comes from ``cryptography`` rather than ``hashlib``:
importing ``hashlib`` loads the system libcrypto beside the one
``cryptography`` carries, about 3.7 MiB more resident memory per service.
"""

from __future__ import annotations

import struct
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .canonical import fields, from_hex, to_hex
from .errors import CasliteError, MalformedMessage

ED25519 = "ed25519"

VERIFIED_MEMO_SIZE = 4096

_verified: OrderedDict[bytes, None] = OrderedDict()
_verified_lock = threading.Lock()


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


def _verified_key(public_part: bytes, signature: bytes, payload: bytes) -> bytes:
    digest = hashes.Hash(hashes.SHA256())
    for part in (public_part, signature, payload):
        digest.update(struct.pack(">Q", len(part)))
        digest.update(part)
    return digest.finalize()


def digest(data: bytes) -> bytes:
    """The SHA-256 digest of ``data``."""
    h = hashes.Hash(hashes.SHA256())
    h.update(data)
    return h.finalize()


def verify_payload(keys: KeyMaterial, signature: bytes, payload: bytes) -> bool:
    if keys.algorithm_id != ED25519:
        return False
    key = _verified_key(keys.public_part, signature, payload)
    with _verified_lock:
        if key in _verified:
            _verified.move_to_end(key)
            return True
    try:
        Ed25519PublicKey.from_public_bytes(keys.public_part).verify(signature, payload)
    except (InvalidSignature, ValueError):
        return False
    with _verified_lock:
        _verified[key] = None
        while len(_verified) > VERIFIED_MEMO_SIZE:
            _verified.popitem(last=False)
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
