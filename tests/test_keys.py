"""Ed25519 signing and verification."""

from __future__ import annotations

import pytest

from caslite import keys
from caslite.errors import CasliteError, MalformedMessage
from caslite.keys import (
    KeyMaterial, generate_keys, key_from_map, key_to_map, sign_payload, verify_payload,
)

PAYLOAD = b'{"caslite":"test","subject":"/O=Grid/CN=Alice","not_after":1700000000}'


def flip(data: bytes, index: int) -> bytes:
    return data[:index] + bytes([data[index] ^ 0x01]) + data[index + 1:]


def test_every_single_byte_change_fails_verification():
    signer = generate_keys()
    public = signer.public()
    signature = sign_payload(signer, PAYLOAD)
    assert verify_payload(public, signature, PAYLOAD)

    for index in range(len(PAYLOAD)):
        assert not verify_payload(public, signature, flip(PAYLOAD, index)), index
    for index in range(len(signature)):
        assert not verify_payload(public, flip(signature, index), PAYLOAD), index
    key = public.public_part
    for index in range(len(key)):
        assert not verify_payload(KeyMaterial(flip(key, index)), signature, PAYLOAD), index
    other = generate_keys().public()
    assert not verify_payload(other, signature, PAYLOAD)
    assert not verify_payload(public, signature, PAYLOAD + b" ")
    assert not verify_payload(KeyMaterial(key[:-1]), signature, PAYLOAD)
    assert not verify_payload(public, signature[:-1], PAYLOAD)
    assert not verify_payload(public, signature, PAYLOAD[:-1])
    # same concatenated bytes, different split between signature and payload
    assert not verify_payload(public, signature[:-1], signature[-1:] + PAYLOAD)
    assert verify_payload(public, signature, PAYLOAD)


def test_a_key_document_of_another_scheme_is_refused():
    doc = key_to_map(generate_keys())
    assert key_from_map(doc).public_part == bytes.fromhex(doc["public_part"])
    doc["algorithm_id"] = "rsa-sha256"
    with pytest.raises(MalformedMessage, match="unknown algorithm_id 'rsa-sha256'") as info:
        key_from_map(doc)
    assert info.value.code == "MalformedMessage"


def test_signing_needs_the_private_part():
    with pytest.raises(CasliteError, match="private key material required") as info:
        sign_payload(generate_keys().public(), PAYLOAD)
    assert info.value.code == "Internal"


def test_signing_keeps_one_key_object(monkeypatch):
    """The private key object is built from the private part once per
    KeyMaterial and signs byte-identically to a freshly built one; the kept
    object changes neither equality nor hashing."""
    signer = generate_keys()
    twin = KeyMaterial(signer.public_part, signer.private_part)
    fresh = keys.Ed25519PrivateKey.from_private_bytes(signer.private_part)
    builds = []
    real = keys.Ed25519PrivateKey

    class Counting:
        @staticmethod
        def from_private_bytes(data):
            builds.append(data)
            return real.from_private_bytes(data)

    monkeypatch.setattr(keys, "Ed25519PrivateKey", Counting)
    for n in range(5):
        payload = PAYLOAD + bytes([n])
        assert sign_payload(signer, payload) == fresh.sign(payload)
    assert builds == [signer.private_part]
    assert signer == twin and hash(signer) == hash(twin)
    sign_payload(twin, PAYLOAD)
    assert len(builds) == 2
