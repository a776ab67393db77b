"""Ed25519 signing and verification."""

from __future__ import annotations

import random
import sys
import threading

import pytest
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey

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
    other = generate_keys().public()
    assert not verify_payload(other, signature, PAYLOAD)
    assert not verify_payload(public, signature, PAYLOAD + b" ")
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


def test_a_passed_check_is_remembered_by_every_byte(ed25519_checks):
    """A repeat of a passed (key, signature, payload) runs no Ed25519 check.
    Every other triple is checked and fails, however close to the
    remembered one: each single flipped byte of the key, the signature or
    the payload, a truncation of each, and a moved boundary between the
    signature and the payload. No failure is remembered."""
    signer = generate_keys()
    public = signer.public()
    signature = sign_payload(signer, PAYLOAD)
    assert verify_payload(public, signature, PAYLOAD)
    assert len(ed25519_checks) == 1 and len(keys._verified) == 1
    ed25519_checks.clear()
    assert verify_payload(public, signature, PAYLOAD)
    assert ed25519_checks == []

    key = public.public_part
    variants = [(KeyMaterial(flip(key, i)), signature, PAYLOAD) for i in range(len(key))]
    variants += [(public, flip(signature, i), PAYLOAD) for i in range(len(signature))]
    variants += [(public, signature, flip(PAYLOAD, i)) for i in range(len(PAYLOAD))]
    variants += [(KeyMaterial(key[:-1]), signature, PAYLOAD), (public, signature[:-1], PAYLOAD),
                 (public, signature, PAYLOAD[:-1]),
                 (public, signature[:-1], signature[-1:] + PAYLOAD)]
    for variant in variants:
        for _ in range(2):
            ed25519_checks.clear()
            assert not verify_payload(*variant), variant
            assert len(ed25519_checks) == 1, variant
            assert len(keys._verified) == 1, variant


def test_remembered_checks_stay_within_their_bound(monkeypatch, ed25519_checks):
    """Past ``VERIFIED_SIZE`` the least recently used pass goes first; a
    repeat counts as a use."""
    monkeypatch.setattr(keys, "VERIFIED_SIZE", 3)
    signer = generate_keys()
    public = signer.public()
    payloads = [PAYLOAD + bytes([n]) for n in range(4)]
    signed = [(public, sign_payload(signer, p), p) for p in payloads]
    for triple in signed[:3] + signed[:1] + signed[3:]:
        assert verify_payload(*triple)
        assert len(keys._verified) <= 3
    assert len(ed25519_checks) == 4  # the repeat of the first ran none
    # held now, least recent first: 2, 0, 3 (remembering 3 evicted 1)
    checks = []
    for n in (0, 2, 3, 1, 0):
        before = len(ed25519_checks)
        assert verify_payload(*signed[n])
        checks.append(len(ed25519_checks) - before)
        assert len(keys._verified) <= 3
    # each hit moved its entry last, so remembering 1 again evicted 0
    assert checks == [0, 0, 0, 1, 1]


def _plain_verify(triple) -> bool:
    public, signature, payload = triple
    try:
        Ed25519PublicKey.from_public_bytes(public.public_part).verify(signature, payload)
    except (InvalidSignature, ValueError):
        return False
    return True


def test_concurrent_checks_answer_as_plain_verification(monkeypatch, ed25519_checks):
    """Eight threads checking good and tampered triples through a small
    memo each get the answer a plain Ed25519 verification gives, and the
    memo never holds more than its bound."""
    monkeypatch.setattr(keys, "VERIFIED_SIZE", 5)
    signer = generate_keys()
    public = signer.public()
    triples = []
    for n in range(8):
        payload = PAYLOAD + bytes([n])
        signature = sign_payload(signer, payload)
        other = generate_keys().public()
        triples += [(public, signature, payload), (public, flip(signature, n), payload),
                    (public, signature, flip(payload, n)), (other, signature, payload)]
    expected = [_plain_verify(t) for t in triples]
    assert expected.count(True) == 8
    wrong, sizes = [], []

    def worker(seed):
        rng = random.Random(seed)
        for _ in range(200):
            k = rng.randrange(len(triples))
            if verify_payload(*triples[k]) != expected[k]:
                wrong.append(k)
            with keys._verified_lock:
                sizes.append(len(keys._verified))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []
    assert len(sizes) == 1600 and max(sizes) == 5
