"""Ed25519 signing and the memo of successful verifications."""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict

import pytest

from caslite import keys
from caslite.keys import KeyMaterial, generate_keys, sign_payload, verify_payload

PAYLOAD = b'{"caslite":"test","subject":"/O=Grid/CN=Alice","not_after":1700000000}'


def flip(data: bytes, index: int) -> bytes:
    return data[:index] + bytes([data[index] ^ 0x01]) + data[index + 1:]


@pytest.fixture
def ed25519_checks(monkeypatch):
    """Count the Ed25519 checks actually run, i.e. the memo's misses."""
    calls = []
    real = keys.Ed25519PublicKey

    class Counting:
        @staticmethod
        def from_public_bytes(data):
            calls.append(data)
            return real.from_public_bytes(data)

    monkeypatch.setattr(keys, "Ed25519PublicKey", Counting)
    return calls


def test_repeat_verification_is_remembered(ed25519_checks):
    signer = generate_keys()
    signature = sign_payload(signer, PAYLOAD)
    assert verify_payload(signer.public(), signature, PAYLOAD)
    assert verify_payload(signer.public(), signature, PAYLOAD)
    assert len(ed25519_checks) == 1


def test_every_single_byte_change_misses_the_memo():
    signer = generate_keys()
    public = signer.public()
    signature = sign_payload(signer, PAYLOAD)
    assert verify_payload(public, signature, PAYLOAD)  # warm the memo

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


def test_algorithm_check_precedes_the_memo():
    signer = generate_keys()
    signature = sign_payload(signer, PAYLOAD)
    assert verify_payload(signer.public(), signature, PAYLOAD)
    foreign = KeyMaterial("rsa-sha256", signer.public_part)
    assert not verify_payload(foreign, signature, PAYLOAD)


def test_failed_check_is_not_memoized(ed25519_checks):
    signer = generate_keys()
    signature = sign_payload(signer, PAYLOAD)
    assert verify_payload(signer.public(), signature, PAYLOAD)
    bad = flip(signature, 0)
    held = len(keys._verified)
    assert not verify_payload(signer.public(), bad, PAYLOAD)
    assert not verify_payload(signer.public(), bad, PAYLOAD)
    assert len(keys._verified) == held
    assert len(ed25519_checks) == 3  # the good check once, the bad one every time


def test_memo_stays_within_its_bound(monkeypatch, ed25519_checks):
    monkeypatch.setattr(keys, "VERIFIED_MEMO_SIZE", 4)
    monkeypatch.setattr(keys, "_verified", OrderedDict())
    signer = generate_keys()
    payloads = [PAYLOAD + bytes([i]) for i in range(10)]
    signatures = [sign_payload(signer, p) for p in payloads]
    for payload, signature in zip(payloads, signatures):
        assert verify_payload(signer.public(), signature, payload)
        assert len(keys._verified) <= 4
    assert len(ed25519_checks) == 10

    # the four most recent are remembered, touching one keeps it from eviction
    assert verify_payload(signer.public(), signatures[6], payloads[6])
    assert len(ed25519_checks) == 10
    assert verify_payload(signer.public(), signatures[0], payloads[0])
    assert len(ed25519_checks) == 11
    assert verify_payload(signer.public(), signatures[6], payloads[6])
    assert len(ed25519_checks) == 11
    assert verify_payload(signer.public(), signatures[7], payloads[7])
    assert len(ed25519_checks) == 12
    assert len(keys._verified) == 4


def test_concurrent_verifications_keep_the_memo_consistent(monkeypatch):
    monkeypatch.setattr(keys, "VERIFIED_MEMO_SIZE", 8)
    monkeypatch.setattr(keys, "_verified", OrderedDict())
    signer = generate_keys()
    payloads = [PAYLOAD + bytes([i]) for i in range(24)]
    signatures = [sign_payload(signer, p) for p in payloads]
    bad = flip(signatures[0], 5)
    wrong: list = []

    def worker(offset: int) -> None:
        try:
            for round_ in range(40):
                i = (offset + round_) % len(payloads)
                if not verify_payload(signer.public(), signatures[i], payloads[i]):
                    wrong.append(("good", i))
                if verify_payload(signer.public(), bad, payloads[0]):
                    wrong.append(("bad", i))
        except Exception as exc:  # a race in the memo surfaces here, not in the thread
            wrong.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(n * 3,)) for n in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert len(keys._verified) <= 8
