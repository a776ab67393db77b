"""Ed25519 signing and verification."""

from __future__ import annotations

from caslite.keys import KeyMaterial, generate_keys, sign_payload, verify_payload

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


def test_algorithm_check_precedes_the_signature_check():
    signer = generate_keys()
    signature = sign_payload(signer, PAYLOAD)
    assert verify_payload(signer.public(), signature, PAYLOAD)
    foreign = KeyMaterial("rsa-sha256", signer.public_part)
    assert not verify_payload(foreign, signature, PAYLOAD)
