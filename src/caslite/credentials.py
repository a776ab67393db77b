"""End-entity credentials and delegation-credential chains.

A chain starts at a long-term credential issued by a certificate authority
and grows by short-term delegation links, each with a fresh key pair signed
by its predecessor's key. Links may carry a rights restriction (the bearer
gets the intersection of all restrictions present) and an opaque, non-critical
extension payload that verification never interprets.

Signatures always cover the canonical serialization of the public projection
of the signed fields, so a chain stripped of private key material verifies
exactly as issued. Chain files (mode 0600) additionally carry the innermost
private part so the holder can keep delegating.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

from .canonical import (
    canonical_json,
    decode_blocks,
    encode_block,
    expect,
    fields,
    from_hex,
    parse_canonical,
    to_hex,
    write_private,
)
from .errors import (
    BadSignature,
    BrokenNesting,
    CasliteError,
    Expired,
    MalformedMessage,
    NotYetValid,
    ParentUnverifiable,
    UntrustedRoot,
    ValidityOutOfRange,
)
from .keys import KeyMaterial, generate_keys, key_from_map, key_to_map, sign_payload, verify_payload
from .policy import (
    Identity,
    intersect_rights,
    rights_from_list,
    rights_to_list,
    validate_identity,
)

# Applied to every wall-clock check against not_before/not_after; interval
# nesting between links is exact arithmetic and gets no skew.
CLOCK_SKEW = 60

CA_VALIDITY = 10 * 365 * 86400

EEC_FORMAT = "eec/1"
LINK_FORMAT = "link/1"
CHAIN_FORMAT = "chain/1"
CHAIN_TAG = "CHAIN"


def _check_interval(not_before: Any, not_after: Any) -> None:
    expect(not_before, int, "not_before")
    expect(not_after, int, "not_after")
    if not not_before < not_after:
        raise MalformedMessage(f"empty validity interval [{not_before}, {not_after})")


@dataclass(frozen=True)
class EndEntityCredential:
    """A long-term identity credential signed by its issuer."""

    subject: Identity
    issuer: Identity
    keys: KeyMaterial
    not_before: int
    not_after: int
    signature: bytes

    def signing_payload(self) -> bytes:
        return canonical_json(_eec_payload(self))

    def public(self) -> "EndEntityCredential":
        if self.keys.private_part is None:
            return self
        return EndEntityCredential(
            self.subject, self.issuer, self.keys.public(),
            self.not_before, self.not_after, self.signature,
        )


@dataclass(frozen=True)
class DelegationLink:
    """One delegation step: fresh keys, a nested validity window, and an
    optional restriction and extension, signed by the parent's key."""

    keys: KeyMaterial
    not_before: int
    not_after: int
    restriction: frozenset | None
    extension: bytes | None
    signature: bytes

    def signing_payload(self) -> bytes:
        return canonical_json(_link_payload(self))

    def public(self) -> "DelegationLink":
        if self.keys.private_part is None:
            return self
        return DelegationLink(
            self.keys.public(), self.not_before, self.not_after,
            self.restriction, self.extension, self.signature,
        )


@dataclass(frozen=True)
class CredentialChain:
    eec: EndEntityCredential
    links: tuple = ()

    @property
    def subject(self) -> Identity:
        return self.eec.subject

    def innermost_keys(self) -> KeyMaterial:
        return self.links[-1].keys if self.links else self.eec.keys

    def effective_interval(self) -> tuple[int, int]:
        not_before = max([self.eec.not_before] + [l.not_before for l in self.links])
        not_after = min([self.eec.not_after] + [l.not_after for l in self.links])
        return not_before, not_after

    def effective_restriction(self) -> frozenset | None:
        """Intersection of all restrictions present; None means unrestricted."""
        present = [l.restriction for l in self.links if l.restriction is not None]
        if not present:
            return None
        out = present[0]
        for rs in present[1:]:
            out = intersect_rights(out, rs)
        return out

    def extensions(self) -> list[bytes]:
        """All extension payloads, outermost last."""
        return [l.extension for l in self.links if l.extension is not None]


@dataclass(frozen=True)
class VerifiedChain:
    """The result of a successful verification: who authenticated, what the
    delegation restricts them to, and any opaque payloads carried along."""

    subject: Identity
    effective_restriction: frozenset | None
    extensions: list


@dataclass(frozen=True, slots=True)
class CheckedChain:
    """What a chain's time-free checks establish: who it authenticates, each
    element's validity window (end-entity credential first) and the
    delegation's restriction. It holds no keys, signatures or extensions."""

    subject: Identity
    windows: tuple
    effective_restriction: frozenset | None


# --- issuance -------------------------------------------------------------------

def make_ca(name: str, *, now: int | None = None,
            validity_seconds: int = CA_VALIDITY) -> EndEntityCredential:
    """A self-signed credential usable as a trust anchor."""
    if not name:
        raise MalformedMessage("CA name must be non-empty")
    now = int(time.time()) if now is None else now
    subject = validate_identity(f"/CN={name}") if not name.startswith("/") else validate_identity(name)
    keys = generate_keys()
    return _sign_eec(subject, subject, keys, now, now + validity_seconds, keys)


def issue_eec(
    ca: EndEntityCredential,
    subject: Identity,
    validity: tuple[int, int],
    *,
    keys: KeyMaterial | None = None,
) -> EndEntityCredential:
    """Issue a long-term credential for ``subject`` under ``ca``."""
    validate_identity(subject)
    not_before, not_after = validity
    _check_interval(not_before, not_after)
    if not_before < ca.not_before or not_after > ca.not_after:
        raise ValidityOutOfRange(
            f"[{not_before}, {not_after}) exceeds the issuer's validity"
        )
    if ca.keys.private_part is None:
        raise CasliteError("issuer credential lacks a private key")
    keys = keys or generate_keys()
    return _sign_eec(subject, ca.subject, keys, not_before, not_after, ca.keys)


def _sign_eec(subject: str, issuer: str, keys: KeyMaterial,
              not_before: int, not_after: int, signer: KeyMaterial) -> EndEntityCredential:
    unsigned = EndEntityCredential(subject, issuer, keys, not_before, not_after, b"")
    return replace(unsigned, signature=sign_payload(signer, unsigned.signing_payload()))


def issue_proxy(
    parent: CredentialChain,
    validity: tuple[int, int],
    restriction: frozenset | None = None,
    extension: bytes | None = None,
) -> CredentialChain:
    """Extend ``parent`` by one delegation link with a fresh key pair.

    The new validity must nest inside the parent's effective validity, which
    keeps expiry checks local to each link. Without a restriction the bearer
    asserts the full rights of the chain's subject. The returned chain holds
    the private part only for the new link; ancestors are publicized.
    """
    not_before, not_after = validity
    _check_interval(not_before, not_after)
    signer = parent.innermost_keys()
    if signer.private_part is None:
        raise ParentUnverifiable("parent chain does not include its innermost private key")
    try:
        check_chain_internal(parent)
    except CasliteError as exc:
        raise ParentUnverifiable(f"parent chain is not internally consistent: {exc}") from None
    eff_nb, eff_na = parent.effective_interval()
    if not_before < eff_nb or not_after > eff_na:
        raise ValidityOutOfRange(
            f"[{not_before}, {not_after}) exceeds the parent's effective validity"
        )
    unsigned = DelegationLink(generate_keys(), not_before, not_after, restriction, extension, b"")
    link = replace(unsigned, signature=sign_payload(signer, unsigned.signing_payload()))
    return CredentialChain(
        eec=parent.eec.public(),
        links=tuple(l.public() for l in parent.links) + (link,),
    )


# --- verification ------------------------------------------------------------------

def check_chain_internal(chain: CredentialChain) -> None:
    """Structural consistency: every link signed by its predecessor's key and
    nested in its predecessor's validity. No trust root, no clock."""
    parent_keys = chain.eec.keys
    parent_interval = (chain.eec.not_before, chain.eec.not_after)
    for index, link in enumerate(chain.links, start=1):
        if not verify_payload(parent_keys, link.signature, link.signing_payload()):
            raise BadSignature(f"link {index} signature does not verify", index=index)
        if link.not_before < parent_interval[0] or link.not_after > parent_interval[1]:
            raise BrokenNesting(
                f"link {index} validity escapes its parent's interval", index=index
            )
        parent_keys = link.keys
        parent_interval = (link.not_before, link.not_after)


def check_windows(windows: tuple, now: int) -> None:
    """The clock half of :func:`verify_chain`: each element's
    ``(not_before, not_after)``, end-entity credential first, against
    ``now`` with :data:`CLOCK_SKEW`."""
    for index, (not_before, not_after) in enumerate(windows):
        if now < not_before - CLOCK_SKEW:
            raise NotYetValid(f"element {index} not valid before {not_before}", index=index)
        if now > not_after + CLOCK_SKEW:
            raise Expired(f"element {index} expired at {not_after}", index=index)


def check_chain(chain: CredentialChain, anchors: Any) -> CheckedChain:
    """The time-free half of :func:`verify_chain`: the trust anchor, every
    signature and nesting, and the effective restriction. Its result depends
    on ``anchors`` and the chain's public fields only, never on the clock."""
    eec = chain.eec
    eec_is_anchor = any(
        a.subject == eec.subject and a.keys.public_part == eec.keys.public_part
        for a in anchors
    )
    if not eec_is_anchor:
        issuer_anchors = [a for a in anchors if a.subject == eec.issuer]
        if not issuer_anchors:
            raise UntrustedRoot(
                f"no trust anchor vouches for {eec.subject} (issuer {eec.issuer})"
            )
        if not any(
            verify_payload(a.keys, eec.signature, eec.signing_payload())
            for a in issuer_anchors
        ):
            raise BadSignature("end-entity signature does not verify", index=0)
    check_chain_internal(chain)
    return CheckedChain(
        subject=eec.subject,
        windows=((eec.not_before, eec.not_after),)
        + tuple((l.not_before, l.not_after) for l in chain.links),
        effective_restriction=chain.effective_restriction(),
    )


def verify_chain(
    chain: CredentialChain,
    anchors: Any,
    now: int,
) -> VerifiedChain:
    """Verify ``chain`` against a set of trust anchors at time ``now``.

    Returns the authenticated subject (always the end-entity identity), the
    intersection of link restrictions, and all extension payloads outermost
    last. Unknown extension payloads never cause failure. Every signature and
    nesting is checked (:func:`check_chain`) before any element's validity
    window (:func:`check_windows`).
    """
    checked = check_chain(chain, anchors)
    check_windows(checked.windows, now)
    return VerifiedChain(
        subject=checked.subject,
        effective_restriction=checked.effective_restriction,
        extensions=chain.extensions(),
    )


# --- serialization -------------------------------------------------------------------

def _eec_payload(eec: EndEntityCredential) -> dict[str, Any]:
    return {
        "caslite": EEC_FORMAT,
        "subject": eec.subject,
        "issuer": eec.issuer,
        "keys": key_to_map(eec.keys),
        "not_before": eec.not_before,
        "not_after": eec.not_after,
    }


def eec_to_map(eec: EndEntityCredential, include_private: bool = False) -> dict[str, Any]:
    out = _eec_payload(eec)
    out["keys"] = key_to_map(eec.keys, include_private=include_private)
    out["signature"] = to_hex(eec.signature)
    return out


def eec_from_map(doc: Any) -> EndEntityCredential:
    fields(doc, "credential document",
           {"caslite", "subject", "issuer", "keys", "not_before", "not_after", "signature"})
    if doc["caslite"] != EEC_FORMAT:
        raise MalformedMessage(f"not a credential document: {doc['caslite']!r}")
    _check_interval(doc["not_before"], doc["not_after"])
    return EndEntityCredential(
        subject=validate_identity(doc["subject"]),
        issuer=validate_identity(doc["issuer"]),
        keys=key_from_map(doc["keys"]),
        not_before=doc["not_before"],
        not_after=doc["not_after"],
        signature=from_hex(doc["signature"]),
    )


def _link_payload(link: DelegationLink) -> dict[str, Any]:
    out: dict[str, Any] = {
        "caslite": LINK_FORMAT,
        "keys": key_to_map(link.keys),
        "not_before": link.not_before,
        "not_after": link.not_after,
    }
    if link.restriction is not None:
        out["restriction"] = rights_to_list(link.restriction)
    if link.extension is not None:
        out["extension"] = to_hex(link.extension)
    return out


def link_to_map(link: DelegationLink, include_private: bool = False) -> dict[str, Any]:
    out = _link_payload(link)
    out["keys"] = key_to_map(link.keys, include_private=include_private)
    out["signature"] = to_hex(link.signature)
    return out


def link_from_map(doc: Any) -> DelegationLink:
    fields(doc, "delegation link", {"caslite", "keys", "not_before", "not_after", "signature"},
           {"restriction", "extension"})
    if doc["caslite"] != LINK_FORMAT:
        raise MalformedMessage(f"not a delegation link: {doc['caslite']!r}")
    _check_interval(doc["not_before"], doc["not_after"])
    return DelegationLink(
        keys=key_from_map(doc["keys"]),
        not_before=doc["not_before"],
        not_after=doc["not_after"],
        restriction=rights_from_list(doc["restriction"]) if "restriction" in doc else None,
        extension=from_hex(doc["extension"]) if "extension" in doc else None,
        signature=from_hex(doc["signature"]),
    )


def chain_to_map(chain: CredentialChain, include_private: bool = False) -> dict[str, Any]:
    return {
        "caslite": CHAIN_FORMAT,
        "eec": eec_to_map(chain.eec, include_private=include_private),
        "links": [link_to_map(l, include_private=include_private) for l in chain.links],
    }


def chain_from_map(doc: Any) -> CredentialChain:
    fields(doc, "chain document", {"caslite", "eec", "links"})
    if doc["caslite"] != CHAIN_FORMAT:
        raise MalformedMessage(f"not a chain document: {doc['caslite']!r}")
    return CredentialChain(
        eec=eec_from_map(doc["eec"]),
        links=tuple(link_from_map(l) for l in expect(doc["links"], list, "chain links")),
    )


def chain_bytes(chain: CredentialChain, include_private: bool = False) -> bytes:
    return canonical_json(chain_to_map(chain, include_private=include_private))


def save_chain(chain: CredentialChain, path: Path | str, include_private: bool = True) -> None:
    write_private(path, encode_block(CHAIN_TAG, chain_bytes(chain, include_private)))


def load_chain(path: Path | str) -> CredentialChain:
    blocks = decode_blocks(Path(path).read_text(encoding="utf-8"), CHAIN_TAG)
    return chain_from_map(parse_canonical(blocks[0]))


def load_anchors(path: Path | str) -> tuple:
    """Load every chain block in the file and return their end-entity
    credentials as trust anchors."""
    blocks = decode_blocks(Path(path).read_text(encoding="utf-8"), CHAIN_TAG)
    return tuple(chain_from_map(parse_canonical(b)).eec for b in blocks)
