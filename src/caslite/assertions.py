"""Signed policy assertions and the two credential models built on them.

An assertion states, under the community server's signature, either a
subject's rights (rights mode) or their group memberships (membership mode),
with a validity window and the database revision it was computed from.

Two ways of carrying community policy to a resource are supported:

* embedded-assertion model: the user keeps their own identity chain and adds
  a delegation link whose extension payload is the assertion, so any party
  ignorant of the payload still authenticates the user normally;
* restricted-proxy model: the community server issues a chain rooted in its
  own credential whose restriction enumerates the user's rights. The resource
  then sees only the community identity, never the user's, which is exactly
  the property that limits per-user site policy under this model.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, replace
from typing import Any

from .canonical import (
    canonical_json,
    expect,
    fields,
    from_hex,
    parse_canonical,
    set_of,
    to_hex,
)
from .credentials import CredentialChain, check_windows, issue_proxy
from .errors import (
    BadSignature,
    CasliteError,
    LifetimeTooLong,
    MalformedExtension,
    MalformedMessage,
    NotAMember,
    SubjectMismatch,
    WrongIssuer,
)
from .keys import KeyMaterial, sign_payload, verify_payload
from .policy import (
    Identity,
    VOPolicyDatabase,
    intersect_rights,
    rights_from_list,
    rights_to_list,
    user_rights,
    validate_group_name,
    validate_identity,
)

DEFAULT_LIFETIME = 3600
MAX_LIFETIME = 86400

ASSERTION_FORMAT = "assertion/1"
# Canonical assertion documents start with this prefix because "caslite"
# sorts before every other field name; extension payloads are recognized as
# assertions (as opposed to opaque data) by it.
ASSERTION_PREFIX = b'{"caslite":"' + ASSERTION_FORMAT.encode() + b'"'

MODES = ("rights", "membership")

# Serials are unique per issuing process; seeding from the clock keeps them
# unique across restarts too.
_serial_counter = itertools.count(time.time_ns())
_serial_lock = threading.Lock()


def _next_serial() -> int:
    with _serial_lock:
        return next(_serial_counter)


@dataclass(frozen=True)
class PolicyAssertion:
    """A signed statement of one subject's standing in the community."""

    serial: int
    vo_name: str
    issuer: Identity
    subject: Identity
    mode: str
    rights: frozenset | None
    groups: frozenset | None
    not_before: int
    not_after: int
    db_revision: int
    signature: bytes

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise MalformedMessage(f"unknown assertion mode {self.mode!r}")
        if not self.not_before < self.not_after:
            raise MalformedMessage("empty assertion validity interval")

    def signing_payload(self) -> bytes:
        return canonical_json(_assertion_payload(self))


def check_lifetime(lifetime: int) -> None:
    """The lifetime bound of the issuance rule: ``(0, MAX_LIFETIME]``."""
    if lifetime <= 0:
        raise MalformedMessage(
            f"lifetime must be positive: {lifetime}s gives an empty validity interval")
    if lifetime > MAX_LIFETIME:
        raise LifetimeTooLong(f"lifetime {lifetime}s exceeds the {MAX_LIFETIME}s maximum")


def entitled_rights(db: VOPolicyDatabase, subject: Identity, lifetime: int,
                    requested: frozenset | None) -> frozenset:
    """The issuance rule of both credential models: ``subject`` must be a
    member and ``lifetime`` pass :func:`check_lifetime`. Returns the
    subject's rights, intersected with ``requested`` when present:
    over-requesting silently narrows rather than erroring, which keeps the
    least-privilege path easy."""
    if not db.is_member(subject):
        raise NotAMember(f"{subject} is not a member of {db.vo_name}")
    check_lifetime(lifetime)
    rights = user_rights(db, subject)
    return rights if requested is None else intersect_rights(rights, requested)


def issue_assertion(
    db: VOPolicyDatabase,
    cas_keys: KeyMaterial,
    cas_id: Identity,
    subject: Identity,
    mode: str = "rights",
    requested: frozenset | None = None,
    lifetime: int = DEFAULT_LIFETIME,
    *,
    now: int,
) -> PolicyAssertion:
    """Issue an assertion for ``subject`` from the current database under
    :func:`entitled_rights`. Rights mode asserts the subject's entitlements
    narrowed to ``requested``; membership mode asserts the groups containing
    the subject."""
    rights = entitled_rights(db, subject, lifetime, requested)
    unsigned = PolicyAssertion(
        serial=_next_serial(),
        vo_name=db.vo_name,
        issuer=cas_id,
        subject=subject,
        mode=mode,
        rights=rights if mode == "rights" else None,
        groups=db.groups_of(subject) if mode == "membership" else None,
        not_before=now,
        not_after=now + lifetime,
        db_revision=db.revision,
        signature=b"",
    )
    return replace(unsigned, signature=sign_payload(cas_keys, unsigned.signing_payload()))


@dataclass(frozen=True, slots=True)
class CheckedAssertion:
    """What an assertion's time-free checks (:func:`check_assertion`)
    establish: its subject, window and the rights it asserts at the service
    that checked it, without the signature, serial or issuer that were
    checked. A membership assertion's ``rights`` are its groups' rights at
    that service, or None where the service maps no groups (see
    :func:`caslite.authz.vouch_assertion`)."""

    subject: Identity
    not_before: int
    not_after: int
    rights: frozenset | None


def check_assertion(
    a: PolicyAssertion,
    cas_public: KeyMaterial,
    expected_issuer: Identity,
) -> None:
    """The time-free half of :func:`verify_assertion`: the signature, then
    the issuer. Raises :class:`BadSignature` or :class:`WrongIssuer`."""
    if not verify_payload(cas_public, a.signature, a.signing_payload()):
        raise BadSignature("assertion signature does not verify", index=0)
    if a.issuer != expected_issuer:
        raise WrongIssuer(f"assertion issuer {a.issuer} is not {expected_issuer}", index=0)


def verify_assertion(
    a: PolicyAssertion,
    cas_public: KeyMaterial,
    expected_issuer: Identity,
    now: int,
) -> None:
    """Check signature, issuer, and validity window (with clock skew), in
    that order. Raises the first failure's :class:`ChainError`."""
    check_assertion(a, cas_public, expected_issuer)
    check_windows(((a.not_before, a.not_after),), now)


def embed_in_proxy(user_chain: CredentialChain, a: PolicyAssertion) -> CredentialChain:
    """Add one delegation link whose extension carries the assertion.

    The chain keeps authenticating as the user; parties that do not know the
    payload format simply see a normal delegation link.
    """
    if a.subject != user_chain.subject:
        raise SubjectMismatch(
            f"assertion subject {a.subject} does not match chain subject {user_chain.subject}"
        )
    return issue_proxy(
        user_chain,
        user_chain.effective_interval(),
        extension=assertion_bytes(a),
    )


def extract_from_proxy(chain: CredentialChain) -> PolicyAssertion | None:
    """Pull the outermost assertion-shaped extension out of a verified chain.

    Payloads that do not carry the assertion framing are opaque and skipped;
    a payload that carries the framing but fails to parse is an error.
    """
    for payload in reversed(chain.extensions()):
        if not payload.startswith(ASSERTION_PREFIX):
            continue
        try:
            return assertion_from_map(parse_canonical(payload))
        except CasliteError as exc:
            raise MalformedExtension(f"assertion-framed extension is invalid: {exc}") from None
    return None


def issue_restricted_proxy(
    cas_chain: CredentialChain,
    db: VOPolicyDatabase,
    subject: Identity,
    lifetime: int = DEFAULT_LIFETIME,
    *,
    now: int,
    requested: frozenset | None = None,
) -> CredentialChain:
    """The restricted-proxy credential model: a chain rooted in the community
    server's own credential whose restriction enumerates the rights
    :func:`entitled_rights` allows, as a rights-mode assertion would assert
    them. Verifiers see the community identity, not the subject's."""
    rights = entitled_rights(db, subject, lifetime, requested)
    return issue_proxy(cas_chain, (now, now + lifetime), restriction=rights)


# --- serialization -------------------------------------------------------------------

def _assertion_payload(a: PolicyAssertion) -> dict[str, Any]:
    out: dict[str, Any] = {
        "caslite": ASSERTION_FORMAT,
        "serial": a.serial,
        "vo_name": a.vo_name,
        "issuer": a.issuer,
        "subject": a.subject,
        "mode": a.mode,
        "not_before": a.not_before,
        "not_after": a.not_after,
        "db_revision": a.db_revision,
    }
    if a.mode == "rights":
        out["rights"] = rights_to_list(a.rights)
    else:
        out["groups"] = sorted(a.groups)
    return out


def assertion_to_map(a: PolicyAssertion) -> dict[str, Any]:
    out = _assertion_payload(a)
    out["signature"] = to_hex(a.signature)
    return out


_ASSERTION_FIELDS = frozenset({
    "caslite", "serial", "vo_name", "issuer", "subject", "mode",
    "not_before", "not_after", "db_revision", "signature",
})


def assertion_from_map(doc: Any) -> PolicyAssertion:
    mode = fields(doc, "assertion", _ASSERTION_FIELDS, {"rights", "groups"})["mode"]
    if mode not in MODES:
        raise MalformedMessage(f"unknown assertion mode {mode!r}")
    # Each mode carries its content in exactly one field of its own.
    fields(doc, f"{mode}-mode assertion",
           _ASSERTION_FIELDS | {"rights" if mode == "rights" else "groups"})
    if doc["caslite"] != ASSERTION_FORMAT:
        raise MalformedMessage(f"not an assertion document: {doc['caslite']!r}")
    for name in ("serial", "db_revision", "not_before", "not_after"):
        expect(doc[name], int, name)
    groups = set_of(validate_group_name, doc["groups"], "groups") if "groups" in doc else None
    return PolicyAssertion(
        serial=doc["serial"],
        vo_name=expect(doc["vo_name"], str, "vo_name"),
        issuer=validate_identity(doc["issuer"]),
        subject=validate_identity(doc["subject"]),
        mode=doc["mode"],
        rights=rights_from_list(doc["rights"]) if "rights" in doc else None,
        groups=groups,
        not_before=doc["not_before"],
        not_after=doc["not_after"],
        db_revision=doc["db_revision"],
        signature=from_hex(doc["signature"]),
    )


def assertion_bytes(a: PolicyAssertion) -> bytes:
    return canonical_json(assertion_to_map(a))
