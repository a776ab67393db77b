"""Independent oracle for the benchmark.

Nothing here imports caslite. Expected answers come from the generator's own
tables (direct grants, group grants, site rights, blacklist) through a naive
string matcher, and every signature is checked with ``cryptography`` over
canonical bytes computed here, so agreement with the services is evidence
rather than tautology. Each ``check_*`` function returns None when the answer
agrees and a short description of the disagreement otherwise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey


def canonical(value) -> bytes:
    """UTF-8 JSON, keys sorted, no whitespace: the form every signature covers."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode()


def signature_ok(public: bytes, signature_hex: str, payload: bytes) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(public).verify(bytes.fromhex(signature_hex), payload)
        return True
    except (InvalidSignature, ValueError):
        return False


def pattern_match(pattern: str, obj: str) -> bool:
    if pattern.endswith("/**"):
        prefix = pattern[: -len("/**")]
        return obj == prefix or obj.startswith(prefix + "/")
    return pattern == obj


def rights_match(pairs, action: str, obj: str) -> bool:
    return any(a == action and pattern_match(p, obj) for a, p in pairs)


def pairs_of(rights_list) -> set:
    """A wire rights list as a set of (action, object) pairs."""
    return {(r["action"], r["object"]) for r in rights_list}


def rights_list(pairs) -> list:
    return [{"action": a, "object": o} for a, o in sorted(pairs)]


@dataclass
class Tables:
    """The generator's policy tables, the only input the oracle trusts."""

    vo_name: str
    cas: str
    members: set
    groups: dict                 # group name -> set of member identities
    grants: dict                 # identity or group name -> set of (action, object)
    site_rights: set             # (action, object) the site grants the community account
    blacklist: set
    local_groups: dict = field(default_factory=dict)  # the site's group -> rights map

    def groups_of(self, user: str) -> set:
        return {name for name, members in self.groups.items() if user in members}

    def user_rights(self, user: str) -> set:
        if user not in self.members:
            return set()
        out = set(self.grants.get(user, ()))
        for name in self.groups_of(user):
            out |= self.grants.get(name, set())
        return out

    def membership_rights(self, user: str) -> set:
        out = set()
        for name in self.groups_of(user):
            out |= self.local_groups.get(name, set())
        return out

    def decide(self, issuer: str, asserted, user: str, action: str, obj: str):
        """(allow, failing stage or None), checks in the pipeline's order."""
        if issuer != self.cas:
            return False, "credential"
        if not rights_match(self.site_rights, action, obj):
            return False, "site_vo"
        if not rights_match(asserted, action, obj):
            return False, "vo_user"
        if user in self.blacklist:
            return False, "site_user"
        return True, None

    def listing(self) -> dict:
        """The whole-community listing: every member with rights, as wire lists."""
        out = {}
        for member in sorted(self.members):
            pairs = self.user_rights(member)
            if pairs:
                out[member] = rights_list(pairs)
        return out


# --- answers ----------------------------------------------------------------------

def check_denied(outcome, stage: str):
    """A vault deny: error code Denied whose message names ``stage``."""
    if outcome[0] != "err" or outcome[1] != "Denied":
        return f"expected Denied at {stage}, got {outcome[:2]}"
    if not outcome[2].startswith(f"stage={stage}:"):
        return f"expected stage {stage}, got {outcome[2][:80]!r}"
    return None


def check_decision(outcome, allow: bool, stage: str | None):
    """A decision-service answer."""
    if outcome[0] != "ok":
        return f"decision service error {outcome[1:]}"
    body = outcome[1]
    if allow:
        return None if body == {"allow": True, "reason": "ok"} else f"expected allow, got {body}"
    if body.get("allow") is not False or not str(body.get("reason", "")).startswith(f"{stage}:"):
        return f"expected deny at {stage}, got {body}"
    return None


def _without(doc: dict, *keys) -> dict:
    return {k: v for k, v in doc.items() if k not in keys}


def check_assertion(doc: dict, cas_public: bytes, tables: Tables, subject: str, rights: set,
                    lifetime: int):
    """A rights-mode assertion for ``subject`` signed by the authority."""
    if not signature_ok(cas_public, doc.get("signature", ""), canonical(_without(doc, "signature"))):
        return "assertion signature does not verify"
    if doc.get("caslite") != "assertion/1" or doc.get("mode") != "rights":
        return "not a rights-mode assertion"
    if doc.get("issuer") != tables.cas or doc.get("vo_name") != tables.vo_name:
        return "assertion issuer or community is wrong"
    if doc.get("subject") != subject:
        return f"assertion subject {doc.get('subject')} is not {subject}"
    if doc["not_after"] - doc["not_before"] != lifetime:
        return "assertion lifetime is wrong"
    if pairs_of(doc["rights"]) != rights:
        return f"assertion rights differ for {subject}"
    return None


def check_statement(doc: dict, cas_public: bytes, query: dict):
    """A signed statement map answering ``query``."""
    if not signature_ok(cas_public, doc.get("signature", ""), canonical(_without(doc, "signature"))):
        return "statement signature does not verify"
    if doc.get("caslite") != "statement/1" or doc.get("query") != query:
        return "statement answers another query"
    if not doc["expires_at"] > doc["issued_at"]:
        return "statement validity is empty"
    return None


def check_restricted_chain(doc: dict, cas_public: bytes, cas_eec: dict, rights: set,
                           lifetime: int):
    """An authority-issued chain: the authority's own credential plus one link
    signed by it whose restriction is exactly ``rights``."""
    if doc.get("caslite") != "chain/1" or doc.get("eec") != cas_eec:
        return "restricted chain is not rooted at the authority's credential"
    if len(doc.get("links", ())) != 1:
        return "restricted chain must carry exactly one link"
    link = doc["links"][0]
    payload = _without(link, "signature")
    payload["keys"] = _without(link["keys"], "private_part")
    if not signature_ok(cas_public, link["signature"], canonical(payload)):
        return "restricted link signature does not verify"
    if link["not_after"] - link["not_before"] != lifetime:
        return "restricted link lifetime is wrong"
    if pairs_of(link.get("restriction", [])) != rights:
        return "restriction differs from the community's rights"
    return None


def check_listing(listing: dict, expected: dict, loose: dict):
    """Compare a whole-community listing with the oracle's.

    ``loose`` maps a member to the rights another client may have granted and
    not yet revoked while the listing was built; such a member's entry may
    carry any subset of them on top of its expected rights.
    """
    if set(listing) - set(expected) - set(loose):
        return "listing names members the oracle does not"
    for member, rights in expected.items():
        if member in loose:
            continue
        if listing.get(member) != rights:
            return f"listing entry for {member} differs"
    for member, maybe in loose.items():
        have = pairs_of(listing.get(member, []))
        want = pairs_of(expected.get(member, []))
        if not want <= have or not have - want <= maybe:
            return f"listing entry for {member} differs beyond in-flight grants"
    return None
