"""The rights model and both halves of the combined policy.

A community (VO) database records members, groups, grants and the meta-policy
saying which administrators may change what. A site policy records how the
community's server identity maps to a local account, what that account may
do, and which individual users the site refuses outright. ``decide`` is the
decision-level intersection of the two: a request is allowed only when the
site grants it to the community, the community grants it to the user, and the
site has not blacklisted the user.

Object patterns are deliberately small: a scheme-prefixed path, optionally
ending in ``/**`` which matches the whole subtree segment-wise, so
``vo://a/b/**`` matches ``vo://a/b/c`` but not ``vo://a/b2``. Patterns
without the wildcard match one concrete path exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping

from .canonical import canonical_json, parse_canonical, write_atomic
from .errors import (
    DuplicateGroup,
    MalformedMessage,
    MalformedPattern,
    NotAuthorized,
    UnknownSubject,
)

Identity = str

IDENTITY_RE = re.compile(r"^(?:/[A-Za-z][A-Za-z0-9_.-]*=[^/=]+)+$")
GROUP_NAME_RE = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_.-]*$")
_SCHEME_RE = re.compile(r"^([a-z][a-z0-9+.-]*)://(.*)$", re.DOTALL)

ACTIONS = frozenset({"read", "write", "list", "delete", "create"})

ADMIN_POWERS = frozenset({"grant", "revoke", "manage_membership", "manage_group"})


def validate_identity(name: Any) -> Identity:
    """Distinguished-name strings like ``/VO=esg/CN=alice``."""
    if not isinstance(name, str) or not IDENTITY_RE.fullmatch(name):
        raise MalformedMessage(f"not a valid identity: {name!r}")
    return name


def validate_action(action: Any) -> str:
    if action not in ACTIONS:
        raise MalformedMessage(f"unknown action {action!r}")
    return action


# --- object patterns ----------------------------------------------------------

def split_pattern(pattern: str) -> tuple[str, tuple[str, ...], bool]:
    """Return (scheme, segments, wildcard) or raise MalformedPattern."""
    if not isinstance(pattern, str):
        raise MalformedPattern(f"pattern must be a string, got {type(pattern).__name__}")
    match = _SCHEME_RE.fullmatch(pattern)
    if not match:
        raise MalformedPattern(f"pattern {pattern!r} lacks a scheme:// prefix")
    scheme, rest = match.group(1), match.group(2)
    segments = tuple(rest.split("/")) if rest else ()
    wildcard = bool(segments) and segments[-1] == "**"
    if wildcard:
        segments = segments[:-1]
    if not wildcard and not segments:
        raise MalformedPattern(f"pattern {pattern!r} has an empty path")
    for seg in segments:
        if not seg:
            raise MalformedPattern(f"pattern {pattern!r} has an empty segment")
        if seg == "**":
            raise MalformedPattern(f"wildcard only allowed as the final segment: {pattern!r}")
    return scheme, segments, wildcard


def validate_concrete(path: Any) -> str:
    scheme, segments, wildcard = split_pattern(path)
    if wildcard:
        raise MalformedPattern(f"object path must be concrete: {path!r}")
    return path


def pattern_matches(pattern: str, obj: str) -> bool:
    """True iff ``pattern`` matches the concrete object path ``obj``."""
    p_scheme, p_segs, p_wild = split_pattern(pattern)
    o_scheme, o_segs, o_wild = split_pattern(obj)
    if o_wild:
        raise MalformedPattern(f"object path must be concrete: {obj!r}")
    if p_scheme != o_scheme:
        return False
    if p_wild:
        return o_segs[: len(p_segs)] == p_segs
    return o_segs == p_segs


def pattern_covers(outer: str, inner: str) -> bool:
    """True iff every path matched by ``inner`` is matched by ``outer``."""
    out_scheme, out_segs, out_wild = split_pattern(outer)
    in_scheme, in_segs, in_wild = split_pattern(inner)
    if out_scheme != in_scheme:
        return False
    if out_wild:
        return in_segs[: len(out_segs)] == out_segs
    return not in_wild and in_segs == out_segs


def pattern_intersect(a: str, b: str) -> str | None:
    """The pattern matching exactly the paths matched by both, or None."""
    if pattern_covers(a, b):
        return b
    if pattern_covers(b, a):
        return a
    return None


# --- rights -------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class Right:
    action: str
    object: str

    def __post_init__(self) -> None:
        validate_action(self.action)
        split_pattern(self.object)


RightsSet = frozenset  # of Right


def matches(right: Right, action: str, obj: str) -> bool:
    """True iff ``right`` permits ``action`` on the concrete path ``obj``."""
    validate_action(action)
    if right.action != action:
        validate_concrete(obj)
        return False
    return pattern_matches(right.object, obj)


def rights_match(rights: Iterable[Right], action: str, obj: str) -> bool:
    return any(matches(r, action, obj) for r in rights)


def intersect_rights(a: Iterable[Right], b: Iterable[Right]) -> frozenset[Right]:
    """Semantic intersection: the result matches a request exactly when both
    inputs match it, narrowing patterns where they overlap."""
    out = set()
    for ra in a:
        for rb in b:
            if ra.action != rb.action:
                continue
            common = pattern_intersect(ra.object, rb.object)
            if common is not None:
                out.add(Right(ra.action, common))
    return frozenset(out)


def rights_covers(broad: Iterable[Right], narrow: Iterable[Right]) -> bool:
    """True iff every request matched by ``narrow`` is matched by ``broad``.

    With prefix-only patterns a right is covered by a union exactly when a
    single element covers it, so the per-right check is complete.
    """
    broad = list(broad)
    return all(
        any(rb.action == rn.action and pattern_covers(rb.object, rn.object) for rb in broad)
        for rn in narrow
    )


def rights_to_list(rights: Iterable[Right]) -> list[dict[str, str]]:
    return [
        {"action": r.action, "object": r.object}
        for r in sorted(set(rights))
    ]


def rights_from_list(doc: Any) -> frozenset[Right]:
    if not isinstance(doc, list):
        raise MalformedMessage("rights must be a list")
    out = set()
    for item in doc:
        if not isinstance(item, dict) or set(item) != {"action", "object"}:
            raise MalformedMessage(f"bad right entry: {item!r}")
        try:
            out.add(Right(item["action"], item["object"]))
        except MalformedPattern as exc:
            raise MalformedMessage(str(exc)) from None
    return frozenset(out)


# --- the community database -----------------------------------------------------

@dataclass(frozen=True)
class Group:
    name: str
    members: frozenset

    def __post_init__(self) -> None:
        if not GROUP_NAME_RE.fullmatch(self.name):
            raise MalformedMessage(f"bad group name {self.name!r}")


@dataclass(frozen=True)
class AdminCapability:
    """What one administrator may change.

    ``namespace`` scopes grant/revoke powers to an object subtree; ``groups``
    scopes group management to named groups.
    """

    admin: Identity
    powers: frozenset
    namespace: str | None = None
    groups: frozenset = frozenset()

    def __post_init__(self) -> None:
        validate_identity(self.admin)
        if not self.powers or not self.powers <= ADMIN_POWERS:
            raise MalformedMessage(f"bad capability powers {set(self.powers)!r}")
        if self.powers & {"grant", "revoke"}:
            if self.namespace is None:
                raise MalformedMessage("grant/revoke capability requires a namespace")
            split_pattern(self.namespace)
        if "manage_group" in self.powers and not self.groups:
            raise MalformedMessage("manage_group capability requires a group set")


@dataclass(frozen=True)
class VOPolicyDatabase:
    """One community's policy: members, groups, grants, and meta-policy.

    Instances are immutable; ``apply_admin`` returns a new database with the
    revision bumped. The ``owner`` identity set at creation implicitly holds
    every capability, including the right to add capabilities.
    """

    vo_name: str
    owner: Identity
    members: frozenset
    groups: Mapping[str, Group]
    grants: Mapping[str, frozenset]
    admin_caps: tuple
    revision: int = 0

    def is_member(self, who: Identity) -> bool:
        return who in self.members

    def groups_of(self, who: Identity) -> frozenset:
        return frozenset(name for name, g in self.groups.items() if who in g.members)


def user_rights(db: VOPolicyDatabase, who: Identity) -> frozenset[Right]:
    """Direct grants plus grants of every group containing ``who``.

    Non-members get the empty set rather than an error; denial then follows
    from the empty intersection downstream.
    """
    if not db.is_member(who):
        return frozenset()
    rights = set(db.grants.get(who, frozenset()))
    for name in db.groups_of(who):
        rights |= db.grants.get(name, frozenset())
    return frozenset(rights)


# --- admin commands -------------------------------------------------------------

_ADMIN_OPS = {
    "grant", "revoke", "add_member", "remove_member",
    "create_group", "add_to_group", "remove_from_group", "add_capability",
}


def _capability_allows(cap: AdminCapability, cmd: dict) -> bool:
    op = cmd["op"]
    if op in ("grant", "revoke"):
        return op in cap.powers and pattern_covers(cap.namespace, cmd["object"])
    if op in ("add_member", "remove_member"):
        return "manage_membership" in cap.powers
    if op in ("create_group", "add_to_group", "remove_from_group"):
        return "manage_group" in cap.powers and cmd["group"] in cap.groups
    return False  # add_capability is reserved to the owner


def _parse_admin_cmd(cmd: Any) -> dict:
    if not isinstance(cmd, dict) or cmd.get("op") not in _ADMIN_OPS:
        raise MalformedMessage(f"unknown admin command: {cmd!r}")
    op = cmd["op"]
    keys = set(cmd)
    if op in ("grant", "revoke"):
        if keys != {"op", "subject", "action", "object"}:
            raise MalformedMessage(f"{op} needs subject, action, object")
        validate_action(cmd["action"])
        split_pattern(cmd["object"])
        _validate_subject_ref(cmd["subject"])
    elif op in ("add_member", "remove_member"):
        if keys != {"op", "identity"}:
            raise MalformedMessage(f"{op} needs identity")
        validate_identity(cmd["identity"])
    elif op == "create_group":
        if keys != {"op", "group"}:
            raise MalformedMessage("create_group needs group")
        if not GROUP_NAME_RE.fullmatch(cmd["group"]):
            raise MalformedMessage(f"bad group name {cmd['group']!r}")
    elif op in ("add_to_group", "remove_from_group"):
        if keys != {"op", "group", "identity"}:
            raise MalformedMessage(f"{op} needs group and identity")
        validate_identity(cmd["identity"])
    else:  # add_capability
        if keys != {"op", "capability"}:
            raise MalformedMessage("add_capability needs capability")
        _capability_from_map(cmd["capability"])
    return cmd


def _validate_subject_ref(ref: Any) -> str:
    """A grant subject is an identity (starts with ``/``) or a group name."""
    if isinstance(ref, str) and ref.startswith("/"):
        return validate_identity(ref)
    if isinstance(ref, str) and GROUP_NAME_RE.fullmatch(ref):
        return ref
    raise MalformedMessage(f"bad grant subject {ref!r}")


def apply_admin(db: VOPolicyDatabase, admin: Identity, cmd: dict) -> VOPolicyDatabase:
    """Apply one admin command on behalf of ``admin``.

    The command is applied and the revision incremented only when some
    capability of ``admin`` covers it (the owner covers everything); the
    database is unchanged on error.
    """
    cmd = _parse_admin_cmd(cmd)
    authorized = admin == db.owner or any(
        cap.admin == admin and _capability_allows(cap, cmd) for cap in db.admin_caps
    )
    if not authorized:
        raise NotAuthorized(
            f"{admin} holds no capability covering {cmd['op']}"
        )

    op = cmd["op"]
    members = set(db.members)
    groups = dict(db.groups)
    grants = {k: frozenset(v) for k, v in db.grants.items()}
    caps = list(db.admin_caps)

    if op in ("grant", "revoke"):
        ref = cmd["subject"]
        if ref.startswith("/"):
            if ref not in members:
                raise UnknownSubject(f"{ref} is not a member")
        elif ref not in groups:
            raise UnknownSubject(f"no group named {ref}")
        right = Right(cmd["action"], cmd["object"])
        current = set(grants.get(ref, frozenset()))
        if op == "grant":
            current.add(right)
        else:
            current.discard(right)
        if current:
            grants[ref] = frozenset(current)
        else:
            grants.pop(ref, None)
    elif op == "add_member":
        members.add(cmd["identity"])
    elif op == "remove_member":
        who = cmd["identity"]
        if who not in members:
            raise UnknownSubject(f"{who} is not a member")
        members.discard(who)
        grants.pop(who, None)
        groups = {
            name: Group(name, g.members - {who}) for name, g in groups.items()
        }
    elif op == "create_group":
        name = cmd["group"]
        if name in groups:
            raise DuplicateGroup(f"group {name} already exists")
        groups[name] = Group(name, frozenset())
    elif op == "add_to_group":
        name, who = cmd["group"], cmd["identity"]
        if name not in groups:
            raise UnknownSubject(f"no group named {name}")
        if who not in members:
            raise UnknownSubject(f"{who} is not a member")
        groups[name] = Group(name, groups[name].members | {who})
    elif op == "remove_from_group":
        name, who = cmd["group"], cmd["identity"]
        if name not in groups or who not in groups[name].members:
            raise UnknownSubject(f"{who} is not in group {name!r}")
        groups[name] = Group(name, groups[name].members - {who})
    else:  # add_capability
        caps.append(_capability_from_map(cmd["capability"]))

    return VOPolicyDatabase(
        vo_name=db.vo_name,
        owner=db.owner,
        members=frozenset(members),
        groups=groups,
        grants=grants,
        admin_caps=tuple(caps),
        revision=db.revision + 1,
    )


# --- the site half --------------------------------------------------------------

@dataclass(frozen=True)
class SitePolicy:
    """The resource provider's policy: which community server identities map
    to which local accounts, what each account may do, and a per-user
    blacklist overriding any community policy."""

    vo_accounts: Mapping[str, str]
    site_rights: Mapping[str, frozenset]
    blacklist: frozenset = frozenset()

    def __post_init__(self) -> None:
        accounts = set(self.vo_accounts.values())
        for acct in self.site_rights:
            if acct not in accounts:
                raise MalformedMessage(
                    f"site_rights account {acct!r} is not mapped from any VO identity"
                )


@dataclass(frozen=True)
class EnforcementDecision:
    allow: bool
    stage: str | None
    reason: str

    def __post_init__(self) -> None:
        if self.allow and self.stage is not None:
            raise MalformedMessage("an allow decision carries no failing stage")


def _deny(stage: str, reason: str) -> EnforcementDecision:
    return EnforcementDecision(allow=False, stage=stage, reason=reason)


def decide(
    site: SitePolicy,
    issuer: Identity,
    asserted: frozenset,
    user: Identity,
    action: str,
    obj: str,
) -> EnforcementDecision:
    """Intersect site and community policy for one request.

    ``asserted`` must come from an already-verified assertion or restriction;
    verification is the caller's job. The four checks run in a fixed order
    and the first failure names its stage: credential (issuer unmapped),
    site_vo (site grants the community no such right), vo_user (community
    grants the user no such right), site_user (blacklist).
    """
    validate_action(action)
    validate_concrete(obj)
    account = site.vo_accounts.get(issuer)
    if account is None:
        return _deny("credential", f"issuer {issuer} is not mapped to a local account")
    if not rights_match(site.site_rights.get(account, frozenset()), action, obj):
        return _deny("site_vo", f"site grants the community no {action} on {obj}")
    if not rights_match(asserted, action, obj):
        return _deny("vo_user", f"no asserted community right matches {action} on {obj}")
    if user in site.blacklist:
        return _deny("site_user", f"user {user} is blacklisted at this site")
    return EnforcementDecision(allow=True, stage=None, reason="ok")


# --- serialization ----------------------------------------------------------------

def _capability_to_map(cap: AdminCapability) -> dict[str, Any]:
    out: dict[str, Any] = {"admin": cap.admin, "powers": sorted(cap.powers)}
    if cap.namespace is not None:
        out["namespace"] = cap.namespace
    if cap.groups:
        out["groups"] = sorted(cap.groups)
    return out


def _capability_from_map(doc: Any) -> AdminCapability:
    if not isinstance(doc, dict) or not set(doc) <= {"admin", "powers", "namespace", "groups"}:
        raise MalformedMessage(f"bad capability document: {doc!r}")
    if not {"admin", "powers"} <= set(doc):
        raise MalformedMessage("capability needs admin and powers")
    try:
        return AdminCapability(
            admin=doc["admin"],
            powers=frozenset(doc["powers"]),
            namespace=doc.get("namespace"),
            groups=frozenset(doc.get("groups", ())),
        )
    except TypeError as exc:
        raise MalformedMessage(f"bad capability document: {exc}") from None


def db_to_map(db: VOPolicyDatabase) -> dict[str, Any]:
    return {
        "vo_name": db.vo_name,
        "owner": db.owner,
        "members": sorted(db.members),
        "groups": {name: sorted(g.members) for name, g in sorted(db.groups.items())},
        "grants": {ref: rights_to_list(rs) for ref, rs in sorted(db.grants.items())},
        "admin_caps": [_capability_to_map(c) for c in db.admin_caps],
        "revision": db.revision,
    }


def db_from_map(doc: Any) -> VOPolicyDatabase:
    if not isinstance(doc, dict) or set(doc) != {
        "vo_name", "owner", "members", "groups", "grants", "admin_caps", "revision",
    }:
        raise MalformedMessage("policy database has wrong top-level keys")
    if not isinstance(doc["vo_name"], str) or not doc["vo_name"]:
        raise MalformedMessage("vo_name must be a non-empty string")
    if not isinstance(doc["revision"], int) or doc["revision"] < 0:
        raise MalformedMessage("revision must be a non-negative integer")
    members = frozenset(validate_identity(m) for m in doc["members"])
    groups = {}
    for name, member_list in doc["groups"].items():
        groups[name] = Group(name, frozenset(validate_identity(m) for m in member_list))
    grants = {}
    for ref, rights_list in doc["grants"].items():
        _validate_subject_ref(ref)
        if ref.startswith("/"):
            if ref not in members:
                raise MalformedMessage(f"grant subject {ref} is not a member")
        elif ref not in groups:
            raise MalformedMessage(f"grant subject {ref!r} is not a group")
        grants[ref] = rights_from_list(rights_list)
    caps = tuple(_capability_from_map(c) for c in doc["admin_caps"])
    return VOPolicyDatabase(
        vo_name=doc["vo_name"],
        owner=validate_identity(doc["owner"]),
        members=members,
        groups=groups,
        grants=grants,
        admin_caps=caps,
        revision=doc["revision"],
    )


def db_canonical_bytes(db: VOPolicyDatabase) -> bytes:
    return canonical_json(db_to_map(db))


def save_database(db: VOPolicyDatabase, path: Path | str) -> None:
    write_atomic(path, db_canonical_bytes(db))


def load_database(path: Path | str) -> VOPolicyDatabase:
    return db_from_map(parse_canonical(Path(path).read_bytes()))


def site_to_map(site: SitePolicy) -> dict[str, Any]:
    return {
        "vo_accounts": dict(sorted(site.vo_accounts.items())),
        "site_rights": {a: rights_to_list(rs) for a, rs in sorted(site.site_rights.items())},
        "blacklist": sorted(site.blacklist),
    }


def site_from_map(doc: Any) -> SitePolicy:
    if not isinstance(doc, dict) or set(doc) != {"vo_accounts", "site_rights", "blacklist"}:
        raise MalformedMessage("site policy has wrong top-level keys")
    vo_accounts = {
        validate_identity(ident): acct for ident, acct in doc["vo_accounts"].items()
    }
    site_rights = {a: rights_from_list(rl) for a, rl in doc["site_rights"].items()}
    blacklist = frozenset(validate_identity(b) for b in doc["blacklist"])
    return SitePolicy(vo_accounts=vo_accounts, site_rights=site_rights, blacklist=blacklist)


def save_site(site: SitePolicy, path: Path | str) -> None:
    write_atomic(path, canonical_json(site_to_map(site)))


def load_site(path: Path | str) -> SitePolicy:
    return site_from_map(parse_canonical(Path(path).read_bytes()))


def group_rights_from_map(doc: Any) -> dict[str, frozenset]:
    if not isinstance(doc, dict):
        raise MalformedMessage("group rights must be a map")
    return {name: rights_from_list(rl) for name, rl in doc.items()}


def load_group_rights(path: Path | str) -> dict[str, frozenset]:
    return group_rights_from_map(parse_canonical(Path(path).read_bytes()))
