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

Each pattern is parsed once: a :class:`Right` keeps its (scheme, segments,
wildcard) from construction, and ``decide`` parses the request object once,
so matching, covering and intersecting only compare tuples. The functions
taking pattern strings parse them and share the same matcher.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from typing import Any, Iterable, Mapping, NamedTuple

from .canonical import canonical_json, expect, fields, parse_canonical, set_of, write_atomic
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


def validate_identity(name: Any) -> Identity:
    """Distinguished-name strings like ``/VO=esg/CN=alice``."""
    if not isinstance(name, str) or not IDENTITY_RE.fullmatch(name):
        raise MalformedMessage(f"not a valid identity: {name!r}")
    return name


def validate_group_name(name: Any) -> str:
    if not isinstance(name, str) or not GROUP_NAME_RE.fullmatch(name):
        raise MalformedMessage(f"bad group name {name!r}")
    return name


def validate_action(action: Any) -> str:
    if not isinstance(action, str) or action not in ACTIONS:
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
    scheme, rest = match.groups()
    segments = rest.split("/") if rest else []
    wildcard = bool(segments) and segments[-1] == "**"
    if wildcard:
        segments.pop()
    elif not segments:
        raise MalformedPattern(f"pattern {pattern!r} has an empty path")
    if "" in segments:
        raise MalformedPattern(f"pattern {pattern!r} has an empty segment")
    if "**" in segments:
        raise MalformedPattern(f"wildcard only allowed as the final segment: {pattern!r}")
    return scheme, tuple(segments), wildcard


class Pattern(NamedTuple):
    """A parsed pattern, for the matcher's string-taking entry points."""

    scheme: str
    segments: tuple[str, ...]
    wildcard: bool


def _parse(pattern: Any) -> Pattern:
    return Pattern(*split_pattern(pattern))


def _concrete(path: Any) -> Pattern:
    parsed = _parse(path)
    if parsed.wildcard:
        raise MalformedPattern(f"object path must be concrete: {path!r}")
    return parsed


def validate_concrete(path: Any) -> str:
    _concrete(path)
    return path


def _covers(outer, inner) -> bool:
    """The one matcher. ``outer`` and ``inner`` are parsed patterns, each a
    :class:`Pattern` or a :class:`Right`; true iff every path matched by
    ``inner`` is matched by ``outer``. For a concrete ``inner`` that is
    exactly "``outer`` matches ``inner``"."""
    if outer.scheme != inner.scheme:
        return False
    if outer.wildcard:
        return inner.segments[: len(outer.segments)] == outer.segments
    return not inner.wildcard and inner.segments == outer.segments


def pattern_matches(pattern: str, obj: str) -> bool:
    """True iff ``pattern`` matches the concrete object path ``obj``."""
    return _covers(_parse(pattern), _concrete(obj))


def pattern_covers(outer: str, inner: str) -> bool:
    """True iff every path matched by ``inner`` is matched by ``outer``."""
    return _covers(_parse(outer), _parse(inner))


# --- rights -------------------------------------------------------------------

_setattr = object.__setattr__


@dataclass(frozen=True, order=True, slots=True)
class Right:
    """One action on one object pattern.

    The pattern is parsed once, here: ``scheme``, ``segments`` and
    ``wildcard`` are derived from ``object`` and take no part in equality,
    hashing, ordering or repr.
    """

    action: str
    object: str
    scheme: str = field(init=False, compare=False, repr=False)
    segments: tuple[str, ...] = field(init=False, compare=False, repr=False)
    wildcard: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        validate_action(self.action)
        scheme, segments, wildcard = split_pattern(self.object)
        _setattr(self, "scheme", scheme)
        _setattr(self, "segments", segments)
        _setattr(self, "wildcard", wildcard)


def _by_action(rights: Iterable[Right]) -> dict[str, list[Right]]:
    out: dict[str, list[Right]] = {}
    for right in rights:
        out.setdefault(right.action, []).append(right)
    return out


def _any_matches(rights: Iterable[Right], action: str, target: Pattern) -> bool:
    """``target`` is an already validated concrete path."""
    for right in rights:
        if right.action == action and _covers(right, target):
            return True
    return False


def matches(right: Right, action: str, obj: str) -> bool:
    """True iff ``right`` permits ``action`` on the concrete path ``obj``."""
    return rights_match((right,), action, obj)


def rights_match(rights: Iterable[Right], action: str, obj: str) -> bool:
    validate_action(action)
    return _any_matches(rights, action, _concrete(obj))


def intersect_rights(a: Iterable[Right], b: Iterable[Right]) -> frozenset[Right]:
    """Semantic intersection: the result matches a request exactly when both
    inputs match it, narrowing patterns where they overlap.

    Prefix-only patterns overlap only when one covers the other, so each
    common right is the narrower input right itself."""
    b_by_action = _by_action(b)
    out = set()
    for ra in a:
        for rb in b_by_action.get(ra.action, ()):
            if _covers(ra, rb):
                out.add(rb)
            elif _covers(rb, ra):
                out.add(ra)
    return frozenset(out)


def rights_covers(broad: Iterable[Right], narrow: Iterable[Right]) -> bool:
    """True iff every request matched by ``narrow`` is matched by ``broad``.

    With prefix-only patterns a right is covered by a union exactly when a
    single element covers it, so the per-right check is complete.
    """
    broad_by_action = _by_action(broad)
    return all(
        any(_covers(rb, rn) for rb in broad_by_action.get(rn.action, ()))
        for rn in narrow
    )


_RIGHT_KEY = attrgetter("action", "object")


def rights_to_list(rights: Iterable[Right]) -> list[dict[str, str]]:
    """Sorted by (action, object), which is also ``Right``'s own order."""
    if not isinstance(rights, (set, frozenset)):
        rights = set(rights)
    return [{"action": r.action, "object": r.object} for r in sorted(rights, key=_RIGHT_KEY)]


_RIGHT_FIELDS = frozenset({"action", "object"})


def rights_from_list(doc: Any) -> frozenset[Right]:
    out = set()
    for item in expect(doc, list, "rights"):
        fields(item, "right entry", _RIGHT_FIELDS)
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
        validate_group_name(self.name)


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
        if self.namespace is not None:
            split_pattern(self.namespace)
        elif self.powers & {"grant", "revoke"}:
            raise MalformedMessage("grant/revoke capability requires a namespace")
        if "manage_group" in self.powers and not self.groups:
            raise MalformedMessage("manage_group capability requires a group set")


@dataclass(frozen=True)
class VOPolicyDatabase:
    """One community's policy: members, groups, grants, and meta-policy.

    Instances are immutable; ``apply_admin`` returns a new database with the
    revision bumped. The ``owner`` identity set at creation implicitly holds
    every capability, including the right to add capabilities.

    ``member_groups`` maps each identity in some group to the names of its
    groups. It is built once, here, from ``groups`` and takes no part in
    equality or repr.
    """

    vo_name: str
    owner: Identity
    members: frozenset
    groups: Mapping[str, Group]
    grants: Mapping[str, frozenset]
    admin_caps: tuple
    revision: int = 0
    member_groups: Mapping[Identity, frozenset] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        index: dict[Identity, set] = {}
        for name, group in self.groups.items():
            for who in group.members:
                index.setdefault(who, set()).add(name)
        _setattr(self, "member_groups", {who: frozenset(names) for who, names in index.items()})

    def is_member(self, who: Identity) -> bool:
        return who in self.members

    def groups_of(self, who: Identity) -> frozenset:
        return self.member_groups.get(who, frozenset())


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

def _validate_subject_ref(ref: Any) -> str:
    """A grant subject is an identity (starts with ``/``) or a group name."""
    if isinstance(ref, str) and ref.startswith("/"):
        return validate_identity(ref)
    return validate_group_name(ref)


def _capability_from_map(doc: Any) -> AdminCapability:
    fields(doc, "capability", {"admin", "powers"}, {"namespace", "groups"})
    return AdminCapability(
        admin=doc["admin"],
        powers=set_of(lambda power: expect(power, str, "power"), doc["powers"], "powers"),
        namespace=doc.get("namespace"),
        groups=set_of(validate_group_name, doc.get("groups", []), "capability groups"),
    )


# The admin command set: op -> (each field besides "op" with its check, in
# checking and command-line order; the power that covers the op). A command
# naming an ``object`` is further scoped by the capability's namespace, one
# naming a ``group`` by its groups. add_capability has no power: it is
# reserved to the owner.
ADMIN_COMMANDS: dict[str, tuple[dict[str, Any], str | None]] = {
    "grant": ({"subject": _validate_subject_ref, "action": validate_action,
               "object": split_pattern}, "grant"),
    "revoke": ({"subject": _validate_subject_ref, "action": validate_action,
                "object": split_pattern}, "revoke"),
    "add_member": ({"identity": validate_identity}, "manage_membership"),
    "remove_member": ({"identity": validate_identity}, "manage_membership"),
    "create_group": ({"group": validate_group_name}, "manage_group"),
    "add_to_group": ({"group": validate_group_name, "identity": validate_identity},
                     "manage_group"),
    "remove_from_group": ({"group": validate_group_name, "identity": validate_identity},
                          "manage_group"),
    "add_capability": ({"capability": _capability_from_map}, None),
}

ADMIN_POWERS = frozenset(power for _, power in ADMIN_COMMANDS.values() if power)


def _capability_allows(cap: AdminCapability, cmd: dict) -> bool:
    if ADMIN_COMMANDS[cmd["op"]][1] not in cap.powers:
        return False
    if "object" in cmd:
        return pattern_covers(cap.namespace, cmd["object"])
    return "group" not in cmd or cmd["group"] in cap.groups


def _parse_admin_cmd(cmd: Any) -> dict:
    op = cmd.get("op") if isinstance(cmd, dict) else None
    if not isinstance(op, str) or op not in ADMIN_COMMANDS:
        raise MalformedMessage(f"unknown admin command: {cmd!r}")
    checks = ADMIN_COMMANDS[op][0]
    fields(cmd, f"{op} command", {"op", *checks})
    for name, check in checks.items():
        check(cmd[name])
    return cmd


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


def deny(stage: str, reason: str) -> EnforcementDecision:
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
    target = _concrete(obj)
    account = site.vo_accounts.get(issuer)
    if account is None:
        return deny("credential", f"issuer {issuer} is not mapped to a local account")
    if not _any_matches(site.site_rights.get(account, frozenset()), action, target):
        return deny("site_vo", f"site grants the community no {action} on {obj}")
    if not _any_matches(asserted, action, target):
        return deny("vo_user", f"no asserted community right matches {action} on {obj}")
    if user in site.blacklist:
        return deny("site_user", f"user {user} is blacklisted at this site")
    return EnforcementDecision(allow=True, stage=None, reason="ok")


# --- serialization ----------------------------------------------------------------

def _capability_to_map(cap: AdminCapability) -> dict[str, Any]:
    out: dict[str, Any] = {"admin": cap.admin, "powers": sorted(cap.powers)}
    if cap.namespace is not None:
        out["namespace"] = cap.namespace
    if cap.groups:
        out["groups"] = sorted(cap.groups)
    return out


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
    fields(doc, "policy database",
           {"vo_name", "owner", "members", "groups", "grants", "admin_caps", "revision"})
    if not isinstance(doc["vo_name"], str) or not doc["vo_name"]:
        raise MalformedMessage("vo_name must be a non-empty string")
    if not isinstance(doc["revision"], int) or doc["revision"] < 0:
        raise MalformedMessage("revision must be a non-negative integer")
    members = set_of(validate_identity, doc["members"], "members")
    groups = {
        name: Group(name, set_of(validate_identity, member_list, f"group {name!r}"))
        for name, member_list in expect(doc["groups"], dict, "groups").items()
    }
    grants = {}
    for ref, rights_list in expect(doc["grants"], dict, "grants").items():
        _validate_subject_ref(ref)
        if ref.startswith("/"):
            if ref not in members:
                raise MalformedMessage(f"grant subject {ref} is not a member")
        elif ref not in groups:
            raise MalformedMessage(f"grant subject {ref!r} is not a group")
        grants[ref] = rights_from_list(rights_list)
    caps = tuple(map(_capability_from_map, expect(doc["admin_caps"], list, "admin_caps")))
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
    fields(doc, "site policy", {"vo_accounts", "site_rights", "blacklist"})
    vo_accounts = {
        validate_identity(ident): expect(account, str, "local account")
        for ident, account in expect(doc["vo_accounts"], dict, "vo_accounts").items()
    }
    site_rights = {
        account: rights_from_list(rl)
        for account, rl in expect(doc["site_rights"], dict, "site_rights").items()
    }
    blacklist = set_of(validate_identity, doc["blacklist"], "blacklist")
    return SitePolicy(vo_accounts=vo_accounts, site_rights=site_rights, blacklist=blacklist)


def save_site(site: SitePolicy, path: Path | str) -> None:
    write_atomic(path, canonical_json(site_to_map(site)))


def load_site(path: Path | str) -> SitePolicy:
    return site_from_map(parse_canonical(Path(path).read_bytes()))


def group_rights_from_map(doc: Any) -> dict[str, frozenset]:
    return {name: rights_from_list(rl) for name, rl in expect(doc, dict, "group rights").items()}


def load_group_rights(path: Path | str) -> dict[str, frozenset]:
    return group_rights_from_map(parse_canonical(Path(path).read_bytes()))
