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
so matching only compares tuples. Sets of rights have one matcher,
:meth:`RightsSet.matches`, whose per-action prefix index ``decide`` and
``intersect_rights`` look patterns up in at a cost of their depth, not of
the number of rights; ``_covers`` compares two single patterns.
"""

from __future__ import annotations

import re
from dataclasses import InitVar, dataclass, field
from functools import lru_cache
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
    """One pattern against another. ``outer`` and ``inner`` are parsed
    patterns, each a :class:`Pattern` or a :class:`Right`; true iff every
    path matched by ``inner`` is matched by ``outer``. For a concrete
    ``inner`` that is exactly "``outer`` matches ``inner``"."""
    if outer.scheme != inner.scheme:
        return False
    if outer.wildcard:
        return inner.segments[: len(outer.segments)] == outer.segments
    return not inner.wildcard and inner.segments == outer.segments


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


# A RightsSet index's kinds of right on one segments tuple, as bits.
_EXACT, _PREFIX = 1, 2


class RightsSet(frozenset):
    """A frozenset of :class:`Right` that keeps a per-action prefix index of
    itself, built on its first :meth:`matches`: for each action and scheme,
    the rights' ``segments``, each with the bits of its kinds (exact,
    wildcard prefix). A target then costs one exact lookup and at most one
    prefix lookup per segment plus one, however many rights the set holds.

    Equality, hashing and iteration are frozenset's, and set operations on
    it return plain frozensets. :func:`rights_from_list` hands these out, and
    every memo entry of asserted rights (a listing entry, a remembered
    assertion or restriction) owns one from :func:`shared_rights`, so a set
    that is kept is indexed once and freed with its entry."""

    __slots__ = ("_index",)

    def matches(self, action: str, target: Pattern | Right) -> bool:
        """Whether some right of ``action`` covers ``target``, any parsed
        pattern (see :func:`_covers`): for a concrete path, whether some right
        permits ``action`` on it."""
        try:
            index = self._index
        except AttributeError:
            index = {}
            for right in self:
                kinds = index.setdefault((right.action, right.scheme), {})
                kinds[right.segments] = (kinds.get(right.segments, 0)
                                         | (_PREFIX if right.wildcard else _EXACT))
            self._index = index  # whole, for readers on other threads
        kinds = index.get((action, target.scheme))
        if kinds is None:
            return False
        segments = target.segments
        if not target.wildcard and kinds.get(segments, 0) & _EXACT:
            return True
        for depth in range(len(segments) + 1):
            if kinds.get(segments[:depth], 0) & _PREFIX:
                return True
        return False


NO_RIGHTS = RightsSet()

# The size of the process's one intern of verified rights, which keeps equal
# rights held by memo and listing entries one object; past it, the least
# recently used goes. Its rights are immutable and equal to the ones interned,
# so sharing it between the services of one process changes no answer.
SHARED_SIZE = 8192


@lru_cache(maxsize=SHARED_SIZE)
def _intern(right: Right) -> Right:
    return right


def shared_rights(rights: frozenset | None) -> RightsSet | None:
    """``rights`` as a new :class:`RightsSet` of interned rights, for the
    entry that keeps it. Pass only verified rights: the intern outlives it."""
    if rights is None:
        return None
    return RightsSet(map(_intern, rights))


def _indexed(rights: Iterable[Right]) -> RightsSet:
    """``rights`` as a :class:`RightsSet`, indexed for this call if not one."""
    return rights if isinstance(rights, RightsSet) else RightsSet(rights)


def intersect_rights(a: Iterable[Right], b: Iterable[Right]) -> frozenset[Right]:
    """Semantic intersection: the result matches a request exactly when both
    inputs match it, narrowing patterns where they overlap.

    Prefix-only patterns overlap only when one covers the other, so the
    common rights are those of each input that the other covers, each looked
    up in the other's index: O((n + m) · depth) for n and m rights."""
    a, b = _indexed(a), _indexed(b)
    return frozenset([r for r in b if a.matches(r.action, r)]
                     + [r for r in a if b.matches(r.action, r)])


_RIGHT_KEY = attrgetter("action", "object")


def rights_to_list(rights: Iterable[Right]) -> list[dict[str, str]]:
    """Sorted by (action, object), which is also ``Right``'s own order."""
    if not isinstance(rights, (set, frozenset)):
        rights = set(rights)
    return [{"action": r.action, "object": r.object} for r in sorted(rights, key=_RIGHT_KEY)]


_RIGHT_FIELDS = frozenset({"action", "object"})


def rights_from_list(doc: Any) -> RightsSet:
    out = set()
    for item in expect(doc, list, "rights"):
        fields(item, "right entry", _RIGHT_FIELDS)
        try:
            out.add(Right(item["action"], item["object"]))
        except MalformedPattern as exc:
            raise MalformedMessage(str(exc)) from None
    return RightsSet(out)


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


@dataclass(eq=False)
class _Derived:
    """What a database works out from its own fields: each grant ref's
    encoded ``"ref":[...]`` fragment of :func:`db_canonical_bytes`; the
    namespace listed last with each member's encoded ``"member":[...]``
    entry of :func:`scoped_listing` there, empty for a member with no rights
    (``listing``, replaced whole when another namespace is listed; its
    fragments are the one kept copy of the listing, which a listing answer
    refers to chunk by chunk until it is signed); the
    encoded ``"groups":{...},"members":[...]`` of the database file
    (``sections``); and the members in sorted order. Readers fill the dicts
    without a lock, so a copy is one ``dict(...)``."""

    grant_fragments: dict = field(default_factory=dict)
    listing: tuple[str, dict] | None = None
    sections: bytes | None = None
    sorted_members: tuple | None = None


@dataclass(frozen=True)
class VOPolicyDatabase:
    """One community's policy: members, groups, grants, and meta-policy.

    Instances are immutable; ``apply_admin`` returns a new database with the
    revision bumped. The ``owner`` identity set at creation implicitly holds
    every capability, including the right to add capabilities.

    Derived state takes no part in equality or repr: the grant fragments of
    :func:`db_canonical_bytes` and the listing entries of
    :func:`scoped_listing` are filled on first use, and ``apply_admin``
    carries them over to the next revision (``_carried``).
    """

    vo_name: str
    owner: Identity
    members: frozenset
    groups: Mapping[str, Group]
    grants: Mapping[str, frozenset]
    admin_caps: tuple
    revision: int = 0
    _derived: _Derived = field(init=False, compare=False, repr=False)
    _carried: InitVar[_Derived | None] = None

    def __post_init__(self, carried: _Derived | None) -> None:
        if carried is None:
            carried = _Derived()
        if carried.sorted_members is None:
            carried.sorted_members = tuple(sorted(self.members))
        _setattr(self, "_derived", carried)

    def is_member(self, who: Identity) -> bool:
        return who in self.members

    def groups_of(self, who: Identity) -> frozenset:
        return frozenset(name for name, group in self.groups.items() if who in group.members)


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


def scoped_listing(db: VOPolicyDatabase, namespace: str) -> tuple[bytes, ...]:
    """The map of each member's rights within ``namespace`` as
    :func:`rights_to_list` entries, members with none left out, as chunks
    whose concatenation is its canonical form: ``{``, each entry's encoded
    ``"member":[...]`` fragment in member order with ``,`` between, ``}``.
    Nothing is joined here: beside the kept fragments, the one copy of a
    listing is the payload :func:`~caslite.statements.sign_statement` joins.
    A large listing has more chunks than ``sendmsg`` takes buffers (IOV_MAX),
    so they are a plain tuple, never an ``Encoded`` for ``write_frame``.

    The fragments are kept on ``db`` for the namespace listed last and
    carried to later revisions for every member a command does not touch;
    listing another namespace starts its own."""
    kept = db._derived.listing
    if kept is None or kept[0] != namespace:
        kept = db._derived.listing = (namespace, {})
    entries = kept[1]
    scope = {action: Right(action, namespace) for action in ACTIONS}
    chunks = []
    for member in db._derived.sorted_members:
        fragment = entries.get(member)
        if fragment is None:
            narrowed = set()
            for right in user_rights(db, member):
                bound = scope[right.action]
                if _covers(bound, right):
                    narrowed.add(right)
                elif _covers(right, bound):
                    narrowed.add(bound)
            rights = rights_to_list(narrowed)
            fragment = entries[member] = _fragment(member, rights) if rights else b""
        if fragment:
            chunks += (b",", fragment)
    return (b"{", *chunks[1:], b"}")


def _fragment(key: str, value: Any) -> bytes:
    """``"key":value`` as the encoder writes it in a map: a canonical map is
    ``{``, its fragments joined by ``,`` in key order, then ``}``."""
    return canonical_json({key: value}, trusted=True)[1:-1]


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
    if not isinstance(cmd, dict):
        raise MalformedMessage("admin command must be a map")
    op = cmd.get("op")
    if not isinstance(op, str) or op not in ADMIN_COMMANDS:
        raise MalformedMessage(f"unknown admin command {op!r:.80}")
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

    The new database carries ``db``'s derived state over, less what the
    command touches. The members it touches are the subject of a
    ``grant``/``revoke`` on an identity, every member of the group for one on
    a group, and the identity of ``add_member``, ``remove_member``,
    ``add_to_group`` and ``remove_from_group``; ``create_group`` and
    ``add_capability`` touch none. Their listing entries are dropped, and a
    grant ref's fragment only when its grants change or its member is
    removed.
    """
    cmd = _parse_admin_cmd(cmd)
    authorized = admin == db.owner or any(
        cap.admin == admin and _capability_allows(cap, cmd) for cap in db.admin_caps
    )
    if not authorized:
        raise NotAuthorized(
            f"{admin} holds no capability covering {cmd['op']}"
        )

    op, who = cmd["op"], cmd.get("identity")
    members, groups, grants, caps = db.members, db.groups, db.grants, db.admin_caps

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
        grants = dict(grants)
        if current:
            grants[ref] = frozenset(current)
        else:
            grants.pop(ref, None)
    elif op == "add_member":
        members = members | {who}
    elif op == "remove_member":
        if who not in members:
            raise UnknownSubject(f"{who} is not a member")
        members = members - {who}
        grants = dict(grants)
        grants.pop(who, None)
        groups = dict(groups)
        for name in db.groups_of(who):
            groups[name] = Group(name, groups[name].members - {who})
    elif op == "create_group":
        name = cmd["group"]
        if name in groups:
            raise DuplicateGroup(f"group {name} already exists")
        groups = {**groups, name: Group(name, frozenset())}
    elif op == "add_to_group":
        name = cmd["group"]
        if name not in groups:
            raise UnknownSubject(f"no group named {name}")
        if who not in members:
            raise UnknownSubject(f"{who} is not a member")
        groups = {**groups, name: Group(name, groups[name].members | {who})}
    elif op == "remove_from_group":
        name = cmd["group"]
        if name not in groups or who not in groups[name].members:
            raise UnknownSubject(f"{who} is not in group {name!r}")
        groups = {**groups, name: Group(name, groups[name].members - {who})}
    else:  # add_capability
        caps = (*caps, _capability_from_map(cmd["capability"]))

    subject = cmd.get("subject", who)
    touched = groups[subject].members if subject in groups else (subject,) if subject else ()
    dropped_ref = cmd.get("subject", who if op == "remove_member" else None)
    return VOPolicyDatabase(
        vo_name=db.vo_name,
        owner=db.owner,
        members=frozenset(members),
        groups=groups,
        grants=grants,
        admin_caps=tuple(caps),
        revision=db.revision + 1,
        _carried=_carry(db._derived, touched, dropped_ref,
                        members is db.members, groups is db.groups),
    )


def _carry(old: _Derived, touched: Iterable[Identity], dropped_ref: str | None,
           same_members: bool, same_groups: bool) -> _Derived:
    """``old`` less the listing entries of ``touched``, the grant fragment of
    ``dropped_ref``, the sorted members unless ``same_members``, and the
    sections unless members and groups are the same. Readers may be filling
    ``old``, so each memo is copied whole by one ``dict`` call and trimmed."""
    grant_fragments = dict(old.grant_fragments)
    grant_fragments.pop(dropped_ref, None)
    listing = old.listing
    if listing is not None:
        entries = dict(listing[1])
        for who in touched:
            entries.pop(who, None)
        listing = listing[0], entries
    return _Derived(grant_fragments, listing,
                    old.sections if same_members and same_groups else None,
                    old.sorted_members if same_members else None)


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

    Both rights checks go through :meth:`RightsSet.matches`, whose index a
    :class:`RightsSet` keeps across calls; any other set, the site's rights
    included, is indexed for this call alone. Callers that decide often on
    one set pass a kept :class:`RightsSet`: site rights loaded by
    :func:`site_from_map`, and each remembered asserted set.
    """
    validate_action(action)
    target = _concrete(obj)
    account = site.vo_accounts.get(issuer)
    if account is None:
        return deny("credential", f"issuer {issuer} is not mapped to a local account")
    if not _indexed(site.site_rights.get(account, frozenset())).matches(action, target):
        return deny("site_vo", f"site grants the community no {action} on {obj}")
    if not _indexed(asserted).matches(action, target):
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


def db_from_map(doc: Any) -> VOPolicyDatabase:
    fields(doc, "policy database",
           {"vo_name", "owner", "members", "groups", "grants", "admin_caps", "revision"})
    if not isinstance(doc["vo_name"], str) or not doc["vo_name"]:
        raise MalformedMessage("vo_name must be a non-empty string")
    if expect(doc["revision"], int, "revision") < 0:
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
    """The database document's canonical bytes, spliced in key order from
    the encodings of its sections: ``admin_caps``; ``grants``, joined from
    each ref's fragment; ``groups`` and ``members``, which only membership
    and group commands change; and the rest. Fragments and sections are kept
    on ``db`` and carried to later revisions."""
    derived = db._derived
    kept = derived.grant_fragments
    for ref in db.grants.keys() - kept.keys():
        kept[ref] = _fragment(ref, rights_to_list(db.grants[ref]))
    if derived.sections is None:
        derived.sections = canonical_json({
            "groups": {name: sorted(g.members) for name, g in db.groups.items()},
            "members": derived.sorted_members,
        }, trusted=True)[1:-1]
    head = canonical_json({"admin_caps": [_capability_to_map(c) for c in db.admin_caps]},
                          trusted=True)
    tail = canonical_json({"owner": db.owner, "revision": db.revision, "vo_name": db.vo_name},
                          trusted=True)
    grants = b",".join([kept[ref] for ref in sorted(db.grants)])
    return b"".join((head[:-1], b',"grants":{', grants, b"},", derived.sections, b",",
                     memoryview(tail)[1:]))


def save_database(db: VOPolicyDatabase, path: Path | str) -> None:
    write_atomic(path, db_canonical_bytes(db))


def _read_document(path: Path | str) -> Any:
    """The canonical document in the file at ``path``; a file that does not
    parse, bytes that are not UTF-8 included, is refused by its name."""
    try:
        return parse_canonical(Path(path).read_bytes())
    except MalformedMessage as exc:
        raise MalformedMessage(f"{path}: {exc.message}") from None


def load_database(path: Path | str) -> VOPolicyDatabase:
    return db_from_map(_read_document(path))


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
    return site_from_map(_read_document(path))


def group_rights_from_map(doc: Any) -> dict[str, frozenset]:
    return {name: rights_from_list(rl) for name, rl in expect(doc, dict, "group rights").items()}


def load_group_rights(path: Path | str) -> dict[str, frozenset]:
    return group_rights_from_map(_read_document(path))
