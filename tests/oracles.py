"""Independent brute-force oracles.

Everything here recomputes expected results from first principles with its
own literal copies of the fixture policy tables and a string-level matcher,
on purpose: none of it calls into the package, so agreement between the
pipeline and these functions is evidence rather than tautology.
"""

from __future__ import annotations

import json

ALICE = "/VO=esg/CN=alice"
BOB = "/VO=esg/CN=bob"
CAROL = "/VO=esg/CN=carol"
ANN = "/VO=esg/CN=admin-ann"
CAS = "/VO=esg/CN=cas"

ACTIONS = ["read", "write", "list", "delete", "create"]

SITE_ACCOUNTS = {CAS: "esg"}
SITE_RIGHTS = {
    "esg": [
        ("read", "vo://esg/data/**"),
        ("write", "vo://esg/data/**"),
        ("list", "vo://esg/data/**"),
    ],
}
BLACKLIST = {CAROL}

MEMBERS = {ALICE, BOB, ANN}
GROUPS = {"publishers": {ALICE}}
GRANTS = {
    "publishers": [("read", "vo://esg/data/**"), ("write", "vo://esg/data/**")],
    BOB: [("read", "vo://esg/data/public/**")],
}

# Concrete paths exercising prefix boundaries ("data" vs "data2" vs
# "database"), depth, sibling trees, and foreign schemes.
OBJECTS = [
    "vo://esg/data/public/a.nc",
    "vo://esg/data/public/b.nc",
    "vo://esg/data/public/sub/c.nc",
    "vo://esg/data/public/deep/x/y.nc",
    "vo://esg/data/private/p1.nc",
    "vo://esg/data/private/p2.nc",
    "vo://esg/data/private/x/y.nc",
    "vo://esg/data/top.txt",
    "vo://esg/data/readme",
    "vo://esg/data/raw/r1.bin",
    "vo://esg/data/raw/r2.bin",
    "vo://esg/data/music/m.mp3",
    "vo://esg/data/public2/c.nc",
    "vo://esg/data/publicfile",
    "vo://esg/data2/b.nc",
    "vo://esg/database/a.nc",
    "vo://esg/code/tool.py",
    "vo://esg/code/lib/util.py",
    "vo://esg/www/index.html",
    "vo://other/data/z.nc",
    "vo://other/x",
]

USERS = [ALICE, BOB, ANN, CAROL]


def naive_pattern_match(pattern: str, obj: str) -> bool:
    if pattern.endswith("/**"):
        prefix = pattern[: -len("/**")]
        return obj == prefix or obj.startswith(prefix + "/")
    return pattern == obj


def naive_rights_match(pairs, action: str, obj: str) -> bool:
    return any(a == action and naive_pattern_match(p, obj) for a, p in pairs)


def naive_user_rights(user: str) -> list[tuple[str, str]]:
    if user not in MEMBERS:
        return []
    pairs = list(GRANTS.get(user, []))
    for group, members in GROUPS.items():
        if user in members:
            pairs.extend(GRANTS.get(group, []))
    return pairs


def naive_decide(issuer: str, asserted_pairs, user: str, action: str, obj: str):
    """(allow, failing_stage_or_None), checks in pipeline order."""
    account = SITE_ACCOUNTS.get(issuer)
    if account is None:
        return False, "credential"
    if not naive_rights_match(SITE_RIGHTS.get(account, []), action, obj):
        return False, "site_vo"
    if not naive_rights_match(asserted_pairs, action, obj):
        return False, "vo_user"
    if user in BLACKLIST:
        return False, "site_user"
    return True, None


def universe():
    """Every (user, action, object) triple of the fixture request universe."""
    for user in USERS:
        for action in ACTIONS:
            for obj in OBJECTS:
                yield user, action, obj


def decision_table():
    """user -> asserted rights from the oracle's own tables, then decide."""
    table = {}
    for user, action, obj in universe():
        table[(user, action, obj)] = naive_decide(
            CAS, naive_user_rights(user), user, action, obj
        )
    return table


# --- canonical parsing, as first written ------------------------------------------

# Byte strings on which the reference parse below fails with a Python error
# rather than a refusal: an escaped lone surrogate cannot be encoded again,
# the nesting exceeds the recursion limit, and the integer exceeds the
# interpreter's digit limit for conversion.
CRASHED_REFERENCE = {
    "lone surrogate": b'{"kind":"\\ud800","payload":{}}',
    "deep nesting": b"[" * 5000 + b"]" * 5000,
    "5000-digit integer": b"9" * 5000,
}


class Rejected(Exception):
    """The reference parse refused the bytes as a domain error."""


def reference_parse_canonical(data: bytes):
    """The canonical parse as first written: ``json.loads``, then a type walk
    over the whole value and a re-encode compared byte for byte. Raises
    :class:`Rejected` where that version raised its domain error and lets
    every other error through, as that version did."""
    try:
        value = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise Rejected(str(exc)) from None
    _reference_check(value)
    encoded = json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    if encoded.encode("utf-8") != data:
        raise Rejected("not in canonical form")
    return value


def _reference_check(value) -> None:
    if isinstance(value, (bool, int, str)):
        return
    if isinstance(value, list):
        for item in value:
            _reference_check(item)
        return
    if isinstance(value, dict):
        for item in value.values():
            _reference_check(item)
        return
    raise Rejected(f"type {type(value).__name__} has no canonical form")
