"""Seeded benchmark worlds.

A world is one community (members, groups, grants, delegated admins), one
site (account mapping, site rights, blacklist), the credentials every active
user presents, the files the services load, and each client's stream of
operations. The seed fixes the policy tables, who holds which kind of chain,
and every operation; key material and validity timestamps are fresh per run,
because caslite's issuing functions draw them from os.urandom and the clock.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from caslite.assertions import assertion_to_map, embed_in_proxy, issue_assertion, issue_restricted_proxy
from caslite.credentials import (
    CredentialChain,
    chain_to_map,
    eec_to_map,
    issue_eec,
    issue_proxy,
    make_ca,
    save_chain,
)
from caslite.policy import Group, Right, SitePolicy, VOPolicyDatabase, AdminCapability, save_database, save_site

from oracle import Tables, canonical

WORKLOADS = ("push", "pull", "community")

VO = "bench"
CAS = f"/VO={VO}/CN=cas"
OWNER = f"/VO={VO}/CN=owner"
LOADER = f"/VO={VO}/CN=loader"
ACCOUNT = "benchacct"
NAMESPACE = f"vo://{VO}/**"
LIFETIME = 3600          # authority default; statements outlast every run
DATA_BYTES = 256
HOUR = 3600


@dataclass(frozen=True)
class Sizes:
    members: int
    active: int                  # members holding credentials and sending requests
    groups: int
    group_rights: tuple          # (min, max) grants per group
    member_groups: tuple         # (min, max) groups per member
    direct_rights: tuple         # (min, max) direct grants per member
    areas: int                   # vo://bench/data/a<i>
    subs: int                    # .../s<j> under each area
    files: int                   # .../f<k>.dat under each sub, written before timing
    rounds: int                  # distinct rounds each client cycles through
    setup_repeats: int
    admin_targets: int = 0       # members each community client grants to and revokes from


FULL = {
    "push": Sizes(members=300, active=300, groups=12, group_rights=(3, 6), member_groups=(1, 2),
                  direct_rights=(0, 2), areas=8, subs=6, files=4, rounds=16, setup_repeats=5),
    "pull": Sizes(members=400, active=120, groups=40, group_rights=(20, 30), member_groups=(1, 6),
                  direct_rights=(0, 20), areas=20, subs=10, files=2, rounds=16, setup_repeats=3),
    "community": Sizes(members=1000, active=200, groups=50, group_rights=(3, 6),
                       member_groups=(1, 2), direct_rights=(0, 2), areas=20, subs=10, files=0,
                       rounds=16, setup_repeats=5, admin_targets=5),
}

SMOKE = {
    "push": Sizes(members=20, active=20, groups=4, group_rights=(2, 4), member_groups=(1, 2),
                  direct_rights=(0, 2), areas=3, subs=2, files=2, rounds=2, setup_repeats=1),
    "pull": Sizes(members=30, active=10, groups=6, group_rights=(4, 8), member_groups=(1, 3),
                  direct_rights=(0, 4), areas=4, subs=3, files=1, rounds=2, setup_repeats=1),
    "community": Sizes(members=60, active=12, groups=6, group_rights=(2, 4), member_groups=(1, 2),
                       direct_rights=(0, 2), areas=4, subs=3, files=0, rounds=2, setup_repeats=1,
                       admin_targets=2),
}

# Operations per round per client. A round is shuffled once per seed; an
# admin pair is a grant followed at once by its revoke.
MIX = {
    "push": {"vault_read": 13, "vault_write": 5, "vault_list": 4, "authz_decide": 15,
             "probe_vault": 2, "probe_authz": 1},
    "pull": {"vault_read": 16, "vault_write": 6, "vault_list": 4, "authz_decide": 14},
    "community": {"cred_assertion": 8, "cred_restricted": 3, "query_user": 8,
                  "listing_authority": 1, "listing_mirror": 1, "admin_pair": 3,
                  "admin_refused": 3},
}

CLIENTS = {"push": 1, "pull": 1, "community": 2}

# Share of push users per chain kind; the rest carry rights-mode assertions.
MEMBERSHIP_SHARE = 0.15
RESTRICTED_SHARE = 0.15
BLACKLIST_SHARE = 0.05
PROBES = ("flip_chain", "flip_assertion", "expired")
AIM_SHARE = 0.6          # requests aimed at one of the user's own rights
CODE_SHARE = 0.06        # requests into the code tree, which the site never grants


@dataclass
class Op:
    kind: str
    client: int = 0
    user: str = ""
    action: str = ""
    path: str = ""
    data: bytes = b""
    probe: str = ""
    target: str = ""             # admin commands: grant subject
    obj: str = ""                # admin commands: granted object pattern


@dataclass
class World:
    workload: str
    seed: int
    sizes: Sizes
    tables: Tables
    now: int
    cas_public: bytes
    cas_eec_doc: dict
    chain_kind: dict = field(default_factory=dict)      # user -> rights | membership | restricted | proxy
    chain_docs: dict = field(default_factory=dict)      # user -> presented chain map
    assertion_docs: dict = field(default_factory=dict)  # user -> rights-mode assertion map
    probe_docs: dict = field(default_factory=dict)      # (user, probe) -> tampered chain or assertion map
    streams: list = field(default_factory=list)         # per client: list of rounds of Op
    paths: list = field(default_factory=list)           # data files written before timing
    active: list = field(default_factory=list)          # members sending requests
    admins: list = field(default_factory=list)
    targets: list = field(default_factory=list)         # per client: admin target members
    _db: VOPolicyDatabase | None = None
    _ca: object = None
    _cas_chain: CredentialChain | None = None
    _eecs: dict = field(default_factory=dict)

    @property
    def clients(self) -> int:
        return CLIENTS[self.workload]


def _ident(i: int) -> str:
    return f"/VO={VO}/CN=u{i:05d}"


def _right_pool(rng: random.Random, sizes: Sizes):
    """One random right: mostly directory subtrees of the data tree, some whole
    areas, single files, and subtrees of a code tree the site never grants."""
    action = rng.choice(("read", "read", "write", "list"))
    area, sub = rng.randrange(sizes.areas), rng.randrange(sizes.subs)
    roll = rng.random()
    if roll < 0.60:
        obj = f"vo://{VO}/data/a{area}/s{sub}/**"
    elif roll < 0.70:
        obj = f"vo://{VO}/data/a{area}/**"
    elif roll < 0.85:
        obj = f"vo://{VO}/data/a{area}/s{sub}/f{rng.randrange(max(sizes.files, 1) + 2)}.dat"
    else:
        obj = f"vo://{VO}/code/a{area}/**"
    return action, obj


def _spread(bounds: tuple, i: int) -> int:
    """Counts cycle evenly through ``bounds``, so every seed has the same sizes."""
    low, high = bounds
    return low + i % (high - low + 1)


def make_tables(workload: str, seed: int, sizes: Sizes) -> tuple[Tables, random.Random]:
    rng = random.Random(f"{workload}:{seed}")
    members = [_ident(i) for i in range(sizes.members)]
    groups = {f"g{g:03d}": set() for g in range(sizes.groups)}
    grants: dict = {}
    for g, name in enumerate(groups):
        grants[name] = {_right_pool(rng, sizes) for _ in range(_spread(sizes.group_rights, g))}
    names = sorted(groups)
    for i, member in enumerate(members):
        for name in rng.sample(names, _spread(sizes.member_groups, i)):
            groups[name].add(member)
        direct = {_right_pool(rng, sizes) for _ in range(_spread(sizes.direct_rights, 7 * i))}
        if direct:
            grants[member] = direct
    members.append(LOADER)
    grants[LOADER] = {(a, f"vo://{VO}/data/**") for a in ("read", "write", "list")}
    blacklist = set(rng.sample(members[:-1], max(1, int(len(members) * BLACKLIST_SHARE))))
    tables = Tables(
        vo_name=VO, cas=CAS, members=set(members), groups=groups, grants=grants,
        site_rights={(a, f"vo://{VO}/data/**") for a in ("read", "write", "list")},
        blacklist=blacklist,
        local_groups={name: set(grants[name]) for name in groups},
    )
    return tables, rng


def _rights(pairs) -> frozenset:
    return frozenset(Right(a, o) for a, o in pairs)


def _database(tables: Tables, admins: list) -> VOPolicyDatabase:
    return VOPolicyDatabase(
        vo_name=tables.vo_name,
        owner=OWNER,
        members=frozenset(tables.members),
        groups={name: Group(name, frozenset(m)) for name, m in tables.groups.items()},
        grants={ref: _rights(pairs) for ref, pairs in tables.grants.items()},
        admin_caps=tuple(
            AdminCapability(admin, frozenset({"grant", "revoke"}), f"vo://{VO}/scratch/c{c}/**")
            for c, admin in enumerate(admins)
        ),
        revision=1,
    )


def build(workload: str, seed: int, sizes: Sizes) -> World:
    """Make the tables, credentials and operation streams for one run."""
    tables, rng = make_tables(workload, seed, sizes)
    now = int(time.time())
    ca = make_ca("benchca", now=now - 86400)
    window = (now - 86400, now + 30 * 86400)
    cas = issue_eec(ca, CAS, window)
    world = World(workload=workload, seed=seed, sizes=sizes, tables=tables, now=now,
                  cas_public=cas.keys.public_part, cas_eec_doc=eec_to_map(cas.public()))
    world._ca, world._cas_chain = ca, CredentialChain(eec=cas)
    if workload == "community":
        world.admins = [f"/VO={VO}/CN=admin{c}" for c in range(CLIENTS[workload])]
    world._db = _database(tables, world.admins)

    # Active users are spread evenly over the range of rights-set sizes, so
    # every seed asks for the same amount of policy work.
    people = sorted(tables.members - {LOADER}, key=lambda m: (len(tables.user_rights(m)), m))
    active = [people[i * len(people) // sizes.active] for i in range(sizes.active)]
    rng.shuffle(active)
    world.active = active
    if workload == "community":
        pool = [m for m in people if m not in active]
        picked = rng.sample(pool, sizes.admin_targets * world.clients)
        world.targets = [picked[c::world.clients] for c in range(world.clients)]
    for user in active + [LOADER] + world.admins:
        world._eecs[user] = issue_eec(ca, user, window)
    _issue_credentials(world, rng, active)
    world.paths = [
        f"vo://{VO}/data/a{a}/s{s}/f{f}.dat"
        for a in range(sizes.areas) for s in range(sizes.subs) for f in range(sizes.files)
    ]
    world.streams = [_stream(world, rng, active, c) for c in range(world.clients)]
    return world


def _proxy(world: World, user: str) -> CredentialChain:
    return issue_proxy(CredentialChain(eec=world._eecs[user]), (world.now - 600, world.now + 2 * HOUR))


def _issue_credentials(world: World, rng: random.Random, active: list) -> None:
    db, cas_keys = world._db, world._cas_chain.eec.keys
    order = list(active)
    rng.shuffle(order)
    restricted = round(len(order) * RESTRICTED_SHARE)
    membership = restricted + round(len(order) * MEMBERSHIP_SHARE)
    kind_of = {u: "restricted" for u in order[:restricted]}
    kind_of.update({u: "membership" for u in order[restricted:membership]})
    for user in active + [LOADER] + world.admins:
        proxy = _proxy(world, user)
        if world.workload != "push" or user in world.admins:
            world.chain_kind[user] = "proxy"
            world.chain_docs[user] = chain_to_map(proxy)
            continue
        mode = kind_of.get(user, "rights")
        world.chain_kind[user] = mode
        if mode == "restricted":
            chain = issue_restricted_proxy(world._cas_chain, db, user, 2 * HOUR, now=world.now)
            world.chain_docs[user] = chain_to_map(chain)
            doc = world.chain_docs[user]
            world.probe_docs[(user, "flip_chain")] = _flip_hex(doc, ("links", -1, "keys", "public_part"), rng)
            continue
        assertion = issue_assertion(db, cas_keys, CAS, user, mode=mode, lifetime=2 * HOUR, now=world.now)
        doc = chain_to_map(embed_in_proxy(proxy, assertion))
        world.chain_docs[user] = doc
        if mode == "rights":
            world.assertion_docs[user] = assertion_to_map(assertion)
            tampered = dict(world.assertion_docs[user], db_revision=assertion.db_revision ^ 1)
            world.probe_docs[(user, "probe_authz")] = tampered
        # One signed byte flipped in the embedded assertion, signatures kept.
        world.probe_docs[(user, "flip_chain")] = _flip_hex(doc, ("links", -1, "extension"), rng)
        # A well-signed link carrying an assertion with one signed byte changed.
        forged = dataclasses.replace(assertion, db_revision=assertion.db_revision ^ 1)
        world.probe_docs[(user, "flip_assertion")] = chain_to_map(embed_in_proxy(proxy, forged))
        expired = issue_proxy(CredentialChain(eec=world._eecs[user]),
                              (world.now - 2 * HOUR, world.now - HOUR))
        world.probe_docs[(user, "expired")] = chain_to_map(embed_in_proxy(expired, assertion))


def _flip_hex(doc: dict, where: tuple, rng: random.Random) -> dict:
    """A deep copy of ``doc`` with one hex digit of a signed field changed."""
    copy = json.loads(json.dumps(doc))
    node = copy
    for key in where[:-1]:
        node = node[key]
    text = node[where[-1]]
    i = rng.randrange(len(text))
    node[where[-1]] = text[:i] + format(int(text[i], 16) ^ 0x1, "x") + text[i + 1:]
    return copy


# --- requests ---------------------------------------------------------------------

def asserted(world: World, user: str):
    """(issuer, asserted rights, user as the site sees it) for a push or pull user."""
    tables = world.tables
    kind = world.chain_kind[user]
    if kind == "restricted":
        return CAS, tables.user_rights(user), CAS
    if kind == "membership":
        return CAS, tables.membership_rights(user), user
    return CAS, tables.user_rights(user), user


def _concrete(rng: random.Random, world: World, pattern: str, action: str) -> str:
    """A concrete path the pattern matches: a directory for list, else a file."""
    if not pattern.endswith("/**"):
        return pattern
    base = pattern[: -len("/**")]
    depth = base.count("/") - 2           # vo://bench/data -> 1, .../a1 -> 2, .../a1/s3 -> 3
    if depth < 2:
        base += f"/a{rng.randrange(world.sizes.areas)}"
    if depth < 3:
        base += f"/s{rng.randrange(world.sizes.subs)}"
    if action == "list":
        return base
    return base + f"/f{rng.randrange(max(world.sizes.files, 1))}.dat"


def _request(rng: random.Random, world: World, user: str, action: str, mode: str) -> str:
    """An object for ``user``: under one of their own rights ("aim"), else a
    random path of the data tree or of the code tree the site never grants."""
    _, rights, _ = asserted(world, user)
    mine = sorted(o for a, o in rights if a == action)
    if mine and mode == "aim":
        return _concrete(rng, world, rng.choice(mine), action)
    tree = "code" if mode == "code" else "data"
    path = f"vo://{VO}/{tree}/a{rng.randrange(world.sizes.areas)}/s{rng.randrange(world.sizes.subs)}"
    return path if action == "list" else path + f"/f{rng.randrange(max(world.sizes.files, 1))}.dat"


def _allowed(world: World, rng: random.Random, users: list, action: str):
    """A (user, path) the oracle allows, for probes that must turn allow into deny."""
    for _ in range(1000):
        user = rng.choice(users)
        path = _request(rng, world, user, action, "aim" if rng.random() < AIM_SHARE else "data")
        issuer, rights, seen = asserted(world, user)
        if world.tables.decide(issuer, rights, seen, action, path)[0]:
            return user, path
    raise RuntimeError("no allowed request found for probes")


def data_for(seed: int, *parts) -> bytes:
    digest = hashlib.sha256(repr((seed,) + parts).encode()).digest()
    return (digest * (DATA_BYTES // len(digest) + 1))[:DATA_BYTES]


def _deck(rng: random.Random, items: list):
    """Deal ``items`` endlessly in shuffled passes, each one equally often."""
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


def _quota(rng: random.Random, total: int, shares: dict) -> list:
    """``total`` labels in the given shares, the largest share taking the
    rounding remainder, shuffled."""
    largest = max(shares, key=shares.get)
    labels = [k for k, share in shares.items() if k != largest for _ in range(round(total * share))]
    labels += [largest] * (total - len(labels))
    rng.shuffle(labels)
    return labels


def _stream(world: World, rng: random.Random, active: list, client: int) -> list:
    """Rounds of operations in fixed proportions: per round the same count of
    each kind, of vault requests per chain kind, and of requests aimed at the
    user's own rights, at random data paths and at the code tree; users are
    dealt evenly. Seeds change which requests are made, not the mix."""
    mix = MIX[world.workload]
    by_kind: dict = {}
    for user in active:
        by_kind.setdefault(world.chain_kind[user], []).append(user)
    shares = {k: len(v) / len(active) for k, v in sorted(by_kind.items())}
    decks = {k: _deck(rng, users) for k, users in sorted(by_kind.items())}
    deciders = _deck(rng, [u for u in active if world.chain_kind[u] in ("rights", "proxy")])
    callers = _deck(rng, active)
    vault_slots = sum(n for kind, n in mix.items() if kind.startswith("vault_"))
    requests = vault_slots + mix.get("authz_decide", 0)
    aims = {"aim": AIM_SHARE, "code": CODE_SHARE, "data": 1 - AIM_SHARE - CODE_SHARE}
    rounds = []
    for r in range(world.sizes.rounds):
        kinds = iter(_quota(rng, vault_slots, shares))
        modes = iter(_quota(rng, requests, aims))
        ops: list = []
        for kind, count in mix.items():
            for i in range(count):
                op = _make_op(world, rng, active, callers, client, kind, r, i)
                if kind.startswith("vault_") or kind == "authz_decide":
                    op.user = next(decks[next(kinds)] if kind != "authz_decide" else deciders)
                    op.path = _request(rng, world, op.user, op.action, next(modes))
                ops.append(op)
        rng.shuffle(ops)
        rounds.append([op for group in ops for op in (group if isinstance(group, list) else [group])])
    return rounds


def _make_op(world: World, rng: random.Random, active: list, callers, client: int, kind: str,
             r: int, i: int):
    if kind in ("vault_read", "vault_write", "vault_list"):
        action = kind.split("_")[1]
        data = data_for(world.seed, client, r, i) if action == "write" else b""
        return Op(kind, client, action=action, data=data)
    if kind == "authz_decide":
        return Op(kind, client, action=("read", "write", "list")[i % 3])
    if kind == "probe_vault":
        probe = PROBES[(r * 2 + i) % len(PROBES)]
        kinds = ("rights", "membership") if probe != "flip_chain" else ("rights", "membership", "restricted")
        user, path = _allowed(world, rng, [u for u in active if world.chain_kind[u] in kinds], "read")
        return Op(kind, client, user, "read", path, probe=probe)
    if kind == "probe_authz":
        user, path = _allowed(world, rng, [u for u in active if world.chain_kind[u] == "rights"], "read")
        return Op(kind, client, user, "read", path, probe="probe_authz")
    admin = world.admins[client] if world.admins else ""
    if kind in ("cred_assertion", "cred_restricted", "query_user"):
        return Op(kind, client, next(callers), target=next(callers))
    if kind in ("listing_authority", "listing_mirror"):
        return Op(kind, client, next(callers))
    if kind == "admin_pair":
        target = world.targets[client][(r * 7 + i) % len(world.targets[client])]
        obj = f"vo://{VO}/scratch/c{client}/r{r}i{i}/**"
        return [Op("admin_grant", client, admin, "read", target=target, obj=obj),
                Op("admin_revoke", client, admin, "read", target=target, obj=obj)]
    if kind == "admin_refused":
        target = world.targets[client][i % len(world.targets[client])]
        return Op(kind, client, admin, "read", target=target,
                  obj=f"vo://{VO}/data/a{rng.randrange(world.sizes.areas)}/**")
    raise ValueError(f"unknown op kind {kind}")


# --- files ------------------------------------------------------------------------

def write_files(world: World, directory: Path) -> dict:
    """Lay out what the services load; returns their paths."""
    directory.mkdir(parents=True, exist_ok=True)
    files = {
        "db": directory / "db.json",
        "key": directory / "cas.chain",
        "cas_public": directory / "cas_public.chain",
        "anchors": directory / "anchors.chain",
        "site": directory / "site.json",
        "groups": directory / "groups.json",
        "client": directory / "client.chain",
        "subscriptions": directory / "subscriptions.json",
        "audit": directory / "audit.log",
    }
    save_database(world._db, files["db"])
    save_chain(world._cas_chain, files["key"])
    save_chain(world._cas_chain, files["cas_public"], include_private=False)
    save_chain(CredentialChain(eec=world._ca), files["anchors"], include_private=False)
    tables = world.tables
    save_site(SitePolicy(
        vo_accounts={CAS: ACCOUNT},
        site_rights={ACCOUNT: _rights(tables.site_rights)},
        blacklist=frozenset(tables.blacklist),
    ), files["site"])
    files["groups"].write_bytes(canonical({
        name: [{"action": a, "object": o} for a, o in sorted(pairs)]
        for name, pairs in tables.local_groups.items()
    }))
    save_chain(_proxy(world, LOADER), files["client"])
    files["subscriptions"].write_text(json.dumps([{"query": "resource_rights", "namespace": NAMESPACE}]))
    return files


def initial_grants(world: World) -> dict:
    """The grant table as the database file spells it."""
    return {ref: [{"action": a, "object": o} for a, o in sorted(pairs)]
            for ref, pairs in sorted(world.tables.grants.items())}
