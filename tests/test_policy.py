"""Rights matching, the community database, and the decision intersection."""

from __future__ import annotations

import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from caslite.errors import (
    DuplicateGroup,
    MalformedMessage,
    MalformedPattern,
    NotAuthorized,
    UnknownSubject,
)
from caslite.assertions import assertion_from_map, assertion_to_map, issue_assertion
from caslite.canonical import canonical_json
from caslite.policy import (
    EnforcementDecision,
    Right,
    RightsSet,
    SitePolicy,
    apply_admin,
    db_canonical_bytes,
    db_from_map,
    decide,
    intersect_rights,
    load_database,
    pattern_covers,
    rights_from_list,
    rights_to_list,
    save_database,
    scoped_listing,
    site_from_map,
    site_to_map,
    user_rights,
    validate_action,
    validate_concrete,
)

import oracles
from worldlib import (
    ALICE, ANN, BOB, CAROL, CAS, NOW, OWNER, db_to_map, fixture_db, fixture_site,
    listing_to_map, rights, rights_covers,
)


def matches(right: Right, action: str, obj: str) -> bool:
    """True iff ``right`` permits ``action`` on the concrete path ``obj``."""
    validate_action(action)
    validate_concrete(obj)
    return right.action == action and pattern_covers(right.object, obj)


def pattern_matches(pattern: str, obj: str) -> bool:
    """True iff ``pattern`` matches the concrete object path ``obj``."""
    return matches(Right("read", pattern), "read", obj)


@pytest.fixture()
def db():
    return fixture_db()


@pytest.fixture()
def site():
    return fixture_site()


# --- pattern matching ------------------------------------------------------------

def test_wildcard_prefix_match():
    assert matches(Right("read", "vo://esg/data/**"), "read", "vo://esg/data/public/a.nc")


def test_action_mismatch():
    assert not matches(Right("read", "vo://esg/data/**"), "write", "vo://esg/data/public/a.nc")


def test_exact_pattern_is_not_a_prefix():
    assert not matches(Right("read", "vo://esg/data"), "read", "vo://esg/data2")
    assert matches(Right("read", "vo://esg/data"), "read", "vo://esg/data")


def test_wildcard_respects_segment_boundaries():
    right = Right("read", "vo://esg/data/**")
    assert not matches(right, "read", "vo://esg/database/a.nc")
    assert not matches(right, "read", "vo://esg/data2/b.nc")
    assert matches(right, "read", "vo://esg/data")


def test_malformed_inputs_raise():
    with pytest.raises(MalformedPattern):
        matches(Right("read", "vo://esg/data/**"), "read", "vo://esg/data/**")
    with pytest.raises(MalformedPattern):
        pattern_matches("no-scheme/path", "vo://esg/x")
    with pytest.raises(MalformedPattern):
        Right("read", "vo://esg/**/x")
    with pytest.raises(MalformedMessage):
        matches(Right("read", "vo://esg/data/**"), "browse", "vo://esg/data/a")


segments = st.lists(st.sampled_from(["a", "b", "data", "data2", "x"]), min_size=0, max_size=4)


@given(pattern_segs=segments, object_segs=st.lists(
    st.sampled_from(["a", "b", "data", "data2", "x"]), min_size=1, max_size=5))
@settings(max_examples=200)
def test_pattern_match_agrees_with_string_oracle(pattern_segs, object_segs):
    pattern = "vo://" + "/".join(pattern_segs + ["**"])
    obj = "vo://" + "/".join(object_segs)
    assert pattern_matches(pattern, obj) == oracles.naive_pattern_match(pattern, obj)


@given(a=segments, b=segments)
@settings(max_examples=100)
def test_pattern_covers_is_prefix_order(a, b):
    pa = "vo://" + "/".join(a + ["**"])
    pb = "vo://" + "/".join(b + ["**"])
    assert pattern_covers(pa, pb) == (b[: len(a)] == a)


# --- fixture rights --------------------------------------------------------------

def test_alice_rights_come_from_her_group(db):
    assert user_rights(db, ALICE) == rights(
        ("read", "vo://esg/data/**"), ("write", "vo://esg/data/**")
    )


def test_bob_rights_are_direct_only(db):
    assert user_rights(db, BOB) == rights(("read", "vo://esg/data/public/**"))


def test_non_member_gets_nothing(db):
    assert user_rights(db, CAROL) == frozenset()


def test_user_rights_matches_oracle(db):
    for user in oracles.USERS:
        expected = {Right(a, p) for a, p in oracles.naive_user_rights(user)}
        assert user_rights(db, user) == frozenset(expected)


# --- decide -----------------------------------------------------------------------

def test_allow_example(db, site):
    decision = decide(site, CAS, user_rights(db, ALICE), ALICE, "read",
                      "vo://esg/data/public/a.nc")
    assert decision.allow and decision.stage is None


def test_site_denies_delete_to_whole_community(db, site):
    decision = decide(site, CAS, user_rights(db, ALICE), ALICE, "delete",
                      "vo://esg/data/public/a.nc")
    assert not decision.allow and decision.stage == "site_vo"


def test_blacklist_overrides_full_rights(site):
    full = rights(("read", "vo://esg/data/**"))
    decision = decide(site, CAS, full, CAROL, "read", "vo://esg/data/public/a.nc")
    assert not decision.allow and decision.stage == "site_user"


def test_unmapped_issuer_fails_at_credential_stage(db, site):
    decision = decide(site, "/VO=other/CN=cas", user_rights(db, ALICE), ALICE,
                      "read", "vo://esg/data/public/a.nc")
    assert not decision.allow and decision.stage == "credential"


def test_decide_agrees_with_exhaustive_oracle(db, site):
    """Full decision-table equality, stages included."""
    for user, action, obj in oracles.universe():
        expected = oracles.naive_decide(
            CAS, oracles.naive_user_rights(user), user, action, obj
        )
        decision = decide(site, CAS, user_rights(db, user), user, action, obj)
        assert (decision.allow, decision.stage) == expected, (user, action, obj)


def test_decide_never_exceeds_site_or_asserted(db, site):
    for user, action, obj in oracles.universe():
        asserted = user_rights(db, user)
        decision = decide(site, CAS, asserted, user, action, obj)
        if decision.allow:
            site_pairs = oracles.SITE_RIGHTS["esg"]
            assert oracles.naive_rights_match(site_pairs, action, obj)
            assert oracles.naive_rights_match(
                [(r.action, r.object) for r in asserted], action, obj
            )


def test_allow_decision_carries_no_stage():
    with pytest.raises(MalformedMessage):
        EnforcementDecision(allow=True, stage="site_vo", reason="nope")


# --- rights intersection ------------------------------------------------------------

def test_intersection_narrows_to_common_subtree():
    a = rights(("read", "vo://esg/data/**"))
    b = rights(("read", "vo://esg/data/public/**"), ("write", "vo://esg/data/**"))
    assert intersect_rights(a, b) == rights(("read", "vo://esg/data/public/**"))


def test_intersection_of_disjoint_is_empty():
    a = rights(("read", "vo://esg/data/public/**"))
    b = rights(("read", "vo://esg/code/**"))
    assert intersect_rights(a, b) == frozenset()


@st.composite
def rights_sets(draw):
    out = set()
    for _ in range(draw(st.integers(0, 4))):
        action = draw(st.sampled_from(sorted(oracles.ACTIONS)))
        segs = draw(st.lists(st.sampled_from(["data", "public", "x"]), max_size=3))
        wild = draw(st.booleans())
        path = "vo://esg/" + "/".join(segs + (["**"] if wild else ["leaf"]))
        out.add(Right(action, path))
    return frozenset(out)


@given(a=rights_sets(), b=rights_sets())
@settings(max_examples=150)
def test_intersection_is_pointwise_conjunction(a, b):
    both = intersect_rights(a, b)
    for action in oracles.ACTIONS:
        for obj in oracles.OBJECTS:
            pairs = lambda rs: [(r.action, r.object) for r in rs]
            expected = oracles.naive_rights_match(pairs(a), action, obj) and \
                oracles.naive_rights_match(pairs(b), action, obj)
            assert oracles.naive_rights_match(pairs(both), action, obj) == expected
    assert rights_covers(a, both) and rights_covers(b, both)


# --- compiled rights ------------------------------------------------------------------
#
# Rights sets of up to 1,000 entries over a small vocabulary, checked against
# the string-level oracles. The segment "zz" is never drawn, so a path ending
# in it is matched only by a wildcard whose prefix stops before it.

VOCAB = ["data", "public", "x"]


SCHEMES = ["vo", "vo", "vo", "ftp"]


def _random_pairs(rnd, count):
    pairs = []
    for _ in range(count):
        scheme = rnd.choice(SCHEMES)
        segs = [rnd.choice(VOCAB) for _ in range(rnd.randrange(4))]
        tail = "**" if rnd.random() < 0.7 else rnd.choice(VOCAB + ["leaf"])
        if tail != "**" or rnd.random() < 0.9:
            path = f"{scheme}://" + "/".join(["esg"] + segs + [tail])
        else:
            path = f"{scheme}://**"
        pairs.append((rnd.choice(oracles.ACTIONS), path))
    return pairs


def _random_requests(rnd, count):
    out = []
    for _ in range(count):
        segs = [rnd.choice(VOCAB + ["leaf", "zz"]) for _ in range(rnd.randrange(6))]
        path = f"{rnd.choice(SCHEMES)}://" + "/".join(["esg"] + segs)
        out.append((rnd.choice(oracles.ACTIONS), path))
    return out


def _pairs(rs):
    return [(r.action, r.object) for r in rs]


def _naive_covers(broad_pairs, narrow_pairs) -> bool:
    """Every request a narrow right matches is matched by ``broad``: its base
    path, and for a wildcard also a path below it that no pattern names."""
    for action, pattern in narrow_pairs:
        if pattern.endswith("/**"):
            base = pattern[: -len("/**")]
            witnesses = [base + "/zz"] if base.endswith(":/") else [base, base + "/zz"]
        else:
            witnesses = [pattern]
        if not all(oracles.naive_rights_match(broad_pairs, action, w) for w in witnesses):
            return False
    return True


big_sizes = st.integers(0, 1000)


@given(seed=st.integers(0, 2**32), n_a=big_sizes, n_b=big_sizes)
@settings(max_examples=30, deadline=None)
def test_large_intersection_agrees_with_oracle(seed, n_a, n_b):
    rnd = random.Random(seed)
    a = rights(*_random_pairs(rnd, n_a))
    b = rights(*_random_pairs(rnd, n_b))
    both = intersect_rights(a, b)
    assert both <= a | b
    for action, obj in _random_requests(rnd, 150):
        expected = oracles.naive_rights_match(_pairs(a), action, obj) and \
            oracles.naive_rights_match(_pairs(b), action, obj)
        assert oracles.naive_rights_match(_pairs(both), action, obj) == expected, (action, obj)


@given(seed=st.integers(0, 2**32), n_broad=big_sizes, n_narrow=st.integers(0, 200))
@settings(max_examples=30, deadline=None)
def test_large_covers_agrees_with_oracle(seed, n_broad, n_narrow):
    rnd = random.Random(seed)
    broad = rights(*_random_pairs(rnd, n_broad))
    narrow = rights(*_random_pairs(rnd, n_narrow))
    subset = frozenset(rnd.sample(sorted(broad), len(broad) // 2))
    for big, small in ((broad, narrow), (narrow, broad), (broad, subset), (narrow, narrow & broad)):
        assert rights_covers(big, small) == _naive_covers(_pairs(big), _pairs(small))
    assert rights_covers(broad, subset)
    assert rights_covers(broad, intersect_rights(broad, narrow))


@given(seed=st.integers(0, 2**32), n=big_sizes,
       user=st.sampled_from(oracles.USERS + [OWNER]))
@settings(max_examples=30, deadline=None)
def test_large_decide_agrees_with_oracle(seed, n, user):
    rnd = random.Random(seed)
    asserted = rights(*_random_pairs(rnd, n))
    site = fixture_site()
    requests = _random_requests(rnd, 100) + [
        (action, obj) for action in oracles.ACTIONS for obj in oracles.OBJECTS[::4]
    ]
    for action, obj in requests:
        decision = decide(site, CAS, asserted, user, action, obj)
        expected = oracles.naive_decide(CAS, _pairs(asserted), user, action, obj)
        assert (decision.allow, decision.stage) == expected, (action, obj)


# --- the per-action prefix index ------------------------------------------------------
#
# ``decide`` matches through a RightsSet's index. Sets here mix exact and
# wildcard rights over the same segments, root wildcards, three schemes and
# every action; each target is a pattern's own path, the path above it, one
# below it, and a sibling whose name only extends the last segment.

INDEX_SCHEMES = ["vo", "ftp", "s3"]
INDEX_SEGMENTS = ["a", "b", "ab"]
EVERYTHING = SitePolicy(
    vo_accounts={CAS: "esg"},
    site_rights={"esg": frozenset(Right(action, f"{scheme}://**")
                                  for action in oracles.ACTIONS for scheme in INDEX_SCHEMES)},
)


@st.composite
def indexed_pairs(draw):
    pairs = set()
    for _ in range(draw(st.integers(0, 12))):
        action = draw(st.sampled_from(sorted(oracles.ACTIONS)))
        scheme = draw(st.sampled_from(INDEX_SCHEMES))
        segs = draw(st.lists(st.sampled_from(INDEX_SEGMENTS), max_size=3))
        path = f"{scheme}://" + "/".join(segs)
        kinds = draw(st.sampled_from(["exact", "wildcard", "both"])) if segs else "wildcard"
        if kinds != "wildcard":
            pairs.add((action, path))
        if kinds != "exact":
            pairs.add((action, path + "/**" if segs else path + "**"))
    return sorted(pairs)


def _index_targets(pairs) -> list[str]:
    targets = {"vo://a", "ftp://b/ab", "s3://ab/a/b/a"}
    for _, pattern in pairs:
        scheme, _, rest = pattern.partition("://")
        segs = [s for s in rest.split("/") if s != "**"]
        for other in INDEX_SCHEMES:
            base = f"{other}://"
            targets.add(base + "/".join(segs + ["z"]))                  # below
            if segs:
                targets.add(base + "/".join(segs))                      # at
                targets.add(base + "/".join(segs[:-1] + [segs[-1] + "x"]))  # beside
            if len(segs) > 1:
                targets.add(base + "/".join(segs[:-1]))                 # above
    return sorted(targets)


@given(pairs=indexed_pairs())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_index_agrees_with_a_naive_matcher(pairs):
    """Through a kept RightsSet, used for every target in turn, and through a
    fresh plain frozenset each time, ``decide`` answers as the naive string
    matcher does."""
    kept = rights_from_list([{"action": a, "object": o} for a, o in pairs])
    assert isinstance(kept, RightsSet)
    for obj in _index_targets(pairs):
        for action in oracles.ACTIONS:
            expected = oracles.naive_rights_match(pairs, action, obj)
            for asserted in (kept, frozenset(rights(*pairs))):
                decision = decide(EVERYTHING, CAS, asserted, ALICE, action, obj)
                assert decision.allow == expected, (action, obj)
                assert decision.stage == (None if expected else "vo_user")


def test_decide_never_iterates_a_warm_indexed_set():
    """Once indexed, a set of 1,000 rights answers without being walked: no
    iteration, hit or miss."""
    walks = []

    class Watched(RightsSet):
        __slots__ = ()

        def __iter__(self):
            walks.append(1)
            return super().__iter__()

    rnd = random.Random(19)
    pairs = []
    for i in range(1000):
        path = "vo://" + "/".join(["esg", *rnd.choices(VOCAB, k=rnd.randrange(3)), f"n{i}"])
        pairs.append((rnd.choice(oracles.ACTIONS), path + "/**" if i % 2 else path))
    asserted = Watched(rights(*pairs))
    assert len(asserted) == 1000
    site = fixture_site()
    requests = _random_requests(rnd, 100) + [
        (action, path.removesuffix("/**") + "/leaf") for action, path in rnd.sample(pairs, 100)]
    expected = [decide(site, CAS, asserted, ALICE, a, o) for a, o in requests]
    assert walks == [1]
    walks.clear()
    assert [decide(site, CAS, asserted, ALICE, a, o) for a, o in requests] == expected
    assert {d.stage for d in expected} >= {None, "vo_user"}
    assert not walks


def test_threads_share_a_set_while_it_is_indexed():
    """Threads that decide on one new set at once all see a whole index: a
    thread never answers from one that another is still building."""
    site = fixture_site()
    filler = [("write", f"vo://esg/data/f{i}/**") for i in range(2000)]
    wrong, ready = [], threading.Barrier(6)

    def worker(asserted):
        ready.wait(timeout=30)
        for obj in ("vo://esg/data/x", "vo://esg/data/public/a/b"):
            if not decide(site, CAS, asserted, ALICE, "read", obj).allow:
                wrong.append(obj)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            asserted = RightsSet(rights(*filler, ("read", "vo://esg/data/x"),
                                        ("read", "vo://esg/data/public/**")))
            threads = [threading.Thread(target=worker, args=(asserted,)) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not wrong


def test_right_from_every_path_is_the_same_value(world, tmp_path):
    action, obj = "read", "vo://esg/data/public/**"
    direct = Right(action, obj)
    from_list = next(iter(rights_from_list([{"action": action, "object": obj}])))
    intersected = next(iter(intersect_rights(
        rights((action, "vo://esg/data/**")), rights((action, obj), ("write", "vo://esg/**")))))
    save_database(world.db, tmp_path / "db.json")
    loaded = next(r for r in load_database(tmp_path / "db.json").grants[BOB] if r == direct)
    assertion = issue_assertion(world.db, world.cas.keys, CAS, BOB, lifetime=600, now=NOW)
    (from_assertion,) = assertion_from_map(assertion_to_map(assertion)).rights
    built = [direct, from_list, intersected, loaded, from_assertion]
    other = Right("read", "vo://esg/data/**")
    for right in built:
        assert right == direct and hash(right) == hash(direct)
        assert repr(right) == "Right(action='read', object='vo://esg/data/public/**')"
        assert (right.scheme, right.segments, right.wildcard) == \
            ("vo", ("esg", "data", "public"), True)
        assert sorted([right, other]) == [other, right]
        assert rights_to_list([right, other]) == [
            {"action": "read", "object": "vo://esg/data/**"},
            {"action": "read", "object": "vo://esg/data/public/**"},
        ]
    assert len(set(built)) == 1


def test_rights_sort_by_action_then_object():
    pairs = [("write", "vo://a/**"), ("read", "vo://b"), ("read", "vo://a/b"),
             ("list", "vo://z/**")]
    listed = rights_to_list(rights(*pairs))
    assert [(d["action"], d["object"]) for d in listed] == sorted(pairs)
    assert listed == [{"action": r.action, "object": r.object} for r in sorted(rights(*pairs))]


@pytest.mark.parametrize("obj", [
    5, None, 1.5, b"vo://esg/x", ["vo://esg/x"], {"vo": "x"}, ("vo", "x"),
    "", "vo://", "vo:/x", "VO://x", "vo://a//b", "vo://a/", "vo://**/x", "vo://a/**/**", "//x",
])
def test_bad_object_raises_a_domain_error_at_construction(obj):
    with pytest.raises(MalformedPattern):
        Right("read", obj)
    with pytest.raises(MalformedMessage):
        rights_from_list([{"action": "read", "object": obj}])


@pytest.mark.parametrize("action", [None, 5, ["read"], {"read": 1}, "browse", "READ", b"read"])
def test_bad_action_raises_a_domain_error_at_construction(action):
    with pytest.raises(MalformedMessage):
        Right(action, "vo://esg/x")
    with pytest.raises(MalformedMessage):
        rights_from_list([{"action": action, "object": "vo://esg/x"}])


def test_decide_rejects_a_malformed_request_object(site):
    for obj in ("vo://esg/data/**", "no-scheme", 7, ["vo://esg/x"]):
        with pytest.raises(MalformedPattern):
            decide(site, CAS, rights(("read", "vo://esg/**")), ALICE, "read", obj)


# --- admin meta-policy ----------------------------------------------------------------

def test_admin_grant_inside_namespace(db):
    new = apply_admin(db, ANN, {
        "op": "grant", "subject": BOB, "action": "write",
        "object": "vo://esg/data/public/**",
    })
    assert new.revision == db.revision + 1
    assert Right("write", "vo://esg/data/public/**") in user_rights(new, BOB)
    assert user_rights(db, BOB) == rights(("read", "vo://esg/data/public/**"))  # old unchanged


def test_admin_grant_outside_namespace(db):
    with pytest.raises(NotAuthorized):
        apply_admin(db, ANN, {
            "op": "grant", "subject": BOB, "action": "write",
            "object": "vo://esg/data/private/**",
        })


def test_plain_member_holds_no_capability(db):
    with pytest.raises(NotAuthorized):
        apply_admin(db, BOB, {"op": "add_to_group", "group": "publishers", "identity": BOB})


def test_owner_holds_every_capability(db):
    new = apply_admin(db, OWNER, {"op": "add_member", "identity": "/VO=esg/CN=dave"})
    new = apply_admin(new, OWNER, {"op": "create_group", "group": "ops"})
    new = apply_admin(new, OWNER, {
        "op": "add_capability",
        "capability": {"admin": ALICE, "powers": ["manage_membership"]},
    })
    assert new.revision == db.revision + 3
    # the delegated capability works, but not for add_capability
    newer = apply_admin(new, ALICE, {"op": "add_member", "identity": "/VO=esg/CN=eve"})
    assert newer.revision == new.revision + 1
    with pytest.raises(NotAuthorized):
        apply_admin(new, ALICE, {
            "op": "add_capability",
            "capability": {"admin": BOB, "powers": ["manage_membership"]},
        })


def test_grant_to_unknown_subject(db):
    with pytest.raises(UnknownSubject):
        apply_admin(db, OWNER, {
            "op": "grant", "subject": CAROL, "action": "read",
            "object": "vo://esg/data/**",
        })
    with pytest.raises(UnknownSubject):
        apply_admin(db, OWNER, {
            "op": "grant", "subject": "nosuchgroup", "action": "read",
            "object": "vo://esg/data/**",
        })


def test_duplicate_group(db):
    with pytest.raises(DuplicateGroup):
        apply_admin(db, OWNER, {"op": "create_group", "group": "publishers"})


def test_remove_member_cascades(db):
    new = apply_admin(db, OWNER, {"op": "remove_member", "identity": ALICE})
    assert ALICE not in new.members
    assert ALICE not in new.groups["publishers"].members
    assert user_rights(new, ALICE) == frozenset()


def test_failed_admin_leaves_revision_unchanged(db):
    for bad in [
        (BOB, {"op": "add_member", "identity": "/VO=esg/CN=zed"}),
        (ANN, {"op": "grant", "subject": BOB, "action": "read", "object": "vo://esg/code/**"}),
        (OWNER, {"op": "create_group", "group": "publishers"}),
    ]:
        with pytest.raises((NotAuthorized, DuplicateGroup)):
            apply_admin(db, bad[0], bad[1])
    assert db.revision == fixture_db().revision


def test_group_capability_is_scoped_to_named_groups(db):
    with_cap = apply_admin(db, OWNER, {
        "op": "add_capability",
        "capability": {"admin": ANN, "powers": ["manage_group"], "groups": ["publishers"]},
    })
    new = apply_admin(with_cap, ANN, {
        "op": "add_to_group", "group": "publishers", "identity": BOB,
    })
    assert BOB in new.groups["publishers"].members
    other = apply_admin(with_cap, OWNER, {"op": "create_group", "group": "ops"})
    with pytest.raises(NotAuthorized):
        apply_admin(other, ANN, {"op": "add_to_group", "group": "ops", "identity": BOB})


admin_cmds = st.sampled_from([
    {"op": "grant", "subject": BOB, "action": "write", "object": "vo://esg/data/public/**"},
    {"op": "grant", "subject": "publishers", "action": "list", "object": "vo://esg/data/**"},
    {"op": "revoke", "subject": BOB, "action": "read", "object": "vo://esg/data/public/**"},
    {"op": "add_member", "identity": CAROL},
    {"op": "remove_member", "identity": BOB},
    {"op": "create_group", "group": "ops"},
    {"op": "add_to_group", "group": "publishers", "identity": BOB},
    {"op": "remove_from_group", "group": "publishers", "identity": ALICE},
])


@given(cmd=admin_cmds, admin=st.sampled_from([ALICE, BOB, CAROL, ANN, OWNER]))
@settings(max_examples=120)
def test_admin_closure(cmd, admin):
    """Either the revision bumps by one, or nothing changed at all."""
    db = fixture_db()
    before = db_to_map(db)
    try:
        new = apply_admin(db, admin, cmd)
    except (NotAuthorized, UnknownSubject, DuplicateGroup):
        assert db_to_map(db) == before
        return
    assert new.revision == db.revision + 1
    assert db_to_map(db) == before


@given(
    subject=st.sampled_from([ALICE, BOB, ANN, "publishers"]),
    action=st.sampled_from(sorted(oracles.ACTIONS)),
    pattern=st.sampled_from(["vo://esg/data/**", "vo://esg/code/**", "vo://esg/data/x"]),
)
@settings(max_examples=60)
def test_user_rights_grow_under_a_single_grant(subject, action, pattern):
    db = fixture_db()
    new = apply_admin(db, OWNER, {
        "op": "grant", "subject": subject, "action": action, "object": pattern,
    })
    for who in [ALICE, BOB, ANN, CAROL]:
        assert rights_covers(user_rights(new, who), user_rights(db, who))


@given(cmd=admin_cmds)
@settings(max_examples=60)
def test_grant_monotonicity(cmd):
    """Grants never shrink anyone's decisions; revokes never grow them."""
    db = fixture_db()
    site = fixture_site()
    try:
        new = apply_admin(db, OWNER, cmd)
    except (NotAuthorized, UnknownSubject, DuplicateGroup):
        return
    for user, action, obj in oracles.universe():
        old_allow = decide(site, CAS, user_rights(db, user), user, action, obj).allow
        new_allow = decide(site, CAS, user_rights(new, user), user, action, obj).allow
        if cmd["op"] == "grant":
            assert new_allow or not old_allow
        elif cmd["op"] == "revoke":
            assert old_allow or not new_allow


# Identities JSON escapes (a quote, a backslash, control characters) or
# writes as multi-byte UTF-8, two of which (U+FF5A and U+1D518) sort one way
# by code point and UTF-8 byte and the other way by UTF-16 unit; group names
# are ASCII, so two of them sort among the others by case and underscore.
AWKWARD = ['/VO=esg/CN=qu"ote', "/VO=esg/CN=back\\slash", "/VO=esg/CN=tab\tbell\x07",
           "/VO=esg/CN=\u00e9", "/VO=esg/CN=\uff5a", "/VO=esg/CN=\U0001d518"]
IDENTITIES = [ALICE, BOB, CAROL, ANN, "/VO=esg/CN=dave", *AWKWARD]
GROUP_NAMES = ["publishers", "ops", "readers", "Z9", "_ops"]
random_admin_cmds = st.one_of(
    st.builds(lambda op, who: {"op": op, "identity": who},
              st.sampled_from(["add_member", "remove_member"]), st.sampled_from(IDENTITIES)),
    st.builds(lambda name: {"op": "create_group", "group": name}, st.sampled_from(GROUP_NAMES)),
    st.builds(lambda op, name, who: {"op": op, "group": name, "identity": who},
              st.sampled_from(["add_to_group", "remove_from_group"]),
              st.sampled_from(GROUP_NAMES), st.sampled_from(IDENTITIES)),
    st.builds(lambda op, subject, action, obj: {"op": op, "subject": subject,
                                                "action": action, "object": obj},
              st.sampled_from(["grant", "revoke"]), st.sampled_from(IDENTITIES + GROUP_NAMES),
              st.sampled_from(sorted(oracles.ACTIONS)),
              st.sampled_from(["vo://esg/data/**", "vo://esg/code/**", "vo://esg/data/x"])),
)


@given(cmds=st.lists(random_admin_cmds, max_size=25))
@settings(max_examples=80)
def test_member_groups_index_agrees_with_a_scan(cmds):
    """After any admin sequence, ``groups_of`` and ``user_rights`` equal a
    scan of every group, for every identity and for one never seen."""
    db = fixture_db()
    for cmd in cmds:
        try:
            db = apply_admin(db, OWNER, cmd)
        except (UnknownSubject, DuplicateGroup):
            pass
    for who in IDENTITIES + [OWNER, "/VO=esg/CN=stranger"]:
        groups = frozenset(name for name, g in db.groups.items() if who in g.members)
        expected = set()
        if who in db.members:
            for subject in [who, *groups]:
                expected |= db.grants.get(subject, frozenset())
        assert db.groups_of(who) == groups
        assert user_rights(db, who) == expected


# Namespaces every carried listing is checked in: the whole tree, a subtree,
# and one no grant below ever falls under.
LISTED = ["vo://esg/**", "vo://esg/data/**", "vo://elsewhere/**"]
ADMINS = [OWNER, OWNER, ANN, BOB]
CAPABILITIES = [
    {"admin": BOB, "powers": ["manage_membership"]},
    {"admin": ANN, "powers": ["manage_group"], "groups": ["publishers", "ops"]},
    {"admin": BOB, "powers": ["grant", "revoke"], "namespace": "vo://esg/code/**"},
]
carried_admin_cmds = st.one_of(
    random_admin_cmds,
    st.builds(lambda cap: {"op": "add_capability", "capability": cap},
              st.sampled_from(CAPABILITIES)),
    st.builds(lambda op, subject, action, obj: {"op": op, "subject": subject,
                                                "action": action, "object": obj},
              st.sampled_from(["grant", "revoke"]), st.sampled_from(IDENTITIES + GROUP_NAMES),
              st.sampled_from(sorted(oracles.ACTIONS)),
              st.sampled_from(["vo://esg/data/public/**", "vo://esg/data/public/y",
                               "vo://esg/**", "vo://esg/code/z"])),
)


def _listing_bytes(db, namespace):
    """The joined bytes of ``namespace``'s listing, after checking that they
    are ``canonical_json`` of the listing built from ``db``'s fields alone."""
    joined = b"".join(scoped_listing(db, namespace).chunks)
    assert joined == canonical_json(listing_to_map(db, namespace))
    return joined


def _awkward_db():
    """The fixture database with every awkward identity a member of
    ``publishers``, so each is listed, and a direct grant to every other."""
    db = fixture_db()
    for i, who in enumerate(AWKWARD):
        db = apply_admin(db, OWNER, {"op": "add_member", "identity": who})
        db = apply_admin(db, OWNER, {"op": "add_to_group", "group": "publishers",
                                     "identity": who})
        if i % 2:
            db = apply_admin(db, OWNER, {"op": "grant", "subject": who, "action": "list",
                                         "object": "vo://esg/data/**"})
    return db


@given(steps=st.lists(st.tuples(st.sampled_from(ADMINS), carried_admin_cmds), max_size=30))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_carried_state_equals_a_rebuild(steps):
    """After every command, refused and failing ones included, the database
    ``apply_admin`` carried forward equals one rebuilt from its document:
    same bytes, same rights, byte-equal listings and the same sorted
    members, which are carried unless members change; and the joined bytes
    of the database and of each listing equal ``canonical_json`` of the same
    document. Before each command one namespace of ``LISTED``, in rotation,
    is listed, and it is checked first after the command, so its carried
    entries are used."""
    db = _awkward_db()
    for step, (admin, cmd) in enumerate(steps):
        listed = LISTED[step % len(LISTED)]
        _listing_bytes(db, listed)
        db_canonical_bytes(db)
        try:
            db = apply_admin(db, admin, cmd)
        except (NotAuthorized, UnknownSubject, DuplicateGroup):
            pass
        assert db._derived.sorted_members == tuple(sorted(db.members))
        rebuilt = db_from_map(db_to_map(db))
        assert db_canonical_bytes(db) == canonical_json(db_to_map(db))
        assert db_canonical_bytes(db) == db_canonical_bytes(rebuilt)
        assert db._derived.grant_fragments.keys() <= db.grants.keys()
        for who in db.members | set(IDENTITIES):
            assert user_rights(db, who) == user_rights(rebuilt, who)
        for namespace in [listed, *(n for n in LISTED if n != listed)]:
            assert _listing_bytes(db, namespace) == _listing_bytes(rebuilt, namespace)


def test_listing_memo_keeps_the_namespace_listed_last():
    """The memo holds the entries of one namespace, the one listed last, and
    a listing after each switch of namespace equals a rebuild."""
    db = fixture_db()
    for namespace in ["vo://esg/data/**", "vo://esg/**", "vo://esg/data/**"]:
        assert _listing_bytes(db, namespace) == \
            _listing_bytes(db_from_map(db_to_map(db)), namespace)
        listed, entries = db._derived.listing
        assert listed == namespace
        assert entries.keys() == db.members


# --- persistence ------------------------------------------------------------------------

def test_database_file_round_trip(tmp_path, db):
    path = tmp_path / "db.json"
    save_database(db, path)
    loaded = load_database(path)
    assert loaded == db
    assert db_canonical_bytes(loaded) == db_canonical_bytes(db)
    save_database(loaded, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_database_load_rejects_invariant_violations(db):
    doc = db_to_map(db)
    doc["grants"]["/VO=esg/CN=ghost"] = [{"action": "read", "object": "vo://esg/x"}]
    with pytest.raises(MalformedMessage):
        db_from_map(doc)
    doc = db_to_map(db)
    doc["revision"] = -1
    with pytest.raises(MalformedMessage):
        db_from_map(doc)
    doc = db_to_map(db)
    del doc["owner"]
    with pytest.raises(MalformedMessage):
        db_from_map(doc)


def test_site_round_trip_and_invariants(site):
    assert site_from_map(site_to_map(site)) == site
    doc = site_to_map(site)
    doc["site_rights"]["stray"] = []
    with pytest.raises(MalformedMessage):
        site_from_map(doc)
