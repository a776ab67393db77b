"""The four command-line clients, run as real subprocesses."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from caslite.credentials import load_chain, save_chain, verify_chain
from caslite.policy import user_rights

from worldlib import ALICE, BOB, CAS, NOW, fixture_db, rights

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*args, expect: int = 0):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-m", "caslite.cli", *map(str, args)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == expect, (result.returncode, result.stdout, result.stderr)
    return result


@pytest.fixture()
def user_files(world, tmp_path):
    paths = world.write_server_files(tmp_path)
    for short in ("alice", "bob", "carol", "admin-ann", "owner"):
        save_chain(
            type(world.cas_chain)(eec=world.eec(short)), tmp_path / f"{short}.eec"
        )
    return tmp_path, paths


def test_proxy_init_writes_a_verifiable_chain(world, user_files):
    tmp, _ = user_files
    out = tmp / "alice.proxy"
    result = run_cli("proxy-init", tmp / "alice.eec", "--hours", "24", "--out", out)
    doc = json.loads(result.stdout)
    assert doc["subject"] == ALICE and doc["links"] == 1
    assert oct(out.stat().st_mode & 0o777) == "0o600"
    chain = load_chain(out)
    verified = verify_chain(chain, world.anchors, NOW + 3600)
    assert verified.subject == ALICE


def test_proxy_init_missing_key_file(world, user_files):
    tmp, _ = user_files
    result = run_cli("proxy-init", tmp / "nope.eec", "--out", tmp / "x.proxy", expect=1)
    assert result.stderr.strip()


def test_proxy_init_zero_hours_is_usage_error(world, user_files):
    tmp, _ = user_files
    run_cli("proxy-init", tmp / "alice.eec", "--hours", "0",
            "--out", tmp / "x.proxy", expect=2)


def test_inspect_truncated_file(world, user_files):
    tmp, _ = user_files
    out = tmp / "alice.proxy"
    run_cli("proxy-init", tmp / "alice.eec", "--hours", "1", "--out", out)
    out.write_text(out.read_text()[: 120])
    run_cli("inspect", out, expect=1)


@pytest.fixture()
def served_world(world, user_files):
    from caslite.server import CasServer, ServerConfig

    tmp, paths = user_files
    server = CasServer(ServerConfig(
        listen=("127.0.0.1", 0), db_path=paths["db"],
        credential_path=paths["key"], anchors_path=paths["anchors"],
    ))
    server.start()
    yield tmp, paths, f"{server.endpoint[0]}:{server.endpoint[1]}"
    server.stop()


def proxy_for(tmp, short):
    out = tmp / f"{short}.proxy"
    run_cli("proxy-init", tmp / f"{short}.eec", "--hours", "12", "--out", out)
    return out


def test_get_cred_assertion_mode(world, served_world):
    tmp, paths, server = served_world
    proxy = proxy_for(tmp, "alice")
    out = tmp / "alice.community"
    result = run_cli("get-cred", "--server", server, "--chain", proxy,
                     "--anchors", paths["anchors"], "--out", out)
    doc = json.loads(result.stdout)
    assert doc["subject"] == ALICE and doc["mode"] == "assertion"
    chain = load_chain(out)
    verified = verify_chain(chain, world.anchors, int(time.time()))
    assert verified.subject == ALICE
    inspected = json.loads(run_cli("inspect", out).stdout)
    assert inspected["assertion"]["subject"] == ALICE
    assert inspected["assertion"]["mode"] == "rights"


def test_get_cred_restricted_mode(world, served_world):
    tmp, paths, server = served_world
    proxy = proxy_for(tmp, "alice")
    out = tmp / "alice.restricted"
    result = run_cli("get-cred", "--server", server, "--chain", proxy,
                     "--anchors", paths["anchors"], "--out", out,
                     "--mode", "restricted")
    doc = json.loads(result.stdout)
    assert doc["subject"] == CAS
    inspected = json.loads(run_cli("inspect", out).stdout)
    assert inspected["subject"] == CAS
    assert inspected["assertion"] is None
    expected = [
        {"action": r.action, "object": r.object}
        for r in sorted(user_rights(fixture_db(), ALICE))
    ]
    assert inspected["effective_restriction"] == expected
    assert inspected["has_private_key"] is True


def test_get_cred_restricted_mode_passes_the_request_on(world, served_world):
    tmp, paths, server = served_world
    out = tmp / "alice.narrow"
    run_cli("get-cred", "--server", server, "--chain", proxy_for(tmp, "alice"),
            "--anchors", paths["anchors"], "--out", out, "--mode", "restricted",
            "--request", "read vo://esg/data/public/**", "--request", "delete vo://esg/**")
    inspected = json.loads(run_cli("inspect", out).stdout)
    assert inspected["effective_restriction"] == [
        {"action": "read", "object": "vo://esg/data/public/**"}]


def test_get_cred_non_member_maps_error_code(world, served_world):
    tmp, paths, server = served_world
    proxy = proxy_for(tmp, "carol")
    result = run_cli("get-cred", "--server", server, "--chain", proxy,
                     "--anchors", paths["anchors"], "--out", tmp / "x",
                     expect=1)
    assert result.stdout.strip() == "NotAMember"
    assert "NotAMember" in result.stderr


def test_get_cred_requested_narrowing(world, served_world):
    tmp, paths, server = served_world
    proxy = proxy_for(tmp, "alice")
    out = tmp / "alice.narrow"
    run_cli("get-cred", "--server", server, "--chain", proxy,
            "--anchors", paths["anchors"], "--out", out,
            "--request", "read vo://esg/data/**")
    inspected = json.loads(run_cli("inspect", out).stdout)
    assert inspected["assertion"]["rights"] == [
        {"action": "read", "object": "vo://esg/data/**"}
    ]


def test_get_cred_malformed_request_is_usage_error(world, served_world):
    tmp, paths, server = served_world
    proxy = proxy_for(tmp, "alice")
    run_cli("get-cred", "--server", server, "--chain", proxy,
            "--anchors", paths["anchors"], "--out", tmp / "x",
            "--request", "read-without-pattern", expect=2)


def test_admin_grant_and_capability_denial(world, served_world):
    tmp, paths, server = served_world
    ann = proxy_for(tmp, "admin-ann")
    bob = proxy_for(tmp, "bob")
    result = run_cli("admin", "--server", server, "--chain", ann,
                     "grant", BOB, "write", "vo://esg/data/public/**")
    assert json.loads(result.stdout) == {"revision": 2}
    result = run_cli("admin", "--server", server, "--chain", bob,
                     "grant", BOB, "write", "vo://esg/data/public/**", expect=1)
    assert result.stdout.strip() == "NotAuthorized"


def test_every_admin_subcommand_is_applied(served_world, capsys):
    from caslite.cli import admin_main

    tmp, paths, server = served_world
    owner = ["--server", server, "--chain", str(proxy_for(tmp, "owner"))]
    dave = "/VO=esg/CN=dave"
    steps = [
        ["add-member", dave],
        ["create-group", "readers"],
        ["add-to-group", "readers", dave],
        ["grant", "readers", "read", "vo://esg/data/**"],
        ["revoke", "readers", "read", "vo://esg/data/**"],
        ["remove-from-group", "readers", dave],
        ["remove-member", dave],
        ["add-capability", "--admin", BOB, "--powers", "manage_group", "--groups", "readers"],
    ]
    for revision, step in enumerate(steps, start=2):
        assert admin_main(owner + step) == 0, step
        assert json.loads(capsys.readouterr().out) == {"revision": revision}


def test_admin_membership_round_trip(world, served_world):
    tmp, paths, server = served_world
    owner = proxy_for(tmp, "owner")
    dave = "/VO=esg/CN=dave"
    run_cli("admin", "--server", server, "--chain", owner, "add-member", dave)
    # dave can now fetch credentials once he has an identity chain
    from caslite.credentials import CredentialChain, issue_eec

    dave_eec = issue_eec(world.ca, dave, (NOW - 60, NOW + 86400 * 30))
    save_chain(CredentialChain(eec=dave_eec), tmp / "dave.eec")
    proxy = proxy_for(tmp, "dave")
    out = tmp / "dave.community"
    run_cli("get-cred", "--server", server, "--chain", proxy,
            "--anchors", paths["anchors"], "--out", out)
    inspected = json.loads(run_cli("inspect", out).stdout)
    assert inspected["assertion"]["subject"] == dave
    assert inspected["assertion"]["rights"] == []  # member, no grants yet
