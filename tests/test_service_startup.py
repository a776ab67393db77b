"""Start-up failures of the four services: a bad file or a listen address in
use ends a service's ``main()`` with one ``error:`` line and exit code 1,
never a traceback."""

from __future__ import annotations

import argparse
import errno
import json
import os
import signal
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from caslite import authz, cache, server, vault, wire
from caslite.credentials import save_chain

from worldlib import forged_link_chain

SRC = Path(__file__).resolve().parent.parent / "src"
START_LIMIT = 10.0


@pytest.fixture()
def files(world, tmp_path):
    """The services' good files, and bad ones beside them."""
    paths = world.write_server_files(tmp_path)
    paths["bad_chain"] = tmp_path / "bad.chain"
    paths["bad_chain"].write_bytes(b"\xff")
    paths["bad_base64"] = tmp_path / "bad_base64.chain"
    paths["bad_base64"].write_text("-----BEGIN CASLITE CHAIN-----\n!!\n-----END CASLITE CHAIN-----\n")
    paths["not_json"] = tmp_path / "not.json"
    paths["not_json"].write_text('{"x":')
    for name, text in {"subs": "[]", "subs_not_json": '{"x":', "subs_not_list": '{"x": 1}'}.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(text)
    paths["missing"] = tmp_path / "nope.json"
    paths["audit"] = tmp_path / "audit.log"
    paths["audit_in_missing_dir"] = tmp_path / "missing" / "audit.log"
    paths["forged_key"] = tmp_path / "forged.chain"
    save_chain(forged_link_chain(world.cas), paths["forged_key"])
    paths.update(namespace="vo://esg/**", no_scheme="nonsense", mode="push", pull="pull")
    paths["groups"] = tmp_path / "groups.json"
    paths["groups"].write_text("{}")
    # Flags that a push vault, or a pull vault, never reads.
    paths.update(extra=[], namespace_flag=["--pull-namespace", "vo://esg/**"],
                 source_flag=["--pull-source", "127.0.0.1:1"],
                 chain_flag=["--chain", paths["cas_public"]],
                 groups_flag=["--groups", paths["groups"]])
    paths.update(lifetime=3600, lifetime_0=0, lifetime_86401=86401)
    # A decision service's pull source: a closed port by default, or none.
    paths.update(source="closed", no_source=None, empty_source_flag=["--pull-source", ""])
    return paths


@pytest.fixture()
def bound():
    """A listening socket, whose address no service can bind."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        sock.listen()
        yield "%s:%d" % sock.getsockname()


@pytest.fixture()
def sigterm():
    """Restore the SIGTERM handler that ``run_service`` installs. A service
    that starts when it should have refused gets a SIGTERM after
    ``START_LIMIT`` seconds, so it returns 0 rather than serving forever."""
    saved = signal.signal(signal.SIGTERM, lambda *_: None)
    timer = threading.Timer(START_LIMIT, os.kill, (os.getpid(), signal.SIGTERM))
    timer.start()
    yield
    timer.cancel()
    signal.signal(signal.SIGTERM, saved)


def _closed_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _argv(service: str, p: dict, listen: str, **bad) -> list:
    """A full command line for ``service``, with ``bad`` files or values in
    place of good ones."""
    p = {**p, **{flag: p[name] for flag, name in bad.items()}}
    if service == "server":
        return ["--listen", listen, "--db", p["db"], "--key", p["key"], "--anchors", p["anchors"],
                "--default-lifetime", p["lifetime"], "--audit", p["audit"]]
    if service == "cache":
        return ["--listen", listen, "--authority", f"127.0.0.1:{_closed_port()}",
                "--refresh", 1, "--max-age", 30, "--subscriptions", p["subs"]]
    argv = ["--listen", listen, "--site", p["site"], "--cas-key", p["cas_public"], *p["extra"]]
    if (service == "authz" and p["source"] is not None) or p["mode"] == "pull":
        source = f"127.0.0.1:{_closed_port()}" if p["source"] == "closed" else p["source"]
        argv += ["--pull-source", source, "--pull-namespace", p["namespace"]]
    return argv + (["--mode", p["mode"], "--anchors", p["anchors"]] if service == "vault" else [])


MAINS = {"server": server.main, "cache": cache.main, "vault": vault.main, "authz": authz.main}

CASES = [
    ("vault", {"cas_public": "bad_chain"}, "bad.chain is not UTF-8 text"),
    ("authz", {"cas_public": "bad_chain"}, "bad.chain is not UTF-8 text"),
    ("cache", {"subs": "subs_not_json"}, "subs_not_json.json is not a JSON document"),
    ("cache", {"subs": "subs_not_list"}, "subscriptions must be a list"),
    ("server", {"db": "missing"}, "No such file or directory"),
    ("server", {"db": "not_json"}, "not.json: not a JSON document"),
    ("vault", {"site": "not_json"}, "not.json: not a JSON document"),
    ("server", {"key": "cas_public"}, "server credential file lacks a private key"),
    ("vault", {"anchors": "bad_base64"}, "bad base64 in CHAIN block"),
    ("server", {"lifetime": "lifetime_0"}, "lifetime must be positive"),
    ("server", {"lifetime": "lifetime_86401"}, "lifetime 86401s exceeds the 86400s maximum"),
    ("server", {"audit": "audit_in_missing_dir"}, "No such file or directory"),
    ("server", {"key": "forged_key"}, "link 1 signature does not verify"),
    ("authz", {"namespace": "no_scheme"}, "pattern 'nonsense' lacks a scheme:// prefix"),
    ("authz", {"source": "no_source", "extra": "chain_flag"}, "client_chain needs a pull_source"),
    ("authz", {"source": "no_source", "extra": "empty_source_flag"},
     "endpoint must be HOST:PORT, got ''"),
    ("vault", {"mode": "pull", "namespace": "no_scheme"},
     "pattern 'nonsense' lacks a scheme:// prefix"),
    ("vault", {"extra": "namespace_flag"}, "--pull-namespace needs a --pull-source"),
    ("vault", {"extra": "source_flag"}, "push mode takes no pull_source"),
    ("vault", {"extra": "chain_flag"}, "push mode takes no client_chain"),
    ("vault", {"mode": "pull", "extra": "groups_flag"}, "pull mode takes no group_rights"),
]


@pytest.mark.parametrize("service, bad, message", CASES,
                         ids=[f"{s}-{'-'.join(b.values())}" for s, b, _ in CASES])
def test_a_bad_file_ends_a_service_in_one_error_line(files, sigterm, capsys,
                                                     service, bad, message):
    code = MAINS[service](list(map(str, _argv(service, files, "127.0.0.1:0", **bad))))
    err = capsys.readouterr().err
    assert code == 1
    assert err.splitlines()[-1].startswith("error: ") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("service", MAINS)
def test_a_listen_address_in_use_ends_a_service_in_one_error_line(files, bound, sigterm,
                                                                  capsys, service):
    assert MAINS[service](list(map(str, _argv(service, files, bound)))) == 1
    err = capsys.readouterr().err
    in_use = errno.EADDRINUSE
    assert err.splitlines()[-1] == f"error: [Errno {in_use}] {os.strerror(in_use)}"
    assert "Traceback" not in err


def test_a_mirror_run_as_a_process_logs_its_failed_fetch_then_one_error_line(files, bound):
    """As a process, the mirror's failed first fetch is logged to stderr
    before the bind fails, so the error is the last line, not the only one."""
    files["subs"].write_text(json.dumps([{"query": "user_rights", "subject": "/CN=a"}]))
    result = subprocess.run(
        [sys.executable, "-m", "caslite.cache", *map(str, _argv("cache", files, bound))],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=str(SRC)))
    lines = result.stderr.splitlines()
    assert result.returncode == 1, result.stderr
    assert "initial fetch failed" in lines[0]
    assert lines[-1].startswith("error: ") and "Address already in use" in lines[-1]
    assert "Traceback" not in result.stderr


def test_a_sigterm_during_the_build_stops_the_service_with_exit_0(sigterm):
    """The SIGTERM handler is in place before the build, so a SIGTERM that
    arrives while the service loads its files is not lost: the service
    starts, stops at once, and exits 0."""
    calls = []

    class Server:
        def start(self):
            calls.append("start")

        def stop(self):
            calls.append("stop")

    def build(args, listen):
        os.kill(os.getpid(), signal.SIGTERM)
        return Server()

    code = wire.run_service(argparse.ArgumentParser(), build, ["--listen", "127.0.0.1:0"])
    assert code == 0 and calls == ["start", "stop"]
