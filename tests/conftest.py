from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from worldlib import make_world  # noqa: E402


@pytest.fixture(scope="session")
def world():
    return make_world()


@pytest.fixture
def ed25519_checks(monkeypatch):
    """Count the Ed25519 signature checks actually run."""
    from caslite import keys

    calls = []
    real = keys.Ed25519PublicKey

    class Counting:
        @staticmethod
        def from_public_bytes(data):
            calls.append(data)
            return real.from_public_bytes(data)

    monkeypatch.setattr(keys, "Ed25519PublicKey", Counting)
    return calls


@pytest.fixture
def cas_server(world, tmp_path):
    from caslite.server import CasServer, ServerConfig

    paths = world.write_server_files(tmp_path)
    server = CasServer(ServerConfig(
        listen=("127.0.0.1", 0),
        db_path=paths["db"],
        credential_path=paths["key"],
        anchors_path=paths["anchors"],
    ))
    server.start()
    yield server
    server.stop()
