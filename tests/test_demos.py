"""The fast demos under ``scripts/`` run to the end and narrate what the
README says they do. ``cache_outage_demo.py`` waits out real refresh
intervals, so it is left to be run by hand."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from caslite.policy import load_database, load_site

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_demo(name: str, *args: str, tmp_path: Path) -> list:
    """Run ``scripts/<name>`` with its temporary files under ``tmp_path``;
    returns its output lines once it exits 0."""
    done = subprocess.run([sys.executable, str(SCRIPTS / name), *args], capture_output=True,
                          text=True, timeout=60, env={**os.environ, "TMPDIR": str(tmp_path)})
    assert done.returncode == 0, done.stderr
    return [line.strip() for line in done.stdout.splitlines()]


def test_push_flow_demo_narrates_its_allows_and_denials(tmp_path):
    lines = run_demo("demo_push_flow.py", tmp_path=tmp_path)
    for expected in (
        "wrote and read back b'demo bytes'",
        "bob write -> Denied: stage=vo_user: no asserted community right matches write on "
        "vo://esg/data/public/demo.nc",
        "carol get-credential -> NotAMember: /VO=esg/CN=carol is not a member of esg",
        "chain subject is /VO=esg/CN=cas; the resource never sees alice",
        "read under the restricted chain -> allow=True",
    ):
        assert expected in lines
    assert lines[-1] == "done"
    assert [p.name for p in tmp_path.iterdir()][0].startswith("caslite-demo-")


def test_demo_world_is_written_where_asked(tmp_path):
    out = tmp_path / "demo"
    lines = run_demo("make_demo_world.py", str(out), tmp_path=tmp_path)
    assert lines[0] == f"demo world written to {out}/"
    assert lines[1] == "community: esg (members alice, bob, admin-ann; carol blacklisted)"
    assert load_database(out / "db.json").vo_name == "esg"
    assert load_site(out / "site.json").blacklist == frozenset({"/VO=esg/CN=carol"})
    for name in ("alice.eec", "bob.eec", "cas.chain", "cas_public.chain", "anchors.chain",
                 "subscriptions.json"):
        assert (out / name).is_file()
