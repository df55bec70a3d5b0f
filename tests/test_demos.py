import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: sha256 of each demo's stdout: a change to the library that moves any
#: printed figure shows here.
STDOUT_SHA256 = {
    "accuracy_auction_demo.py":
        "5517cce53a19765b061c5afb7f897d12d2409c94a4a2fdc6574ed0fe6d33dc39",
    "budget_auction_demo.py":
        "bb756376e134235723356d6af857d3f9e3800a5977fe57c5e77bd2279fc5ca60",
    "selection_bias_demo.py":
        "410f84c447802087b91a5e745b6ebd6c02f85815412222982a5aa12ce522250d",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", sorted(STDOUT_SHA256))
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT,
                          env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr == b""
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo]
