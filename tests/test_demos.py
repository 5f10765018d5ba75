"""Every script under demos/ runs to completion: exit 0, nothing on stderr.

Each demo runs in a fresh interpreter from a temporary working directory,
with only src/ on its path, the way the README tells a reader to run it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs_cleanly(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout


def test_central_elements_demo_specializes_the_generic_block(tmp_path):
    """demos/02 prints the generic r and d² = det M, det M at a = q±(u)
    of seed 42 equal to f±, and d₋ = σ(d₊) with d₋² = σ(det M)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / "02_central_elements.py")],
                          capture_output=True, text=True, env=env, cwd=tmp_path,
                          timeout=120)
    lines = [ln.strip() for ln in proc.stdout.splitlines()]
    assert ["r1 = a23", "r2 = -1*a13", "r3 = a12"] == lines[1:4]
    assert "d^2 == det M: True | sign: 1" in lines
    for side in ("plus", "minus"):
        assert f"seed 42, a = q_{side}(u): det M == f_{side}: True" in lines
    # d₋ is σ(d₊) on the minus generators, σ: a ↔ b
    assert ("d- = sigma(d+): (b23)*v1- + (-1*b13)*v2- + (b12)*v3- + (1)*v1-v2-v3-"
            in lines)
    assert "d-^2 == sigma(det M): True" in lines
