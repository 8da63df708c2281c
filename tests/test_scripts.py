"""Smoke tests of the example scripts under ``scripts/``."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(*args, stdin=None):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          input=stdin, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_report_9_42():
    # [PAPER] 9_42 has s_plus = 0, which meets the adjunction bound 0.
    lines = run_script("scripts/report_9_42.py")
    assert "char 2, theta sq1: s = 0, r_plus = 0, s_plus = 0" in lines
    assert "adjunction bound: s_plus = 0 <= 0: True" in lines
    assert sum(1 for line in lines
               if line.startswith("certificate ") and
               line.endswith("valid=True")) == 2


def test_torus_table():
    # [PAPER] s_plus of T(n,n)_{p,q} is (p − q)² − 2p + 1 (Prop. 1).
    lines = run_script("scripts/torus_table.py", "2")
    assert lines[0].split()[-2:] == ["s_plus", "formula"]
    rows = [line.split() for line in lines[1:]]
    assert [r[0] for r in rows] == ["T(2,2)_{2,0}", "T(2,2)_{1,1}"]
    assert [(r[-2], r[-1]) for r in rows] == [("1", "1"), ("-1", "-1")]


def test_recheck_certificates():
    # [DERIVED] the certificates that compute prints validate on the link
    # it prints, also when the PD text lists the crossings of a component
    # that never passes under out of sorted order.
    for source in (["--link", "9_42"], ["--pd", "X(4,3,1,2) X(1,3,4,2)"]):
        for field in (["--char", "2", "--theta", "sq1"],
                      ["--char", "0", "--theta", "zero"]):
            out = run_script("-m", "khs", "compute", *source, *field,
                             "--format", "json")
            lines = run_script("scripts/recheck_certificates.py",
                               stdin="\n".join(out))
            assert len(lines) == 2
            assert all(line.endswith("valid=True") for line in lines)
