"""Smoke tests of the example scripts under ``scripts/``."""

import importlib.util
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


def test_bench_pairs_summary():
    # [DERIVED] quartiles, wins and the two rules of scripts/bench_pairs.py
    # on fixed numbers, worked by hand: parent 1..10 s, change 0.5 s less in
    # nine pairs and 0.5 s more in one; ops/s 1 against 0.7 (30 % worse,
    # over a 0.25 bound).
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    parent = [float(t) for t in range(1, 11)]
    change = [t - 0.5 for t in parent[:9]] + [10.5]
    pairs = [{"parent": {"op_s.p50": p, "ops_per_s": 1.0},
              "change": {"op_s.p50": c, "ops_per_s": 0.7 if i else 1.0}}
             for i, (p, c) in enumerate(zip(parent, change))]
    metrics = [{"name": "op_s.p50", "better": "lower", "bound": 0.25},
               {"name": "ops_per_s", "better": "higher", "bound": 0.25}]
    s = mod.summarize(pairs, metrics)
    op = s["op_s.p50"]
    assert (op["parent_q1"], op["parent_median"], op["parent_q3"]) == \
        (3.25, 5.5, 7.75)
    assert (op["change_q1"], op["change_median"], op["change_q3"]) == \
        (2.75, 5.0, 7.25)
    assert (op["wins"], op["ties"], op["pairs"]) == (9, 0, 10)
    # 9/10 wins, but 0.5 s is inside the parent's 4.5 s IQR
    assert not op["gain_rule"] and op["within_bound"]
    ops = s["ops_per_s"]
    assert (ops["wins"], ops["ties"]) == (0, 1)
    assert not ops["gain_rule"] and not ops["within_bound"]
    # one pair: its values are every quartile
    one = mod.summarize(pairs[:1], metrics)["op_s.p50"]
    assert (one["parent_q1"], one["change_q3"], one["wins"]) == (1.0, 0.5, 1)
    assert one["gain_rule"]
