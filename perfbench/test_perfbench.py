"""Self-tests of the benchmark.  Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import sys
import types
from dataclasses import replace

import layers
import run
import spans
from workloads import WORKLOADS, components, parse, presentation


def test_self_times_on_nested_span_tree():
    tree = [
        ["op", 0.0, 10.0, -1, 0],
        ["a", 1.0, 6.0, 0, 0],
        ["b", 2.0, 3.0, 1, 0],
        ["c", 4.0, 5.5, 1, 0],
        ["d", 7.0, 9.0, 0, 0],
        ["op", 20.0, 21.0, -1, 1],
    ]
    assert spans.self_times(tree) == [3.0, 2.5, 1.0, 1.5, 2.0, 1.0]


def test_self_times_count_overlapping_children_once():
    tree = [["p", 0.0, 4.0, -1, 0], ["x", 1.0, 3.0, 0, 0],
            ["y", 2.0, 3.5, 0, 0]]
    assert spans.self_times(tree)[0] == 1.5


def test_patched_wraps_every_binding_and_restores(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    inner = types.ModuleType("fakepkg.inner")
    outer = types.ModuleType("fakepkg.outer")
    exec("def leaf(n):\n    return n + 1\n", inner.__dict__)
    outer.leaf = inner.leaf  # a ``from .inner import leaf`` binding
    exec("def top(n):\n    return leaf(n) * 2\n", outer.__dict__)
    for name, mod in (("fakepkg", pkg), ("fakepkg.inner", inner),
                      ("fakepkg.outer", outer)):
        monkeypatch.setitem(sys.modules, name, mod)
    seen = []
    rec = spans.Recorder()
    targets = {"inner.leaf": lambda r, args, res: seen.append((args, res)),
               "outer.top": None}
    with spans.patched(rec, "fakepkg", targets), rec.record_op(7):
        assert outer.top(1) == 4
    names = [(s[0], s[3], s[4]) for s in rec.spans]
    assert names == [("op", -1, 7), ("outer.top", 0, 7), ("inner.leaf", 1, 7)]
    assert seen == [({"n": 1}, 2)]
    assert outer.leaf is inner.leaf and not hasattr(inner.leaf, "__wrapped__")


def test_tail_keeps_ten_samples_beyond():
    xs = [float(i) for i in range(1, 21)]
    value, note = run.tail(xs)
    assert value == 10.0 and sum(x > value for x in xs) == 10
    assert run.tail([3.0, 1.0])[0] == 3.0


def test_presentations_keep_the_link():
    for w in WORKLOADS.values():
        quads, rev = parse(w.pd)
        comps = components(quads)
        texts = set()
        for seed in range(20):
            text, relabel = presentation(w.pd, seed)
            assert presentation(w.pd, seed)[0] == text
            texts.add(text)
            new_quads, new_rev = parse(text)
            new_comps = components(new_quads)
            assert ({frozenset(relabel[a] for a in comps[i]) for i in rev}
                    == {new_comps[i] for i in new_rev})
            run.setup(w, seed)  # raises if a crossing sign changed
        assert len(texts) == 20


def test_traced_stdout_is_byte_identical_to_untraced():
    _, bench = run.setup(WORKLOADS["knot-9_42"], 11)
    argv = bench.workload.argv(bench.text)
    rec = spans.Recorder()
    with spans.patched(rec, "khs", layers.targets()), rec.record_op(0):
        traced = run.run_op(bench.cli, argv)
    plain = run.run_op(bench.cli, argv)
    assert traced[0] == plain[0] == 0
    assert traced[1] == plain[1]
    m = layers.per_op(rec)[0]
    assert m["cube.build_complex.calls"] == 7
    assert m["cube.build_complex.distinct_ratio"] == 2 / 7
    assert m["linalg.q_solve.calls"] == m["linalg.q_nullspace.calls"] == 0
    import khs.complexes
    import khs.refined_s
    assert khs.refined_s.filtered_reduce is khs.complexes.filtered_reduce
    assert not hasattr(khs.complexes.filtered_reduce, "__wrapped__")


def test_wrong_expected_value_is_a_counted_failure(capsys):
    wrong = replace(WORKLOADS["knot-9_42"], expected=(2, 2, 2))
    result = run.run(wrong, 4, 0, False)
    assert result["attempted"] == 1 and result["failed"] == 1
    assert result["correct"] is False
    assert result["metrics"]["success_ratio"]["value"] == 0
    assert "expected (2, 2, 2)" in capsys.readouterr().err


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == layers.METRICS
