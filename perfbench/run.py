#!/usr/bin/env python3
"""Benchmark of ``khs compute``, end to end and per layer.

    python3 perfbench/run.py --workload knot-9_42 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

One caller runs ``khs.cli.main`` in this process, op after op, until the
ops have taken ``--seconds`` in total (at least one op).  Every op gets the
seeded presentation of the workload's link as its only input.  The
program's stdout is captured; after each op, outside the timed region, the
benchmark checks the exit code, the (s, r_plus, s_plus) triple, the graded
Euler characteristic of the Kh(Z) table against the Jones polynomial, and
that the stdout is byte-identical to the first correct op's.  A failed check
counts in ``failed`` and the run goes on.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` wraps the
layers listed in ``layers.py`` and reports per-layer metrics; even ops are
traced and odd ops are not, so the two kinds can be compared.  The spans
are written to ``.perfbench/trace-<workload>-seed<seed>.json`` at the
end.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The sources are imported from
``src/`` of the checkout the script sits in; without them it exits 2.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import layers
import spans
from workloads import WORKLOADS, Workload, presentation

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 60

# (name, unit, better) of every end-to-end metric, in report order
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("op_s.p50", "s", "lower"),
    ("op_s.tail", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("success_ratio", "ratio", "higher"),
]


class SetupError(Exception):
    pass


@dataclass
class Bench:
    """A workload ready to run: the imported program and its inputs."""

    workload: Workload
    cli: object
    text: str
    jones: dict[int, int] | None = None


@dataclass
class Op:
    seconds: float
    traced: bool
    problem: str | None


def setup(workload: Workload, seed: int) -> tuple[float, Bench]:
    """Import the program and make the first input; returns the time taken."""
    t0 = perf_counter()
    src = ROOT / "src"
    if not (src / "khs" / "__init__.py").is_file():
        raise SetupError(f"no khs sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import khs.cli
    import khs.links
    if Path(khs.__file__).resolve().parent != src / "khs":
        raise SetupError(f"imported khs from {khs.__file__}, not {src}")
    text, relabel = presentation(workload.pd, seed)
    _check_presentation(khs.links, khs.links.parse_pd(workload.pd), text,
                        relabel)
    return perf_counter() - t0, Bench(workload, khs.cli, text)


def jones(text: str) -> dict[int, int]:
    """Jones polynomial of a PD text by the Kauffman state sum."""
    from khs.jones import jones_polynomial
    from khs.links import parse_pd

    return {q: v for q, v in jones_polynomial(parse_pd(text)).items() if v}


def _check_presentation(links, base, text: str, relabel: dict) -> None:
    """The relabelled diagram must have the same crossings with the same
    signs, so that it presents the same oriented link."""
    d = links.parse_pd(text)
    pos = {c.quad: i for i, c in enumerate(d.crossings)}
    same = d.component_count == base.component_count and all(
        d.sign(pos[tuple(relabel[a] for a in c.quad)]) == base.sign(ci)
        for ci, c in enumerate(base.crossings))
    if not same:
        raise SetupError(f"seeded presentation changed the link: {text}")


def probe_setup(workload: str, seed: int) -> float:
    """Setup time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise SetupError(f"setup probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def run_op(cli, argv: list[str]) -> tuple[int | None, str, str, float]:
    """One ``khs`` invocation: exit code, stdout, stderr, wall seconds."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as e:
        rc = e.code
    except Exception:
        rc = None
        err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue(), perf_counter() - t0


def check(bench: Bench, rc, out: str, err: str) -> str | None:
    """Why the op's result is wrong, or None."""
    if rc != 0:
        return f"exit code {rc}: {err.strip()[-500:]}"
    try:
        payload = json.loads(out)
        r = payload["refined"]
        got = (r["s"], r["r_plus"], r["s_plus"])
        euler: dict[int, int] = {}
        for e in payload["khovanov"]["entries"]:
            q = e["q"]
            euler[q] = euler.get(q, 0) + (-1) ** e["h"] * e["rank"]
    except (ValueError, KeyError, TypeError) as e:
        return f"unreadable output: {e!r}"
    if got != bench.workload.expected:
        return f"(s, r_plus, s_plus) = {got}, expected {bench.workload.expected}"
    euler = {q: v for q, v in euler.items() if v}
    if bench.jones is None:
        try:
            bench.jones = jones(bench.text)
        except Exception as e:
            return f"jones_polynomial failed: {e!r}"
    if euler != bench.jones:
        return (f"graded Euler characteristic {euler} != "
                f"Jones polynomial {bench.jones}")
    return None


def measure(bench: Bench, seconds: float,
            recorder: spans.Recorder | None = None) -> list[Op]:
    """Ops until their wall times add up to ``seconds``."""
    ops: list[Op] = []
    timed = 0.0
    first_out = None
    argv = bench.workload.argv(bench.text)
    while not ops or timed < seconds:
        i = len(ops)
        traced = recorder is not None and i % 2 == 0
        if traced:
            with spans.patched(recorder, "khs", layers.targets()), \
                    recorder.record_op(i):
                rc, out, err, dt = run_op(bench.cli, argv)
        else:
            rc, out, err, dt = run_op(bench.cli, argv)
        timed += dt
        problem = check(bench, rc, out, err)
        if problem is None:
            if first_out is None:
                first_out = out
            elif out != first_out:
                problem = "stdout differs from the first correct op's stdout"
        if problem:
            print(f"op {i} failed: {problem}", file=sys.stderr)
        ops.append(Op(dt, traced, problem))
    return ops


def tail(xs: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it."""
    xs = sorted(xs)
    n = len(xs)
    if n <= 10:
        return xs[-1], f"max of {n} samples (fewer than 11)"
    k = n - 11
    return xs[k], f"p{100 * (k + 1) / n:.1f} of {n} samples, 10 beyond it"


def end_to_end(setup_s: float, ops: list[Op]) -> tuple[dict, list[str]]:
    times = [o.seconds for o in ops]
    ok = sum(o.problem is None for o in ops)
    tail_s, tail_note = tail(times)
    values = {
        "setup_s": setup_s,
        "op_s.p50": statistics.median(times),
        "op_s.tail": tail_s,
        "ops_per_s": ok / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_ratio": ok / len(ops),
    }
    notes = [f"op_s.tail: {tail_note}",
             f"fail_ratio: {len(ops) - ok}/{len(ops)}"]
    return values, notes


def wrap_cost(n: int = 20000) -> float:
    """Seconds a recorded call adds over a plain one."""
    rec = spans.Recorder()

    def noop():
        return None

    traced = rec.wrap("noop", noop)
    with rec.record_op(0):
        t0 = perf_counter()
        for _ in range(n):
            traced()
        t1 = perf_counter()
    for _ in range(n):
        noop()
    t2 = perf_counter()
    return max(0.0, ((t1 - t0) - (t2 - t1)) / n)


def per_layer(rec: spans.Recorder, ops: list[Op]) -> tuple[dict, list[str]]:
    by_op = layers.per_op(rec)
    values = {name: statistics.fmean(m[name] for m in by_op.values())
              for name, _, _ in layers.METRICS if name != "trace.overhead_ratio"}
    traced = [o.seconds for o in ops if o.traced]
    plain = [o.seconds for o in ops if not o.traced]
    if plain:
        values["trace.overhead_ratio"] = (statistics.median(traced)
                                          / statistics.median(plain))
        note = (f"trace.overhead_ratio: median of {len(traced)} traced ops "
                f"over median of {len(plain)} untraced ops")
    else:
        # no time for an untraced op: remove the measured cost per span
        cost = wrap_cost()
        nspans = {op: 0 for op in by_op}
        for span in rec.spans:
            nspans[span[4]] += 1
        ops_by_id = {i: o.seconds for i, o in enumerate(ops) if o.traced}
        values["trace.overhead_ratio"] = statistics.median(
            ops_by_id[op] / (ops_by_id[op] - n * cost)
            for op, n in nspans.items())
        note = (f"trace.overhead_ratio: estimated, {cost * 1e6:.2f} us per "
                f"span, no untraced op fitted in the run")
    return values, [note]


def write_trace(rec: spans.Recorder, workload: str, seed: int) -> Path:
    out = ROOT / ".perfbench" / f"trace-{workload}-seed{seed}.json"
    out.parent.mkdir(exist_ok=True)
    counts = {op: {k: len(v) if isinstance(v, set) else v
                   for k, v in c.items()} for op, c in rec.counts.items()}
    with open(out, "w") as fh:
        json.dump({"workload": workload, "seed": seed, "spans": rec.spans,
                   "counts": counts}, fh)
    return out


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object printed last."""
    os.environ.pop("KHS_CACHE_DIR", None)
    first, bench = setup(workload, seed)
    samples = [first] + [probe_setup(workload.name, seed)
                         for _ in range(SETUP_SAMPLES - 1)]
    print(f"# workload {workload.name} seed {seed} trace {int(trace)}: "
          f"{bench.text}")
    rec = spans.Recorder() if trace else None
    ops = measure(bench, seconds, rec)
    if trace:
        values, notes = per_layer(rec, ops)
        units = {name: unit for name, unit, _ in layers.METRICS}
        notes.append(f"spans: {write_trace(rec, workload.name, seed)}")
    else:
        values, notes = end_to_end(statistics.median(samples), ops)
        units = {name: unit for name, unit, _ in END_TO_END}
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for note in notes:
        print(f"# {note}")
    failed = sum(o.problem is not None for o in ops)
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in values.items()}}


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in a fresh process; last line maps names to
    their result objects."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    workload = WORKLOADS[args.workload]
    try:
        if args.probe_setup:
            print(setup(workload, args.seed)[0])
            return 0
        result = run(workload, args.seed, args.seconds, bool(args.trace))
    except (SetupError, ImportError, subprocess.SubprocessError) as e:
        print(f"setup failed: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
