"""Which ``khs`` functions the traced run wraps, and the per-layer metrics.

Every metric is per traced op, averaged over the traced ops of a run.
Self time is a span's duration minus the time its child spans cover, so a
layer's figure excludes the wrapped layers it calls.
"""

from __future__ import annotations

import inspect
import sys

from spans import self_times

# layer -> the functions whose self time it sums; None means every public
# function of the module
LAYERS = {
    "cube.build_complex": ["cube.build_complex"],
    "complexes.filtered_reduce": ["complexes.filtered_reduce"],
    "linalg.gf2_solve": ["linalg.gf2_solve"],
    "linalg.gf2_from_columns": ["linalg.gf2_from_columns"],
    "linalg.gf2_nullspace": ["linalg.gf2_nullspace"],
    "linalg.gf2_rank": ["linalg.gf2_rank"],
    "linalg.q_solve": ["linalg.q_solve"],
    "linalg.q_nullspace": ["linalg.q_nullspace"],
    "linalg.q_rank": ["linalg.q_rank"],
    "linalg.integer": ["linalg.int_rank", "linalg.integer_homology_summands"],
    "cube.khovanov_homology": ["cube.khovanov_homology"],
    "bockstein.bockstein_chain": ["bockstein.bockstein_chain"],
    "complexes.homology_reps": ["complexes.homology_reps"],
    "complexes.class_coords": ["complexes.class_coords"],
    "complexes.sublevel_homology": ["complexes.sublevel_homology"],
    "complexes.chain_transport": ["complexes.push_chain",
                                  "complexes.lift_chain"],
    "cube.canonical_cycle": ["cube.canonical_cycle"],
    "refined_s.refined_invariants": ["refined_s.refined_invariants"],
    "refined_s.validate_certificate": ["refined_s.validate_certificate"],
    "links.parse_pd": ["links.parse_pd"],
    "links.resolution_circles": ["links.resolution_circles"],
    "serialize": None,
    "cli.main": ["cli.main"],
}

# functions whose call count per op is a metric
CALLS = [
    "cube.build_complex",
    "complexes.filtered_reduce",
    "linalg.gf2_solve",
    "linalg.gf2_from_columns",
    "linalg.gf2_nullspace",
    "linalg.gf2_rank",
    "linalg.q_solve",
    "linalg.q_nullspace",
    "linalg.q_rank",
    "bockstein.bockstein_chain",
    "refined_s.validate_certificate",
]

# (name, unit, better) of every per-layer metric, in report order
METRICS = (
    [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [(f"{fn}.calls", "count", "lower") for fn in CALLS]
    + [
        ("cube.build_complex.distinct_ratio", "ratio", "higher"),
        ("cube.generators", "count", "lower"),
        ("complexes.filtered_reduce.cancel_ratio", "ratio", "higher"),
        ("linalg.gf2_solve.cells", "count", "lower"),
        ("linalg.gf2_solve.unsolved_ratio", "ratio", "lower"),
        ("refined_s.certificate_entries", "count", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
)


def _diagram_key(d) -> tuple:
    return (tuple((c.quad, c.over_in) for c in d.crossings), d.free_loops,
            tuple(d.component_orientations))


def _on_build(rec, args, cube) -> None:
    rec.tally("generators", sum(map(len, cube.complex.levels.values())))
    rec.distinct("cubes", (_diagram_key(args["d"]), args["theory"],
                           args["ring"]))


def _on_reduce(rec, args, dec) -> None:
    cx = args["cx"]
    rec.tally("reduce_inputs", sum(cx.dim(h) for h in cx.degrees()))
    rec.tally("reduce_pairs", len(dec.pairs))


def _on_gf2_solve(rec, args, sol) -> None:
    rec.tally("gf2_cells", len(args["rows"]) * args["n_cols"])
    rec.tally("gf2_unsolved", sol is None)


def _on_refined(rec, args, res) -> None:
    for cert in res.certificates.values():
        if cert is not None:
            rec.tally("certificate_entries", sum(
                len(chain) for chain in (cert.x, cert.y, cert.u, cert.z)
                if chain))


_COUNTERS = {
    "cube.build_complex": _on_build,
    "complexes.filtered_reduce": _on_reduce,
    "linalg.gf2_solve": _on_gf2_solve,
    "refined_s.refined_invariants": _on_refined,
}


def _members(layer: str) -> list[str]:
    fns = LAYERS[layer]
    if fns is not None:
        return fns
    mod = sys.modules[f"khs.{layer}"]
    return [f"{layer}.{name}" for name, value in vars(mod).items()
            if inspect.isfunction(value) and value.__module__ == mod.__name__
            and not name.startswith("_")]


def targets() -> dict:
    """``spans.patched`` targets: every wrapped function and its counter."""
    return {fn: _COUNTERS.get(fn) for layer in LAYERS
            for fn in _members(layer)}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_op(rec) -> dict[int, dict[str, float]]:
    """Per-layer metrics of each recorded op, except the trace overhead."""
    layer_of = {fn: layer for layer in LAYERS for fn in _members(layer)}
    selfs: dict[int, dict[str, float]] = {op: {} for op in rec.counts}
    calls: dict[int, dict[str, int]] = {op: {} for op in rec.counts}
    for span, st in zip(rec.spans, self_times(rec.spans)):
        name, op = span[0], span[4]
        if name in layer_of:
            layer = layer_of[name]
            selfs[op][layer] = selfs[op].get(layer, 0.0) + st
        calls[op][name] = calls[op].get(name, 0) + 1
    out = {}
    for op, c in rec.counts.items():
        builds = calls[op].get("cube.build_complex", 0)
        solves = calls[op].get("linalg.gf2_solve", 0)
        m = {f"{layer}.self_s": selfs[op].get(layer, 0.0) for layer in LAYERS}
        m.update({f"{fn}.calls": calls[op].get(fn, 0) for fn in CALLS})
        m["cube.build_complex.distinct_ratio"] = _ratio(
            len(c.get("cubes", ())), builds)
        m["cube.generators"] = _ratio(c.get("generators", 0), builds)
        m["complexes.filtered_reduce.cancel_ratio"] = _ratio(
            2 * c.get("reduce_pairs", 0), c.get("reduce_inputs", 0))
        m["linalg.gf2_solve.cells"] = c.get("gf2_cells", 0)
        m["linalg.gf2_solve.unsolved_ratio"] = _ratio(
            c.get("gf2_unsolved", 0), solves)
        m["refined_s.certificate_entries"] = c.get("certificate_entries", 0)
        out[op] = m
    return out
