"""FilteredComplex machinery: homology, slices, reduction, chain transport."""

import hashlib
import random
from fractions import Fraction
from itertools import zip_longest

import pytest

from khs.complexes import (
    Column,
    DecomposedComplex,
    FilteredComplex,
    filtered_reduce,
    homology_reps,
    lift_chain,
    push_chain,
    q_slice,
    q_slices,
    sublevel_homology,
)
from khs.cube import build_complex
from khs.links import TorusLinkSpec, torus_link, trefoil
from khs.refined_s import _diagram_pipeline
from khs.tables import builtin_diagram
from tests.conftest import small_braid


def _interval_complex(ring):
    # 0 -> C^0 -> C^1 -> 0 given by x |-> 2y over Z (identity mod nothing).
    return FilteredComplex(ring, {0: [0], 1: [0]}, {0: [{0: 2}], 1: [{}]})


def test_homology_of_interval():
    # [DERIVED] multiplication by 2: H^0 = 0, H^1 = Z/2 over Z; over Q both
    # vanish; over GF(2) the map is zero so both survive.
    cz = _interval_complex("Z")
    cz.check_differential()
    assert cz.homology_integral() == {1: (0, [2])}
    assert _interval_complex("Q").homology_field() == {}
    assert _interval_complex("gf2").homology_field() == {0: 1, 1: 1}


def test_check_differential_rejects_bad():
    # [TRIVIAL] d² ≠ 0 must be detected.
    bad = FilteredComplex("gf2", {0: [0], 1: [0], 2: [0]},
                          {0: [{0: 1}], 1: [{0: 1}], 2: [{}]})
    with pytest.raises(ValueError):
        bad.check_differential()
    # filtration decrease must be detected.
    bad2 = FilteredComplex("gf2", {0: [5], 1: [3]}, {0: [{0: 1}], 1: [{}]})
    with pytest.raises(ValueError):
        bad2.check_differential()


def test_q_slices_partition_homology_on_cube():
    # [DERIVED] for the undeformed Khovanov complex the differential
    # preserves q, so slices at each q partition the homology.
    cube = build_complex(trefoil(), "khovanov", "gf2")
    cx = cube.complex
    total = {h: cx.betti(h) for h in cx.degrees()}
    qs = sorted({q for lv in cx.levels.values() for q in lv})
    summed: dict[int, int] = {}
    for q in qs:
        sl, _ = q_slice(cx, q)
        for h in sl.degrees():
            summed[h] = summed.get(h, 0) + sl.betti(h)
    assert {h: v for h, v in summed.items() if v} == \
        {h: v for h, v in total.items() if v}


def test_filtered_reduce_preserves_homology():
    # [DERIVED] discrete-Morse style reduction is a homotopy equivalence.
    for theory, ring in (("khovanov", "gf2"), ("bar_natan", "gf2"),
                         ("lee", "Q"), ("khovanov", "Z")):
        cx = build_complex(torus_link(TorusLinkSpec(2, 1)), theory, ring).complex
        dec = filtered_reduce(cx)
        dec.reduced.check_differential()
        if ring == "Z":
            assert dec.reduced.homology_integral() == cx.homology_integral()
        else:
            assert dec.reduced.homology_field() == cx.homology_field()


def test_filtered_reduce_kills_gr_differential():
    # [DERIVED] only level-preserving pairs cancel, and all of them do, so
    # the reduced complex has no level-preserving differential entries
    # left, i.e. its gr-homology dimensions are just generator counts.
    cx = build_complex(trefoil(), "bar_natan", "gf2").complex
    dec = filtered_reduce(cx)
    red = dec.reduced
    for h in red.degrees():
        lv = red.levels[h]
        lv1 = red.levels.get(h + 1, [])
        for j, col in enumerate(red.columns(h)):
            for i, v in col.items():
                assert lv1[i] > lv[j]  # strict filtration jump only


def test_push_then_lift_is_homologous():
    # [DERIVED] lift(push(x)) differs from x by a boundary: check that both
    # map to the same class via coordinates against homology reps.
    cx = build_complex(trefoil(), "bar_natan", "gf2").complex
    dec = filtered_reduce(cx)
    rng = random.Random(5)
    h = 0
    reps = homology_reps(cx, h)
    from khs.complexes import class_coords
    for _ in range(5):
        # random cycle: take a rep combination
        vec = {}
        for r in reps:
            if rng.random() < 0.6:
                for i, v in r.items():
                    vec[i] = (vec.get(i, 0) + v) % 2
        vec = {i: v for i, v in vec.items() if v}
        pushed = push_chain(dec, h, vec)
        back = lift_chain(dec, h, pushed)
        c1, c2 = class_coords(cx, h, reps, [vec, back])
        assert c1 is not None and c2 is not None and c1 == c2


def test_sublevel_homology_maps():
    # [DERIVED] for the Bar-Natan complex of the trefoil the sublevel
    # inclusion j at the top filtration level of H^0 has rank 1 at q = s-1.
    cx = build_complex(trefoil(), "bar_natan", "gf2").complex
    gr, gkeep = q_slice(cx, 1)  # q = s - 1 = 1
    sh = sublevel_homology(cx, 1, 0, homology_reps(cx, 0), gr, gkeep,
                           homology_reps(gr, 0))
    assert sh.j_mat  # nonempty inclusion data
    # H^0 of the Bar-Natan complex of a knot is 2-dimensional
    assert cx.betti(0) == 2


def test_reduce_on_braid_corpus():
    # [DERIVED] homology preserved across a small deterministic corpus.
    for word in ([1, 1], [1, -1], [1, 2, 1], [-1, -1, -1], [1, 2, -1, 2]):
        n = 2 if max(abs(a) for a in word) == 1 else 3
        d = small_braid(word, n)
        cx = build_complex(d, "khovanov", "gf2").complex
        dec = filtered_reduce(cx)
        assert dec.reduced.homology_field() == cx.homology_field()


def _reduction_repr(dec) -> str:
    return repr((dec.pairs, dec.survivors, dec._steps, dec.reduced.levels,
                 dec.reduced.diff))


def _assert_same_reduction(dec, reference) -> None:
    """Fail unless both reductions have the same :func:`_reduction_repr`,
    naming the first differing step: a failing ``==`` on the reprs would
    make pytest diff hundreds of KB for minutes."""
    if _reduction_repr(dec) == _reduction_repr(reference):
        return
    for k, (got, want) in enumerate(zip_longest(dec._steps, reference._steps)):
        if repr(got) != repr(want):
            pytest.fail(f"reductions differ first at step {k}: "
                        f"{got!r:.300} against {want!r:.300}")
    pytest.fail("reductions take the same steps but differ in pairs, "
                "survivors or the reduced complex")


def _reduction_digest(dec) -> str:
    return hashlib.sha256(_reduction_repr(dec).encode()).hexdigest()


@pytest.mark.parametrize("char,digest", [
    (2, "769962f728fd20a845a11e74337b1682bc59be8e6b4df26032d89099bee9e5a2"),
    (0, "acb898e5b674c958c06cc948c2a9a4fb467af762aeba15c06fd9c411a5964d30"),
])
def test_reduction_order_of_the_9_42_deformed_cube(char, digest):
    # [DERIVED] the jump-0 reduction that the pipeline runs on the
    # Bar-Natan (char 2) and Lee (char 0) cubes of 9_42 cancels the same
    # pairs in the same order as the recorded reference: pairs, survivors,
    # cancellation steps and the reduced complex hash to the same digest.
    # Certificates are transported through these steps (and stdout carries
    # them), so a faster reduction must reproduce them exactly.
    dec = _diagram_pipeline(builtin_diagram("9_42"), char)[0].dec
    assert _reduction_digest(dec) == digest


@pytest.mark.parametrize("name,digest", [
    ("9_42",
     "7dc5f736acbb0da424b6ad97c6a5e054efe85a31a4c4b8c3dd948064dd3ec0cd"),
    ("torus:3:1",
     "b834e0457891c8de1b175b260b31162918ba23a0eef2559cab40edea7ca220fa"),
])
def test_reduction_order_of_integral_q_slices(name, digest):
    # [DERIVED] as above, for every integral q-slice (the ℤ table and the
    # Sq¹ data reduce these); one digest over the slices in q order.
    cx = build_complex(builtin_diagram(name), "khovanov", "Z").complex
    h = hashlib.sha256()
    for q in sorted({q for lv in cx.levels.values() for q in lv}):
        h.update(_reduction_digest(filtered_reduce(q_slice(cx, q)[0]))
                 .encode())
    assert h.hexdigest() == digest


# ---------------------------------------------------------------------------
# The reduction against its first implementation
# ---------------------------------------------------------------------------


def _reference_filtered_reduce(cx: FilteredComplex) -> DecomposedComplex:
    """The jump-0 reduction as first written: one helper call per
    cancellation, new entries filtered into the queue after it returns."""
    ops = cx.ops
    coeff, unit = ops.coeff, ops.is_unit
    levels = cx.levels
    # mutable sparse structure: out_[h][j] = {i: coeff}, in_[h+1][i] = {j: coeff}
    out_: dict[int, dict[int, Column]] = {}
    in_: dict[int, dict[int, Column]] = {}
    alive: dict[int, list[bool]] = {h: [True] * cx.dim(h) for h in cx.degrees()}
    for h in cx.degrees():
        out_.setdefault(h, {})
        in_.setdefault(h, {})
        for j, col in enumerate(cx.columns(h)):
            col = {i: v for i, v in col.items() if coeff(v)}
            if col:
                out_[h][j] = col
                for i, v in col.items():
                    in_.setdefault(h + 1, {}).setdefault(i, {})[j] = v

    pairs: list[tuple[int, int, int]] = []
    steps: list[tuple] = []
    queue = []
    for h, out_h in out_.items():
        lv, lv1 = levels[h], levels.get(h + 1)
        queue.extend((h, j, i) for j, col in out_h.items()
                     for i in col if lv1[i] == lv[j])
    queue.sort()
    # The loop also visits the entries appended to ``queue`` as it runs.  A
    # cancelled generator keeps no entries, so a queued entry that lost an
    # end reads as absent here, and every changed entry is live.
    for h, j0, i0 in queue:
        v = out_[h].get(j0, {}).get(i0)
        if v is None or not unit(v):
            continue
        changed = _reference_cancel(ops, out_, in_, h, j0, i0, steps)
        lv, lv1 = levels[h], levels[h + 1]
        pairs.append((h, lv[j0], lv1[i0]))
        alive[h][j0] = False
        alive[h + 1][i0] = False
        queue.extend((h, j, i) for (j, i) in changed if lv1[i] == lv[j])
    survivors = {h: [j for j, a in enumerate(alive[h]) if a]
                 for h in alive}
    new_levels = {h: [levels[h][j] for j in survivors[h]]
                  for h in survivors if survivors[h]}
    index_of = {h: {j: k for k, j in enumerate(survivors[h])} for h in survivors}
    new_diff: dict[int, list[Column]] = {}
    for h in sorted(new_levels):
        cols = []
        for j in survivors[h]:
            col = out_.get(h, {}).get(j, {})
            cols.append({index_of[h + 1][i]: v for i, v in col.items()})
        new_diff[h] = cols
    reduced = FilteredComplex(cx.ring, new_levels, new_diff)
    return DecomposedComplex(reduced, pairs, survivors, steps)


def _reference_cancel(ops, out_, in_, h, j0, i0,
                      steps) -> list[tuple[int, int]]:
    """Gaussian cancellation of the entry d[i0, j0] out of degree h.

    Returns the degree-h entries (j, i) that changed to a nonzero value.
    Such an entry is appended to its column and row dicts, or updated in
    place; an entry that becomes zero is deleted, and emptied columns and
    rows are dropped.
    """
    out_h, in_h1 = out_[h], in_[h + 1]
    pivot = out_h[j0][i0]
    # other targets of j0, other sources mapping to i0
    col_j0 = {i: v for i, v in out_h[j0].items() if i != i0}
    row_i0 = {j: v for j, v in in_h1[i0].items() if j != j0}
    steps.append((h, j0, i0, pivot, col_j0, row_i0))
    # for every other source j with entry a at i0, subtract a / pivot times
    # column j0 from column j.  Column j keeps its entry at i0 and row i
    # keeps its entry from j0 throughout, so neither empties here.
    changed = []
    if ops.name == "gf2":  # every stored entry is odd: the update toggles
        for j in row_i0:
            out_j = out_h[j]
            for i in col_j0:
                if i in out_j:
                    del out_j[i]
                    del in_h1[i][j]
                else:
                    out_j[i] = 1
                    in_h1[i][j] = 1
                    changed.append((j, i))
    else:
        inv = _reference_inv(ops.name, pivot)
        for j, a in row_i0.items():
            coef = a * inv
            out_j = out_h[j]
            for i, b in col_j0.items():
                nv = out_j.get(i, 0) - coef * b
                if nv:
                    out_j[i] = nv
                    in_h1[i][j] = nv
                    changed.append((j, i))
                elif i in out_j:
                    del out_j[i]
                    del in_h1[i][j]
    # remove the pair: column j0 and row i0 out of degree h, column i0 out
    # of degree h+1, row j0 into degree h
    _reference_drop_line(out_h, in_h1, j0)
    _reference_drop_line(in_h1, out_h, i0)
    _reference_drop_line(out_.get(h + 1, {}), in_.get(h + 2, {}), i0)
    _reference_drop_line(in_.get(h, {}), out_.get(h - 1, {}), j0)
    return changed


def _reference_inv(ring: str, v):
    """The inverse of the unit ``v``, without the program's ring objects."""
    if ring == "Q":
        return Fraction(1) / Fraction(v)
    return v if ring == "Z" else 1


def _reference_drop_line(lines: dict[int, Column],
                         cross: dict[int, Column], a: int) -> None:
    """Remove line ``a`` of ``lines`` and its mirror entries in ``cross``,
    dropping the ``cross`` lines that empty."""
    for b in lines.pop(a, ()):
        line = cross[b]
        del line[a]
        if not line:
            del cross[b]


def _reference_cases(d):
    """The Bar-Natan/𝔽₂, Lee/ℚ and Khovanov/ℤ cubes of d, then every ℤ
    q-slice."""
    for theory, ring in (("bar_natan", "gf2"), ("lee", "Q"),
                         ("khovanov", "Z")):
        cx = build_complex(d, theory, ring).complex
        yield cx
    for _, sl, _ in q_slices(cx):
        yield sl


def _check_against_reference(diagrams) -> int:
    """Assert both reductions agree on every case; the number of ℚ steps
    whose pivot is not ±1."""
    nonunit = 0
    for d in diagrams:
        for cx in _reference_cases(d):
            dec = filtered_reduce(cx)
            _assert_same_reduction(dec, _reference_filtered_reduce(cx))
            if cx.ring == "Q":
                nonunit += sum(s[3] not in (1, -1) for s in dec._steps)
    return nonunit


def _mixed_sign_braids(count: int, seed: int) -> list:
    """Seeded closures of braid words on 3–4 strands with 2–8 crossings of
    both signs, some strands reversed."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.choice((3, 4))
        word = [rng.choice((1, -1)) * rng.randrange(1, n)
                for _ in range(rng.randint(2, 8))]
        if min(word) > 0 or max(word) < 0:
            continue
        rev = [s for s in range(1, n + 1) if rng.random() < 0.25]
        out.append(small_braid(word, n, rev))
    return out


def test_reduction_matches_the_reference_on_builtins():
    # [DERIVED] the reduction cancels the same pairs in the same order,
    # with the same steps and the same reduced complex down to dict order,
    # as its first implementation; 9_42's Lee cube has ℚ pivots other
    # than ±1.
    names = ("empty", "unknot", "trefoil", "trefoil_mirror", "hopf",
             "hopf_neg", "torus:2:1", "torus:3:0", "torus:3:1", "9_42")
    assert _check_against_reference(map(builtin_diagram, names)) >= 16


def test_reduction_matches_the_reference_on_mixed_sign_braids():
    # [DERIVED] as above, on a seeded corpus of mixed-sign braid closures.
    assert _check_against_reference(_mixed_sign_braids(16, seed=17)) > 0


# ±1 four times as likely as the others, so that some lines stay integral
_MIXED = (1, -1) * 4 + (2, -2, Fraction(1, 2), Fraction(-1, 2),
                        Fraction(3, 1), Fraction(3, 1))


def _random_q_complex(rng: random.Random) -> FilteredComplex:
    """A sparse ℚ filtered complex on degrees 0–2 with levels 0–2 and
    entries drawn from ``_MIXED``, where the filtration allows them (d² = 0
    is not needed: the reduction only cancels entries)."""
    levels = {h: [rng.randrange(3) for _ in range(rng.randint(4, 10))]
              for h in range(3)}
    diff = {h: [{i: rng.choice(_MIXED) for i, l in enumerate(levels[h + 1])
                 if l >= lj and rng.random() < 0.5} for lj in levels[h]]
            for h in range(2)}
    return FilteredComplex("Q", levels, diff)


def test_mixed_q_entries_reduce_as_the_reference():
    # [DERIVED] with entries ±1, ±2, ±1/2 and the integral Fraction 3, the
    # reductions meet ±1 pivots over integral lines (the int update), ±1
    # pivots over lines with a half, and pivots ±2 and ±1/2; every stored
    # number keeps the type and value of the reference's Fraction
    # arithmetic.
    rng = random.Random(29)
    unit_int = unit_frac = other = 0
    for _ in range(60):
        cx = _random_q_complex(rng)
        dec = filtered_reduce(cx)
        _assert_same_reduction(dec, _reference_filtered_reduce(cx))
        for *_, pivot, col, row in dec._steps:
            if pivot not in (1, -1):
                other += 1
            elif all(v.denominator == 1
                     for v in (*col.values(), *row.values())):
                unit_int += 1
            else:
                unit_frac += 1
    assert min(unit_int, unit_frac, other) > 0


@pytest.mark.parametrize("name", ["9_42", "torus:3:1"])
def test_one_pass_slices_match_q_slice(name):
    # [DERIVED] q_slices yields, level by level, exactly what q_slice
    # builds, and the degree −1/0 slice has q_slice's degree −1 columns and
    # index lists.
    cx = build_complex(builtin_diagram(name), "khovanov", "Z").complex
    qs = sorted({q for lv in cx.levels.values() for q in lv})
    assert [q for q, _, _ in q_slices(cx)] == qs
    for q, sl, keep in q_slices(cx):
        ref, ref_keep = q_slice(cx, q)
        assert keep == ref_keep
        assert sl.levels == ref.levels
        assert repr(sl.diff) == repr(ref.diff)
        part, part_keep = q_slice(cx, q, (-1, 0))
        assert part_keep == {h: ref_keep.get(h, []) for h in (-1, 0)}
        assert repr(part.columns(-1)) == repr(ref.columns(-1))
