"""FilteredComplex machinery: homology, slices, reduction, chain transport."""

import hashlib
import random

import pytest

from khs.complexes import (
    FilteredComplex,
    filtered_reduce,
    homology_reps,
    lift_chain,
    push_chain,
    q_slice,
    sublevel_homology,
)
from khs.cube import build_complex
from khs.links import TorusLinkSpec, torus_link, trefoil
from khs.refined_s import _Pipeline
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


def _reduction_digest(dec) -> str:
    blob = repr((dec.pairs, dec.survivors, dec._steps, dec.reduced.levels,
                 dec.reduced.diff))
    return hashlib.sha256(blob.encode()).hexdigest()


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
    dec = _Pipeline(builtin_diagram("9_42"), char).dec
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
