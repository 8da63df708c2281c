"""Khovanov / Lee / Bar-Natan cube complexes and homology tables."""

from itertools import product

import pytest

from khs.cube import (
    _THEORIES,
    build_complex,
    canonical_cycle,
    khovanov_homology,
)
from khs.complexes import FilteredComplex, q_slice
from khs.jones import jones_polynomial
from khs.links import (
    TorusLinkSpec,
    braid_closure,
    empty_link,
    hopf_link,
    parse_pd,
    resolution_circles,
    serialize_pd,
    torus_link,
    trefoil,
    unknot,
)
from khs.tables import builtin_diagram, knot_9_42


def test_unknot_homology():
    # [PAPER] Kh(unknot) = Z at (0, ±1).
    t = khovanov_homology(unknot())
    assert t.entries == {(0, -1): (1, []), (0, 1): (1, [])}


def test_empty_link_homology():
    # [TRIVIAL] Kh(empty) = Z at (0, 0).
    t = khovanov_homology(empty_link())
    assert t.entries == {(0, 0): (1, [])}


def test_trefoil_homology():
    # [PAPER] right-handed trefoil.
    t = khovanov_homology(trefoil())
    assert t.entries == {
        (0, 1): (1, []), (0, 3): (1, []),
        (2, 5): (1, []), (3, 7): (0, [2]), (3, 9): (1, []),
    }


def test_hopf_homology():
    # [PAPER] positive Hopf link: free of rank 4, no torsion.
    t = khovanov_homology(hopf_link())
    assert t.entries == {
        (0, 0): (1, []), (0, 2): (1, []),
        (2, 4): (1, []), (2, 6): (1, []),
    }


def test_9_42_homology():
    # [PAPER] 9_42: total rank 10; Z/2 torsion at (-3,-5), (-1,-1), (0,1),
    # (2,5); free part supported in h in [-4, 2].
    t = khovanov_homology(knot_9_42(), optimized=True)
    total_rank = sum(r for r, _ in t.entries.values())
    assert total_rank == 10
    torsion_at = {k for k, (_, tor) in t.entries.items() if tor}
    assert torsion_at == {(-3, -5), (-1, -1), (0, 1), (2, 5)}
    hs = [h for (h, q), (r, _) in t.entries.items() if r]
    assert min(hs) == -4 and max(hs) == 2


def test_mirror_duality_ranks():
    # [DERIVED] free ranks satisfy Kh^{h,q}(mirror) = Kh^{-h,-q}.
    for d in (trefoil(), hopf_link()):
        t = khovanov_homology(d)
        tm = khovanov_homology(d.mirror())
        assert {(h, q): r for (h, q), (r, _) in t.entries.items() if r} == \
            {(-h, -q): r for (h, q), (r, _) in tm.entries.items() if r}


def test_graded_euler_equals_jones():
    # [DERIVED] graded Euler characteristic of Kh = unreduced Jones.
    for d in (unknot(), trefoil(), hopf_link(),
              torus_link(TorusLinkSpec(2, 1)), knot_9_42()):
        t = khovanov_homology(d, optimized=True)
        assert t.graded_euler() == jones_polynomial(d)


def test_universal_coefficients_gf2():
    # [DERIVED] dim Kh(F2) = free rank + (2-torsion counted twice).
    for d in (trefoil(), torus_link(TorusLinkSpec(3, 1))):
        tz = khovanov_homology(d, "Z", optimized=True)
        t2 = khovanov_homology(d, "gf2", optimized=True)
        for q in sorted({q for (_, q) in tz.entries} |
                        {q for (_, q) in t2.entries}):
            for h in range(-10, 11):
                free, tor = tz.entries.get((h, q), (0, []))
                free_up, tor_up = tz.entries.get((h + 1, q), (0, []))
                two = sum(1 for x in tor if x % 2 == 0)
                two_up = sum(1 for x in tor_up if x % 2 == 0)
                dim2, _ = t2.entries.get((h, q), (0, []))
                assert dim2 == free + two + two_up


def test_optimized_matches_naive():
    # [DERIVED] the reduction pipeline agrees with the full-cube computation.
    for d in (trefoil(), hopf_link(), torus_link(TorusLinkSpec(2, 1))):
        for ring in ("Z", "Q", "gf2"):
            a = khovanov_homology(d, ring, optimized=True)
            b = khovanov_homology(d, ring, optimized=False)
            assert a.entries == b.entries


def test_deformed_theories_collapse():
    # [PAPER] Lee (char 0) and Bar-Natan (char 2) homology of a c-component
    # link has total dimension 2^c.
    cases = [(trefoil(), 1), (hopf_link(), 2),
             (torus_link(TorusLinkSpec(3, 1)), 3)]
    for d, c in cases:
        lee = build_complex(d, "lee", "Q").complex
        bn = build_complex(d, "bar_natan", "gf2").complex
        assert sum(lee.homology_field().values()) == 2 ** c
        assert sum(bn.homology_field().values()) == 2 ** c


def test_canonical_cycles_are_cycles_and_distinct():
    # [DERIVED] the canonical classes of the orientation o and its reverse
    # are cycles in degree 0 and differ for any nonempty link.
    for theory, ring in (("lee", "Q"), ("bar_natan", "gf2")):
        cube = build_complex(trefoil(), theory, ring)
        a = canonical_cycle(cube)
        b = canonical_cycle(cube, reverse=True)
        assert a and b and a != b
        cols = cube.complex.columns(0)
        for vec in (a, b):
            acc: dict[int, int] = {}
            for j, v in vec.items():
                for i, w in cols[j].items():
                    acc[i] = acc.get(i, 0) + v * w
            if ring == "gf2":
                assert all(int(x) % 2 == 0 for x in acc.values())
            else:
                assert all(x == 0 for x in acc.values())


def test_gen_ids_stable():
    # [TRIVIAL] generator ids round-trip through the documented format.
    for d in (hopf_link(), unknot()):
        cube = build_complex(d, "khovanov", "Z")
        seen = set()
        for h in cube.complex.degrees():
            chain = {}
            for k in range(cube.complex.dim(h)):
                gid = cube.gen_id(h, k)
                assert gid not in seen
                seen.add(gid)
                chain[gid] = k + 1
            assert cube.from_gen_ids(h, chain) == {
                k: k + 1 for k in range(cube.complex.dim(h))}


@pytest.mark.parametrize("name", ["trefoil", "hopf_neg", "9_42",
                                  "torus:3:1"])
def test_deformed_gr_slices_are_khovanov_slices(name):
    # [DERIVED] the deformations x² = x (Bar-Natan) and x² = 1 (Lee) only
    # add terms that raise q, so gr_q of each deformed cube, the level-q
    # slice that the p-map and θ read Kh^{*,q} from, is the Khovanov
    # complex's level-q slice: same levels and the same entries, in order.
    d = builtin_diagram(name)
    cubes = {(theory, ring): build_complex(d, theory, ring).complex
             for theory, ring in (("bar_natan", "gf2"), ("khovanov", "gf2"),
                                  ("lee", "Q"), ("khovanov", "Q"),
                                  ("khovanov", "Z"))}
    bn = cubes["bar_natan", "gf2"]
    bn_z = FilteredComplex("Z", bn.levels, bn.diff)

    def sl(cx, q):
        s, _ = q_slice(cx, q)
        return s.levels, {h: [repr(c) for c in cols]
                          for h, cols in s.diff.items()}

    qs = sorted({q for lv in bn.levels.values() for q in lv})
    for q in qs:
        assert sl(bn, q) == sl(cubes["khovanov", "gf2"], q), q
        assert sl(cubes["lee", "Q"], q) == sl(cubes["khovanov", "Q"], q), q
        assert sl(bn_z, q) == sl(cubes["khovanov", "Z"], q), q


def _reference_cube(d, theory):
    """The cube built generator by generator: every edge term's target
    labeling is assembled as a tuple and looked up in ``index``."""
    spec = _THEORIES[theory]
    n, nm = d.n_crossings, d.n_minus
    vert_circ = {v: resolution_circles(d, [(v >> i) & 1 for i in range(n)])
                 for v in range(1 << n)}
    gens, index, levels = {}, {}, {}
    for v in range(1 << n):
        h = bin(v).count("1") - nm
        k = len(vert_circ[v][0])
        for labels in product((0, 1), repeat=k):
            index.setdefault(h, {})[(v, labels)] = len(gens.setdefault(h, []))
            gens[h].append((v, labels))
            levels.setdefault(h, []).append(
                bin(v).count("1") + d.n_plus - 2 * nm + k - 2 * sum(labels))
    diff = {}
    for h in sorted(gens):
        cols = []
        for v, labels in gens[h]:
            circles_v, _, cr_v = vert_circ[v]
            nonfree_v = len(circles_v) - d.free_loops
            col = {}
            for ci in range(n):
                if (v >> ci) & 1:
                    continue
                w = v | (1 << ci)
                sign = -1 if bin(v & ((1 << ci) - 1)).count("1") % 2 else 1
                circles_w, arc_circle_w, cr_w = vert_circ[w]
                nonfree_w = len(circles_w) - d.free_loops
                c1, c2 = cr_v[ci]
                t1, t2 = cr_w[ci]
                base = [None] * len(circles_w)
                for c, lab in enumerate(labels):
                    if c in (c1, c2):
                        continue
                    if c >= nonfree_v:
                        base[nonfree_w + (c - nonfree_v)] = lab
                    else:
                        base[arc_circle_w[circles_v[c][0]]] = lab
                if c1 != c2:
                    outs = [(((t1, lab),), coeff)
                            for lab, coeff in spec["m"][(labels[c1], labels[c2])]]
                else:
                    outs = [(((t1, la), (t2, lb)), coeff)
                            for la, lb, coeff in spec["delta"][labels[c1]]]
                for sets, coeff in outs:
                    tl = list(base)
                    for pos, lab in sets:
                        tl[pos] = lab
                    k = index[h + 1][(w, tuple(tl))]
                    nv = col.get(k, 0) + sign * coeff
                    if nv:
                        col[k] = nv
                    else:
                        col.pop(k, None)
            cols.append(col)
        diff[h] = cols
    return gens, index, levels, diff


def test_build_complex_matches_reference():
    # [DERIVED] the index-arithmetic construction reproduces the tuple-lookup
    # one exactly, down to the insertion order of every column, which fixes
    # the order in which filtered_reduce cancels.
    links = [unknot(), braid_closure(3, (1, 1, 1)), knot_9_42(),
             torus_link(TorusLinkSpec(3, 1))]
    assert links[1].free_loops == 1
    for d in links:
        for theory, ring in (("khovanov", "Z"), ("bar_natan", "gf2"),
                             ("lee", "Q")):
            cube = build_complex(d, theory, ring)
            gens, index, levels, diff = _reference_cube(d, theory)
            assert cube.gens == gens and cube.index == index
            assert cube.complex.levels == levels
            assert list(cube.complex.diff) == list(diff)
            for h, cols in diff.items():
                got = cube.complex.diff[h]
                assert len(got) == len(cols)
                shared = list(cube.index.get(h + 1, {}).values())
                for col_got, col_ref in zip(got, cols):
                    assert list(col_got.items()) == list(col_ref.items())
                    assert all(k is shared[k] for k in col_got)


def _assert_reference(cube, d, theory):
    """``cube`` equals the reference cube of ``d`` down to the insertion
    order of every column."""
    gens, index, levels, diff = _reference_cube(d, theory)
    assert cube.gens == gens and cube.index == index
    assert cube.complex.levels == levels
    assert list(cube.complex.diff) == list(diff)
    for h, cols in diff.items():
        assert [list(c.items()) for c in cube.complex.diff[h]] == [
            list(c.items()) for c in cols]


@pytest.mark.parametrize("name", ["9_42", "torus:3:0"])
def test_skeleton_cannot_serve_stale_gradings(name):
    # [DERIVED] the cube skeleton a diagram keeps is orientation-free:
    # flipping a component in place after a build moves h and q exactly as
    # for a freshly parsed diagram with the same flags, also on the mirror.
    d = builtin_diagram(name)
    for diagram in (d, d.mirror()):
        build_complex(diagram, "khovanov", "Z")
        diagram.component_orientations[-1] ^= True
        fresh = parse_pd(serialize_pd(diagram))
        assert fresh.crossings == diagram.crossings
        assert fresh.component_orientations == diagram.component_orientations
        for theory, ring in (("khovanov", "Z"), ("bar_natan", "gf2")):
            _assert_reference(build_complex(diagram, theory, ring), fresh,
                              theory)
    assert builtin_diagram("torus:3:0").n_minus == 0
    if name == "torus:3:0":
        assert d.n_minus == 4  # the flip changed the gradings


def test_resolution_pass_runs_once_per_diagram(monkeypatch):
    # [TRIVIAL] builds of one diagram object share one pass over the 2^n
    # vertices, whatever the theory; a new object makes its own.
    import khs.cube

    calls = []
    real = khs.cube.resolution_circles

    def counted(d, vertex):
        calls.append(vertex)
        return real(d, vertex)

    monkeypatch.setattr(khs.cube, "resolution_circles", counted)
    d = knot_9_42()
    for theory, ring in (("khovanov", "Z"), ("bar_natan", "gf2"),
                         ("lee", "Q")):
        build_complex(d, theory, ring)
    assert len(calls) == 2 ** 9
    build_complex(knot_9_42(), "khovanov", "Z")
    assert len(calls) == 2 * 2 ** 9
