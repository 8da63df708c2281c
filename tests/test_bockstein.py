"""The Bockstein Sq¹ on Khovanov homology over GF(2)."""

from khs.bockstein import bockstein_chain, sq1, sq1_table
from khs.complexes import FilteredComplex
from khs.cube import build_complex, khovanov_homology
from khs.links import TorusLinkSpec, hopf_link, torus_link, trefoil, unknot
from khs.tables import knot_9_42


def _two_torsion_count(table):
    """Number of Z/2 summands per (h, q), from the integral computation."""
    out = {}
    for (h, q), (_, tor) in table.entries.items():
        n = sum(1 for t in tor if t == 2)
        if n:
            out[(h, q)] = n
    return out


def test_sq1_rank_equals_two_torsion():
    # [DERIVED] rank of the Bockstein into degree (i, q) equals the number
    # of Z/2 summands of the integral homology there (the Bockstein of
    # 0 → Z/2 → Z/4 → Z/2 → 0 misses Z/4, Z/8, ...), cross-checked via
    # the integer diagonal form.
    for d in (trefoil(), trefoil().mirror(), hopf_link(),
              torus_link(TorusLinkSpec(3, 1)), knot_9_42()):
        expect = _two_torsion_count(khovanov_homology(d, "Z", optimized=True))
        assert sq1_table(d) == expect


def test_bockstein_sees_exactly_z2_summands():
    # [DERIVED] on C⁻¹ = Z →(k) Z = C⁰ the generator e of C⁻¹ is a mod-2
    # cycle for even k, and its Bockstein is (k/2)·f mod 2: nonzero when
    # Kh⁰ = Z/k has a Z/2 summand (k = 2, 6), zero for Z/4.
    for k, image in ((2, {0: 1}), (4, {}), (6, {0: 1})):
        cx = FilteredComplex("Z", {-1: [0], 0: [0]}, {-1: [{0: k}]})
        assert bockstein_chain(cx, -1, {0: 1}) == image


def test_sq1_vanishes_on_torsion_free():
    # [DERIVED] unknot and Hopf link have torsion-free Khovanov homology.
    assert sq1_table(unknot()) == {}
    assert sq1_table(hopf_link()) == {}


def test_trefoil_sq1_location():
    # [PAPER] the right trefoil has Z/2 exactly at (3, 7), so Sq¹ has rank 1
    # into (3, 7) and nowhere else.
    assert sq1_table(trefoil()) == {(3, 7): 1}


def test_sq1_squared_zero():
    # [DERIVED] Sq¹ ∘ Sq¹ = 0: the image coordinates of Sq¹ out of im Sq¹
    # vanish. Checked on a link with rich torsion.
    d = knot_9_42()
    cube_z = build_complex(d, "khovanov", "Z")
    cx = cube_z.complex
    checked = 0
    for h in cx.degrees():
        for q in sorted(set(cx.levels[h])):
            m1 = sq1(cube_z, h + 1, q)
            if not any(any(row) for row in m1.matrix):
                continue
            # source reps of the next Bockstein are the deterministic
            # homology basis, which equals m1's target basis, so the
            # composite is a matrix product over GF(2).
            m2 = sq1(cube_z, h + 2, q)
            for row in m1.matrix:
                acc = [0] * (len(m2.matrix[0]) if m2.matrix else 0)
                for k, bit in enumerate(row):
                    if bit:
                        for t, b2 in enumerate(m2.matrix[k]):
                            acc[t] ^= b2
                assert not any(acc)
                checked += 1
    assert checked >= 4  # 9_42 has four Z/2 summands


def test_bockstein_chain_is_mod2_cycle():
    # [TRIVIAL] sq1() asserts internally that outputs are slice cycles; a
    # successful construction at the trefoil's torsion spot has rank 1.
    cube_z = build_complex(trefoil(), "khovanov", "Z")
    m = sq1(cube_z, 3, 7)
    assert m.rank == 1
