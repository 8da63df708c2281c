"""The Bockstein Sq¹ on Khovanov homology over GF(2)."""

import pytest

from khs.bockstein import bockstein_chain, sq1, sq1_table
from khs.complexes import (
    FilteredComplex,
    apply,
    filtered_reduce,
    q_slice,
    q_slices,
    unreduced,
)
from khs.cube import build_complex, khovanov_homology
from khs.linalg import GF2
from khs.links import (
    TorusLinkSpec,
    braid_closure,
    hopf_link,
    torus_link,
    trefoil,
    unknot,
)
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


def test_lift_divide_failure_names_level_and_degree():
    # [TRIVIAL] an odd integral boundary cannot be halved; the exit-3
    # message names the level q and the degree of the odd entry.
    cx = FilteredComplex("Z", {-1: [5], 0: [5]}, {-1: [{0: 3}]})
    with pytest.raises(AssertionError, match=r"lift-divide failed: boundary "
                       r"not divisible by 2 .* at q=5, h=0$"):
        bockstein_chain(cx, -1, {0: 1})


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
    cube_z = build_complex(knot_9_42(), "khovanov", "Z")
    checked = 0
    for _, sl, _ in q_slices(cube_z.complex):
        zdec = filtered_reduce(sl)
        for h in zdec.reduced.degrees():
            m1 = sq1(zdec, h + 1)
            if not any(m1):
                continue
            # source reps of the next Bockstein are the deterministic
            # homology basis, which equals m1's target basis, so the
            # composite of a class is its m1 column applied to m2.
            m2 = sq1(zdec, h + 2)
            for col in m1:
                assert GF2.is_zero(apply(m2, col))
                checked += 1
    assert checked >= 4  # 9_42 has four Z/2 summands


def test_bockstein_chain_is_mod2_cycle():
    # [TRIVIAL] sq1() asserts internally that outputs are slice cycles; a
    # successful construction at the trefoil's torsion spot has rank 1.
    cube_z = build_complex(trefoil(), "khovanov", "Z")
    m = sq1(filtered_reduce(q_slice(cube_z.complex, 7)[0]), 3)
    assert GF2.rank(m) == 1


def test_sq1_rank_naive_equals_reduced():
    # [DERIVED] Sq¹ is a map on homology, so its rank does not depend on
    # the model of the slice: the unreduced q-slice (naive) and its jump-0
    # reduction agree at every bidegree.
    links = [knot_9_42(), torus_link(TorusLinkSpec(3, 1)), trefoil(),
             braid_closure(3, [1, 1, -2, 1, -2, -2, -2]),
             braid_closure(3, [1, -2, -2, 1, 1, -2, 1])]
    checked = nonzero = 0
    for d in links:
        for _, sl, _ in q_slices(build_complex(d, "khovanov", "Z").complex):
            naive, reduced = unreduced(sl), filtered_reduce(sl)
            for i in sl.degrees():
                rank = GF2.rank(sq1(naive, i))
                assert rank == GF2.rank(sq1(reduced, i))
                checked += 1
                nonzero += rank > 0
    assert checked == 166 and nonzero == 19
