"""Jones polynomial and determinant oracles (state-sum, no homology)."""

from khs.jones import determinant, jones_polynomial
from khs.links import (
    TorusLinkSpec,
    empty_link,
    hopf_link,
    torus_link,
    trefoil,
    unknot,
)
from khs.tables import builtin_diagram, knot_9_42


def test_unknot_and_empty():
    # [TRIVIAL] unreduced normalization: J(unknot) = q + q^-1, J(empty) = 1.
    assert jones_polynomial(unknot()) == {1: 1, -1: 1}
    assert jones_polynomial(empty_link()) == {0: 1}


def test_trefoil_jones():
    # [PAPER] right-handed trefoil, unreduced: q + q^3 + q^5 - q^9.
    assert jones_polynomial(trefoil()) == {1: 1, 3: 1, 5: 1, 9: -1}


def test_mirror_inverts_variable():
    # [DERIVED] J(mirror K)(q) = J(K)(q^-1).
    for d in (trefoil(), hopf_link(), knot_9_42()):
        j = jones_polynomial(d)
        jm = jones_polynomial(d.mirror())
        assert jm == {-e: c for e, c in j.items()}


def test_9_42_jones_and_det():
    # [PAPER] 9_42: det = 7; unreduced Jones (q + q^-1) * V(q^2) with
    # V = t^-3 - t^-2 + t^-1 - 1 + t - t^2 + t^3.
    d = knot_9_42()
    assert determinant(d) == 7
    assert jones_polynomial(d) == {7: 1, -7: 1}


def test_determinants():
    # [PAPER] det(trefoil) = 3, det(Hopf) = 2, det(unknot) = 1.
    assert determinant(trefoil()) == 3
    assert determinant(hopf_link()) == 2
    assert determinant(unknot()) == 1


def test_torus_orientation_reversal():
    # [DERIVED] reversing one Hopf strand mirrors the link, so the Jones
    # polynomials are related by q -> q^-1; and the builtin hopf agrees
    # with the torus-link construction.
    j_par = jones_polynomial(torus_link(TorusLinkSpec(2, 0)))
    j_rev = jones_polynomial(torus_link(TorusLinkSpec(2, 1)))
    assert j_rev == {-e: c for e, c in j_par.items()}
    assert jones_polynomial(builtin_diagram("hopf")) == j_par


def test_hopf_jones():
    # [PAPER] positive Hopf link, unreduced: q^6 + q^4 + q^2 + 1.
    assert jones_polynomial(hopf_link()) == {6: 1, 2: 1, 4: 1, 0: 1}
