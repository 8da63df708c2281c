"""Diagram layer: PD parsing, orientations, constructions.

Tag key used across the test suite:
  [DERIVED] -- expected value recomputed here by an independent method.
  [PAPER]   -- value taken from the published literature on these invariants.
  [TRIVIAL] -- structural/bookkeeping fact asserted directly.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from khs.links import (
    NonPlanarError,
    OrientedLinkDiagram,
    PDError,
    TorusLinkSpec,
    braid_closure,
    empty_link,
    hopf_link,
    oriented_resolution,
    parse_pd,
    resolution_circles,
    serialize_pd,
    torus_link,
    trefoil,
    unknot,
)
from khs.tables import BUILTIN_NAMES, builtin_diagram


def test_parse_roundtrip():
    # [TRIVIAL] serialize . parse is the identity on normalized PD text.
    txt = serialize_pd(trefoil())
    assert serialize_pd(parse_pd(txt)) == txt


def test_parse_rejects_garbage():
    # [TRIVIAL]
    with pytest.raises(PDError):
        parse_pd("X(1,2,3)")
    with pytest.raises(PDError):
        parse_pd("X(nope")
    with pytest.raises(PDError):
        # arc 1 used three times
        parse_pd("X(1,1,1,2) X(2,3,3,4)")
    # the trefoil has one component, index 0, and no loop count is negative
    for suffix in ("reversed=5", "reversed=-1", "loops=-1", "loops=x",
                   "reversed=0,y", "loops=1,2"):
        with pytest.raises(PDError):
            parse_pd(f"X(1,4,2,5) X(3,6,4,1) X(5,2,6,3) | {suffix}")


def test_empty_and_unknot():
    # [TRIVIAL]
    assert empty_link().is_empty()
    assert not unknot().is_empty()
    assert empty_link().component_count == 0
    assert unknot().component_count == 1
    assert unknot().n_crossings == 0  # crossingless free loop
    assert unknot().writhe() == 0


def test_trefoil_is_right_handed():
    # [DERIVED] all three crossings positive => writhe 3, n+ = 3.
    d = trefoil()
    assert d.n_crossings == 3
    assert (d.n_plus, d.n_minus) == (3, 0)
    assert d.writhe() == 3
    assert d.component_count == 1


def test_mirror_swaps_signs():
    # [TRIVIAL]
    d = trefoil().mirror()
    assert (d.n_plus, d.n_minus) == (0, 3)
    assert d.writhe() == -3


def test_reverse_all_preserves_signs():
    # [DERIVED] reversing every component preserves each crossing sign.
    d = torus_link(TorusLinkSpec(2, 1))
    r = d.with_orientations([not f for f in d.component_orientations])
    assert (r.n_plus, r.n_minus) == (d.n_plus, d.n_minus)


def test_hopf_link():
    # [DERIVED] positive Hopf link: 2 crossings, both positive, 2 components.
    d = hopf_link()
    assert d.component_count == 2
    assert (d.n_plus, d.n_minus) == (2, 0)


def test_torus_link_spec_validation():
    # [TRIVIAL]
    with pytest.raises(ValueError):
        TorusLinkSpec(2, 2)  # needs 0 <= 2q <= n
    with pytest.raises(ValueError):
        TorusLinkSpec(0, 0)


def test_torus_link_basic_invariants():
    # [DERIVED] T(n,n) closes an ((sigma_1 ... sigma_{n-1})^n) braid:
    # n components, n(n-1) crossings.
    for n in (2, 3, 4):
        d = torus_link(TorusLinkSpec(n, 0))
        assert d.component_count == n
        assert d.n_crossings == n * (n - 1)
        assert d.n_minus == 0  # no strands reversed => all positive
    # reversing q strands flips signs of crossings between the two groups
    d = torus_link(TorusLinkSpec(3, 1))
    assert d.component_count == 3
    assert d.n_plus + d.n_minus == 6
    assert d.n_minus > 0


def test_disjoint_union_counts():
    # [TRIVIAL]
    d = trefoil().disjoint_union(hopf_link())
    assert d.component_count == 3
    assert d.n_crossings == 5
    e = empty_link().disjoint_union(trefoil())
    assert (e.component_count, e.n_crossings, e.writhe()) == (1, 3, 3)


def test_braid_closure_components():
    # [DERIVED] closure components = cycles of the underlying permutation.
    assert braid_closure(2, []).component_count == 2
    assert braid_closure(2, [1]).component_count == 1
    assert braid_closure(3, [1, 2, 1, 2, 1, 2]).component_count == 3


def test_resolution_circle_counts():
    # [DERIVED] all-0 resolution of the closed (sigma_1)^2 braid (Hopf):
    # Seifert-style smoothing gives 2 circles; all-1 gives 2.
    d = hopf_link()
    assert len(resolution_circles(d, (0, 0))[0]) == 2
    assert len(resolution_circles(d, (1, 1))[0]) == 2
    assert len(resolution_circles(d, (1, 0))[0]) == 1


def test_oriented_resolution_parities():
    # [DERIVED] the oriented resolution of the positive Hopf link is two
    # nested circles, which differ in parity (one even, one odd).
    assert sorted(oriented_resolution(hopf_link())) == [0, 1]


def test_oriented_vertex_matches_signs():
    # [TRIVIAL] positive crossings resolve to 0 in the oriented resolution.
    d = torus_link(TorusLinkSpec(2, 1))
    v = d.oriented_vertex()
    for ci in range(d.n_crossings):
        assert v[ci] == (0 if d.sign(ci) > 0 else 1)


def test_nonplanar_rejected():
    # [TRIVIAL] PD code of a virtual-style gadget with no planar embedding.
    bad = "X(1,2,3,4) X(3,4,1,2)"
    with pytest.raises(NonPlanarError):
        oriented_resolution(parse_pd(bad))

_SUFFIX_PARTS = st.one_of(
    st.lists(st.integers(-3, 6), max_size=3).map(
        lambda xs: "reversed=" + ",".join(map(str, xs))),
    st.integers(-3, 3).map(lambda n: f"loops={n}"),
    st.sampled_from(["loops=", "reversed", "reversed=1,,0", "loops=1,1",
                     "twist=2", "=0"]))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([n for n in BUILTIN_NAMES if ":" not in n]
                       + ["torus:3:1", "torus:4:2"]),
       st.lists(_SUFFIX_PARTS, max_size=3))
def test_suffixes_parse_or_raise_pderror(name, parts):
    # [TRIVIAL] any reversed=/loops= suffix on a builtin PD code gives a
    # diagram or a PDError, never another exception.
    body = serialize_pd(builtin_diagram(name)).partition("|")[0].strip()
    text = body + " | " + " ".join(parts)
    try:
        d = parse_pd(text)
    except PDError:
        return
    assert d.free_loops >= 0
    assert len(d.component_orientations) == d.component_count


def test_negative_letters_give_the_mirror_trefoil():
    # [DERIVED] σ₁⁻³ closes to the mirror of σ₁³: the Jones polynomial is
    # the right-handed trefoil's under q -> 1/q, and s changes sign.
    from khs.jones import jones_polynomial
    from khs.refined_s import s_classical

    left = braid_closure(2, [-1, -1, -1])
    assert [left.sign(i) for i in range(3)] == [-1, -1, -1]
    assert jones_polynomial(left) == {
        -q: v for q, v in jones_polynomial(trefoil()).items()}
    for char in (0, 2):
        assert s_classical(left, char) == -s_classical(trefoil(), char) == -2


def test_figure_eight_braid_is_amphichiral():
    # [DERIVED] σ₁σ₂⁻¹σ₁σ₂⁻¹ is the figure-eight knot, which is amphichiral:
    # its unnormalized Jones polynomial (q + 1/q)(q⁴ − q² + 1 − q⁻² + q⁻⁴)
    # is q⁵ + q⁻⁵.
    from khs.jones import jones_polynomial

    d = braid_closure(3, [1, -2, 1, -2])
    assert d.component_count == 1 and d.writhe() == 0
    assert {q: v for q, v in jones_polynomial(d).items() if v} == \
        {5: 1, -5: 1}


def test_mixed_sign_braids_are_planar():
    # [DERIVED] every closure of a braid is a planar diagram, so each of
    # the 280 mixed-sign 3-strand words of length <= 4 has an oriented
    # resolution.
    from itertools import product

    words = [w for n in range(1, 5) for w in product((1, -1, 2, -2), repeat=n)
             if min(w) < 0 < max(w)]
    assert len(words) == 280
    for w in words:
        oriented_resolution(braid_closure(3, w))


def test_reversed_strands_flag_their_component():
    # [DERIVED] reversing one component of a two-component link flips the
    # sign of every crossing between the components.
    d = braid_closure(3, [-1, -1, 2, -2], reversed_strands=[2])
    comp = d.arc_component[2]  # the strand starting at position 2
    assert d.component_orientations == [i == comp for i in range(3)]
    hopf_neg = braid_closure(2, [-1, -1])
    assert hopf_neg.writhe() == -2
    assert braid_closure(2, [-1, -1], reversed_strands=[2]).writhe() == 2
    # an untouched position closes to a free loop, flagged in its own slot
    e = braid_closure(3, [1, -1], reversed_strands=[3])
    assert e.free_loops == 1 and e.component_orientations == [
        False, False, True]
