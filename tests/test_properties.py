"""Randomized property suites over braid-closure diagrams.

Each property runs on hypothesis-generated closures of small braid words;
together the suites cover well over 200 generated cases.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from khs.bockstein import sq1_table
from khs.cube import build_complex, khovanov_homology
from khs.complexes import filtered_reduce
from khs.jones import jones_polynomial
from khs.links import braid_closure
from khs.refined_s import SQ1, adjunction_bound, refined_invariants, s_classical

SET = settings(max_examples=40, deadline=None,
               suppress_health_check=[HealthCheck.too_slow])


def braids(max_len=5, max_strands=3):
    return st.integers(2, max_strands).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.sampled_from(
                [i for k in range(1, n) for i in (k, -k)]),
                min_size=0, max_size=max_len)))


def close(nb):
    n, word = nb
    return braid_closure(n, word)


@SET
@given(braids())
def test_differential_squares_to_zero_and_filtration(nb):
    # [DERIVED] d² = 0 and d never lowers the filtration level, for the
    # undeformed and both deformed theories.
    d = close(nb)
    for theory, ring in (("khovanov", "Z"), ("bar_natan", "gf2"),
                         ("lee", "Q")):
        build_complex(d, theory, ring).complex.check_differential()


@SET
@given(braids())
def test_euler_characteristic_is_jones(nb):
    # [DERIVED] graded Euler characteristic equals the unreduced Jones
    # polynomial computed independently from the Kauffman bracket.
    d = close(nb)
    assert khovanov_homology(d, "Z", optimized=True).graded_euler() == \
        jones_polynomial(d)


@SET
@given(braids(max_len=4))
def test_universal_coefficients(nb):
    # [DERIVED] dim_F2 Kh = free rank + 2-torsion from this and next degree.
    d = close(nb)
    tz = khovanov_homology(d, "Z", optimized=True)
    t2 = khovanov_homology(d, "gf2", optimized=True)
    keys = {k for k in tz.entries} | {k for k in t2.entries}
    for (h, q) in keys:
        free, tor = tz.entries.get((h, q), (0, []))
        _, tor_up = tz.entries.get((h + 1, q), (0, []))
        two = sum(1 for x in tor if x % 2 == 0)
        two_up = sum(1 for x in tor_up if x % 2 == 0)
        assert t2.entries.get((h, q), (0, []))[0] == free + two + two_up


@SET
@given(braids(max_len=4))
def test_sq1_rank_matches_torsion(nb):
    # [DERIVED] rank Sq¹ into (i, q) = number of Z/2 summands of
    # Kh^{i,q}(Z), computed independently via the integer diagonal form.
    d = close(nb)
    expect = {}
    for (h, q), (_, tor) in khovanov_homology(d, "Z",
                                              optimized=True).entries.items():
        n = sum(1 for t in tor if t == 2)
        if n:
            expect[(h, q)] = n
    assert sq1_table(d) == expect


@SET
@given(braids())
def test_filtered_reduce_preserves_homology(nb):
    # [DERIVED] reduction is a homotopy equivalence in every theory.
    d = close(nb)
    for theory, ring in (("khovanov", "gf2"), ("bar_natan", "gf2"),
                         ("lee", "Q")):
        cx = build_complex(d, theory, ring).complex
        assert filtered_reduce(cx).reduced.homology_field() == \
            cx.homology_field()


@SET
@given(braids())
def test_deformed_total_dimension(nb):
    # [PAPER] Lee / Bar-Natan homology of a c-component link has total
    # dimension 2^c.
    d = close(nb)
    c = d.component_count
    bn = build_complex(d, "bar_natan", "gf2").complex
    lee = build_complex(d, "lee", "Q").complex
    assert sum(bn.homology_field().values()) == 2 ** c
    assert sum(lee.homology_field().values()) == 2 ** c


def _s_values(d):
    """(s over 𝔽₂, s over ℚ, s₊^{Sq¹})."""
    res = refined_invariants(d, SQ1)
    return res.s_classical, s_classical(d, 0), res.s_plus


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(3, 4).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.integers(1, n - 1) | st.integers(1 - n, -1),
             min_size=1, max_size=7))), st.data())
def test_crossing_change_inequality(nb, data):
    """[PAPER] s(K₋) ≤ s(K₊) ≤ s(K₋) + 2, where K₊ closes a word with one
    letter σᵢ and K₋ the same word with σᵢ⁻¹ there, no strand reversed.

    The paper's adjunction inequality in k CP²-bar (arXiv 2502.20728, for
    s and for the s-version s₊^{Sq¹} of the Sq¹-refinement; after
    Manolescu–Marengon–Sarkar–Willis) bounds the far end of a cobordism
    Σ by s(L₁) ≤ s(L₀) − χ(Σ) − [Σ]² − |[Σ]| (``adjunction_bound``).  One
    blow-up puts a positive full twist into the strands through a disk D;
    the trace of the link is an annulus per component, so χ(Σ) = 0.
    - The two strands at the crossing pass a horizontal D the same way.
      The twist σᵢ² turns K₋ into K₊ with [Σ] = 2e, [Σ]² = −4 and
      |[Σ]| = 2: s(K₊) ≤ s(K₋) + 2.
    - Seen sideways, they pass a vertical D in opposite directions, and
      the same twist turns K₊ into K₋ with [Σ] = 0: s(K₋) ≤ s(K₊).
    The inequality is stated for s-type invariants, not for r₊, so r₊
    is not checked.
    """
    n, word = nb
    k = data.draw(st.integers(0, len(word) - 1))
    plus, minus = list(word), list(word)
    plus[k], minus[k] = abs(word[k]), -abs(word[k])
    for at_plus, at_minus in zip(_s_values(braid_closure(n, plus)),
                                 _s_values(braid_closure(n, minus))):
        assert at_plus <= adjunction_bound(at_minus, 0, -4, 2)
        assert at_minus <= adjunction_bound(at_plus, 0, 0, 0)
