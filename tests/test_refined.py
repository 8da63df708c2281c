"""Refined s-invariants: classical s, r_plus, s_plus, certificates."""

import copy
import dataclasses
import random

import pytest

from khs.bockstein import bockstein_chain, sq1
from khs.complexes import (
    FilteredComplex,
    class_coords,
    filtered_reduce,
    homology_reps,
    lift_chain,
    push_chain,
    q_slice,
    unreduced,
)
from khs.cube import build_complex
from khs.linalg import GF2
from khs.links import (
    TorusLinkSpec,
    braid_closure,
    empty_link,
    hopf_link,
    parse_pd,
    torus_link,
    trefoil,
    unknot,
)
from khs.refined_s import (
    SQ1,
    ZERO,
    ThetaOperation,
    _Pipeline,
    _certificate_holds,
    _diagram_pipeline,
    adjunction_bound,
    disjoint_union_check,
    refined_invariants,
    s_classical,
    validate_certificate,
)
from khs.tables import builtin_diagram, knot_9_42


def torus_s(p, q):
    """s(T(n,n) with strand split (p, q)) = (p-q)^2 - 2p + 1."""
    return (p - q) ** 2 - 2 * p + 1


# ---------------------------------------------------------------------------
# classical s
# ---------------------------------------------------------------------------


def test_s_classical_knots():
    # [PAPER] s(unknot) = 0, s(trefoil) = ±2.
    for char in (0, 2):
        assert s_classical(unknot(), char=char) == 0
        assert s_classical(trefoil(), char=char) == 2
        assert s_classical(trefoil().mirror(), char=char) == -2


def test_s_classical_torus_links():
    # [PAPER] positive torus links T(n,n) with q strands reversed.
    for n in (2, 3):
        for qr in range(0, n // 2 + 1):
            d = torus_link(TorusLinkSpec(n, qr))
            expect = torus_s(n - qr, qr)
            assert s_classical(d, char=2) == expect
            assert s_classical(d, char=0) == expect


def test_s_empty_convention():
    # [TRIVIAL] s(empty) = 1 by convention.
    assert s_classical(empty_link()) == 1


def test_s_9_42():
    # [PAPER] s(9_42) = 0.
    assert s_classical(knot_9_42(), char=2) == 0
    assert s_classical(knot_9_42(), char=0) == 0


# ---------------------------------------------------------------------------
# theta = 0 sanity: refined invariants collapse to s
# ---------------------------------------------------------------------------


def test_zero_theta_identity():
    # [DERIVED] with theta = 0 the refined invariants equal s, and so do
    # their definitions swept over every level: r_plus = max θ-half-full
    # + 1 and s_plus = max θ-full + 3.
    for d in (unknot(), trefoil(), trefoil().mirror(), hopf_link()):
        for char in (0, 2):
            res = refined_invariants(d, ZERO, char=char)
            assert res.r_plus == res.s_classical == res.s_plus
            pipe = _diagram_pipeline(d, char)[0]
            lvls = pipe.cx0.levels[0]
            dims = {q: pipe.v_dim(q, "zero")
                    for q in range(min(lvls) - 2, max(lvls) + 1, 2)}
            assert max(q for q, v in dims.items() if v >= 1) + 1 == res.r_plus
            assert max(q for q, v in dims.items() if v == 2) + 3 == res.s_plus


# ---------------------------------------------------------------------------
# Sq1-refined invariants
# ---------------------------------------------------------------------------


def test_sq1_requires_char_2():
    # [TRIVIAL]
    with pytest.raises(ValueError):
        refined_invariants(trefoil(), SQ1, char=0)
    with pytest.raises(ValueError):
        ThetaOperation("bogus")


def test_refined_dichotomy_and_parity():
    # [DERIVED] r_plus, s_plus lie in {s, s+2} and share parity with
    # comp_count + 1.
    for name in ("unknot", "trefoil", "trefoil_mirror", "hopf", "hopf_neg",
                 "torus:3:1", "9_42"):
        d = builtin_diagram(name)
        res = refined_invariants(d, SQ1)
        s = res.s_classical
        assert res.r_plus in (s, s + 2)
        assert res.s_plus in (s, s + 2)
        parity = (d.component_count + 1) % 2
        assert res.r_plus % 2 == res.s_plus % 2 == s % 2 == parity


def test_refined_empty_convention():
    # [TRIVIAL] all three invariants are 1 on the empty link.
    res = refined_invariants(empty_link(), SQ1)
    assert (res.s_classical, res.r_plus, res.s_plus) == (1, 1, 1)


def test_refined_torus_links():
    # [PAPER] s_plus = s for every T(n,n); r_plus = s when p = q.
    for n in (2, 3):
        for qr in range(0, n // 2 + 1):
            d = torus_link(TorusLinkSpec(n, qr))
            res = refined_invariants(d, SQ1)
            expect = torus_s(n - qr, qr)
            assert res.s_classical == expect
            assert res.s_plus == expect
            if n - qr == qr:
                assert res.r_plus == expect


def test_refined_9_42():
    # [PAPER] 9_42: s = 0 and the Sq1-refined invariants r_plus = s_plus = 0,
    # which is what pins the slice genus behaviour at this knot.
    res = refined_invariants(knot_9_42(), SQ1)
    assert (res.s_classical, res.r_plus, res.s_plus) == (0, 0, 0)


def test_optimized_matches_naive_refined():
    # [DERIVED] the reduction pipeline and the full-cube pipeline agree.
    for d in (trefoil(), hopf_link(), torus_link(TorusLinkSpec(2, 1))):
        for theta, char in ((ZERO, 0), (ZERO, 2), (SQ1, 2)):
            a = refined_invariants(d, theta, char=char, optimized=True)
            b = refined_invariants(d, theta, char=char, optimized=False)
            assert (a.s_classical, a.r_plus, a.s_plus) == \
                (b.s_classical, b.r_plus, b.s_plus)


def test_certificates_validate():
    # [DERIVED] every emitted certificate passes the independent validator.
    for name in ("trefoil", "hopf", "9_42", "torus:3:1"):
        d = builtin_diagram(name)
        res = refined_invariants(d, SQ1)
        assert res.certificates
        for cert in res.certificates.values():
            if cert is not None:
                assert validate_certificate(d, cert)


def test_certificates_validate_on_the_printed_link():
    # [DERIVED] the link id that compute prints re-parses to the diagram
    # the certificates were made on, even when the PD text lists the
    # crossings of a component that never passes under out of order.
    d = parse_pd("X(4,3,1,2) X(1,3,4,2)")
    for theta, char in ((SQ1, 2), (ZERO, 0)):
        res = refined_invariants(d, theta, char=char)
        certs = [c for c in res.certificates.values() if c is not None]
        assert len(certs) == 2
        assert all(validate_certificate(parse_pd(res.link), c) for c in certs)


def test_tampered_certificate_rejected():
    # [DERIVED] corrupting a certificate chain must fail validation.
    d = trefoil()
    res = refined_invariants(d, SQ1)
    cert = next(c for c in res.certificates.values() if c is not None)
    import copy
    bad = copy.deepcopy(cert)
    gid, val = next(iter(bad.x.items()))
    bad.x[gid] = val + 1  # no longer the right chain
    assert not validate_certificate(d, bad)


@pytest.fixture(scope="module")
def s_plus_942():
    d = knot_9_42()
    return d, refined_invariants(d, SQ1).certificates["s_plus"]


def _off_level(d, cert):
    cube = build_complex(d, "bar_natan", "gf2")
    lv = cube.complex.levels[-1]
    return cube.gen_id(-1, next(k for k, l in enumerate(lv) if l != cert.q))


@pytest.mark.parametrize("field, gid", [
    (None, None),
    ("x", "v-:zz"),
    ("x", "garbage"),
    ("y", "v0101:1x"),
    ("y", "v0_01:1x"),
    ("u", "v-:1"),
    ("z", "v111111111:"),
    ("z", _off_level),
])
def test_validator_answers_false_on_foreign_certificates(s_plus_942, field,
                                                         gid):
    # [TRIVIAL] an unknown or malformed generator id in x, y, u or z, or a
    # z entry off level q, makes the certificate invalid, not the validator
    # raise; the untouched 9₄₂ certificate stays valid.
    d, cert = s_plus_942
    bad = copy.deepcopy(cert)
    if field is not None:
        getattr(bad, field)[gid(d, cert) if callable(gid) else gid] = 1
    assert validate_certificate(d, bad) is (field is None)


def _on_level(d, cert):
    cube = build_complex(d, "bar_natan", "gf2")
    return cube.gen_id(-1, cube.complex.levels[-1].index(cert.q))


@pytest.mark.parametrize("field, value", [
    ("char", 3),
    ("kind", "weird"),
    ("q", "1"),
    ("alpha", "1"),
    ("alpha", 1.0),
    ("beta", "0"),
    ("x", None),
    ("u", 5),
    ("z", {7: 1}),
])
def test_validator_answers_false_on_malformed_fields(s_plus_942, field,
                                                     value):
    # [TRIVIAL] a characteristic other than 0 or 2, a kind other than
    # plain/zero/sq1, a non-int level, a chain that is not a dict of ids, or
    # an α or β that is not a ring element makes the certificate invalid;
    # the validator neither raises nor checks an unknown kind as another.
    d, cert = s_plus_942
    bad = copy.deepcopy(cert)
    setattr(bad, field, value)
    assert validate_certificate(d, bad) is False


@pytest.mark.parametrize("field", ["x", "y", "u", "z"])
def test_validator_answers_false_on_a_string_coefficient(s_plus_942, field):
    # [TRIVIAL] as above for a chain coefficient "1"; an empty chain gets
    # it on a level-q generator of degree −1.
    d, cert = s_plus_942
    bad = copy.deepcopy(cert)
    chain = getattr(bad, field)
    chain[next(iter(chain)) if chain else _on_level(d, cert)] = "1"
    assert validate_certificate(d, bad) is False


def test_validator_answers_false_on_a_string_rational_coefficient():
    # [TRIVIAL] the same over ℚ: a trefoil s_plus certificate whose x
    # carries the string "1" is invalid.
    d = trefoil()
    cert = refined_invariants(d, ZERO, char=0).certificates["s_plus"]
    assert validate_certificate(d, cert)
    bad = copy.deepcopy(cert)
    bad.x[next(iter(bad.x))] = "1"
    assert validate_certificate(d, bad) is False


def _odd_boundary_gen(cube, cols, keep, q):
    """Id of a level-q degree −1 generator among ``keep`` whose column in
    ``cols`` is nonzero mod 2."""
    lv = cube.complex.levels[-1]
    k = next(k for k, g in enumerate(keep)
             if lv[g] == q and any(v % 2 for v in cols[k].values()))
    return cube.gen_id(-1, keep[k])


def _u_not_a_cycle(d, cert):
    cube = build_complex(d, "khovanov", "Z")
    keep = range(cube.complex.dim(-1))
    cert.u[_odd_boundary_gen(cube, cube.complex.columns(-1), keep,
                             cert.q)] = 1


def _z_not_bounding(d, cert):
    cube = build_complex(d, "bar_natan", "gf2")
    gcx, gkeep = q_slice(cube.complex, cert.q, (-1, 0))
    cert.z[_odd_boundary_gen(cube, gcx.columns(-1), gkeep[-1], cert.q)] = 1


def _drop_one_y_term(d, cert):
    del cert.y[next(iter(cert.y))]


def _plain(d, cert):
    cert.kind, cert.u, cert.z = "plain", None, None


@pytest.mark.parametrize("tamper, valid", [
    # x lies on levels q + 2 and above: raising q by 2 puts part of x on
    # level q, where u = z = {} cannot account for it (p-condition), and
    # raising it by 4 puts part of x below q (support check)
    (lambda d, c: setattr(c, "q", c.q + 2), False),
    (lambda d, c: setattr(c, "q", c.q + 4), False),
    (lambda d, c: setattr(c, "alpha", 1 - c.alpha), False),
    (_drop_one_y_term, False),
    (_u_not_a_cycle, False),
    (_z_not_bounding, False),
    (_plain, True),
], ids=["q+2", "q+4", "alpha", "y", "u", "z", "plain"])
def test_validator_checks_each_condition(s_plus_942, tamper, valid):
    # [DERIVED] each condition of the 9₄₂ 𝔽₂ s_plus certificate is checked:
    # x on levels ≥ q, d(y) = x − α𝔰_𝔬 − β𝔰_𝔬̄, u a mod-2 cycle and
    # d_gr(z) = x_q − Sq¹(u); the same x and y make a valid plain
    # certificate, which has no p-part.
    d, cert = s_plus_942
    bad = copy.deepcopy(cert)
    tamper(d, bad)
    assert validate_certificate(d, bad) is valid


@pytest.mark.parametrize("char, theta, changes", [
    (0, ZERO, {"kind": "sq1"}),
    (0, ZERO, {"u": {"bogus": 1}}),
    (2, SQ1, {"kind": "plain", "u": None, "z": {"bogus": 1}}),
], ids=["sq1-over-Q", "zero-with-u", "plain-with-z"])
def test_validator_rejects_what_the_kind_cannot_hold(char, theta, changes):
    # [TRIVIAL] Sq¹ exists only in characteristic 2, and a chain the kind
    # never reads (u for plain and zero, z for plain) must be None or
    # empty: a bogus generator there is one the cube does not have.
    d = trefoil()
    cert = refined_invariants(d, theta, char=char).certificates["s_plus"]
    assert validate_certificate(d, cert)
    assert validate_certificate(d, dataclasses.replace(cert, **changes)) \
        is False


def test_validator_checks_rational_alpha():
    # [DERIVED] over ℚ: the trefoil s_plus certificate with −α in place of
    # α fails the j-condition.
    d = trefoil()
    cert = refined_invariants(d, ZERO, char=0).certificates["s_plus"]
    assert cert.alpha
    bad = copy.deepcopy(cert)
    bad.alpha = -cert.alpha
    assert validate_certificate(d, bad) is False


# ---------------------------------------------------------------------------
# fullness probes
# ---------------------------------------------------------------------------


def test_fullness_profile_unknot():
    # [DERIVED] profile around s: full (dim 2) for q <= s - 1, half-full
    # (dim 1) at q = s + 1, empty from q = s + 3 on; so
    # s = max{full} + 1 = max{half-full} - 1.  dim im(j) ∩ W is v_dim's
    # "plain" mode.
    pipe = _diagram_pipeline(unknot(), 0)[0]
    assert [pipe.v_dim(q, "plain") for q in (-1, 1, 3)] == [2, 1, 0]
    d = trefoil()
    s = s_classical(d, char=2)
    pipe = _diagram_pipeline(d, 2)[0]
    assert [pipe.v_dim(q, "plain") for q in (s - 1, s + 1, s + 3)] == \
        [2, 1, 0]


def test_fullness_monotone_in_q():
    # [DERIVED] dim im(j) ∩ W is decreasing in q.
    pipe = _diagram_pipeline(hopf_link(), 2)[0]
    dims = [pipe.v_dim(q, "plain") for q in range(-6, 7, 2)]
    assert dims == sorted(dims, reverse=True)


def _reference_theta_columns(pipe, q, reduce):
    """The θ columns at q by the route through the reduced ℤ slice: reduce
    the integral q-slice, take a mod-2 homology basis of degree −1 there,
    its Bockstein in the reduced slice, lift that through the slice's
    reduction, push it through the deformed one and cut it to level q."""
    zsl, zkeep = q_slice(pipe.cx_z(), q)
    if not (zsl.dim(-1) and zsl.dim(0)):
        return []
    zdec = reduce(zsl)
    zred = zdec.reduced
    f2 = FilteredComplex("gf2", zred.levels, zred.diff)
    gcx, gkeep, greps = pipe.gr(q)
    gpos = {g: k for k, g in enumerate(gkeep.get(0, []))}
    back = zkeep.get(0, [])
    images = []
    for rep in homology_reps(f2, -1):
        img = lift_chain(zdec, 0, bockstein_chain(zred, -1, rep))
        w = {back[k]: 1 for k, v in img.items() if v % 2}
        images.append({gpos[i]: v for i, v in
                       push_chain(pipe.dec, 0, w).items() if i in gpos})
    return class_coords(gcx, 0, greps, images)


def _theta_oracle_links():
    """Builtins, two closures with nonzero Sq¹ and 15 seeded closures of
    mixed-sign words with 4–8 crossings on 3 strands, some strands
    reversed; 3 of those 15 have Sq¹ sources (at 6 levels), and 1 has
    nonzero Sq¹."""
    links = {name: builtin_diagram(name) for name in
             ("unknot", "trefoil", "trefoil_mirror", "hopf", "hopf_neg",
              "torus:3:0", "torus:3:1", "9_42")}
    for word in ((1, 1, -2, 1, -2, -2, -2), (1, -2, -2, 1, 1, -2, 1)):
        links[word] = braid_closure(3, list(word))
    rng = random.Random(43)
    while len(links) < 25:
        word = [rng.choice((1, -1)) * rng.randrange(1, 3)
                for _ in range(rng.randint(4, 8))]
        if min(word) > 0 or max(word) < 0:
            continue
        rev = [s for s in (1, 2, 3) if rng.random() < 0.3]
        links[tuple(word), tuple(rev)] = braid_closure(3, word, rev)
    return links


@pytest.mark.parametrize("optimized", [True, False])
def test_theta_rank_matches_unreduced_bockstein(optimized):
    # [DERIVED] theta_data(q) lifts the degree −1 gr-homology basis out of
    # the deformed reduction, takes its Bockstein on the whole ℤ cube and
    # pushes it back, in the gr-homology basis of the Bar-Natan complex,
    # which at level q is the mod-2 Khovanov complex.  One reference is
    # bockstein.sq1 on the unreduced integral q-slice: both are Sq¹:
    # Kh^{-1,q} → Kh^{0,q}, so their sources and ranks agree in number at
    # every level of degrees −1 and 0.  The other reduces the ℤ slice and lifts Sq¹ out of it:
    # its sources are another basis of Kh^{-1,q}, so the θ columns span
    # the same space.
    reduce = filtered_reduce if optimized else unreduced
    nonzero = {}
    for name, d in _theta_oracle_links().items():
        pipe = _diagram_pipeline(d, 2, optimized)[0]
        lv = pipe.cx0.levels
        for q in sorted(set(lv.get(-1, [])) | set(lv.get(0, []))):
            cols = [coords for _, coords in pipe.theta_data(q)]
            rank = GF2.rank(cols)
            bm = sq1(unreduced(q_slice(pipe.cx_z(), q)[0]), 0)
            assert (len(cols), rank) == (len(bm), GF2.rank(bm)), (name, q)
            ref = _reference_theta_columns(pipe, q, reduce)
            assert GF2.rank(ref) == rank == GF2.rank(cols + ref), (name, q)
            if rank:
                nonzero[name, q] = rank
    assert nonzero == {("9_42", 1): 1, ((1, 1, -2, 1, -2, -2, -2), -2): 2,
                       ((1, -2, -2, 1, 1, -2, 1), 0): 2,
                       (((-2, -2, -2, -1, 1, 1, 1), (1, 2)), -2): 1}


# ---------------------------------------------------------------------------
# a hand-built complex on which r_plus or s_plus is s + 2
# ---------------------------------------------------------------------------


def _sq1_fixture(level):
    """Pipeline inputs on which Sq¹ hits one level.

    Over 𝔽₂, degree −1 has generators a and b at ``level``, degree 0 has 1
    at level 1, x at level −1 and c at ``level``, and d a = d b = c; 𝔰_𝔬 =
    x and 𝔰_𝔬̄ = 1 + x, so s = 0.  The levels are the same over ℤ, where
    d a = c + 2t and d b = −c, t being the degree-0 generator at
    ``level`` among 1 and x.  So H^{−1} is spanned by a + b, and Sq¹(a + b)
    = t.  :func:`filtered_reduce` cancels a against c, so the source a + b
    comes out of the reduction through :func:`lift_chain`.
    """
    t = 0 if level == 1 else 1
    levels = {-1: [level, level], 0: [1, -1, level]}
    cx0 = FilteredComplex("gf2", levels,
                          {-1: [{2: 1}, {2: 1}], 0: [{}, {}, {}]})
    cx_z = FilteredComplex("Z", levels, {-1: [{2: 1, t: 2}, {2: -1}],
                                         0: [{}, {}, {}]})
    return cx0, ({1: 1}, {0: 1, 1: 1}), lambda: cx_z


@pytest.mark.parametrize("reduce", [filtered_reduce, unreduced])
@pytest.mark.parametrize("level, values, name, q", [
    (1, (0, 2, 0), "r_plus", 1),
    (-1, (0, 0, 2), "s_plus", -1),
])
def test_sq1_reaches_s_plus_2_on_a_hand_built_complex(reduce, level, values,
                                                      name, q):
    # [DERIVED] where Sq¹ hits the level-1 generator, [𝔰_𝔬] + [𝔰_𝔬̄] = [1]
    # is θ-half-full at q = s + 1 and r_plus = s + 2; where it hits x,
    # [𝔰_𝔬] = [x] is θ-full at q = s − 1 and s_plus = s + 2.  The
    # certificate of that claim sits at q and has u = a + b, whether or
    # not the reduction cancelled a against c, and every certificate
    # passes the validator's chain checks.  With θ = 0 nothing is refined.
    cx0, canon, z_source = _sq1_fixture(level)
    pipe = _Pipeline(cx0, canon, z_source, reduce, "fixture")
    assert pipe.cx.dim(-1) == (1 if reduce is filtered_reduce else 2)
    s, r_plus, s_plus, certs = pipe.invariants("sq1")
    assert (s, r_plus, s_plus) == values
    assert (certs[name].q, certs[name].u) == (q, {0: 1, 1: 1})
    assert all(_certificate_holds(cx0, canon, z_source, cert)
               for cert in certs.values())
    assert pipe.invariants("zero")[:3] == (0, 0, 0)


@pytest.mark.parametrize("level", [1, -1])
@pytest.mark.parametrize("mode", ["sq1", "zero"])
def test_validator_core_checks_hand_built_certificates(level, mode):
    # [DERIVED] every certificate of the hand-built complex passes the
    # validator's chain checks; moving it to q + 2, flipping α, emptying a
    # nonempty u or cutting it to {a}, which is not a mod-2 cycle, makes
    # it fail.
    cx0, canon, z_source = _sq1_fixture(level)
    pipe = _Pipeline(cx0, canon, z_source, filtered_reduce, "fixture")
    certs = pipe.invariants(mode)[3]
    for cert in certs.values():
        assert _certificate_holds(cx0, canon, z_source, cert)
        bad = [dataclasses.replace(cert, q=cert.q + 2),
               dataclasses.replace(cert, alpha=1 - cert.alpha)]
        if cert.u:
            bad += [dataclasses.replace(cert, u={}),
                    dataclasses.replace(cert, u={0: 1})]
        for b in bad:
            assert not _certificate_holds(cx0, canon, z_source, b)
    assert any(c.u for c in certs.values()) == (mode == "sq1")


# ---------------------------------------------------------------------------
# disjoint unions and adjunction arithmetic
# ---------------------------------------------------------------------------


def test_disjoint_union_additivity():
    # [PAPER] s_plus(L ⊔ T) = s_plus(L) + s_plus(T) - 1 when the Sq1
    # vanishing hypothesis holds for T.
    for left in (empty_link(), unknot(), trefoil()):
        for right in (torus_link(TorusLinkSpec(2, 1)),
                      torus_link(TorusLinkSpec(2, 0))):
            rep = disjoint_union_check(left, right)
            assert rep.hypothesis_ok
            assert rep.equality is True
            assert rep.s_plus_union == rep.s_plus_left + rep.s_plus_right - 1


def test_disjoint_union_flags_a_failed_vanishing_hypothesis():
    # [DERIVED] T, the closure of σ₁σ₁σ₂⁻¹σ₁σ₂⁻¹σ₂⁻¹σ₂⁻¹, has 2 components,
    # s = −1 over 𝔽₂, and Sq¹ of rank 2 into (0, −2) = (0, s − 1), so the
    # hypothesis fails and the union is not computed.
    t = braid_closure(3, [1, 1, -2, 1, -2, -2, -2])
    assert t.component_count == 2 and s_classical(t, char=2) == -1
    rep = disjoint_union_check(unknot(), t)
    assert rep.hypothesis_ok is False
    assert rep.s_plus_union is None and rep.equality is None


def test_adjunction_bound_arithmetic():
    # [TRIVIAL] bound = s0 - chi - [Σ]² - |[Σ]|, the last term the L1 norm
    # of the class of Σ, which cannot be negative.
    assert adjunction_bound(1, 1, -1, 1) == 0
    assert adjunction_bound(3, -1, 0, 2) == 2
    with pytest.raises(ValueError):
        adjunction_bound(0, 0, 0, -1)


def test_adjunction_bound_unknot_disk():
    # [PAPER] the unknot's standard disk is null-homologous (|[Σ]| = 0),
    # a cobordism from the empty link (s = 1) with χ = 1: bound 0 = s.
    assert s_classical(unknot()) <= adjunction_bound(1, 1, 0, 0) == 0


def test_adjunction_942():
    # [PAPER] the refined invariant of 9_42 is consistent with the genus-1
    # surface of self-intersection -1 in the blown-up 4-ball: s_plus = 0 <= 0.
    s_plus = refined_invariants(knot_9_42(), SQ1).s_plus
    assert s_plus <= adjunction_bound(1, 1, -1, 1)


def test_disjoint_union_with_unknot_component():
    # [DERIVED] adding a split unknot drops s by 1 (and keeps dichotomy).
    d = trefoil().disjoint_union(unknot())
    assert s_classical(d, char=2) == s_classical(trefoil(), char=2) - 1
