"""Fullness framework and the refined Rasmussen invariants r₊^θ, s₊^θ.

For a nonempty oriented link L and a field F (char 0: Lee deformation over
ℚ; char 2: Bar-Natan deformation over 𝔽₂), let W(L) ⊂ H⁰ of the deformed
complex be the span of the canonical classes [𝔰_𝔬], [𝔰_𝔬̄] of the chosen
orientation and its reverse.  For q ≡ #components (mod 2) there are maps

    Kh^{-1,q}(F) --θ--> Kh^{0,q}(F) <--p-- H⁰(C^{≥q}) --j--> H⁰(C),

where C is the deformed filtered complex, C^{≥q} its sublevel subcomplex,
and Kh^{0,q} the homology of the associated graded (= Khovanov homology).
The level q is θ-half-full / θ-full when V^q := j(p⁻¹(im θ)) ∩ W has
dimension ≥ 1 / = 2, and plainly half-full / full when im(j) ∩ W does.
The invariants are

    s^F   = max{q half-full} − 1 = max{q full} + 1,
    r₊^θ  = max{q θ-half-full} + 1,
    s₊^θ  = max{q θ-full} + 3,

with r₊^θ, s₊^θ ∈ {s^F, s^F + 2} and r₊^θ(∅) = s₊^θ(∅) = s(∅) := 1.  The
supported operations θ are the zero operation and Sq¹ (the Bockstein, char
2 only).  Wherever a fullness claim is made, an explicit chain-level
certificate is produced; :func:`validate_certificate` re-checks one from
scratch using only chain arithmetic: no solve, rank or reduction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache

from . import linalg
from .bockstein import bockstein_chain, sq1
from .complexes import (
    Column,
    FilteredComplex,
    SublevelHomology,
    apply,
    class_coords,
    filtered_reduce,
    homology_reps,
    lift_chain,
    push_chain,
    q_slice,
    sublevel_homology,
    unreduced,
)
from .cube import CubeComplex, build_complex, canonical_cycle
from .links import OrientedLinkDiagram, serialize_pd


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThetaOperation:
    """A stable cohomology operation used to refine fullness.

    ``kind`` is "zero" or "sq1"; the degree is forced by the kind (0 and 1
    respectively), and Sq¹ only exists over characteristic 2.
    """

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in ("zero", "sq1"):
            raise ValueError(f"unknown theta kind {self.kind!r}")


ZERO = ThetaOperation("zero")
SQ1 = ThetaOperation("sq1")


@dataclass
class FullnessCertificate:
    """Witness chains for one fullness claim at level q.

    All chains are stored over the original cube bases, keyed by generator
    id strings ("v<bits>:<labels>"), or by index inside :class:`_Pipeline`
    and :func:`_certificate_holds`.  ``x`` is a degree-0 cycle of the
    deformed complex supported on levels ≥ q whose class maps under j to
    α[𝔰_𝔬] + β[𝔰_𝔬̄]; ``y`` exhibits x − α𝔰_𝔬 − β𝔰_𝔬̄ as a boundary.  For
    kind "zero"/"sq1" the level-q part of x is exhibited as a graded
    boundary (kind "zero") or as Sq¹ of the source cycle ``u`` plus a
    graded boundary ``z`` (kind "sq1").  Kind "plain" carries no p-part.
    """

    q: int
    kind: str  # "plain" | "zero" | "sq1"
    char: int
    alpha: int | Fraction
    beta: int | Fraction
    x: dict[str, int | Fraction]
    y: dict[str, int | Fraction]
    u: dict[str, int] | None = None
    z: dict[str, int | Fraction] | None = None


@dataclass
class RefinedSResult:
    link: str
    component_count: int
    char: int
    theta: ThetaOperation
    s_classical: int
    r_plus: int
    s_plus: int
    certificates: dict[str, FullnessCertificate | None]

    def __post_init__(self) -> None:
        values = (self.s_classical, self.r_plus, self.s_plus)
        where = (f" (s, r_plus, s_plus) = {values}, h=0, "
                 f"for link {self.link}")
        for v in (self.r_plus, self.s_plus):
            if v not in (self.s_classical, self.s_classical + 2):
                raise AssertionError("refined invariant outside {s, s+2}"
                                     + where)
        parity = (self.component_count + 1) % 2
        if any(v % 2 != parity for v in values):
            raise AssertionError("invariant parity violates components+1"
                                 + where)


@dataclass
class DisjointUnionReport:
    hypothesis_ok: bool
    s_plus_union: int | None
    s_plus_left: int
    s_plus_right: int
    equality: bool | None


# ---------------------------------------------------------------------------
# The computation pipeline
# ---------------------------------------------------------------------------

# characteristic -> (deformed theory, coefficient ring)
_FIELDS = {0: ("lee", "Q"), 2: ("bar_natan", "gf2")}


class _Pipeline:
    """Shared state for all fullness computations over one deformed complex.

    The inputs: the deformed complex ``cx0`` (its ring gives the
    characteristic), its degree-0 chains ``canon`` = (𝔰_𝔬, 𝔰_𝔬̄), a
    zero-argument ``z_source`` of the integral Khovanov complex on the same
    generators (called once, by Sq¹ only, for its Bockstein), ``reduce``
    (:func:`filtered_reduce` cancels jump-0 pairs of ``cx0``; the naive
    :func:`unreduced` cancels nothing) and the ``link`` that exit-3
    messages name.  Certificates are chains over the indices of ``cx0``.
    """

    def __init__(self, cx0: FilteredComplex, canon: tuple[Column, Column],
                 z_source, reduce, link: str):
        self.cx0 = cx0
        self.canon = canon
        self.char = 2 if cx0.ring == "gf2" else 0
        self.link = link
        self.ops = cx0.ops
        self.cx_z = cache(z_source)
        self.dec = reduce(cx0)
        self.cx = self.dec.reduced
        self.full_reps = homology_reps(self.cx, 0)
        # [𝔰_𝔬] and [𝔰_𝔬̄] as sparse columns over the basis full_reps
        coords = class_coords(self.cx, 0, self.full_reps,
                              [push_chain(self.dec, 0, c) for c in canon])
        if None in coords:
            raise AssertionError(self._failure(
                "canonical chain is not a cycle of C", None))
        self.w = [{i: v for i, v in enumerate(c) if v} for c in coords]
        if self.ops.rank(self.w) != 2:
            raise AssertionError(self._failure(
                "canonical classes are not independent", None))
        # per-level results, each computed once: plain dicts, so that a
        # finished pipeline is freed as soon as its last reference goes
        self._sh_cache: dict[int, SublevelHomology] = {}
        self._gr_cache: dict[int, tuple] = {}
        self._theta_cache: dict[int, list] = {}
        self._system_cache: dict[tuple[int, str], tuple] = {}

    # -- cached homological data ---------------------------------------------

    def sh(self, q: int) -> SublevelHomology:
        if q not in self._sh_cache:
            try:
                self._sh_cache[q] = sublevel_homology(
                    self.cx, q, 0, self.full_reps, *self.gr(q))
            except AssertionError as e:
                # its message ends "at q=…, h=0", as _failure's would
                raise AssertionError(f"{e}, for link {self.link}") from e
        return self._sh_cache[q]

    def gr(self, q: int):
        """Graded slice at q, its index lists and its degree-0 homology
        basis."""
        if q not in self._gr_cache:
            gcx, gkeep = q_slice(self.cx, q)
            self._gr_cache[q] = (gcx, gkeep, homology_reps(gcx, 0))
        return self._gr_cache[q]

    def theta_data(self, q: int) -> list[tuple[Column, list]]:
        """Per Sq¹-source basis class: (source cycle in original Khovanov
        coordinates at degree −1, coordinates of its Sq¹ image in the
        gr-homology basis of :meth:`gr`).

        Over 𝔽₂, gr_q of the Bar-Natan cube is the mod-2 Khovanov slice.
        The lift out of the reduction is a filtered chain map, so the
        level-q parts of the lifted degree −1 gr-homology basis are a basis
        of Kh^{−1,q}(𝔽₂); their Bockstein on the ℤ cube is pushed back."""
        if self.char != 2:
            raise ValueError("Sq¹ refinement needs characteristic 2")
        if q in self._theta_cache:
            return self._theta_cache[q]
        gcx, gkeep, greps = self.gr(q)
        back = gkeep.get(-1, [])
        gpos = {g: k for k, g in enumerate(gkeep.get(0, []))}
        lv = self.cx0.levels.get(-1, [])
        us, images = [], []
        for rep in homology_reps(gcx, -1):
            lifted = lift_chain(self.dec, -1,
                                {back[k]: v for k, v in rep.items()})
            us.append({i: 1 for i, v in lifted.items()
                       if lv[i] == q and v % 2})
            try:
                w = bockstein_chain(self.cx_z(), -1, us[-1])
            except AssertionError as e:
                # its message ends "at q=…, h=0", as _failure's would
                raise AssertionError(f"{e}, for link {self.link}") from e
            # the image in the gr basis of the working complex
            images.append({gpos[i]: v for i, v in
                           push_chain(self.dec, 0, w).items() if i in gpos})
        coords = class_coords(gcx, 0, greps, images)
        if None in coords:
            raise AssertionError(self._failure(
                "Sq¹ image is not a graded cycle", q))
        self._theta_cache[q] = out = list(zip(us, coords))
        return out

    # -- the fullness linear systems -----------------------------------------

    def _system(self, q: int, mode: str):
        """Columns of the witness system over (a_k | c_m) and the number
        of a_k; built once per (q, mode).

        Rows 0..nfull−1 are coordinates in the degree-0 homology basis
        (the j-condition), rows nfull.. are coordinates in the gr-homology
        basis (the p-condition; absent for mode "plain").
        """
        key = (q, mode)
        if key in self._system_cache:
            return self._system_cache[key]
        SH = self.sh(q)
        nfull = len(self.full_reps)
        ngr = len(self.gr(q)[2]) if mode != "plain" else 0
        # j coordinates have length nfull, so p coordinate g is row nfull+g
        cols = [{t: v for t, v in enumerate(j + p[:ngr]) if v}
                for j, p in zip(SH.j_mat, SH.p_mat)]
        n_a = len(cols)
        if mode == "sq1":
            cols += [{nfull + g: -v for g, v in enumerate(coords) if v}
                     for _, coords in self.theta_data(q)]
        self._system_cache[key] = cols, n_a
        return cols, n_a

    def v_dim(self, q: int, mode: str) -> int:
        """dim of the achievable (α, β) subspace of W at level q."""
        cols, _ = self._system(q, mode)
        return 2 - len(self.ops.independent(cols, self.w))

    def witness(self, q: int, targets: list[tuple], mode: str):
        """(α, β, a_k, c_m) for the first (α, β) of ``targets`` whose
        α[𝔰_𝔬] + β[𝔰_𝔬̄] level q hits, or None; one solve for all."""
        cols, n_a = self._system(q, mode)
        sols = self.ops.solve(cols, [apply(self.w, {0: al, 1: be})
                                     for al, be in targets])
        for (alpha, beta), sol in zip(targets, sols):
            if sol is not None:
                return (alpha, beta,
                        {k: v for k, v in sol.items() if k < n_a and v},
                        {k - n_a: v for k, v in sol.items() if k >= n_a and v})
        return None

    def first_witness(self, q: int, mode: str):
        """(α, β, a_k, c_m) with (α, β) ≠ 0 from the first such vector of
        a homogeneous solution basis, or None if level q hits nothing."""
        cols, n_a = self._system(q, mode)
        # homogeneous system in (α, β, a, c):  α w_o + β w_ob − Σ a… − Σ c… = 0
        neg = ({i: -v for i, v in c.items()} for c in cols)
        for sol in self.ops.nullspace(self.w + list(neg)):
            alpha = sol.get(0, 0)
            beta = sol.get(1, 0)
            if alpha or beta:
                a = {k - 2: v for k, v in sol.items() if 2 <= k < 2 + n_a and v}
                c = {k - 2 - n_a: v for k, v in sol.items()
                     if k >= 2 + n_a and v}
                return alpha, beta, a, c
        return None

    # -- certificates ---------------------------------------------------------

    def certificates(self, wits: dict[str, tuple],
                     mode: str) -> dict[str, FullnessCertificate]:
        """One certificate per witness (q, α, β, a_k, c_m); the j-condition
        chains y of all of them come from one solve against the full d₋₁."""
        coeff = self.ops.coeff
        cx0 = self.cx0
        xs = []
        for q, _, _, a, _ in wits.values():
            x_cx = {i: coeff(v) for i, v in apply(self.sh(q).reps, a).items()}
            xs.append(lift_chain(self.dec, 0, x_cx))
        # j-condition: d(y) = x − α·𝔰_𝔬 − β·𝔰_𝔬̄ in the original cube
        ys = self.ops.solve(cx0.columns(-1), [
            apply([x, *self.canon], {0: 1, 1: -al, 2: -be})
            for x, (_, al, be, _, _) in zip(xs, wits.values())])
        return {name: self.certificate(q, al, be, c, x, y, mode)
                for (name, (q, al, be, _, c)), x, y
                in zip(wits.items(), xs, ys)}

    def certificate(self, q: int, alpha, beta, c: dict, x: Column,
                    y: Column | None, mode: str) -> FullnessCertificate:
        if y is None:
            raise AssertionError(self._failure(
                "j-condition witness solve failed", q))
        cx0 = self.cx0
        u = z = None
        if mode != "plain":
            # p-condition: level-q part of x is (Sq¹ u) + graded boundary
            lv0 = cx0.levels[0]
            xq = {i: v for i, v in x.items() if lv0[i] == q}
            if mode == "sq1":
                sources = [src for src, _ in self.theta_data(q)]
                u = {i: 1 for i, v in apply(sources, c).items() if v % 2}
                w = bockstein_chain(self.cx_z(), -1, u)
                for i, v in w.items():
                    xq[i] = xq.get(i, 0) - v
            gcx0, gkeep0 = q_slice(cx0, q, (-1, 0))
            gpos = {g: k for k, g in enumerate(gkeep0.get(0, []))}
            xq_loc = {gpos[i]: v for i, v in xq.items()}
            z_loc, = self.ops.solve(gcx0.columns(-1), [xq_loc])
            if z_loc is None:
                raise AssertionError(self._failure(
                    "p-condition witness solve failed", q))
            back = gkeep0.get(-1, [])
            z = {back[k]: v for k, v in z_loc.items() if v}
        return FullnessCertificate(q, mode, self.char, alpha, beta, x,
                                   {i: v for i, v in y.items() if v}, u, z)

    def _failure(self, stage: str, q: int | None) -> str:
        """Exit-3 message naming the stage, the level q (None: a statement
        about every level) and the link; every claim here is in h = 0."""
        where = "all q" if q is None else f"q={q}"
        return f"{stage} at {where}, h=0, for link {self.link}"

    # -- the invariants -------------------------------------------------------

    def s_value(self) -> int:
        """s^F via max half-full − 1, asserted equal to max full + 1."""
        lvls = self.cx0.levels[0]
        q = max(lvls)
        while self.v_dim(q, "plain") < 1:
            q -= 2
            if q < min(lvls):
                raise AssertionError(self._failure(
                    "no half-full level found", q))
        if self.v_dim(q, "plain") != 1 or self.v_dim(q - 2, "plain") != 2:
            raise AssertionError(self._failure(
                "the two s-invariant formulas disagree", q))
        return q - 1

    def invariants(self, mode: str) -> tuple[int, int, int, dict]:
        """(s, r₊^θ, s₊^θ) for θ of kind ``mode`` and the certificates
        "r_plus" and "s_plus", keyed by indices of ``cx0``.

        Only the levels q ∈ {s−3, s−1, s+1} are tested, as justified by the
        dichotomy r₊, s₊ ∈ {s, s+2}.
        """
        s = self.s_value()
        # r₊ criterion: x ∈ H⁰(C^{≥ s+1}) with j(x) = [𝔰_𝔬] ± [𝔰_𝔬̄],
        # p(x) ∈ im θ; over 𝔽₂ the two signs are one target
        targets = [(1, 1)] if self.char == 2 else [(1, 1), (1, -1)]
        wit = self.witness(s + 1, targets, mode)
        if wit is not None:
            r_plus, r_wit = s + 2, (s + 1, *wit)
        else:
            wit = self.first_witness(s - 1, mode)
            if wit is None:
                raise AssertionError(self._failure(
                    "s−1 must be θ-half-full by the dichotomy", s - 1))
            r_plus, r_wit = s, (s - 1, *wit)

        # s₊ criterion: x ∈ H⁰(C^{≥ s−1}) with j(x) = [𝔰_𝔬], p(x) ∈ im θ
        wit = self.witness(s - 1, [(1, 0)], mode)
        if wit is not None:
            s_plus, s_wit = s + 2, (s - 1, *wit)
        else:
            if self.v_dim(s - 3, mode) != 2:
                raise AssertionError(self._failure(
                    "s−3 must be θ-full by the dichotomy", s - 3))
            wit = self.witness(s - 3, [(1, 0)], mode)
            if wit is None:
                raise AssertionError(self._failure(
                    "θ-full level admits no [𝔰_𝔬] witness", s - 3))
            s_plus, s_wit = s, (s - 3, *wit)
        certs = self.certificates({"r_plus": r_wit, "s_plus": s_wit}, mode)
        return s, r_plus, s_plus, certs


def _diagram_pipeline(d: OrientedLinkDiagram, char: int,
                      optimized: bool = True) -> tuple[_Pipeline, CubeComplex]:
    """The pipeline of the nonempty ``d``'s deformed cube over ``char``,
    and that cube, whose ``gen_id`` names the pipeline's indices."""
    if char not in _FIELDS:
        raise ValueError("characteristic must be 0 or 2")
    cube = build_complex(d, *_FIELDS[char])
    canon = (canonical_cycle(cube), canonical_cycle(cube, reverse=True))
    pipe = _Pipeline(cube.complex, canon,
                     lambda: build_complex(d, "khovanov", "Z").complex,
                     filtered_reduce if optimized else unreduced,
                     serialize_pd(d))
    return pipe, cube


def _keyed(cert: FullnessCertificate, key) -> FullnessCertificate:
    """``cert`` re-keyed by ``key(h, k)``: h = 0 for x, −1 for y, u, z."""
    def chain(h, c):
        return None if c is None else {key(h, k): v for k, v in c.items()}
    return replace(cert, x=chain(0, cert.x), y=chain(-1, cert.y),
                   u=chain(-1, cert.u), z=chain(-1, cert.z))


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def s_classical(d: OrientedLinkDiagram, char: int = 0) -> int:
    """The classical s-invariant over F (char 0 or 2); s(∅) := 1."""
    if d.component_count == 0:
        return 1
    return _diagram_pipeline(d, char)[0].s_value()


def refined_invariants(d: OrientedLinkDiagram, theta: ThetaOperation = SQ1,
                       char: int | None = None,
                       optimized: bool = True) -> RefinedSResult:
    """s^F, r₊^θ and s₊^θ with certificates for every claimed fullness.

    Each certificate is re-checked by :func:`validate_certificate` before
    the result is returned; a failure raises AssertionError naming the
    certificate, its q and the link.
    """
    if theta.kind == "sq1":
        if char not in (None, 2):
            raise ValueError("Sq¹ requires characteristic 2")
        char = 2
    elif char is None:
        char = 0
    if d.component_count == 0:
        return RefinedSResult(serialize_pd(d), 0, char, theta, 1, 1, 1,
                              {"r_plus": None, "s_plus": None})
    pipe, cube = _diagram_pipeline(d, char, optimized)
    s, r_plus, s_plus, certs = pipe.invariants(theta.kind)
    certs = {name: _keyed(cert, cube.gen_id) for name, cert in certs.items()}
    link_id = pipe.link
    del pipe, cube  # free the complexes before the validations build theirs
    for name, cert in certs.items():
        if not validate_certificate(d, cert):
            raise AssertionError(
                f"certificate re-validation failed: {name} at q={cert.q}, "
                f"h=0, for link {link_id}")
    return RefinedSResult(link_id, d.component_count, char, theta,
                          s, r_plus, s_plus, certs)


def sq1_vanishing_hypothesis(t: OrientedLinkDiagram, s: int) -> bool:
    """Sq¹: Kh^{i−1,s−1} → Kh^{i,s−1} is zero for i = 0, 1, where s is
    the 𝔽₂ s-invariant of T."""
    if t.component_count == 0:
        return True
    zsl, _ = q_slice(build_complex(t, "khovanov", "Z").complex, s - 1)
    zdec = filtered_reduce(zsl)
    return all(sq1(zdec, i).rank == 0 for i in (0, 1))


def disjoint_union_check(left: OrientedLinkDiagram,
                         right: OrientedLinkDiagram) -> DisjointUnionReport:
    """Check s₊^{Sq¹}(L ⊔ T) = s₊^{Sq¹}(L) + s₊^{Sq¹}(T) − 1.

    The additivity requires T to satisfy the Sq¹-vanishing hypothesis at
    (·, s(T)−1); if it fails, the report flags it and skips the union
    computation (the identity is not asserted by the statement then).
    """
    res_r = refined_invariants(right, SQ1)
    hyp = sq1_vanishing_hypothesis(right, res_r.s_classical)
    sp_l = refined_invariants(left, SQ1).s_plus
    sp_r = res_r.s_plus
    if not hyp:
        return DisjointUnionReport(False, None, sp_l, sp_r, None)
    union = left.disjoint_union(right)
    sp_u = refined_invariants(union, SQ1).s_plus
    return DisjointUnionReport(True, sp_u, sp_l, sp_r,
                               sp_u == sp_l + sp_r - 1)


def adjunction_bound(s0: int, chi: int, self_intersection: int,
                     class_norm: int) -> int:
    """Upper bound s0 − χ(Σ) − [Σ]² − |[Σ]| for s of the far end of a
    cobordism Σ in (S³×I) # k CP²-bar (Manolescu–Marengon–Sarkar–Willis).

    ``class_norm`` is |[Σ]|, the L1 norm of [Σ] ∈ H₂(#ᵏ CP²-bar) in the
    basis of exceptional spheres: 0 for a null-homologous Σ (the unknot's
    standard disk gives s0 = s(∅) = 1, χ = 1 and the bound 0), 1 for a
    surface in the class ±e.
    """
    if class_norm < 0:
        raise ValueError("the L1 norm |[Σ]| is nonnegative")
    return s0 - chi - self_intersection - class_norm


# ---------------------------------------------------------------------------
# Independent certificate validation
# ---------------------------------------------------------------------------


def validate_certificate(d: OrientedLinkDiagram,
                         cert: FullnessCertificate) -> bool:
    """Re-check a fullness certificate from scratch by chain arithmetic.

    Also False for a characteristic other than 0 or 2, an unknown kind, a
    kind "sq1" outside characteristic 2, a u (kinds plain and zero) or z
    (kind plain) that the kind does not read and that is not None or {},
    a level q that is not an int, a chain that is not a dict of generator
    ids, a coefficient that is not an int (over 𝔽₂) or an int or Fraction
    (over ℚ), a generator the cube does not have, or z off level q.
    """
    chains = (cert.x, cert.y, cert.u or {}, cert.z or {})
    types = int if cert.char == 2 else (int, Fraction)
    unread = {"plain": (cert.u, cert.z), "zero": (cert.u,), "sq1": ()}
    if (cert.char not in (0, 2) or cert.kind not in ("plain", "zero", "sq1")
            or (cert.kind == "sq1" and cert.char != 2)
            or any(c not in (None, {}) for c in unread[cert.kind])
            or not isinstance(cert.q, int)
            or not all(isinstance(c, dict) for c in chains)
            or not all(isinstance(k, str) and isinstance(v, types)
                       for c in chains for k, v in c.items())
            or not all(isinstance(v, types) for v in (cert.alpha, cert.beta))):
        return False
    cube = build_complex(d, *_FIELDS[cert.char])
    chains = [cube.from_gen_ids(h, c or {}) for h, c in
              ((0, cert.x), (-1, cert.y), (-1, cert.u), (-1, cert.z))]
    if None in chains:
        return False
    canon = (canonical_cycle(cube), canonical_cycle(cube, reverse=True))
    return _certificate_holds(
        cube.complex, canon, lambda: build_complex(d, "khovanov", "Z").complex,
        replace(cert, **dict(zip("xyuz", chains))))


def _certificate_holds(cx: FilteredComplex, canon: tuple[Column, Column],
                       z_source, cert: FullnessCertificate) -> bool:
    """The chain checks of :func:`validate_certificate` on a certificate
    keyed by indices of the deformed complex ``cx``, as :class:`_Pipeline`
    takes ``canon`` and ``z_source``; u and z are dicts where read."""
    is_zero = cx.ops.is_zero
    # filtration support and cycle condition for x
    lv0 = cx.levels[0]
    if any(lv0[i] < cert.q for i, v in cert.x.items() if v):
        return False
    if not is_zero(apply(cx.columns(0), cert.x)):
        return False
    # j-condition: d(y) = x − α 𝔰_𝔬 − β 𝔰_𝔬̄
    chains = [apply(cx.columns(-1), cert.y), cert.x, *canon]
    if not is_zero(apply(chains, {0: 1, 1: -1, 2: cert.alpha, 3: cert.beta})):
        return False
    if cert.kind == "plain":
        return True
    # p-condition: level-q part of x = Sq¹(u) + d_gr(z)
    xq = {i: v for i, v in cert.x.items() if lv0[i] == cert.q}
    if cert.kind == "sq1":
        cx_z = z_source()
        if any(cx_z.levels[-1][i] != cert.q for i in cert.u):
            return False
        # u must be a mod-2 cycle of the graded (Khovanov) complex
        if not linalg.GF2.is_zero(apply(cx_z.columns(-1), cert.u)):
            return False
        w = bockstein_chain(cx_z, -1, cert.u)
        for i, v in w.items():
            xq[i] = xq.get(i, 0) - v
    gcx, gkeep = q_slice(cx, cert.q, (-1, 0))
    gpos = {g: k for k, g in enumerate(gkeep.get(0, []))}
    posm1 = {g: k for k, g in enumerate(gkeep.get(-1, []))}
    if any(i not in posm1 for i in cert.z):
        return False
    acc = apply(gcx.columns(-1), {posm1[i]: v for i, v in cert.z.items()})
    for i, v in xq.items():
        if v and i not in gpos:
            return False
        if i in gpos:
            acc[gpos[i]] = acc.get(gpos[i], 0) - v
    return is_zero(acc)
